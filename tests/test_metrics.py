import math

import numpy as np
import pytest

from refclass import metrics
from refclass.corpus import CorpusError
from refclass.engine import on_index
from refclass.metrics import (area_aggregate, area_flow, assignment_histogram,
                              category_correlation, category_sizes,
                              coincidence_percentage, granularity,
                              rank_metrics, refs_per_paper_acv,
                              same_area_retention, size_cv)
from refclass.report import write_report

from conftest import build_corpus, build_scheme, from_vectors

SCHEME = build_scheme(
    [(1102, 1100), (1103, 1100), (1104, 1100), (1202, 1200), (1203, 1200)],
    misc={1100: 1101})


def classification(vectors, label="X"):
    return from_vectors(label, vectors, SCHEME.size)


class TestSizes:
    def test_all_in_one_category(self):
        c = classification({f"p{i}": {0: 1.0} for i in range(4)})
        assert category_sizes(c) == {0: 4.0}

    def test_even_split(self):
        c = classification({"p1": {0: 0.5, 1: 0.5}, "p2": {0: 0.5, 1: 0.5}})
        assert category_sizes(c) == {0: 1.0, 1: 1.0}

    def test_sizes_sum_to_paper_count(self):
        c = classification({"p1": {0: 0.2, 2: 0.8}, "p2": {1: 1.0},
                            "p3": {0: 0.6, 3: 0.4}})
        assert math.fsum(category_sizes(c).values()) == pytest.approx(3.0)


class TestGranularity:
    def test_single_category(self):
        c = classification({f"p{i}": {0: 1.0} for i in range(7)})
        assert granularity(c) == pytest.approx(1 / 7)

    def test_uniform_spread(self):
        # N=6 papers over K=3 categories -> K/N
        c = classification({f"p{i}": {i % 3: 1.0} for i in range(6)})
        assert granularity(c) == pytest.approx(3 / 6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            granularity(classification({}))


class TestSizeCv:
    def test_equal_sizes(self):
        c = classification({"p1": {0: 1.0}, "p2": {1: 1.0}})
        assert size_cv(c) == pytest.approx(0.0)

    def test_one_three_split(self):
        c = classification({"p1": {0: 1.0}, "p2": {1: 1.0},
                            "p3": {1: 1.0}, "p4": {1: 1.0}})
        assert size_cv(c) == pytest.approx(0.5)


class TestRefsAcv:
    def make_corpus(self, ref_counts):
        journals = {"J": [(1102, 1.0)]}
        papers = {f"p{i}": ("J", [f"r{i}_{j}" for j in range(n)])
                  for i, n in enumerate(ref_counts)}
        return build_corpus(SCHEME, journals, papers)

    def test_identical_counts_give_zero(self):
        corpus = self.make_corpus([4, 4, 4])
        c = classification({p: {0: 1.0} for p in corpus.paper_ids})
        assert refs_per_paper_acv(
            c, corpus.ref_counts[on_index(c, corpus.paper_ids).rows]) == pytest.approx(0.0)

    def test_counts_two_and_four(self):
        corpus = self.make_corpus([2, 4])
        c = classification({p: {0: 1.0} for p in corpus.paper_ids})
        assert refs_per_paper_acv(
            c, corpus.ref_counts[on_index(c, corpus.paper_ids).rows]) == pytest.approx(1 / 3)

    def test_no_category_with_positive_mean_count_is_nan(self):
        corpus = self.make_corpus([0, 0])
        c = classification({p: {0: 1.0} for p in corpus.paper_ids})
        assert math.isnan(refs_per_paper_acv(
            c, corpus.ref_counts[on_index(c, corpus.paper_ids).rows]))

    def test_fractional_membership_matches_brute_force(self):
        corpus = self.make_corpus([2, 5, 9])
        c = classification({"p0": {0: 0.3, 1: 0.7}, "p1": {0: 1.0},
                            "p2": {1: 0.4, 2: 0.6}})
        counts = {"p0": 2, "p1": 5, "p2": 9}
        cvs = []
        for cat in (0, 1, 2):
            w = np.array([c.vectors[p].get(cat, 0.0) for p in sorted(counts)])
            n = np.array([counts[p] for p in sorted(counts)])
            if w.sum() == 0:
                continue
            mean = float((w * n).sum() / w.sum())
            var = float((w * (n - mean) ** 2).sum() / w.sum())
            cvs.append(math.sqrt(var) / mean)
        assert refs_per_paper_acv(c, corpus.ref_counts[on_index(c, corpus.paper_ids).rows]) \
            == pytest.approx(np.mean(cvs), abs=1e-12)



class TestCoincidence:
    def test_equal_is_hundred(self):
        a = classification({"p": {0: 0.5, 1: 0.5}})
        assert coincidence_percentage(a, a) == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        a = classification({"p": {0: 1.0}})
        b = classification({"p": {1: 1.0}})
        assert coincidence_percentage(a, b) == pytest.approx(0.0)

    def test_half_overlap(self):
        a = classification({"p": {0: 0.5, 1: 0.5}})
        b = classification({"p": {0: 1.0}})
        assert coincidence_percentage(a, b) == pytest.approx(50.0)

    def test_symmetric(self):
        a = classification({"p": {0: 0.7, 2: 0.3}, "q": {1: 1.0}})
        b = classification({"p": {0: 0.2, 1: 0.8}, "q": {1: 0.5, 3: 0.5}})
        assert coincidence_percentage(a, b) == pytest.approx(
            coincidence_percentage(b, a))


class TestRankMetrics:
    def test_identical_singletons(self):
        a = classification({"p": {0: 1.0}, "q": {2: 1.0}})
        ab, ba = rank_metrics(a, a)
        assert ab.avg_rank == 1.0 and ab.missing == 0
        assert ba.avg_rank == 1.0 and ba.missing == 0

    def test_winner_absent_counts_missing(self):
        a = classification({"p": {0: 1.0}, "q": {0: 1.0}})
        b = classification({"p": {1: 1.0}, "q": {2: 1.0}})
        ab, _ = rank_metrics(a, b)
        assert ab.missing == 2
        assert math.isnan(ab.avg_rank)

    def test_hand_enumeration(self):
        a = classification({"p": {0: 0.9, 1: 0.1}, "q": {1: 0.6, 2: 0.4}})
        b = classification({"p": {1: 0.7, 0: 0.3}, "q": {2: 1.0}})
        ab, ba = rank_metrics(a, b)
        # winners of a: p->0 (rank 2 in b), q->1 (absent in b)
        assert ab.avg_rank == pytest.approx(2.0)
        assert ab.missing == 1
        # winners of b: p->1 (rank 2 in a), q->2 (rank 2 in a)
        assert ba.avg_rank == pytest.approx(2.0)
        assert ba.missing == 0


class TestHistogram:
    def test_all_singletons(self):
        c = classification({"p": {0: 1.0}, "q": {1: 1.0}})
        hist = assignment_histogram(c)
        assert hist.average == pytest.approx(1.0)
        assert hist.percentages["1"] == pytest.approx(100.0)

    def test_mixed_sizes(self):
        c = classification({"p": {0: 1.0}, "q": {0: 0.4, 1: 0.3, 2: 0.3}})
        hist = assignment_histogram(c)
        assert hist.total_assignments == 4
        assert hist.average == pytest.approx(2.0)
        assert hist.percentages["3"] == pytest.approx(50.0)


class TestCorrelation:
    def test_self_correlation(self):
        c = classification({"p": {0: 0.5, 1: 0.5}, "q": {2: 1.0}})
        assert category_correlation(c, c) == pytest.approx(1.0)

    def test_scaled_sizes_fully_correlated(self):
        a = classification({"p": {0: 0.5, 1: 0.5}})
        b = classification({"p": {0: 0.5, 1: 0.5}, "q": {0: 0.5, 1: 0.5}})
        assert category_correlation(a, b) == pytest.approx(1.0)

    def test_matches_numpy_pearson(self):
        a = classification({"p": {0: 0.9, 3: 0.1}, "q": {1: 1.0}})
        b = classification({"p": {0: 0.2, 2: 0.8}, "q": {1: 0.5, 4: 0.5}})
        xa = np.zeros(SCHEME.size)
        xb = np.zeros(SCHEME.size)
        for idx, s in category_sizes(a).items():
            xa[idx] = s
        for idx, s in category_sizes(b).items():
            xb[idx] = s
        expected = float(np.corrcoef(xa, xb)[0, 1])
        assert category_correlation(a, b) == pytest.approx(expected)


class TestAreas:
    def test_single_area_is_hundred(self):
        c = classification({"p": {0: 0.5, 1: 0.5}})
        agg = area_aggregate(c, SCHEME)
        assert agg[1100] == pytest.approx(100.0)
        assert agg[1200] == pytest.approx(0.0)

    def test_even_split(self):
        c = classification({"p": {0: 0.5, 3: 0.5}})
        agg = area_aggregate(c, SCHEME)
        assert agg[1100] == pytest.approx(50.0)
        assert agg[1200] == pytest.approx(50.0)


class TestAreaFlow:
    def test_single_area_diagonal(self):
        c = classification({"p": {0: 1.0}, "q": {3: 1.0}})
        areas, flow = area_flow(c, c, SCHEME)
        assert areas == [1100, 1200]
        np.testing.assert_allclose(flow, np.diag([1.0, 1.0]))

    def test_full_move_off_diagonal(self):
        origin = classification({"p": {0: 1.0}})
        result = classification({"p": {3: 1.0}})
        _, flow = area_flow(origin, result, SCHEME)
        np.testing.assert_allclose(flow, [[0.0, 1.0], [0.0, 0.0]])

    def test_row_sums_and_total(self):
        origin = classification({"p": {0: 0.6, 3: 0.4}, "q": {1: 1.0}})
        result = classification({"p": {2: 0.5, 4: 0.5}, "q": {0: 0.3, 3: 0.7}})
        _, flow = area_flow(origin, result, SCHEME)
        origin_mass = np.array([0.6 + 1.0, 0.4])
        np.testing.assert_allclose(flow.sum(axis=1), origin_mass, atol=1e-9)
        assert flow.sum() == pytest.approx(2.0)


class TestRetention:
    def test_result_inside_area(self):
        result = classification({"p": {0: 1.0}})
        assert same_area_retention(np.array([1100]), result, SCHEME) == {1100: 100.0}

    def test_result_outside_area(self):
        result = classification({"p": {3: 1.0}})
        assert same_area_retention(np.array([1100]), result, SCHEME) == {1100: 0.0}

    def test_partial_weight(self):
        result = classification({"p": {0: 0.25, 3: 0.75}})
        out = same_area_retention(np.array([1100]), result, SCHEME)
        assert out[1100] == pytest.approx(25.0)

    def test_rows_without_home_area_are_left_out(self):
        result = classification({"p": {0: 0.5, 3: 0.5}, "q": {3: 1.0}, "r": {1: 1.0},
                                 "s": {4: 1.0}})
        out = same_area_retention(np.array([1100, -1, 1100, 1200]), result, SCHEME)
        assert out == {1100: 75.0, 1200: 100.0}


class TestWidths:
    PAIRWISE = (coincidence_percentage, rank_metrics, category_correlation,
                lambda a, b: area_flow(a, b, SCHEME))

    @pytest.mark.parametrize("metric", range(len(PAIRWISE)))
    def test_different_widths_are_an_error_that_names_both(self, metric):
        a = classification({"p": {0: 1.0}}, "a")
        b = from_vectors("b", {"p": {0: 1.0}}, SCHEME.size - 1)
        with pytest.raises(ValueError, match="a has 5 categories and b has 4"):
            self.PAIRWISE[metric](a, b)

    def test_different_widths_are_an_error_of_the_report(self, tmp_path):
        cs = {"a": classification({"p": {0: 1.0}}, "a"),
              "b": from_vectors("b", {"q": {0: 1.0}}, SCHEME.size - 1)}
        with pytest.raises(ValueError, match="a has 5 categories and b has 4"):
            write_report(tmp_path, cs, SCHEME, origin="a")


def test_formula_versions_declared():
    assert set(metrics.FORMULA_VERSIONS) == {"coincidence", "prune", "area_flow"}


class TestWriteReport:
    def test_flow_tables_from_the_origin(self, tmp_path):
        cs = {"a": classification({"p": {0: 1.0}}), "b": classification({"p": {3: 1.0}})}
        written = write_report(tmp_path, cs, SCHEME, origin="a")
        assert "flow_a_to_b.csv" in written

    def test_pair_without_common_papers_gets_no_row_and_no_flow(self, tmp_path):
        cs = {"a": classification({"p": {0: 1.0}}), "b": classification({"q": {3: 1.0}}),
              "c": classification({"p": {3: 1.0}, "q": {0: 1.0}})}
        written = write_report(tmp_path, cs, SCHEME, origin="a")
        assert written == ["structure.csv", "pairwise.csv", "areas.csv", "flow_a_to_c.csv"]
        rows = (tmp_path / "pairwise.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["a", "c"], ["b", "c"]]

    def test_no_pair_with_common_papers_writes_no_pairwise_table(self, tmp_path):
        cs = {"a": classification({"p": {0: 1.0}}), "b": classification({"q": {3: 1.0}})}
        assert write_report(tmp_path, cs, SCHEME, origin="a") == ["structure.csv",
                                                                   "areas.csv"]
        assert not (tmp_path / "pairwise.csv").exists()

    def test_classifications_are_placed_on_the_corpus_index(self, tmp_path):
        # tables on indexes of their own, as read_classification returns them:
        # the reference counts are those of their papers' corpus rows
        corpus = TestRefsAcv().make_corpus([2, 4, 9])
        cs = {"a": classification({"p1": {0: 1.0}, "p2": {0: 1.0}}, "a"),
              "b": classification({"p0": {0: 1.0}, "p1": {0: 1.0}}, "b")}
        write_report(tmp_path, cs, SCHEME, corpus=corpus)
        assert (tmp_path / "acv.csv").read_text().splitlines()[1:] == [
            f"a,{refs_per_paper_acv(cs['a'], np.array([4, 9]))}",
            f"b,{refs_per_paper_acv(cs['b'], np.array([2, 4]))}"]
        cs["c"] = classification({"p3": {0: 1.0}}, "c")
        with pytest.raises(CorpusError, match="^paper_id p3 is not in the corpus$"):
            write_report(tmp_path / "again", cs, SCHEME, corpus=corpus)

    def test_unknown_origin_is_an_error(self, tmp_path):
        cs = {"a": classification({"p": {0: 1.0}}), "b": classification({"p": {3: 1.0}})}
        with pytest.raises(ValueError, match="origin 'typo' is not one of"):
            write_report(tmp_path / "report", cs, SCHEME, origin="typo")
        assert not (tmp_path / "report").exists()
