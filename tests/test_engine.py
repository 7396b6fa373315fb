import numpy as np
import pytest
import scipy.sparse as sp

from refclass.corpus import CorpusError
from refclass.engine import (Classification, EngineConfig, EngineError,
                             _accumulate_matrix, _propagate_matrix,
                             read_classification, run, write_classification)
from refclass.oracle import dense_run, max_component_difference

from conftest import MALFORMED_TABLES, build_corpus, build_scheme, vec_sum


def approx_vec(vec, expected, tol=1e-12):
    assert set(vec) == set(expected)
    for k, v in expected.items():
        assert vec[k] == pytest.approx(v, abs=tol)


def two_cat_corpus(papers):
    scheme = build_scheme([(1102, 1100), (1103, 1100)])
    journals = {"JA": [(1102, 1.0)], "JB": [(1103, 1.0)]}
    return build_corpus(scheme, journals, papers)


class TestConfig:
    def test_defaults_carry_the_stopping_constants(self):
        cfg = EngineConfig()
        assert cfg.per_paper_threshold == pytest.approx(9.243e-4)
        assert cfg.effective_threshold(3_246_022) == pytest.approx(3000.0, rel=1e-3)
        assert cfg.max_iterations == 50

    def test_exactly_one_threshold(self):
        with pytest.raises(EngineError):
            EngineConfig(convergence_threshold=3000.0,
                         per_paper_threshold=1e-3)
        with pytest.raises(EngineError):
            EngineConfig(convergence_threshold=None, per_paper_threshold=None)


def csr(rows):
    return sp.csr_matrix(np.array(rows, dtype=float))


def row_vectors(m):
    """Nonzero entries of each row of a sparse matrix as {column: value} dicts."""
    m = m.tocsr()
    m.sort_indices()
    return [{int(c): float(w)
             for c, w in zip(m.indices[lo:hi], m.data[lo:hi]) if w != 0.0}
            for lo, hi in zip(m.indptr, m.indptr[1:])]


class TestAccumulate:
    """_accumulate_matrix: references x categories from citing-paper rows."""

    def test_single_citer_fixed_point(self):
        # p1 (1, 0) cites r1
        refs = _accumulate_matrix(csr([[1]]).T.tocsr(), csr([[1, 0]]))
        assert row_vectors(refs) == [{0: 1.0}]

    def test_symmetric_citers(self):
        # p1 (1, 0) and p2 (0, 1) both cite r1
        refs = _accumulate_matrix(csr([[1], [1]]).T.tocsr(), csr([[1, 0], [0, 1]]))
        approx_vec(row_vectors(refs)[0], {0: 0.5, 1: 0.5})

    def test_fractional_divides_by_ref_count(self):
        # A: (1,0) with 1 ref; B: (0,1) with 4 refs -> (1, 0.25) -> (0.8, 0.2)
        incidence = csr([[1, 0, 0, 0], [1, 1, 1, 1]])
        refs = _accumulate_matrix(incidence.T.tocsr(), csr([[1, 0], [0, 1]]),
                                  np.array([1.0, 0.25]))
        approx_vec(row_vectors(refs)[0], {0: 0.8, 1: 0.2})

    def test_out_of_scope_reference_absent(self):
        # only p1 (citing r1) is in scope; r2 gets no weight at all
        refs = _accumulate_matrix(csr([[1, 0]]).T.tocsr(), csr([[1, 0]]))
        assert row_vectors(refs) == [{0: 1.0}, {}]


class TestPropagate:
    """_propagate_matrix: paper rows from cited reference rows."""

    def test_singleton_support_forces_fixed_point(self):
        out, zero = _propagate_matrix(csr([[1, 1]]), csr([[0, 1, 0], [0.5, 0, 0.5]]),
                                      csr([[1, 0, 0]]), mask=csr([[1, 0, 0]]))
        assert row_vectors(out) == [{0: 1.0}]
        assert not zero.any()

    def test_masked_sum_renormalizes(self):
        # support {c0,c1}; refs (c0:0.5, c2:0.5) and (c1:1.0) -> (1/3, 2/3)
        out, _ = _propagate_matrix(csr([[1, 1]]), csr([[0.5, 0, 0.5], [0, 1, 0]]),
                                   csr([[0.5, 0.5, 0]]), mask=csr([[1, 1, 0]]))
        approx_vec(row_vectors(out)[0], {0: 1 / 3, 1: 2 / 3})

    def test_disjoint_support_stalls_and_keeps_previous(self):
        out, zero = _propagate_matrix(csr([[1]]), csr([[0, 0, 1]]),
                                      csr([[1, 0, 0]]), mask=csr([[1, 0, 0]]))
        assert row_vectors(out) == [{0: 1.0}]
        assert zero.tolist() == [True]

    def test_unlimited_single_ref(self):
        out, _ = _propagate_matrix(csr([[1]]), csr([[0, 0.25, 0.75]]), csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {1: 0.25, 2: 0.75})

    def test_unlimited_symmetric_pair(self):
        out, _ = _propagate_matrix(csr([[1, 1]]), csr([[1, 0, 0], [0, 1, 0]]),
                                   csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {0: 0.5, 1: 0.5})

    def test_unlimited_three_refs(self):
        # (0.5,0.5,0)+(1,0,0)+(0,0,1) = (1.5,0.5,1) -> (0.5, 1/6, 1/3)
        out, _ = _propagate_matrix(csr([[1, 1, 1]]),
                                   csr([[0.5, 0.5, 0], [1, 0, 0], [0, 0, 1]]),
                                   csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {0: 0.5, 1: 1 / 6, 2: 1 / 3})


class TestResidual:
    """residual_trace[0]: total squared change of the first JL iteration."""

    def test_fixed_point_has_zero_residual(self):
        corpus = two_cat_corpus({"p1": ("JA", ["r1", "r2", "r3"]),
                                 "p2": ("JB", ["r4", "r5", "r6"])})
        jl, _ = run(corpus, EngineConfig())
        assert jl.residual_trace == [0.0]

    def test_first_residual_by_hand(self):
        # r1..r3 are cited by p1 (0.5, 0.5) and p2 (1, 0): each is (0.75, 0.25),
        # so p1 moves by (0.25, -0.25) and p2 stays put -> 2 * 0.25^2
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        journals = {"JA": [(1102, 1.0)], "JAB": [(1102, 1.0), (1103, 1.0)]}
        corpus = build_corpus(scheme, journals, {"p1": ("JAB", ["r1", "r2", "r3"]),
                                                 "p2": ("JA", ["r1", "r2", "r3"])})
        jl, _ = run(corpus, EngineConfig(max_iterations=1))
        assert jl.residual_trace[0] == 0.125
        assert jl.vectors["p1"] == {0: 0.75, 1: 0.25}


class TestRun:
    def test_self_consistent_fixed_point(self):
        corpus = two_cat_corpus({"p1": ("JA", ["r1", "r2", "r3"])})
        jl, u1 = run(corpus, EngineConfig())
        assert jl.iterations_run == 1
        assert jl.converged
        assert jl.vectors["p1"] == {0: 1.0}
        assert u1.vectors["p1"] == {0: 1.0}

    def test_ineligible_paper_stays_frozen_but_cites(self):
        corpus = two_cat_corpus({
            "p1": ("JA", ["r1", "r2", "r3"]),
            "p2": ("JB", ["r1"]),  # below min_refs
        })
        jl, u1 = run(corpus, EngineConfig())
        assert "p2" not in jl.vectors
        assert jl.unreclassified == frozenset({"p2"})
        incidence, w0, _ = corpus.matrices()
        refs = _accumulate_matrix(incidence.T.tocsr(), w0)
        r1 = corpus.ref_ids.index("r1")
        assert refs[r1, 1] > 0  # the short paper still contributed to r1

    def test_exclude_ineligible_citers_switch(self):
        corpus = two_cat_corpus({
            "p1": ("JA", ["r1", "r2", "r3"]),
            "p2": ("JB", ["r1"]),
        })
        _, u1_in = run(corpus, EngineConfig(include_ineligible_citers=True))
        _, u1_out = run(corpus, EngineConfig(include_ineligible_citers=False))
        # with p2 in scope r1 carries weight on category 1; without it, not
        assert 1 in u1_in.vectors["p1"]
        assert 1 not in u1_out.vectors["p1"]

    def test_five_paper_corpus_matches_dense_oracle(self):
        scheme = build_scheme([(1102, 1100), (1103, 1100), (1104, 1100)])
        journals = {"J1": [(1102, 1.0)], "J23": [(1103, 1.0), (1104, 2.0)],
                    "J13": [(1102, 1.0), (1104, 1.0)]}
        papers = {
            "p1": ("J1", ["a", "b", "c"]),
            "p2": ("J23", ["a", "c", "d"]),
            "p3": ("J13", ["b", "d", "e", "a"]),
            "p4": ("J23", ["e", "e", "b"]),
            "p5": ("J1", ["d", "c", "a", "b"]),
        }
        corpus = build_corpus(scheme, journals, papers)
        for fractional in (False, True):
            cfg = EngineConfig(fractional=fractional)
            jl, u1 = run(corpus, cfg)
            oracle_jl, oracle_u1 = dense_run(corpus, cfg)
            assert max_component_difference(jl.vectors, oracle_jl) <= 1e-12
            assert max_component_difference(u1.vectors, oracle_u1) <= 1e-12

    def test_jl_support_subset_of_journal_support(self):
        scheme = build_scheme([(1102, 1100), (1103, 1100), (1104, 1100)])
        journals = {"J12": [(1102, 1.0), (1103, 1.0)], "J3": [(1104, 1.0)]}
        papers = {
            "p1": ("J12", ["a", "b", "c"]),
            "p2": ("J3", ["a", "b", "d"]),
            "p3": ("J12", ["c", "d", "a"]),
        }
        corpus = build_corpus(scheme, journals, papers)
        jl, _ = run(corpus, EngineConfig())
        journal_support = {"J12": {0, 1}, "J3": {2}}
        for pid, vec in jl.vectors.items():
            assert set(vec) <= journal_support[papers[pid][0]]

    def test_vectors_stay_normalized(self):
        corpus = two_cat_corpus({
            "p1": ("JA", ["a", "b", "c"]),
            "p2": ("JB", ["a", "b", "d"]),
            "p3": ("JA", ["c", "d", "a"]),
        })
        for c in run(corpus, EngineConfig()):
            for vec in c.vectors.values():
                assert abs(vec_sum(vec) - 1.0) <= 1e-9

    def test_non_convergence_is_reported_not_fatal(self):
        scheme = build_scheme([(1102, 1100), (1103, 1100), (1104, 1100)])
        journals = {"J12": [(1102, 1.0), (1103, 1.0)], "J1": [(1102, 1.0)],
                    "J23": [(1103, 1.0), (1104, 1.0)]}
        corpus = build_corpus(scheme, journals, {
            "p1": ("J1", ["a", "b", "c"]),
            "p2": ("J12", ["a", "c", "d"]),
            "p3": ("J23", ["b", "d", "e"]),
            "p4": ("J12", ["e", "a", "d"]),
        })
        cfg = EngineConfig(per_paper_threshold=1e-30, max_iterations=2)
        jl, u1 = run(corpus, cfg)
        assert not jl.converged
        assert jl.iterations_run == 2
        assert jl.vectors and u1.vectors


class TestClassificationIO:
    def test_round_trip(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = Classification.from_vectors(
            "JL-NF", {"p1": {0: 0.75, 1: 0.25}, "p2": {1: 1.0}},
            frozenset({"p3"}), iterations_run=4,
            residual_trace=[1.0, 0.1], converged=True, stalled=0)
        path = tmp_path / "JL-NF.csv"
        write_classification(c, scheme, path)
        back = read_classification(path, scheme)
        assert back.vectors == c.vectors
        assert back.variant_label == "JL-NF"
        assert back.residual_trace == [1.0, 0.1]

    def test_sorted_by_descending_weight(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = Classification.from_vectors("U1-F", {"p1": {0: 0.25, 1: 0.75}})
        path = tmp_path / "U1-F.csv"
        write_classification(c, scheme, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "paper_id,category_code,weight"
        assert lines[1].startswith("p1,1103,")
        assert lines[2].startswith("p1,1102,")

    def test_writes_are_byte_stable(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = Classification.from_vectors("JL-F", {"p1": {0: 1 / 3, 1: 2 / 3}})
        write_classification(c, scheme, tmp_path / "a.csv")
        write_classification(c, scheme, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_read_classification_rejects_malformed_row(tmp_path, case):
    body, line, field = MALFORMED_TABLES[case]
    path = tmp_path / "x.csv"
    path.write_text("paper_id,category_code,weight\n" + body)
    scheme = build_scheme([(1102, 1100), (1103, 1100)])
    with pytest.raises(CorpusError) as err:
        read_classification(path, scheme)
    assert f"{path}, line {line}: " in str(err.value)
    assert field in str(err.value)
