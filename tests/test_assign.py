import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from refclass import assign, engine
from refclass.assign import (DEFAULT_THRESHOLDS, PruneConfig, prune_blocks,
                             prune_classification)

from conftest import WIDE, from_vectors, prune_vector, vec_sum
from test_reference_equality import (TIES_PAST_THE_CAP, WIDE_TIES, paper_sets,
                                     vectors as ranked_vectors, wide_vectors)


class TestPrune:
    def test_singleton_is_identity(self):
        for t in DEFAULT_THRESHOLDS:
            assert prune_vector({3: 1.0}, PruneConfig(t)) == {3: 1.0}

    def test_ratio_rule_hand_example(self):
        # 0.3 >= 0.5*0.6 keeps it; 0.1 < 0.5*0.3 stops
        out = prune_vector({0: 0.6, 1: 0.3, 2: 0.1}, PruneConfig(0.5))
        assert out == {0: pytest.approx(2 / 3), 1: pytest.approx(1 / 3)}

    def test_cap_at_five_with_code_tie_break(self):
        vec = {i: 1 / 6 for i in range(6)}
        out = prune_vector(vec, PruneConfig(0.8))
        assert set(out) == {0, 1, 2, 3, 4}
        assert all(w == pytest.approx(0.2) for w in out.values())

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            prune_vector({}, PruneConfig(0.5))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PruneConfig(0.0)
        with pytest.raises(ValueError):
            PruneConfig(1.5)


def vectors():
    return st.dictionaries(
        st.integers(0, 11),
        st.floats(1e-6, 1.0, allow_nan=False),
        min_size=1, max_size=8,
    ).map(lambda d: {k: v / math.fsum(d.values()) for k, v in d.items()})


class TestProperties:
    @given(vectors(), st.sampled_from(DEFAULT_THRESHOLDS))
    def test_output_bounded_and_normalized(self, vec, t):
        out = prune_vector(vec, PruneConfig(t))
        assert 1 <= len(out) <= 5
        assert abs(vec_sum(out) - 1.0) <= 1e-9

    @given(vectors(), st.sampled_from(DEFAULT_THRESHOLDS),
           st.sampled_from(DEFAULT_THRESHOLDS))
    def test_monotone_in_threshold(self, vec, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert set(prune_vector(vec, PruneConfig(hi))) <= set(prune_vector(vec, PruneConfig(lo)))

    @given(vectors(), st.sampled_from(DEFAULT_THRESHOLDS))
    def test_idempotent(self, vec, t):
        cfg = PruneConfig(t)
        once = prune_vector(vec, cfg)
        twice = prune_vector(once, cfg)
        assert set(once) == set(twice)
        assert all(abs(once[k] - twice[k]) <= 1e-12 for k in once)

    @given(vectors(), st.sampled_from(DEFAULT_THRESHOLDS))
    def test_kept_set_is_rank_prefix(self, vec, t):
        out = prune_vector(vec, PruneConfig(t))
        ranked = sorted(vec.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [k for k, _ in ranked[:len(out)]] == sorted(
            out, key=lambda k: (-vec[k], k))


class TestPruneClassification:
    def test_singletons_unchanged(self):
        c = from_vectors("JL-NF", {"p1": {0: 1.0}, "p2": {3: 1.0}}, WIDE)
        out = prune_classification(c, PruneConfig(0.8))
        assert out.vectors == c.vectors
        assert out.variant_label == "JL-NF-0.8"

    def test_label_extension(self):
        c = from_vectors("U1-F", {"p": {0: 1.0}}, WIDE)
        assert prune_classification(c, PruneConfig(0.67)).variant_label == "U1-F-0.67"

    @pytest.mark.parametrize("vector", [{0: math.nan, 1: 0.5, 2: 0.4}, {0: -1.0, 1: 0.5},
                                        {0: math.inf, 1: 1.0}])
    def test_weight_not_positive_and_finite_is_rejected(self, vector):
        c = from_vectors("U1-F", {"p1": {0: 1.0}, "p2": vector}, WIDE)
        with pytest.raises(ValueError, match="paper p2: weight .* is not positive and finite"):
            prune_classification(c, PruneConfig(0.5))

    def test_weight_check_names_the_paper_of_a_later_block(self):
        c = from_vectors("U1-F", {"p1": {0: 1.0}, "p2": {0: 0.5}, "p3": {1: -1.0}},
                         WIDE)
        blocks = [c.weights[:2], c.weights[2:]]
        with pytest.raises(ValueError, match="paper p3: weight .* is not positive"):
            prune_blocks(blocks, c.paper_ids, [PruneConfig(0.5)])


@given(paper_sets(st.one_of(ranked_vectors(), wide_vectors())),
       st.lists(st.sampled_from(DEFAULT_THRESHOLDS), min_size=1, max_size=4),
       st.sets(st.integers(1, 11)))
@example(TIES_PAST_THE_CAP, list(DEFAULT_THRESHOLDS), set())
@example(WIDE_TIES, list(DEFAULT_THRESHOLDS), {1})
@example(WIDE_TIES, [0.8, 0.5], set())
def test_one_ranking_for_every_threshold_equals_one_prune_each(vecs, thresholds, cuts):
    # rows of 1-285 entries, many tied across ranks three to eight, cut into
    # consecutive row blocks: each block is ranked once for all thresholds,
    # and every threshold's rows are those of a prune at that threshold alone,
    # bit for bit
    c = from_vectors("U1-F", vecs, WIDE)
    bounds = [0, *sorted(cut for cut in cuts if cut < len(vecs)), len(vecs)]
    configs = [PruneConfig(t) for t in thresholds]
    out = prune_blocks((c.weights[lo:hi] for lo, hi in zip(bounds, bounds[1:])),
                       c.paper_ids, configs)
    assert len(out) == len(configs)
    for config, weights in zip(configs, out):
        alone = prune_classification(c, config).weights
        assert weights.shape == alone.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(weights, part), getattr(alone, part)), part


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 1.0]),
                         min_size=1, max_size=9), max_size=12),
       st.sampled_from([1, 7, 20, engine._BLOCK_ENTRIES]))
def test_weight_order_limit_is_a_prefix_of_the_full_ranking(rows, budget):
    # rows with many equal weights, row-length groups ranked in blocks of at
    # most ``budget`` entries: the full ranking follows (descending weight,
    # column), and a cut row keeps exactly its first ``limit`` places, ties
    # at the cut going to the lowest columns
    m = from_vectors(
        "U1-F", {f"p{i:02d}": dict(enumerate(row)) for i, row in enumerate(rows)},
        9).weights
    with mock.patch.object(engine, "_BLOCK_ENTRIES", budget):
        full, indptr = engine.weight_order(m)
        assert np.array_equal(indptr, m.indptr)
        for i, row in enumerate(rows):
            lo, hi = indptr[i], indptr[i + 1]
            assert (full[lo:hi] - lo).tolist() == sorted(range(len(row)),
                                                         key=lambda j: (-row[j], j))
        for limit in (1, assign.MAX_CATEGORIES, None):
            order, cut = engine.weight_order(m, limit)
            assert [order[a:b].tolist() for a, b in zip(cut[:-1], cut[1:])] == [
                full[a:b][:limit].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
