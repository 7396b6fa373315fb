import math

import pytest
from hypothesis import given, strategies as st

from refclass.assign import DEFAULT_THRESHOLDS, PruneConfig, prune_classification
from refclass.engine import Classification

from conftest import prune_vector, vec_sum


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
        c = Classification.from_vectors("JL-NF", {"p1": {0: 1.0}, "p2": {3: 1.0}})
        out = prune_classification(c, PruneConfig(0.8))
        assert out.vectors == c.vectors
        assert out.variant_label == "JL-NF-0.8"

    def test_label_extension(self):
        c = Classification.from_vectors("U1-F", {"p": {0: 1.0}})
        assert prune_classification(c, PruneConfig(0.67)).variant_label == "U1-F-0.67"
