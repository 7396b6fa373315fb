"""The matrix prune and pairwise metrics against their per-paper dict references.

The references below are the dict-of-dicts loops the library used before
classifications became CSR matrices.  Prune output and rank statistics
must match them exactly; coincidence and area flow add in a different
order, so they must agree within REL_TOL (fixed before the matrix code was
written: a few ulps of a sum of at most a few hundred doubles).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, strategies as st

from refclass.assign import (DEFAULT_THRESHOLDS, MAX_CATEGORIES, PruneConfig,
                             prune_classification)
from refclass.metrics import area_flow, coincidence_percentage, rank_metrics

from conftest import WIDE, build_scheme, from_vectors

REL_TOL = 1e-12
_RATIO_EPS = 1e-12

SCHEME = build_scheme([(1102, 1100), (1103, 1100), (1104, 1100), (1105, 1100),
                       (1202, 1200), (1203, 1200), (1204, 1200), (1302, 1300)])
K = SCHEME.size


# ---------------------------------------------------------------------------
# references

def reference_prune(vector, config):
    ranked = sorted(vector.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [ranked[0]]
    for idx, w in ranked[1:]:
        if len(kept) >= MAX_CATEGORIES:
            break
        if w >= config.threshold * kept[-1][1] * (1.0 - _RATIO_EPS):
            kept.append((idx, w))
        else:
            break
    total = math.fsum(w for _, w in kept)
    return {idx: w / total for idx, w in kept}


def reference_coincidence(a, b):
    common = sorted(set(a) & set(b))
    total = math.fsum(
        math.fsum(min(a[p].get(c, 0.0), b[p].get(c, 0.0))
                  for c in set(a[p]) | set(b[p]))
        for p in common)
    return 100.0 * total / len(common)


def _winner(vec):
    return min(vec.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def _rank_in(vec, idx):
    order = sorted(vec.items(), key=lambda kv: (-kv[1], kv[0]))
    for pos, (c, _) in enumerate(order, start=1):
        if c == idx:
            return pos
    return None


def reference_ranks(src, dst):
    common = sorted(set(src) & set(dst))
    ranks, missing = [], 0
    for pid in common:
        rank = _rank_in(dst[pid], _winner(src[pid]))
        if rank is None:
            missing += 1
        else:
            ranks.append(rank)
    return (float(np.mean(ranks)) if ranks else float("nan")), missing, len(common)


def reference_flow(origin, result):
    areas = list(SCHEME.area_codes)
    position = {a: i for i, a in enumerate(areas)}

    def area_vector(vec):
        out = np.zeros(len(areas))
        for idx, w in vec.items():
            out[position[SCHEME.area_of_index(idx)]] += w
        return out

    flow = np.zeros((len(areas), len(areas)))
    for pid in sorted(set(origin) & set(result)):
        flow += np.outer(area_vector(origin[pid]), area_vector(result[pid]))
    return flow


# ---------------------------------------------------------------------------
# generated classifications

THRESHOLDS = st.sampled_from(DEFAULT_THRESHOLDS)


@st.composite
def vectors(draw):
    """A non-empty raw weight vector: free floats, tied values, or a chain at t x prev."""
    kind = draw(st.sampled_from(("free", "tied", "chain")))
    size = draw(st.integers(1, K))
    cats = draw(st.permutations(range(K)))[:size]
    if kind == "free":
        weights = [draw(st.floats(1e-6, 1.0)) for _ in cats]
    elif kind == "tied":
        weights = [draw(st.sampled_from((0.125, 0.25, 0.5, 1.0))) for _ in cats]
    else:
        t, w = draw(THRESHOLDS), draw(st.floats(1e-3, 1.0))
        weights = []
        for _ in cats:
            weights.append(w)
            w = t * w
    return dict(zip(cats, weights))


@st.composite
def wide_vectors(draw):
    """A raw weight vector over up to WIDE categories whose fifth place is tied.

    ``heavy`` heavier entries come first, then ``tied`` entries of one weight
    that take rank five and, when there are enough, ranks on both sides of
    it, then lighter free or tied entries.
    """
    size = draw(st.integers(1, WIDE))
    cats = draw(st.permutations(range(WIDE)))[:size]
    tie = draw(st.floats(1e-3, 0.5))
    heavy = draw(st.integers(0, 4))
    weights = [draw(st.floats(tie, 1.0, exclude_min=True)) for _ in range(heavy)]
    weights += [tie] * draw(st.integers(MAX_CATEGORIES - heavy, 8 - heavy))
    lighter = st.one_of(st.floats(1e-6, tie, exclude_max=True), st.just(tie / 2))
    weights += [draw(lighter) for _ in range(size - len(weights))]
    return dict(zip(cats, weights[:size]))


# rows whose ranking is cut at a tie: one weight past the cap; and 285-wide
# rows of one weight throughout, or tied from rank three to eight with the
# heavier entries in the highest columns
TIES_PAST_THE_CAP = {"p0": dict.fromkeys(range(K), 0.125)}
WIDE_TIES = {"p0": dict.fromkeys(range(WIDE), 0.125),
             "p1": {**dict.fromkeys(range(WIDE - 2), 0.001), **dict.fromkeys(range(6), 0.1),
                    WIDE - 2: 0.3, WIDE - 1: 0.2}}


def paper_sets(vector_strategy=vectors()):
    return st.dictionaries(st.sampled_from([f"p{i}" for i in range(12)]),
                           vector_strategy, min_size=1, max_size=12)


def matrix(vecs, k=K):
    return from_vectors("X", vecs, k)


# ---------------------------------------------------------------------------
# properties

@given(paper_sets(st.one_of(vectors(), wide_vectors())), THRESHOLDS)
@example(TIES_PAST_THE_CAP, 0.5)
@example(WIDE_TIES, 0.5)
def test_prune_equals_reference(vecs, t):
    config = PruneConfig(t)
    out = prune_classification(matrix(vecs, WIDE), config)
    assert out.vectors == {p: reference_prune(v, config) for p, v in vecs.items()}


# winners tied with a higher column, and ranks behind equal weights at lower
# columns (p1: third), past equal weights at higher ones (p2: first) and absent (p0)
RANK_TIES = ({"p0": {0: 0.5, 3: 0.5, 5: 0.25}, "p1": {2: 0.25, 6: 0.25, 7: 0.5},
              "p2": {4: 1.0}},
             {"p0": {1: 0.5, 3: 0.5, 5: 0.125}, "p1": {7: 0.25, 6: 0.25, 2: 0.25},
              "p2": {4: 0.25, 5: 0.25, 1: 0.125}})


@given(paper_sets(), paper_sets())
@example(*RANK_TIES)
def test_rank_metrics_equal_reference(va, vb):
    if not set(va) & set(vb):
        return
    ab, ba = rank_metrics(matrix(va), matrix(vb))
    for stats, (avg, missing, papers) in ((ab, reference_ranks(va, vb)),
                                          (ba, reference_ranks(vb, va))):
        assert (stats.missing, stats.papers) == (missing, papers)
        assert stats.avg_rank == avg or (math.isnan(avg) and math.isnan(stats.avg_rank))


@given(paper_sets(), paper_sets())
def test_coincidence_within_tolerance_of_reference(va, vb):
    if not set(va) & set(vb):
        return
    expected = reference_coincidence(va, vb)
    assert math.isclose(coincidence_percentage(matrix(va), matrix(vb)), expected,
                        rel_tol=REL_TOL)


@given(paper_sets(), paper_sets())
def test_area_flow_within_tolerance_of_reference(va, vb):
    if not set(va) & set(vb):
        return
    areas, flow = area_flow(matrix(va), matrix(vb), SCHEME)
    assert areas == list(SCHEME.area_codes)
    np.testing.assert_allclose(flow, reference_flow(va, vb), rtol=REL_TOL, atol=0.0)
