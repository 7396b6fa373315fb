"""Scientometric indicators over one or more classifications.

All functions are pure sparse linear algebra over the classifications'
papers x categories matrices and add in canonical order (ascending paper
id, ascending category index), so results are deterministic.  Formula
choices for quantities that admit more than one reading are versioned in
FORMULA_VERSIONS and kept swappable behind this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus
from .engine import Classification, row_fsums, weight_order
from .scheme import CategoryScheme

FORMULA_VERSIONS = {
    "coincidence": "min-overlap-v1",
    "prune": "consecutive-ratio-v1",
    "area_flow": "product-coupling-v1",
}


def _column_sums(m: sp.csr_matrix, k: int) -> np.ndarray:
    """Per-category weight totals, each added up in row order."""
    return np.bincount(m.indices, weights=m.data, minlength=k)


def _common_rows(a: Classification, b: Classification):
    """The rows of a and b that belong to their common papers, aligned.

    Both matrices get the larger of the two column counts.
    """
    wa, wb = a.weights, b.weights
    if a.paper_ids != b.paper_ids:
        _, ia, ib = np.intersect1d(np.array(a.paper_ids, dtype=str),
                                   np.array(b.paper_ids, dtype=str),
                                   assume_unique=True, return_indices=True)
        wa = wa if len(ia) == wa.shape[0] else wa[ia]
        wb = wb if len(ib) == wb.shape[0] else wb[ib]
    if not wa.shape[0]:
        raise ValueError("no common papers")
    k = max(wa.shape[1], wb.shape[1])
    return _with_columns(wa, k), _with_columns(wb, k)


def _with_columns(m: sp.csr_matrix, k: int) -> sp.csr_matrix:
    if m.shape[1] == k:
        return m
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=(m.shape[0], k))


def _category_areas(scheme: CategoryScheme, k: int) -> np.ndarray:
    """Area code of each of the first k categories of the scheme."""
    return np.array([scheme.area_of_index(idx) for idx in range(k)], dtype=np.int64)


def _area_indicator(scheme: CategoryScheme, k: int) -> sp.csr_matrix:
    """Categories x areas 0/1 matrix (areas in ascending code order)."""
    cols = np.searchsorted(scheme.area_codes, _category_areas(scheme, k))
    return sp.csr_matrix((np.ones(k), cols, np.arange(k + 1)),
                         shape=(k, len(scheme.area_codes)))


def category_sizes(c: Classification) -> dict[int, float]:
    """Accumulated weight per category; sums to the classified paper count."""
    sizes = _column_sums(c.weights, c.weights.shape[1])
    return {int(idx): float(sizes[idx]) for idx in np.flatnonzero(sizes > 0)}


def granularity(c: Classification) -> float:
    """Paper count divided by the sum of squared category sizes."""
    if not c.paper_ids:
        raise ValueError("empty classification")
    sizes = category_sizes(c)
    return len(c.paper_ids) / math.fsum(s * s for s in sizes.values())


def size_cv(c: Classification) -> float:
    """Coefficient of variation of the non-empty category sizes."""
    sizes = np.array(list(category_sizes(c).values()))
    if sizes.size == 0:
        raise ValueError("empty classification")
    mean = sizes.mean()
    return float(sizes.std() / mean)


def refs_per_paper_acv(c: Classification, corpus: Corpus) -> float:
    """Average over categories of the membership-weighted CV of reference counts.

    Papers contribute to a category with their assignment weight there.
    Categories with zero total weight or zero mean count are skipped.
    """
    rows = corpus.rows_of(c.paper_ids)
    m = c.weights
    n = np.repeat(corpus.ref_counts[rows].astype(float), np.diff(m.indptr))
    k = m.shape[1]
    sw = np.bincount(m.indices, weights=m.data, minlength=k)
    swn = np.bincount(m.indices, weights=m.data * n, minlength=k)
    swn2 = np.bincount(m.indices, weights=m.data * n * n, minlength=k)
    cvs = []
    for idx in range(k):
        if sw[idx] <= 0:
            continue
        mean = swn[idx] / sw[idx]
        if mean <= 0:
            continue
        var = max(swn2[idx] / sw[idx] - mean * mean, 0.0)
        cvs.append(math.sqrt(var) / mean)
    if not cvs:
        raise ValueError("no category with positive weighted mean reference count")
    return float(np.mean(cvs))


def coincidence_percentage(a: Classification, b: Classification) -> float:
    """Mean over common papers of 100 x sum of per-category minima."""
    wa, wb = _common_rows(a, b)
    total = math.fsum(row_fsums(wa.minimum(wb).tocsr()).tolist())
    return 100.0 * total / wa.shape[0]


@dataclass(frozen=True)
class RankStats:
    """Average 1-based rank of one side's winners in the other side's order.

    Papers whose winner is absent from the other side are counted in
    ``missing`` and excluded from the average.
    """
    avg_rank: float
    missing: int
    papers: int


def _ranks(m: sp.csr_matrix):
    """(winner column of each row, 1-based rank of every stored entry).

    Ranks follow descending weight, ties by ascending column; the rank
    array is in stored-entry order.
    """
    order = weight_order(m)
    starts = m.indptr[:-1]
    ranks = np.empty(m.nnz, dtype=np.int64)
    ranks[order] = np.arange(m.nnz) - np.repeat(starts, np.diff(m.indptr)) + 1
    return m.indices[order[starts]], ranks


def rank_metrics(a: Classification, b: Classification) -> tuple[RankStats, RankStats]:
    """(winners of a located in b, winners of b located in a)."""
    wa, wb = _common_rows(a, b)
    n = wa.shape[0]

    def one_direction(winners, dst, ranks):
        # a row holds each column once, so at most one entry per row is a hit
        hits = ranks[dst.indices == np.repeat(winners, np.diff(dst.indptr))]
        avg = float(np.mean(hits)) if len(hits) else float("nan")
        return RankStats(avg, n - len(hits), n)

    winners_a, ranks_a = _ranks(wa)
    winners_b, ranks_b = _ranks(wb)
    return one_direction(winners_a, wb, ranks_b), one_direction(winners_b, wa, ranks_a)


@dataclass(frozen=True)
class AssignmentHistogram:
    total_assignments: int
    average: float
    percentages: dict[str, float]  # keys "1".."4" and "5+"


def assignment_histogram(c: Classification) -> AssignmentHistogram:
    if not c.paper_ids:
        raise ValueError("empty classification")
    sizes = np.diff(c.weights.indptr)
    n = len(sizes)
    pct = {}
    for band in (1, 2, 3, 4):
        pct[str(band)] = 100.0 * int((sizes == band).sum()) / n
    pct["5+"] = 100.0 * int((sizes >= 5).sum()) / n
    total = int(sizes.sum())
    return AssignmentHistogram(total, total / n, pct)


def category_correlation(a: Classification, b: Classification,
                         scheme: CategoryScheme, common_only: bool = False) -> float:
    """Pearson correlation of the per-category size vectors (zeros included).

    It is undefined, and returned as ``nan``, when either vector is constant.
    """
    wa, wb = _common_rows(a, b) if common_only else (a.weights, b.weights)
    xa = _column_sums(wa, scheme.size)
    xb = _column_sums(wb, scheme.size)
    if xa.min() == xa.max() or xb.min() == xb.max():
        return math.nan
    return float(np.corrcoef(xa, xb)[0, 1])


def area_aggregate(c: Classification, scheme: CategoryScheme) -> dict[int, float]:
    """Percentage of total weight accumulated in each area."""
    sizes = category_sizes(c)
    total = math.fsum(sizes.values())
    out = {area: 0.0 for area in scheme.area_codes}
    for idx, s in sizes.items():
        out[scheme.area_of_index(idx)] += s
    return {area: 100.0 * s / total for area, s in out.items()}


def area_flow(origin: Classification, result: Classification,
              scheme: CategoryScheme):
    """Mass-conserving area x area flow matrix (origin rows, result columns).

    flow[a][b] = sum over common papers of origin area weight a times
    result area weight b; row sums equal the origin area masses and the
    total equals the common paper count.
    """
    wo, wr = _common_rows(origin, result)
    indicator = _area_indicator(scheme, wo.shape[1])
    # the sparse products add papers in ascending order for every cell
    flow = (wo @ indicator).T.tocsr() @ (wr @ indicator)
    return list(scheme.area_codes), flow.toarray()


def same_area_retention(home_area: np.ndarray, result: Classification,
                        scheme: CategoryScheme) -> dict[int, float]:
    """Percentage of result weight that stays in the home area.

    ``home_area[i]`` is the home area of ``result``'s row ``i``: the area of
    the miscellaneous category its journal is assigned to exclusively, or -1
    for a paper that has none and is left out.
    """
    rows = np.flatnonzero(home_area >= 0)
    areas, home = np.unique(home_area[rows], return_inverse=True)
    m = result.weights[rows]
    in_home = (_category_areas(scheme, m.shape[1])[m.indices]
               == areas[np.repeat(home, np.diff(m.indptr))])
    indptr = np.concatenate(([0], np.cumsum(in_home)))[m.indptr]
    inside = row_fsums(sp.csr_matrix((m.data[in_home], m.indices[in_home], indptr),
                                     shape=m.shape))
    mass = np.bincount(home, weights=inside, minlength=len(areas))
    count = np.bincount(home, minlength=len(areas))
    return {int(area): 100.0 * float(mass[i]) / int(count[i])
            for i, area in enumerate(areas)}
