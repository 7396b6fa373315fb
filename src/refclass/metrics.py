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

from .engine import Classification, kept_indptr, row_fsums
from .scheme import CategoryScheme

FORMULA_VERSIONS = {
    "coincidence": "min-overlap-v1",
    "prune": "consecutive-ratio-v1",
    "area_flow": "product-coupling-v1",
}


def _column_sums(m: sp.csr_matrix) -> np.ndarray:
    """Per-category weight totals, each added up in row order."""
    return np.bincount(m.indices, weights=m.data, minlength=m.shape[1])


class NoCommonPapers(ValueError):
    """Raised by a pairwise metric whose two classifications share no paper."""


def _common_rows(a: Classification, b: Classification):
    """The rows of a and b that belong to their common papers, aligned: by rows
    on one index, by paper id otherwise.

    ValueError if the two differ in width, NoCommonPapers if they share no paper.
    """
    wa, wb = a.weights, b.weights
    if wa.shape[1] != wb.shape[1]:
        raise ValueError(f"{a.variant_label} has {wa.shape[1]} categories and "
                         f"{b.variant_label} has {wb.shape[1]}")
    ka, kb = (a.rows, b.rows) if a.index is b.index else (a.paper_ids, b.paper_ids)
    if not np.array_equal(ka, kb):
        _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
        wa = wa if len(ia) == wa.shape[0] else wa[ia]
        wb = wb if len(ib) == wb.shape[0] else wb[ib]
    if not wa.shape[0]:
        raise NoCommonPapers("no common papers")
    return wa, wb


def _category_areas(scheme: CategoryScheme) -> np.ndarray:
    """Area code of each category of the scheme."""
    return np.array([c.area_code for c in scheme.categories], dtype=np.int64)


def _area_indicator(scheme: CategoryScheme) -> sp.csr_matrix:
    """Categories x areas 0/1 matrix (areas in ascending code order)."""
    cols = np.searchsorted(scheme.area_codes, _category_areas(scheme))
    return sp.csr_matrix((np.ones(len(cols)), cols, np.arange(len(cols) + 1)),
                         shape=(len(cols), len(scheme.area_codes)))


def category_sizes(c: Classification) -> dict[int, float]:
    """Accumulated weight per category; sums to the classified paper count."""
    sizes = _column_sums(c.weights)
    return {int(idx): float(sizes[idx]) for idx in np.flatnonzero(sizes > 0)}


def granularity(c: Classification) -> float:
    """Paper count divided by the sum of squared category sizes."""
    if not len(c.rows):
        raise ValueError("empty classification")
    sizes = _column_sums(c.weights)
    return len(c.rows) / math.fsum((sizes * sizes).tolist())


def size_cv(c: Classification) -> float:
    """Coefficient of variation of the non-empty category sizes."""
    sizes = _column_sums(c.weights)
    sizes = sizes[sizes > 0]
    if sizes.size == 0:
        raise ValueError("empty classification")
    mean = sizes.mean()
    return float(sizes.std() / mean)


def refs_per_paper_acv(c: Classification, ref_counts: np.ndarray) -> float:
    """Average over categories of the membership-weighted CV of reference counts.

    ``ref_counts[i]`` is the reference count of ``c``'s row ``i``.  Papers
    contribute to a category with their assignment weight there.  Categories
    with zero total weight or zero mean count are skipped; with none left the
    average is undefined and returned as ``nan``.
    """
    m = c.weights
    n = np.repeat(ref_counts.astype(float), np.diff(m.indptr))
    sw, swn, swn2 = (np.bincount(m.indices, weights=w, minlength=m.shape[1])
                     for w in (m.data, m.data * n, m.data * n * n))
    used = np.flatnonzero(sw > 0)
    mean = swn[used] / sw[used]
    used, mean = used[mean > 0], mean[mean > 0]
    if not len(used):
        return math.nan
    var = np.maximum(swn2[used] / sw[used] - mean * mean, 0.0)
    return float(np.mean(np.sqrt(var) / mean))


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


def rank_metrics(a: Classification, b: Classification) -> tuple[RankStats, RankStats]:
    """(winners of a located in b, winners of b located in a).

    A row's winner is its heaviest entry, ties to the lowest column; its rank in
    the other row is 1 plus the entries there heavier than it or as heavy at a
    lower column, counted, not sorted.
    """
    wa, wb = _common_rows(a, b)
    n = wa.shape[0]

    def winners(m, rows):
        heaviest = np.maximum.reduceat(m.data, m.indptr[:-1])[rows]
        return np.minimum.reduceat(np.where(m.data == heaviest, m.indices, m.shape[1]),
                                   m.indptr[:-1])

    def one_direction(winner, dst, rows):
        column = winner[rows]
        # a row holds each column once, so at most one entry per row is a hit
        hit = dst.indices == column
        hit_rows = rows[hit]
        weight = np.full(n, np.inf)
        weight[hit_rows] = dst.data[hit]
        weight = weight[rows]
        ahead = (dst.data > weight) | ((dst.data == weight) & (dst.indices < column))
        hits = 1 + np.bincount(rows[ahead], minlength=n)[hit_rows]
        avg = float(np.mean(hits)) if len(hits) else float("nan")
        return RankStats(avg, n - len(hits), n)

    # the row of each stored entry
    rows_a, rows_b = (np.repeat(np.arange(n), np.diff(m.indptr)) for m in (wa, wb))
    return (one_direction(winners(wa, rows_a), wb, rows_b),
            one_direction(winners(wb, rows_b), wa, rows_a))


@dataclass(frozen=True)
class AssignmentHistogram:
    total_assignments: int
    average: float
    percentages: dict[str, float]  # keys "1".."4" and "5+"


def assignment_histogram(c: Classification) -> AssignmentHistogram:
    if not len(c.rows):
        raise ValueError("empty classification")
    sizes = np.diff(c.weights.indptr)
    n = len(sizes)
    pct = {}
    for band in (1, 2, 3, 4):
        pct[str(band)] = 100.0 * int((sizes == band).sum()) / n
    pct["5+"] = 100.0 * int((sizes >= 5).sum()) / n
    total = int(sizes.sum())
    return AssignmentHistogram(total, total / n, pct)


def category_correlation(a: Classification, b: Classification) -> float:
    """Pearson correlation of the common papers' category sizes (zeros included).

    It is undefined, and returned as ``nan``, when either vector is constant.
    """
    wa, wb = _common_rows(a, b)
    xa, xb = _column_sums(wa), _column_sums(wb)
    if xa.min() == xa.max() or xb.min() == xb.max():
        return math.nan
    return float(np.corrcoef(xa, xb)[0, 1])


def area_aggregate(c: Classification, scheme: CategoryScheme) -> dict[int, float]:
    """Percentage of total weight accumulated in each area."""
    sizes = _column_sums(c.weights)
    total = math.fsum(sizes.tolist())
    codes = scheme.area_codes
    mass = np.bincount(np.searchsorted(codes, _category_areas(scheme)), weights=sizes,
                       minlength=len(codes))
    return {area: 100.0 * s / total for area, s in zip(codes, mass.tolist())}


def area_flow(origin: Classification, result: Classification,
              scheme: CategoryScheme):
    """Mass-conserving area x area flow matrix (origin rows, result columns).

    flow[a][b] = sum over common papers of origin area weight a times
    result area weight b; row sums equal the origin area masses and the
    total equals the common paper count.
    """
    wo, wr = _common_rows(origin, result)
    indicator = _area_indicator(scheme)
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
    in_home = (_category_areas(scheme)[m.indices]
               == areas[np.repeat(home, np.diff(m.indptr))])
    inside = row_fsums(sp.csr_matrix(
        (m.data[in_home], m.indices[in_home], kept_indptr(in_home, m.indptr)),
        shape=m.shape))
    mass = np.bincount(home, weights=inside, minlength=len(areas))
    count = np.bincount(home, minlength=len(areas))
    return {int(area): 100.0 * float(mass[i]) / int(count[i])
            for i, area in enumerate(areas)}
