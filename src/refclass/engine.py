"""Iterative propagation engine.

One iteration accumulates paper weights onto their cited references
(optionally divided by each citing paper's reference count), normalizes
the reference vectors, propagates them back onto the papers restricted to
each paper's previous support, and renormalizes.  The loop stops when the
total squared difference between consecutive paper vectors drops below the
configured threshold; the snapshot at that point is the journal-limited
(JL) result.  One further unmasked pass yields the unlimited (U1) result.

All reductions happen in a fixed canonical order (ascending paper id /
reference id / category code), so repeated runs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, CorpusError, DEFAULT_MIN_REFS, eligible_rows
from .scheme import CategoryScheme, read_table

# 3000 / 3246022: the absolute stopping budget expressed per classified paper,
# so that corpora of any size terminate at a comparable precision.
DEFAULT_PER_PAPER_THRESHOLD = 9.243e-4
ABSOLUTE_THRESHOLD = 3000.0

# stored or output entries per block or range of every bounded pass: the
# product blocks stay in cache, which keeps the per-iteration cost linear in
# the paper count, and the ranking, the writer and the support check hold a
# block's temporaries only.  The passes whose temporaries cost 16 bytes or
# more per entry, or hold Python floats, take a quarter of it: row_fsums' sums
# and the JL support's construction, scatter, compaction and final columns
_BLOCK_ENTRIES = 1 << 16


class EngineError(ValueError):
    pass


@dataclass
class EngineConfig:
    """Knobs of the propagation loop.

    Exactly one of convergence_threshold (absolute total squared difference)
    and per_paper_threshold (scaled by the eligible paper count) is active.
    """

    fractional: bool = False
    convergence_threshold: float | None = None
    per_paper_threshold: float | None = DEFAULT_PER_PAPER_THRESHOLD
    max_iterations: int = 50
    min_refs: int = DEFAULT_MIN_REFS
    include_ineligible_citers: bool = True
    unlimited_passes: ClassVar[int] = 1  # the U1 passes after the JL loop; not a setting

    def __post_init__(self):
        if (self.convergence_threshold is None) == (self.per_paper_threshold is None):
            raise EngineError(
                "exactly one of convergence_threshold / per_paper_threshold must be set")
        active = (self.convergence_threshold
                  if self.convergence_threshold is not None else self.per_paper_threshold)
        if not (math.isfinite(active) and active > 0):
            raise EngineError("convergence threshold must be positive and finite")
        if self.max_iterations < 1:
            raise EngineError("max_iterations must be >= 1")
        if self.min_refs < 0:
            raise EngineError("min_refs must be >= 0")

    def effective_threshold(self, n_eligible: int) -> float:
        if self.convergence_threshold is not None:
            return self.convergence_threshold
        return self.per_paper_threshold * n_eligible

    @property
    def weight_label(self) -> str:
        return "F" if self.fractional else "NF"


@dataclass(frozen=True, eq=False)
class Classification:
    """Per-paper weight vectors under a named variant.

    ``weights`` is a papers x categories CSR matrix whose row ``i`` belongs
    to ``index[rows[i]]``: ``index`` is a sorted, read-only array of ``str``
    ids, ``rows`` ascending.  The matrix has sorted column indices, no explicit
    zeros and no empty row.
    """

    variant_label: str
    index: np.ndarray
    rows: np.ndarray
    weights: sp.csr_matrix
    unreclassified: int = 0  # papers of the corpus left out for too few references
    iterations_run: int = 0
    residual_trace: list[float] = field(default_factory=list)
    converged: bool = True
    stalled: int = 0

    def __post_init__(self):
        if len(self.rows) != self.weights.shape[0]:
            raise ValueError(f"{len(self.rows)} paper rows for "
                             f"{self.weights.shape[0]} weight rows")
        empty = np.flatnonzero(np.diff(self.weights.indptr) == 0)
        if len(empty):
            raise ValueError(f"paper {self.index[self.rows[empty[0]]]}: no entries")

    @property
    def paper_ids(self) -> np.ndarray:
        """The classified papers' ids, ``index[rows]``, made on each access unless
        the rows are all of ``index``."""
        return self.index if len(self.rows) == len(self.index) else self.index[self.rows]

    @property
    def vectors(self) -> Mapping[str, dict[int, float]]:
        """Read-only paper id -> {category index: weight} view, built on each access."""
        bounds = self.weights.indptr.tolist()
        indices = self.weights.indices.tolist()
        data = self.weights.data.tolist()
        return MappingProxyType({
            pid: dict(zip(indices[lo:hi], data[lo:hi]))
            for pid, lo, hi in zip(self.paper_ids, bounds, bounds[1:])})


def on_index(c: Classification, index: np.ndarray) -> Classification:
    """``c`` on the sorted id array ``index``, by one merge of the two sorted id
    arrays.  CorpusError names the first paper, in id order, not in ``index``."""
    if c.index is index:
        return c
    ids = c.paper_ids
    _, rows, found = np.intersect1d(index, ids, assume_unique=True, return_indices=True)
    if len(found) < len(ids):
        missing = np.setdiff1d(np.arange(len(ids)), found)[0]
        raise CorpusError(f"paper_id {ids[missing]} is not in the corpus")
    return dataclasses.replace(c, index=index, rows=rows,
                               residual_trace=list(c.residual_trace))


def row_fsums(m: sp.csr_matrix) -> np.ndarray:
    """Per-row ``math.fsum`` of the stored values of a CSR matrix.

    ``np.add.reduceat`` gives a row of one or two stored values the value
    itself or their one addition, which is the fsum, and copies no per-row
    value or index array.  Only longer rows need a Python-level fsum; their
    values become Python floats one range of about a quarter of
    ``_BLOCK_ENTRIES`` entries at a time.
    """
    p = m.indptr
    counts = np.diff(p)
    out = np.zeros(len(counts))
    started = np.searchsorted(p, m.nnz)  # the rows that start before the end
    if started:
        np.add.reduceat(m.data, p[:started], out=out[:started])
        out[counts == 0] = 0.0  # reduceat gives an empty row the next row's first value
    if (counts > 2).any():
        for lo, hi in _entry_ranges(p, _BLOCK_ENTRIES // 4):
            long = counts[lo:hi] > 2
            values = m.data[p[lo]:p[hi]][np.repeat(long, counts[lo:hi])].tolist()
            bounds = np.concatenate(([0], np.cumsum(counts[lo:hi][long]))).tolist()
            out[lo:hi][long] = [math.fsum(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    return out


def weight_order(m: sp.csr_matrix, limit: int | None = None):
    """Each row's first ``limit`` stored entries by descending weight.

    Ties rank by ascending column.  Returns (the positions of those entries
    in ``m``'s stored order, row by row; their row pointers).  ``m`` must
    have sorted indices, and ``limit`` None ranks every entry.  Rows of equal
    length are ranked together in (rows x length) blocks of at most about
    ``_BLOCK_ENTRIES`` entries.  A row longer than ``limit`` is first cut
    by one ``np.partition``: ties at the cut go to the lowest columns.
    """
    counts = np.diff(m.indptr)
    indptr = m.indptr if limit is None else np.concatenate(
        ([0], np.cumsum(np.minimum(counts, limit))))
    order = np.empty(indptr[-1], dtype=np.intp)
    lengths = np.flatnonzero(np.bincount(counts))
    for length in lengths[lengths > 0]:
        rows = np.flatnonzero(counts == length)
        kept = length if limit is None else min(length, limit)
        step = max(1, _BLOCK_ENTRIES // length)
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            slots = m.indptr[block][:, None] + np.arange(length)
            weights = m.data[slots]
            dest = slots if limit is None else indptr[block][:, None] + np.arange(kept)
            if kept < length:
                # each row's kept-th heaviest weight
                cut = np.partition(weights, length - kept, axis=1)[:, length - kept, None]
                take = weights >= cut
                # a row whose ties cross the cut takes them in column order
                over = np.flatnonzero(np.count_nonzero(take, axis=1) > kept)
                if len(over):
                    ties = weights[over] == cut[over]
                    spare = kept - np.count_nonzero(weights[over] > cut[over], axis=1)
                    take[over] &= ~ties | (np.cumsum(ties, axis=1) <= spare[:, None])
                slots, weights = slots[take].reshape(-1, kept), weights[take].reshape(-1, kept)
            rank = np.argsort(-weights, axis=1, kind="stable")
            order[dest] = (slots[:, :1] + rank if kept == length
                           else np.take_along_axis(slots, rank, axis=1))
    return order, indptr


# ---------------------------------------------------------------------------
# block kernels

def _row_blocks(m: sp.csr_matrix, width: int) -> list[tuple[int, sp.csr_matrix]]:
    """(first row, block) pairs covering CSR ``m``, cut at ``indptr`` offsets.

    A block's data and indices are views of ``m``'s, set once the block is
    made: scipy's constructor copies a view shorter than half its base.  The
    rows are cut as ``_entry_ranges`` cuts the output entries of their
    product with a ``width``-column dense operand, so that it stays in cache.
    """
    p, blocks = m.indptr, []
    for lo, hi in _entry_ranges(width * np.arange(m.shape[0] + 1), _BLOCK_ENTRIES):
        block = sp.csr_matrix((hi - lo, m.shape[1]), dtype=m.dtype)
        block.indptr = p[lo:hi + 1] - p[lo]
        block.indices, block.data = m.indices[p[lo]:p[hi]], m.data[p[lo]:p[hi]]
        blocks.append((lo, block))
    return blocks


def _entry_ranges(indptr: np.ndarray, entries: int) -> list[tuple[int, int]]:
    """(first row, end row) ranges covering the rows of ``indptr``.

    Each starts at the first row at or past a multiple of ``entries`` (at
    least 1) stored entries, so it holds at most ``entries`` entries and one
    row more.  This is the one place where rows are cut.
    """
    bounds = np.searchsorted(indptr, np.arange(0, max(indptr[-1], 1), max(entries, 1)))
    bounds = np.unique(np.append(bounds, len(indptr) - 1)).tolist()
    return list(zip(bounds, bounds[1:]))


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of ``counts`` consecutive values, 1 for an empty run.

    ``np.add.reduceat`` adds a run as scipy's CSR ``sum(axis=1)`` adds a row.
    """
    sums = np.ones(len(counts))
    some = counts > 0
    sums[some] = np.add.reduceat(values, (np.cumsum(counts) - counts)[some])
    return sums


def kept_indptr(keep: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``indptr`` of the rows that keep only the entries where ``keep`` is True.

    Counts the kept or the dropped entries before each row start, whichever
    are fewer: 8 bytes per such entry, not per stored entry.
    """
    if 2 * np.count_nonzero(keep) <= len(keep):
        return np.searchsorted(np.flatnonzero(keep), indptr)
    return indptr - np.searchsorted(np.flatnonzero(~keep), indptr)


def _normalize(part: np.ndarray) -> None:
    """Divide each row of dense ``part`` in place by the sum of its nonzeros.

    A 2-D ``reduceat`` groups a row without zeros as the 1-D one groups it,
    so only rows that hold a zero are compacted first; a row of zeros stays
    zero.
    """
    sums = np.add.reduceat(part, [0], axis=1)[:, 0]
    holds = ~part.all(axis=1)
    if holds.any():
        rows = part[holds]
        nonzero = rows != 0
        sums[holds] = _row_sums(rows[nonzero], np.count_nonzero(nonzero, axis=1))
    part /= sums[:, None]


def _accumulate(blocks, scaled: np.ndarray, refs: np.ndarray) -> None:
    """Fill ``refs`` with citations @ ``scaled`` by blocks, rows scaled to unit sum.

    An entry adds its terms in ascending paper order from zero, like scipy's
    sparse product; the zeros of ``scaled`` add exact zeros to these
    non-negative sums.
    """
    for lo, block in blocks:
        part = refs[lo:lo + block.shape[0]]
        part[...] = block @ scaled
        _normalize(part)


class _Support:
    """The eligible papers' JL support, kept as arrays across the loop's steps.

    Row ``i`` is paper row ``rows[i]``, scaled by ``scale[rows[i]]`` in the
    papers x categories citing buffer.  Its entries are
    ``values[indptr[i]:indptr[i + 1]]`` in ascending column order, and
    ``pos`` holds each entry's flat index in that buffer, ``rows[i] * k`` plus
    its column.  An entry costs 12 bytes: its value and its position, int32
    while papers x categories stays below 2^31.  A step's new values live in
    the citing buffer at ``pos`` from ``propagate`` to ``advance``, while
    ``values`` holds each entry's squared change for ``residual``: no pass
    reads those slots in between.  Every pass over the entries goes one row
    block or range at a time, so its temporaries are bounded by one.  The
    support only shrinks: an entry leaves when its new value rounds to zero.
    """

    def __init__(self, weights: sp.csr_matrix, journal: np.ndarray, rows: np.ndarray,
                 scale: np.ndarray):
        """Row ``i`` starts as row ``journal[rows[i]]`` of ``weights``, sorted;
        the citing buffer has a row per item of ``scale``."""
        k = weights.shape[1]
        self.shape = (len(rows), k)
        self.rows, self.scale = rows, scale
        counts = np.diff(weights.indptr)[journal[rows]]
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.values = np.empty(self.indptr[-1])
        self.pos = np.empty(self.indptr[-1],
                            dtype=np.int32 if len(scale) * k < 2**31 else np.int64)
        for lo, hi in _entry_ranges(self.indptr, _BLOCK_ENTRIES // 4):
            part = weights[journal[rows[lo:hi]]]
            part.sort_indices()
            a, b = self.indptr[lo], self.indptr[hi]
            self.values[a:b] = part.data
            pos = self.pos[a:b]
            pos[...] = np.repeat(rows[lo:hi] * k, counts[lo:hi])
            pos += part.indices

    def csr(self) -> sp.csr_matrix:
        """The current rows as canonical CSR, on the support's own arrays.

        It turns the positions into columns in place, so it ends the
        support's use.  After an ``advance`` the support holds no zero.
        """
        p, k = self.indptr, self.shape[1]
        for lo, hi in _entry_ranges(p, _BLOCK_ENTRIES // 4):
            self.pos[p[lo]:p[hi]] -= np.repeat(self.rows[lo:hi] * k, np.diff(p[lo:hi + 1]))
        return sp.csr_matrix((self.values, self.pos.astype(np.int32, copy=False), p),
                             shape=self.shape)

    def propagate(self, blocks, refs: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Write the support's entries of ``blocks`` @ ``refs``, rows scaled to
        unit sum, into the flat citing buffer at ``pos``; return the stalled rows.

        ``blocks`` are row blocks of every paper row; a block without a
        support row is skipped.  A row is divided by the sum of its nonzeros
        in column order, as scipy sums the masked product's row.  A row
        without a nonzero stalls: it writes its current values.  A new value
        may be 0.  Each current value becomes its squared change, taken while
        the block's new values are at hand, which saves ``residual`` a pass
        over the citing buffer.
        """
        p, k, pos = self.indptr, self.shape[1], self.pos
        stalled = np.zeros(self.shape[0], dtype=bool)
        for lo, block in blocks:
            first, end = np.searchsorted(self.rows, (lo, lo + block.shape[0]))
            if first == end:
                continue
            a, b = p[first], p[end]
            part = np.take(block @ refs, pos[a:b] - lo * k, mode="clip")
            counts = np.diff(p[first:end + 1])
            nonzero = counts
            if np.count_nonzero(part) < len(part):
                keep = part != 0
                nonzero = np.diff(kept_indptr(keep, p[first:end + 1] - a))
                sums = _row_sums(part[keep], nonzero)
            else:
                sums = _row_sums(part, counts)
            part /= np.repeat(sums, counts)
            stall = stalled[first:end] = nonzero == 0
            if stall.any():
                held = np.repeat(stall, counts)
                part[held] = self.values[a:b][held]
            flat[pos[a:b]] = part
            change = self.values[a:b]
            change -= part
            change *= change
        return stalled

    def residual(self) -> float:
        """Total of the squared changes ``propagate`` left in ``values``.

        These are the terms, in the order, of scipy's
        ``diff.multiply(diff).sum()``, which sorts its operand's indices
        before it sums: the nonzero squared differences in (row, column)
        order, compacted in place.
        """
        diff, p = self.values, self.indptr
        end = 0  # the nonzeros go to the front, in order
        for lo, hi in _entry_ranges(p, _BLOCK_ENTRIES):
            part = diff[p[lo]:p[hi]]
            part = part[part != 0]
            diff[end:end + len(part)] = part
            end += len(part)
        return float(np.sum(diff[:end]))

    def advance(self, flat: np.ndarray) -> None:
        """Make the new values in ``flat`` the current ones and write them times
        the citing scale back; an entry that rounded to zero writes 0 and leaves."""
        p, values, pos = self.indptr, self.values, self.pos
        ranges = _entry_ranges(p, _BLOCK_ENTRIES // 4)
        for lo, hi in ranges:
            a, b = p[lo], p[hi]
            at = pos[a:b].astype(np.intp)  # converted once for the gather and the scatter
            np.take(flat, at, out=values[a:b])
            scaled = np.repeat(self.scale[self.rows[lo:hi]], np.diff(p[lo:hi + 1]))
            scaled *= values[a:b]
            flat[at] = scaled
        if np.count_nonzero(values) < len(values):  # the nonzeros go to the front, in order
            indptr = np.zeros_like(p)
            for lo, hi in ranges:
                a, b, end = p[lo], p[hi], indptr[lo]
                keep = values[a:b] != 0
                indptr[lo:hi + 1] = end + kept_indptr(keep, p[lo:hi + 1] - a)
                for array in (values, pos):
                    array[end:indptr[hi]] = array[a:b][keep]
            self.indptr = indptr
            self.values, self.pos = values[:indptr[-1]], pos[:indptr[-1]]


def _propagate(blocks, refs: np.ndarray, prev: sp.csr_matrix, rows: np.ndarray,
               stalled: np.ndarray):
    """U1 rows as canonical CSR row blocks: sums of cited reference rows, renormalized.

    ``blocks`` are the row blocks of the papers x references incidence;
    row ``i`` of ``prev`` and of the output is its row ``rows[i]``, in
    ascending order.  Each block of rows is computed when it is taken, and
    a block without such a row is skipped.  A row is divided by the sum of
    its nonzeros in column order; a row whose sum vanishes takes ``prev``'s
    row and is marked in the bool mask ``stalled``.  Each block is
    compacted once, to the nonzeros of its rows of ``rows``.
    """
    k = prev.shape[1]
    columns = np.arange(k, dtype=np.int32)
    for lo, block in blocks:
        hi = lo + block.shape[0]
        first, end = np.searchsorted(rows, (lo, hi))
        if first == end:
            continue
        mine = rows[first:end] - lo
        part = block @ refs
        zero = stalled[first:end] = ~part.any(axis=1)[mine]
        if zero.any():
            part[mine[zero]] = prev[first:end][zero].toarray()
        keep = part != 0
        if len(mine) < len(keep):
            other = np.ones(len(keep), dtype=bool)
            other[mine] = False
            keep[other] = False
        nonzero = np.count_nonzero(keep, axis=1)[mine]
        values = part[keep]
        del part
        indices = np.broadcast_to(columns, keep.shape)[keep]
        del keep
        sums = _row_sums(values, nonzero)
        sums[zero] = 1.0
        values /= np.repeat(sums, nonzero)
        indptr = np.concatenate(([0], np.cumsum(nonzero)))
        if np.count_nonzero(values) < len(values):  # a value the division rounded to zero
            keep = values != 0
            indptr = kept_indptr(keep, indptr)
            values, indices = values[keep], indices[keep]
        yield sp.csr_matrix((values, indices, indptr), shape=(end - first, k))
        del values, indices  # the next block is made without this one


def collect_rows(blocks, shape) -> sp.csr_matrix:
    """The CSR matrix of ``shape`` whose rows are those of consecutive row ``blocks``.

    Its arrays are allocated once, as for a full matrix, and filled block by block.
    """
    n, k = shape
    indices, data = np.empty(n * k, dtype=np.int32), np.empty(n * k)
    indptr = np.zeros(n + 1, dtype=np.int64)
    lo = end = 0
    for rows in blocks:
        hi, start, end = lo + rows.shape[0], end, end + rows.nnz
        data[start:end], indices[start:end] = rows.data, rows.indices
        indptr[lo + 1:hi + 1] = start + rows.indptr[1:]
        lo = hi
        del rows  # dropped before the next block is made
    if lo != n:
        raise EngineError(f"row blocks cover {lo} of {n} rows")
    return sp.csr_matrix((data[:end], indices[:end], indptr), shape=shape)


# ---------------------------------------------------------------------------
# full run

def propagate(corpus: Corpus, config: EngineConfig):
    """Run the JL loop: (the JL classification, the U1 rows, the U1 stall mask).

    The U1 rows are a generator of canonical CSR blocks of consecutive rows:
    the U1 pass computes each block when it is taken and marks its stalled
    rows in the mask, so the U1 matrix exists only if ``collect_rows``
    assembles it; ``unlimited`` makes the U1 classification.  The loop's
    right operands are two dense buffers, updated in place; the eligible
    papers' JL rows are a ``_Support``, and CSR only for the output.
    """
    incidence, ref_counts = corpus.incidence, corpus.ref_counts
    weights, journal = corpus.journal_weights, corpus.paper_journal
    n, k = len(corpus.paper_ids), weights.shape[1]
    elig_rows = eligible_rows(corpus, config.min_refs)
    if not len(elig_rows):
        raise EngineError("no eligible papers")

    # each citing paper's vector is scaled by 1 / its reference count (F) and by
    # 0 outside the scope: zero terms add exact zeros to the reference sums,
    # which leaves the other terms' sums as they are
    scale = np.ones(n)
    if config.fractional:
        scale = np.divide(1.0, ref_counts, out=np.zeros(n), where=ref_counts > 0)
    if not config.include_ineligible_citers:
        scale[ref_counts < config.min_refs] = 0.0

    # row blocks are views: the citing blocks of the transpose, which only they
    # keep, and the paper blocks of incidence, every paper row
    citing_blocks = _row_blocks(incidence.T.tocsr(), k)
    paper_blocks = _row_blocks(incidence, k)
    # the loop's dense operands: every paper's current vector times its scale
    # (ineligible papers keep their journal vector) and the reference vectors
    scaled = np.empty((n, k))
    for lo, hi in _entry_ranges(k * np.arange(n + 1), _BLOCK_ENTRIES):
        weights[journal[lo:hi]].toarray(out=scaled[lo:hi])
    scaled *= scale[:, None]
    flat = scaled.reshape(-1)  # the support's positions index it
    refs = np.empty((incidence.shape[1], k))
    support = _Support(weights, journal, elig_rows, scale)

    threshold = config.effective_threshold(len(elig_rows))
    trace: list[float] = []
    stalled = 0
    for _ in range(config.max_iterations):
        _accumulate(citing_blocks, scaled, refs)
        zero = support.propagate(paper_blocks, refs, flat)
        trace.append(support.residual())
        support.advance(flat)
        stalled += int(zero.sum())
        if trace[-1] < threshold:
            break
    jl_rows = support.csr()
    del support  # the U1 pass needs no positions
    _accumulate(citing_blocks, scaled, refs)  # the reference vectors the U1 pass reads
    del citing_blocks, scaled, flat  # the check and the U1 pass read neither
    _check_support(jl_rows, weights, journal, elig_rows)
    jl = Classification(
        variant_label=f"JL-{config.weight_label}",
        index=corpus.paper_ids,
        rows=elig_rows,
        weights=jl_rows,
        unreclassified=len(corpus) - len(elig_rows),
        iterations_run=len(trace),
        residual_trace=trace,
        converged=trace[-1] < threshold,
        stalled=stalled,
    )
    u1_stalled = np.zeros(len(elig_rows), dtype=bool)
    return jl, _propagate(paper_blocks, refs, jl_rows, elig_rows, u1_stalled), u1_stalled


def unlimited(jl: Classification, weights: sp.csr_matrix,
              stalled: np.ndarray) -> Classification:
    """The U1 classification on ``weights`` of the run whose JL result is ``jl``;
    ``stalled`` is the U1 pass's stall mask."""
    return dataclasses.replace(
        jl, variant_label="U1" + jl.variant_label[2:], weights=weights,
        residual_trace=list(jl.residual_trace), stalled=jl.stalled + int(stalled.sum()))


def run(corpus: Corpus, config: EngineConfig):
    """Execute the full loop and return the (JL, U1) classification pair."""
    jl, rows, stalled = propagate(corpus, config)
    return jl, unlimited(jl, collect_rows(rows, jl.weights.shape), stalled)


def _check_support(w, weights, journal, rows):
    """The masked loop must never move weight outside the journal support:
    row ``i`` of ``w`` may hold a nonzero only where row ``journal[rows[i]]``
    of ``weights`` does.  Checked one row range at a time, so its temporaries
    stay bounded."""
    for lo, hi in _entry_ranges(w.indptr, _BLOCK_ENTRIES):
        if ((w[lo:hi] != 0) > (weights[journal[rows[lo:hi]]] != 0)).nnz:
            raise EngineError("support invariant violated: weight outside journal support")


# ---------------------------------------------------------------------------
# classification table I/O

def write_classification(c: Classification, scheme: CategoryScheme, path) -> None:
    """Write (paper_id, category_code, weight) rows plus a metadata sidecar.

    Rows are sorted by (paper_id, descending weight, ascending code) and
    floats use shortest round-trip formatting, so output is reproducible
    byte for byte.  A paper id holding a comma or a double quote is quoted
    csv-style; other ids are written as they are.
    """
    path = Path(path)
    w, pids = c.weights, c.paper_ids.tolist()
    joined = "".join(pids)
    if "," in joined or '"' in joined:
        pids = list(map(_csv_field, pids))
    codes = np.array([cat.code for cat in scheme.categories])
    # row chunks of about _BLOCK_ENTRIES entries, each ranked on its own
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("paper_id,category_code,weight\n")
        for lo, hi in _entry_ranges(w.indptr, _BLOCK_ENTRIES):
            part = w[lo:hi]
            order, _ = weight_order(part)
            rows = np.repeat(np.arange(lo, hi), np.diff(part.indptr))
            fh.writelines(
                f"{pids[r]},{code},{wt!r}\n"
                for r, code, wt in zip(rows.tolist(), codes[part.indices[order]].tolist(),
                                       part.data[order].tolist()))
    meta = {
        "variant": c.variant_label,
        "iterations_run": c.iterations_run,
        "residual_trace": c.residual_trace,
        "converged": c.converged,
        "stalled": c.stalled,
        "papers": len(c.rows),
        "unreclassified": c.unreclassified,
    }
    sidecar_path(path).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _csv_field(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


# sidecar key read back -> (what its value must be, the check)
_SIDECAR_KEYS = {
    "variant": ("a string", lambda v: type(v) is str),
    "iterations_run": ("an integer", lambda v: type(v) is int),
    "residual_trace": ("a list of numbers", lambda v: type(v) is list and all(
        type(x) in (int, float) for x in v)),
    "converged": ("true or false", lambda v: type(v) is bool),
    "stalled": ("an integer", lambda v: type(v) is int),
    "unreclassified": ("an integer", lambda v: type(v) is int),
}


def _read_sidecar(path: Path) -> dict:
    """A classification sidecar's JSON object; CorpusError names the file, and the
    key, when it is not valid JSON, not an object or a key read back has the
    wrong type."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CorpusError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise CorpusError(f"{path}: not a JSON object")
    for key, (kind, check) in _SIDECAR_KEYS.items():
        if key in meta and not check(meta[key]):
            raise CorpusError(f"{path}: {key} {meta[key]!r} is not {kind}")
    return meta


def read_classification(path, scheme: CategoryScheme,
                        label: str | None = None) -> Classification:
    """Read a classification table written by write_classification, on its own index.

    Every row needs a category code of ``scheme`` and a positive finite
    weight, and no (paper_id, category_code) pair may repeat; a row that
    breaks this raises CorpusError naming the file, line and field.
    """
    pids, indices, weights, lines = [], [], [], []
    for chunk in read_table(path, ("paper_id", "category_code", "weight"), (),
                            CorpusError):
        cols = chunk.columns
        for i, (code_text, weight_text) in enumerate(zip(cols["category_code"],
                                                          cols["weight"])):
            try:
                code = int(code_text)
            except ValueError:
                raise chunk.error(
                    i, f"category_code {code_text!r} is not an integer") from None
            if not scheme.is_regular(code):
                raise chunk.error(i, f"category_code {code} is not in the scheme")
            try:
                weight = float(weight_text)
            except ValueError:
                raise chunk.error(i, f"weight {weight_text!r} is not a number") from None
            if not (math.isfinite(weight) and weight > 0):
                raise chunk.error(
                    i, f"weight {weight_text!r} is not positive and finite")
            indices.append(scheme.index_of(code))
            weights.append(weight)
        pids += cols["paper_id"]
        lines += chunk.lines

    # the table's own index: the distinct ids of its runs of equal ids, sorted
    pids = np.array(pids, dtype=object)
    heads = np.flatnonzero(np.append(True, pids[1:] != pids[:-1])[:len(pids)])
    ids, rows = np.unique(pids[heads], return_inverse=True)
    rows = np.repeat(rows, np.diff(np.append(heads, len(pids))))
    ids.flags.writeable = False
    indices = np.array(indices, dtype=np.int32)
    order = np.lexsort((indices, rows))  # stable: a repeat follows its first row
    rows, indices = rows[order], indices[order]
    repeats = np.flatnonzero((rows[1:] == rows[:-1]) & (indices[1:] == indices[:-1]))
    if len(repeats):
        lines = np.array(lines)
        first = repeats[np.argmin(lines[order[repeats + 1]])]
        raise CorpusError(
            f"{path}, line {lines[order[first + 1]]}: paper_id {ids[rows[first]]} "
            f"repeats category_code {scheme.code_of(indices[first])} "
            f"of line {lines[order[first]]}")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(ids)))))
    matrix = sp.csr_matrix((np.array(weights)[order], indices, indptr),
                           shape=(len(ids), scheme.size))
    meta_file = sidecar_path(path)
    meta = _read_sidecar(meta_file) if meta_file.exists() else {}
    return Classification(
        label or meta.get("variant", Path(path).stem), ids, np.arange(len(ids)), matrix,
        iterations_run=meta.get("iterations_run", 0),
        residual_trace=meta.get("residual_trace", []),
        converged=meta.get("converged", True),
        stalled=meta.get("stalled", 0),
        unreclassified=meta.get("unreclassified", 0))
