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

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, CorpusError, DEFAULT_MIN_REFS, eligible_rows
from .scheme import CategoryScheme, read_table

# 3000 / 3246022: the absolute stopping budget expressed per classified paper,
# so that corpora of any size terminate at a comparable precision.
DEFAULT_PER_PAPER_THRESHOLD = 9.243e-4
ABSOLUTE_THRESHOLD = 3000.0

# rows formatted per write call, which bounds the memory write_classification needs
_WRITE_CHUNK_ROWS = 65536
# output entries per dense block of _matmul: small enough for a block to stay in
# cache, which keeps the per-iteration cost linear in the paper count
_PRODUCT_BLOCK_ENTRIES = 1 << 16


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
    unlimited_passes: int = 1

    def __post_init__(self):
        if (self.convergence_threshold is None) == (self.per_paper_threshold is None):
            raise EngineError(
                "exactly one of convergence_threshold / per_paper_threshold must be set")
        active = (self.convergence_threshold
                  if self.convergence_threshold is not None else self.per_paper_threshold)
        if active <= 0:
            raise EngineError("convergence threshold must be positive")
        if self.max_iterations < 1:
            raise EngineError("max_iterations must be >= 1")
        if self.unlimited_passes < 1:
            raise EngineError("unlimited_passes must be >= 1")

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
    to ``paper_ids[i]``; ``paper_ids`` is sorted, and the matrix has sorted
    column indices and no explicit zeros.
    """

    variant_label: str
    paper_ids: tuple[str, ...]
    weights: sp.csr_matrix
    unreclassified: frozenset[str] = frozenset()
    iterations_run: int = 0
    residual_trace: list[float] = field(default_factory=list)
    converged: bool = True
    stalled: int = 0

    def __post_init__(self):
        if len(self.paper_ids) != self.weights.shape[0]:
            raise ValueError(f"{len(self.paper_ids)} paper ids for "
                             f"{self.weights.shape[0]} weight rows")

    @classmethod
    def from_vectors(cls, label: str, vectors: dict[str, dict[int, float]],
                     unreclassified: frozenset[str] = frozenset(),
                     **meta) -> Classification:
        """Build from paper id -> {category index: weight} maps.

        The matrix is as wide as the largest index used requires.
        """
        pids = sorted(vectors)
        indptr, indices, data = [0], [], []
        for pid in pids:
            for idx, w in sorted(vectors[pid].items()):
                if w != 0.0:
                    indices.append(idx)
                    data.append(w)
            indptr.append(len(indices))
        weights = sp.csr_matrix(
            (np.array(data, dtype=float), np.array(indices, dtype=np.int32), indptr),
            shape=(len(pids), max(indices, default=-1) + 1))
        return cls(label, tuple(pids), weights, frozenset(unreclassified), **meta)

    @property
    def vectors(self) -> Mapping[str, dict[int, float]]:
        """Read-only paper id -> {category index: weight} view, built on each access."""
        bounds = self.weights.indptr.tolist()
        indices = self.weights.indices.tolist()
        data = self.weights.data.tolist()
        return MappingProxyType({
            pid: dict(zip(indices[lo:hi], data[lo:hi]))
            for pid, lo, hi in zip(self.paper_ids, bounds, bounds[1:])})


def row_fsums(m: sp.csr_matrix) -> np.ndarray:
    """Per-row ``math.fsum`` of the stored values of a CSR matrix.

    Rows with one or two stored values get it from the value itself and
    from one addition; only longer rows need a Python-level fsum.
    """
    counts = np.diff(m.indptr)
    starts = m.indptr[:-1]
    out = np.zeros(len(counts))
    some = counts > 0
    out[some] = m.data[starts[some]]
    two = counts == 2
    out[two] += m.data[starts[two] + 1]
    long = counts > 2
    if long.any():
        values = m.data[np.repeat(long, counts)].tolist()
        bounds = np.concatenate(([0], np.cumsum(counts[long]))).tolist()
        out[long] = [math.fsum(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return out


def _canonical(m: sp.csr_matrix) -> sp.csr_matrix:
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def weight_order(m: sp.csr_matrix) -> np.ndarray:
    """Permutation of the stored entries by (row, descending weight, column).

    ``m`` must have sorted indices: the sort is stable, so ties keep their
    ascending column order.  Rows of equal length are sorted together as
    one (rows x length) block of their stored entries.
    """
    counts = np.diff(m.indptr)
    order = np.empty(m.nnz, dtype=np.intp)
    lengths = np.flatnonzero(np.bincount(counts))
    for length in lengths[lengths > 0]:
        starts = m.indptr[:-1][counts == length][:, None]
        slots = starts + np.arange(length)
        order[slots] = starts + np.argsort(-m.data[slots], axis=1, kind="stable")
    return order


# ---------------------------------------------------------------------------
# matrix kernels

def _matmul(a: sp.csr_matrix, b: sp.csr_matrix,
            mask: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Canonical CSR of ``a @ b``, restricted to the nonzero entries of ``mask``.

    ``b`` is made dense once; ``a`` is multiplied by it in row blocks of at
    most ``_PRODUCT_BLOCK_ENTRIES`` output entries, and each block's nonzeros
    are read off in row-major order, so the result needs no sort.  Every entry
    adds its terms in ascending column order of ``a``, starting from zero,
    like scipy's sparse product; the zeros of the dense copy add exact zeros
    to the engine's non-negative sums, so the values are the same bit for bit.
    """
    dense_b = b.toarray()
    n, k = a.shape[0], dense_b.shape[1]
    step = max(1, _PRODUCT_BLOCK_ENTRIES // k)
    columns = np.broadcast_to(np.arange(k, dtype=np.int32), (step, k))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, data = [np.empty(0, dtype=np.int32)], [np.empty(0)]
    for lo in range(0, n, step):
        block = a[lo:lo + step] @ dense_b
        keep = block != 0
        if mask is not None:
            keep &= mask[lo:lo + step].toarray() != 0
        indptr[lo + 1:lo + 1 + len(block)] = np.count_nonzero(keep, axis=1)
        indices.append(columns[:len(block)][keep])
        data.append(block[keep])
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                         shape=(n, k))


def _row_normalize(m: sp.csr_matrix):
    """Scale rows of ``m`` in place to unit sum; all-zero rows stay zero.

    Returns (m, zero_rows).
    """
    sums = np.asarray(m.sum(axis=1)).ravel()
    zero = sums == 0
    scale = np.where(zero, 1.0, sums)
    m.data /= np.repeat(scale, np.diff(m.indptr))
    m.eliminate_zeros()
    return m, zero


def _accumulate_matrix(incidence_t, w, scale=None):
    """References x categories matrix: normalized sums of citing-paper rows.

    ``scale`` multiplies each citing paper's row first.
    """
    if scale is not None:
        w = sp.csr_matrix((w.data * np.repeat(scale, np.diff(w.indptr)),
                           w.indices, w.indptr), shape=w.shape)
    acc, _ = _row_normalize(_matmul(incidence_t, w))
    return acc


def _propagate_matrix(incidence, ref_w, prev=None, mask=None):
    """Paper rows: masked sums of cited reference rows, renormalized.

    Rows whose (masked) sum vanishes fall back to the matching row of
    ``prev`` and are reported as stalled.
    """
    out, zero = _row_normalize(_matmul(incidence, ref_w, mask))
    if prev is not None and zero.any():
        out = (out + sp.diags(zero.astype(float)) @ prev).tocsr()
    return out, zero


# ---------------------------------------------------------------------------
# full run

def run(corpus: Corpus, config: EngineConfig):
    """Execute the full loop and return the (JL, U1) classification pair."""
    incidence, w0, ref_counts = corpus.matrices()
    n = len(corpus.paper_ids)
    elig_rows, elig_ids, unreclassified = eligible_rows(corpus, config.min_refs)
    if not len(elig_rows):
        raise EngineError("no eligible papers")
    elig_mask = np.zeros(n, dtype=bool)
    elig_mask[elig_rows] = True

    incidence_el = incidence[elig_rows]
    # citing papers outside the scope get weight 0: their terms add exact
    # zeros to the reference sums, which leaves the other terms' sums as they are
    scale = None
    if config.fractional:
        counts = ref_counts.astype(float)
        scale = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    if not config.include_ineligible_citers:
        scale = elig_mask * (1.0 if scale is None else scale)

    # embed maps eligible-local rows back into full corpus rows; frozen holds
    # the never-updated rows (ineligible papers keep their journal vector).
    embed = sp.csr_matrix(
        (np.ones(len(elig_rows)), (elig_rows, np.arange(len(elig_rows)))),
        shape=(n, len(elig_rows)))
    frozen = (sp.diags((~elig_mask).astype(float)) @ w0).tocsr()

    def step(w_el, w_full, mask):
        """One accumulate -> propagate -> re-embed step (mask None: unlimited).

        Returns the new eligible rows, the new full matrix and the stalled count.
        """
        refs = _accumulate_matrix(corpus.citations, w_full, scale)
        w_new, zero = _propagate_matrix(incidence_el, refs, w_el, mask)
        return w_new, (frozen + embed @ w_new).tocsr(), int(zero.sum())

    threshold = config.effective_threshold(len(elig_ids))
    w_el = w0[elig_rows].tocsr()
    w_full = w0.tocsr()
    trace: list[float] = []
    stalled = 0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        w_new, w_full, n_stalled = step(w_el, w_full, w_el)
        stalled += n_stalled
        diff = (w_new - w_el).tocsr()
        residual = float(diff.multiply(diff).sum())
        trace.append(residual)
        w_el = w_new
        if residual < threshold:
            converged = True
            break

    _check_support(w_el, w0[elig_rows])

    def classification(phase, w, n_stalled):
        return Classification(
            variant_label=f"{phase}-{config.weight_label}",
            paper_ids=elig_ids,
            weights=_canonical(w),
            unreclassified=unreclassified,
            iterations_run=iterations,
            residual_trace=list(trace),
            converged=converged,
            stalled=n_stalled,
        )

    jl = classification("JL", w_el, stalled)
    for _ in range(config.unlimited_passes):
        w_el, w_full, n_stalled = step(w_el, w_full, None)
        stalled += n_stalled
    return jl, classification("U1", w_el, stalled)


def _check_support(w, w0):
    """The masked loop must never move weight outside the journal support."""
    if ((w != 0) > (w0 != 0)).nnz:
        raise EngineError("support invariant violated: weight outside journal support")


# ---------------------------------------------------------------------------
# classification table I/O

def write_classification(c: Classification, scheme: CategoryScheme, path,
                         delimiter: str = ",") -> None:
    """Write (paper_id, category_code, weight) rows plus a metadata sidecar.

    Rows are sorted by (paper_id, descending weight, ascending code) and
    floats use shortest round-trip formatting, so output is reproducible
    byte for byte.  A paper id holding the delimiter or a double quote is
    quoted csv-style; other ids are written as they are.
    """
    path = Path(path)
    w, pids = c.weights, c.paper_ids
    joined = "".join(pids)
    if delimiter in joined or '"' in joined:
        pids = [_csv_field(pid, delimiter) for pid in pids]
    order = weight_order(w)
    codes = np.array([cat.code for cat in scheme.categories])[w.indices[order]]
    data = w.data[order]
    bounds = w.indptr
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(delimiter.join(("paper_id", "category_code", "weight")) + "\n")
        for start in range(0, len(pids), _WRITE_CHUNK_ROWS):
            stop = min(start + _WRITE_CHUNK_ROWS, len(pids))
            lo, hi = bounds[start], bounds[stop]
            rows = np.repeat(np.arange(start, stop), np.diff(bounds[start:stop + 1]))
            fh.writelines(
                f"{pids[r]}{delimiter}{code}{delimiter}{wt!r}\n"
                for r, code, wt in zip(rows.tolist(), codes[lo:hi].tolist(),
                                       data[lo:hi].tolist()))
    meta = {
        "variant": c.variant_label,
        "iterations_run": c.iterations_run,
        "residual_trace": c.residual_trace,
        "converged": c.converged,
        "stalled": c.stalled,
        "papers": len(c.paper_ids),
        "unreclassified": len(c.unreclassified),
    }
    sidecar_path(path).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _csv_field(text: str, delimiter: str) -> str:
    if delimiter in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def read_classification(path, scheme: CategoryScheme, label: str | None = None,
                        delimiter: str | None = None) -> Classification:
    """Read a classification table written by write_classification.

    Every row needs a category code of ``scheme`` and a positive finite
    weight, and no (paper_id, category_code) pair may repeat; a row that
    breaks this raises CorpusError naming the file, line and field.
    """
    pids, indices, weights, lines = [], [], [], []
    for chunk in read_table(path, ("paper_id", "category_code", "weight"), (),
                            delimiter, CorpusError):
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

    ids, rows = np.unique(np.array(pids, dtype=str), return_inverse=True)
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
    meta = (json.loads(meta_file.read_text(encoding="utf-8"))
            if meta_file.exists() else {})
    return Classification(
        label or meta.get("variant", Path(path).stem), tuple(ids.tolist()), matrix,
        iterations_run=meta.get("iterations_run", 0),
        residual_trace=meta.get("residual_trace", []),
        converged=meta.get("converged", True),
        stalled=meta.get("stalled", 0))
