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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, CorpusError, DEFAULT_MIN_REFS
from .scheme import CategoryScheme, iter_rows

# 3000 / 3246022: the absolute stopping budget expressed per classified paper,
# so that corpora of any size terminate at a comparable precision.
DEFAULT_PER_PAPER_THRESHOLD = 9.243e-4
ABSOLUTE_THRESHOLD = 3000.0


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


@dataclass
class Classification:
    """Per-paper weight vectors under a named variant."""

    variant_label: str
    vectors: dict[str, dict[int, float]]
    unreclassified: frozenset[str]
    iterations_run: int = 0
    residual_trace: list[float] = field(default_factory=list)
    converged: bool = True
    stalled: int = 0


# ---------------------------------------------------------------------------
# matrix kernels

def _matmul(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    out = (a @ b).tocsr()
    out.sort_indices()
    return out


def _row_normalize(m: sp.csr_matrix):
    """Scale rows to unit sum; all-zero rows stay zero.  Returns (matrix, zero_rows)."""
    m = m.tocsr(copy=True)
    sums = np.asarray(m.sum(axis=1)).ravel()
    zero = sums == 0
    scale = np.where(zero, 1.0, sums)
    m.data = m.data / np.repeat(scale, np.diff(m.indptr))
    m.eliminate_zeros()
    return m, zero


def _support(m: sp.csr_matrix) -> sp.csr_matrix:
    out = m.tocsr(copy=True)
    out.eliminate_zeros()
    out.data = np.ones_like(out.data)
    return out


def _accumulate_matrix(incidence_t, w, inv_refs=None):
    """References x categories matrix: normalized sums of citing-paper rows."""
    if inv_refs is not None:
        w = sp.diags(inv_refs) @ w
    acc = _matmul(incidence_t, w)
    acc, _ = _row_normalize(acc)
    return acc


def _propagate_matrix(incidence, ref_w, prev=None, mask=None):
    """Paper rows: masked sums of cited reference rows, renormalized.

    Rows whose (masked) sum vanishes fall back to the matching row of
    ``prev`` and are reported as stalled.
    """
    out = _matmul(incidence, ref_w)
    if mask is not None:
        out = out.multiply(mask).tocsr()
    out, zero = _row_normalize(out)
    if prev is not None and zero.any():
        out = (out + sp.diags(zero.astype(float)) @ prev).tocsr()
    return out, zero


def _rows_to_vectors(m: sp.csr_matrix, ids) -> dict[str, dict[int, float]]:
    m = m.tocsr()
    m.sort_indices()
    out = {}
    indptr, indices, data = m.indptr, m.indices, m.data
    for i, pid in enumerate(ids):
        lo, hi = indptr[i], indptr[i + 1]
        out[pid] = {int(c): float(w)
                    for c, w in zip(indices[lo:hi], data[lo:hi]) if w != 0.0}
    return out


# ---------------------------------------------------------------------------
# full run

def run(corpus: Corpus, config: EngineConfig):
    """Execute the full loop and return the (JL, U1) classification pair."""
    incidence, w0, ref_counts = corpus.matrices()
    n = len(corpus.paper_ids)
    elig_rows = np.flatnonzero(ref_counts >= config.min_refs)
    if not len(elig_rows):
        raise EngineError("no eligible papers")
    elig_ids = [corpus.paper_ids[i] for i in elig_rows]
    elig_mask = np.zeros(n, dtype=bool)
    elig_mask[elig_rows] = True

    scope_rows = np.arange(n) if config.include_ineligible_citers else elig_rows
    incidence_el = incidence[elig_rows]
    incidence_t = incidence[scope_rows].T.tocsr()
    inv = None
    if config.fractional:
        counts = ref_counts[scope_rows].astype(float)
        inv = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)

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
        refs = _accumulate_matrix(incidence_t, w_full[scope_rows], inv)
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
        w_new, w_full, n_stalled = step(w_el, w_full, _support(w_el))
        stalled += n_stalled
        diff = (w_new - w_el).tocsr()
        residual = float(diff.multiply(diff).sum())
        trace.append(residual)
        w_el = w_new
        if residual < threshold:
            converged = True
            break

    _check_support(w_el, w0[elig_rows])
    unreclassified = frozenset(corpus.paper_ids) - frozenset(elig_ids)

    def classification(phase, w, n_stalled):
        return Classification(
            variant_label=f"{phase}-{config.weight_label}",
            vectors=_rows_to_vectors(w, elig_ids),
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
    extra = _support(w) - _support(w).multiply(_support(w0))
    extra.eliminate_zeros()
    if extra.nnz:
        raise EngineError("support invariant violated: weight outside journal support")


# ---------------------------------------------------------------------------
# classification table I/O

def write_classification(c: Classification, scheme: CategoryScheme, path,
                         delimiter: str = ",") -> None:
    """Write (paper_id, category_code, weight) rows plus a metadata sidecar.

    Rows are sorted by (paper_id, descending weight, ascending code) and
    floats use shortest round-trip formatting, so output is reproducible
    byte for byte.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(delimiter.join(("paper_id", "category_code", "weight")) + "\n")
        for pid in sorted(c.vectors):
            entries = sorted(c.vectors[pid].items(),
                             key=lambda kv: (-kv[1], scheme.code_of(kv[0])))
            for idx, w in entries:
                fh.write(f"{pid}{delimiter}{scheme.code_of(idx)}{delimiter}{w!r}\n")
    meta = {
        "variant": c.variant_label,
        "iterations_run": c.iterations_run,
        "residual_trace": c.residual_trace,
        "converged": c.converged,
        "stalled": c.stalled,
        "papers": len(c.vectors),
        "unreclassified": len(c.unreclassified),
    }
    sidecar_path(path).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def read_classification(path, scheme: CategoryScheme, label: str | None = None,
                        delimiter: str | None = None) -> Classification:
    """Read a classification table written by write_classification."""
    vectors: dict[str, dict[int, float]] = {}
    for row in iter_rows(path, ("paper_id", "category_code", "weight"), delimiter,
                         CorpusError):
        idx = scheme.index_of(int(row["category_code"]))
        vectors.setdefault(row["paper_id"], {})[idx] = float(row["weight"])
    c = Classification(label or Path(path).stem, vectors, frozenset())
    meta_file = sidecar_path(path)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        c.variant_label = label or meta.get("variant", c.variant_label)
        c.iterations_run = meta.get("iterations_run", 0)
        c.residual_trace = meta.get("residual_trace", [])
        c.converged = meta.get("converged", True)
        c.stalled = meta.get("stalled", 0)
    return c
