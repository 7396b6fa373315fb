"""Bounded multi-assignment: prune raw weight vectors by a ratio threshold.

Entries are ranked by descending weight (ties by ascending category code,
which equals ascending index in the canonical order).  The top entry is
always kept; each further entry survives only while its weight is at least
threshold times the previous kept weight and the cap of MAX_CATEGORIES is
not exceeded.  Kept weights are renormalized to sum 1.

The kept entries are a rank prefix of at most MAX_CATEGORIES, so the prune
ranks only each row's first MAX_CATEGORIES entries, with
``engine.weight_order``; there is no separate cut.  That ranking compares
weights, so prune_classification rejects any that is not positive and finite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import Classification, kept_indptr, row_fsums, weight_order

DEFAULT_THRESHOLDS = (0.5, 0.67, 0.8)
MAX_CATEGORIES = 5

# Relative slack on the ratio test so that renormalization rounding cannot
# flip a pair sitting exactly on the threshold; keeps pruning idempotent.
_RATIO_EPS = 1e-12


@dataclass(frozen=True)
class PruneConfig:
    threshold: float

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")

    @property
    def label(self) -> str:
        return f"{self.threshold:g}"


def _prune_rows(m: sp.csr_matrix, config: PruneConfig) -> sp.csr_matrix:
    """Prune every row of a papers x categories CSR matrix in one pass."""
    if (np.diff(m.indptr) == 0).any():
        raise ValueError("cannot prune an empty vector")
    order, indptr = weight_order(m, MAX_CATEGORIES)
    w = m.data[order]
    # entry i passes when it follows its predecessor in rank closely enough;
    # a row keeps its entries up to (not including) the first that fails
    first = np.zeros(len(w), dtype=bool)
    first[indptr[:-1]] = True
    keep = np.empty(len(w), dtype=bool)
    keep[1:] = w[1:] >= (config.threshold * w[:-1]) * (1.0 - _RATIO_EPS)
    keep |= first
    # a row ranks at most MAX_CATEGORIES entries and its first always passes,
    # so MAX_CATEGORIES - 2 shifted ANDs carry a failure to the end of its row
    for _ in range(MAX_CATEGORIES - 2):
        keep[1:] &= keep[:-1] | first[1:]
    del first
    kept = kept_indptr(keep, indptr)
    w = w[keep]
    order = order[keep]
    ranked = sp.csr_matrix((w, m.indices[order], kept), shape=m.shape)
    del order
    ranked.data /= np.repeat(row_fsums(ranked), np.diff(kept))
    ranked.sort_indices()
    return ranked


def prune_classification(c: Classification, config: PruneConfig) -> Classification:
    """Row-wise prune; the variant label gains the threshold suffix.

    Every weight must be positive and finite: a ValueError names the first
    paper with another.
    """
    data = c.weights.data
    bad = np.flatnonzero(~((data > 0) & (data < np.inf)))
    if len(bad):
        row = np.searchsorted(c.weights.indptr, bad[0], side="right") - 1
        raise ValueError(f"paper {c.paper_ids[row]}: weight {data[bad[0]]!r} "
                         "is not positive and finite")
    return dataclasses.replace(
        c, variant_label=f"{c.variant_label}-{config.label}",
        weights=_prune_rows(c.weights, config),
        residual_trace=list(c.residual_trace))
