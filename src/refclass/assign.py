"""Bounded multi-assignment: prune raw weight vectors by a ratio threshold.

Entries are ranked by descending weight (ties by ascending category code,
which equals ascending index in the canonical order).  The top entry is
always kept; each further entry survives only while its weight is at least
threshold times the previous kept weight and the cap of max_categories is
not exceeded.  Kept weights are renormalized to sum 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import Classification, row_fsums, weight_order

DEFAULT_THRESHOLDS = (0.5, 0.67, 0.8)
DEFAULT_MAX_CATEGORIES = 5

# Relative slack on the ratio test so that renormalization rounding cannot
# flip a pair sitting exactly on the threshold; keeps pruning idempotent.
_RATIO_EPS = 1e-12


@dataclass(frozen=True)
class PruneConfig:
    threshold: float
    max_categories: int = DEFAULT_MAX_CATEGORIES

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.max_categories < 1:
            raise ValueError("max_categories must be >= 1")

    @property
    def label(self) -> str:
        return f"{self.threshold:g}"


def _prune_rows(m: sp.csr_matrix, config: PruneConfig) -> sp.csr_matrix:
    """Prune every row of a papers x categories CSR matrix in one pass."""
    counts = np.diff(m.indptr)
    if (counts == 0).any():
        raise ValueError("cannot prune an empty vector")
    order = weight_order(m)
    w = m.data[order]
    starts = m.indptr[:-1]
    # entry i passes when it follows its predecessor in rank closely enough;
    # a row keeps its entries up to (not including) the first that fails
    passes = np.empty(len(w), dtype=bool)
    passes[1:] = w[1:] >= (config.threshold * w[:-1]) * (1.0 - _RATIO_EPS)
    passes[starts] = True
    passes &= np.arange(len(w)) - np.repeat(starts, counts) < config.max_categories
    failed = np.cumsum(~passes)
    keep = failed == np.repeat(failed[starts], counts)

    indptr = np.concatenate(([0], np.cumsum(keep)))[m.indptr]
    ranked = sp.csr_matrix((w[keep], m.indices[order[keep]], indptr), shape=m.shape)
    ranked.data /= np.repeat(row_fsums(ranked), np.diff(indptr))
    ranked.sort_indices()
    return ranked


def prune_classification(c: Classification, config: PruneConfig) -> Classification:
    """Row-wise prune; the variant label gains the threshold suffix."""
    return dataclasses.replace(
        c, variant_label=f"{c.variant_label}-{config.label}",
        weights=_prune_rows(c.weights, config),
        residual_trace=list(c.residual_trace))
