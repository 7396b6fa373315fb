"""Bounded multi-assignment: prune raw weight vectors by a ratio threshold.

Entries are ranked by descending weight (ties by ascending category code,
which equals ascending index in the canonical order).  The top entry is
always kept; each further entry survives only while its weight is at least
threshold times the previous kept weight and the cap of MAX_CATEGORIES is
not exceeded.  Kept weights are renormalized to sum 1.

The kept entries are a rank prefix of at most MAX_CATEGORIES, so the prune
ranks only each row's first MAX_CATEGORIES entries, with
``engine.weight_order``; there is no separate cut.  One ranking serves every
threshold: ``prune_blocks`` prunes a matrix, whole or as a stream of row
blocks, at several thresholds at once, and prune_classification is its
one-threshold call.  The ranking compares weights, so the prune rejects any
that is not positive and finite.
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


def _prune_rows(m: sp.csr_matrix, thresholds) -> list[sp.csr_matrix]:
    """Every row of a papers x categories CSR matrix pruned at each threshold.

    The rows are ranked once; each threshold's pass reads that ranking.
    """
    if (np.diff(m.indptr) == 0).any():
        raise ValueError("cannot prune an empty vector")
    order, indptr = weight_order(m, MAX_CATEGORIES)
    w, columns = m.data[order], m.indices[order]
    del order
    first = np.zeros(len(w), dtype=bool)
    first[indptr[:-1]] = True
    out = []
    for threshold in thresholds:
        # entry i passes when it follows its predecessor in rank closely enough;
        # a row keeps its entries up to (not including) the first that fails
        bound = threshold * w[:-1]
        bound *= 1.0 - _RATIO_EPS
        keep = np.empty(len(w), dtype=bool)
        np.greater_equal(w[1:], bound, out=keep[1:])
        del bound
        keep |= first
        # a row ranks at most MAX_CATEGORIES entries and its first always passes,
        # so MAX_CATEGORIES - 2 shifted ANDs carry a failure to the end of its row
        for _ in range(MAX_CATEGORIES - 2):
            keep[1:] &= keep[:-1] | first[1:]
        out.append(sp.csr_matrix((w[keep], columns[keep], kept_indptr(keep, indptr)),
                                 shape=m.shape))
        del keep
    del w, columns, first  # the ranking is dropped before any row is summed
    for ranked in out:
        ranked.data /= np.repeat(row_fsums(ranked), np.diff(ranked.indptr))
        ranked.sort_indices()
    return out


def prune_blocks(blocks, paper_ids, configs) -> list[sp.csr_matrix]:
    """The rows of consecutive CSR row ``blocks`` pruned at each config's threshold.

    Row ``i`` of the blocks belongs to ``paper_ids[i]``.  Each block is ranked
    once, whatever the number of thresholds, and may be dropped as soon as it
    is pruned.  Every weight must be positive and finite: a ValueError names
    the first paper with another.
    """
    thresholds = [config.threshold for config in configs]
    parts = [[] for _ in configs]
    lo = 0
    for rows in blocks:
        _check_weights(rows, paper_ids, lo)
        for part, weights in zip(parts, _prune_rows(rows, thresholds)):
            part.append(weights)
        lo += rows.shape[0]
        del rows  # dropped before the next block is made
    return [part[0] if len(part) == 1 else sp.vstack(part, format="csr") for part in parts]


def _check_weights(m: sp.csr_matrix, paper_ids, first_row: int) -> None:
    """A ValueError names the first paper whose weight is not positive and
    finite; row ``i`` of ``m`` belongs to ``paper_ids[first_row + i]``."""
    bad = np.flatnonzero(~((m.data > 0) & (m.data < np.inf)))
    if len(bad):
        row = first_row + np.searchsorted(m.indptr, bad[0], side="right") - 1
        raise ValueError(f"paper {paper_ids[row]}: weight {m.data[bad[0]]!r} "
                         "is not positive and finite")


def pruned(c: Classification, config: PruneConfig,
           weights: sp.csr_matrix) -> Classification:
    """``c`` on ``weights``, its rows pruned at ``config``; the variant label gains
    the threshold suffix."""
    return dataclasses.replace(
        c, variant_label=f"{c.variant_label}-{config.label}", weights=weights,
        residual_trace=list(c.residual_trace))


def prune_classification(c: Classification, config: PruneConfig) -> Classification:
    """Row-wise prune; the variant label gains the threshold suffix.

    Every weight must be positive and finite: a ValueError names the first
    paper with another.
    """
    return pruned(c, config, prune_blocks([c.weights], c.paper_ids, [config])[0])
