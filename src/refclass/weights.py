"""Sparse weight vectors stored as plain dicts (category index -> weight).

Zero entries are never stored; the empty dict is the zero vector.  All
weights are non-negative and a non-empty vector sums to 1 after
normalization.
"""

from __future__ import annotations

import math

import numpy as np


def vec_sum(vec: dict[int, float]) -> float:
    return math.fsum(vec.values())


def normalize(vec: dict[int, float]) -> dict[int, float]:
    """Scale a vector to unit sum; the zero vector normalizes to {}."""
    total = vec_sum(vec)
    if total == 0.0:
        return {}
    return {i: w / total for i, w in sorted(vec.items()) if w != 0.0}


def to_dense(vec: dict[int, float], size: int) -> np.ndarray:
    out = np.zeros(size)
    for i, w in vec.items():
        out[i] = w
    return out
