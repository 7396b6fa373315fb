"""Independent dense cross-check of the propagation loop.

A deliberately plain re-statement of the algorithm on dense numpy rows and
explicit per-paper loops, sharing no kernel code with the sparse engine.
Capped in size; use it to verify the engine on small corpora.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus
from .engine import EngineConfig

ORACLE_MAX_PAPERS = 2000


class OracleSizeError(ValueError):
    pass


def to_dense(vec: dict[int, float], size: int) -> np.ndarray:
    out = np.zeros(size)
    for i, w in vec.items():
        out[i] = w
    return out


def dense_run(corpus: Corpus, config: EngineConfig):
    """Dense reference run; returns (jl_vectors, u1_vectors) as dict maps."""
    if len(corpus) > ORACLE_MAX_PAPERS:
        raise OracleSizeError(
            f"oracle limited to {ORACLE_MAX_PAPERS} papers, corpus has {len(corpus)}")
    k = corpus.scheme.size
    pids = list(corpus.paper_ids)
    w = np.array([to_dense(corpus.papers[p].initial_vector, k) for p in pids])
    n_refs = {p: corpus.papers[p].ref_count for p in pids}
    eligible = [p for p in pids if n_refs[p] >= config.min_refs]
    citers = set(pids) if config.include_ineligible_citers else set(eligible)
    row = {p: i for i, p in enumerate(pids)}
    threshold = config.effective_threshold(len(eligible))

    def reference_vectors(weights):
        omega = {}
        for rid in corpus.ref_ids:
            acc = np.zeros(k)
            for p in corpus.ref_index[rid]:
                if p not in citers:
                    continue
                if config.fractional:
                    acc += weights[row[p]] / n_refs[p]
                else:
                    acc += weights[row[p]]
            s = acc.sum()
            if s > 0:
                omega[rid] = acc / s
        return omega

    def back_propagate(weights, omega, masked):
        new = weights.copy()
        for p in eligible:
            acc = np.zeros(k)
            for rid in corpus.papers[p].references:
                if rid in omega:
                    acc += omega[rid]
            if masked:
                acc = np.where(weights[row[p]] > 0, acc, 0.0)
            s = acc.sum()
            if s > 0:
                new[row[p]] = acc / s
        return new

    for _ in range(config.max_iterations):
        omega = reference_vectors(w)
        w_new = back_propagate(w, omega, masked=True)
        residual = float(((w_new - w) ** 2).sum())
        w = w_new
        if residual < threshold:
            break
    jl = w.copy()

    for _ in range(config.unlimited_passes):
        omega = reference_vectors(w)
        w = back_propagate(w, omega, masked=False)
    u1 = w

    def as_maps(mat):
        return {p: {int(c): float(mat[row[p]][c]) for c in np.flatnonzero(mat[row[p]])}
                for p in eligible}

    return as_maps(jl), as_maps(u1)


def max_component_difference(a: dict, b: dict) -> float:
    """Largest per-component deviation between two paper->vector maps."""
    if set(a) != set(b):
        raise ValueError("mismatched paper sets")
    worst = 0.0
    for pid, va in a.items():
        vb = b[pid]
        for c in set(va) | set(vb):
            worst = max(worst, abs(va.get(c, 0.0) - vb.get(c, 0.0)))
    return worst
