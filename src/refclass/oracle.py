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


def dense_run(corpus: Corpus, config: EngineConfig):
    """Dense reference run; returns the (JL, U1) eligible papers x categories arrays."""
    if len(corpus) > ORACLE_MAX_PAPERS:
        raise OracleSizeError(
            f"oracle limited to {ORACLE_MAX_PAPERS} papers, corpus has {len(corpus)}")
    k = corpus.scheme.size
    n = len(corpus.paper_ids)
    incidence, initial, _ = corpus.matrices()
    # each paper's cited reference columns, one entry per slot, its journal
    # vector as a dense row, and each reference's citing papers per slot
    refs = []
    w = np.zeros((n, k))
    citing = [[] for _ in corpus.ref_ids]
    for p in range(n):
        slots = []
        lo, hi = incidence.indptr[p], incidence.indptr[p + 1]
        for rid, count in zip(incidence.indices[lo:hi], incidence.data[lo:hi]):
            slots += [int(rid)] * int(count)
        refs.append(slots)
        for rid in slots:
            citing[rid].append(p)
        lo, hi = initial.indptr[p], initial.indptr[p + 1]
        for c, weight in zip(initial.indices[lo:hi], initial.data[lo:hi]):
            w[p, c] = weight
    n_refs = [len(slots) for slots in refs]
    eligible = [p for p in range(n) if n_refs[p] >= config.min_refs]
    citers = set(range(n)) if config.include_ineligible_citers else set(eligible)
    threshold = config.effective_threshold(len(eligible))

    def reference_vectors(weights):
        omega = {}
        for rid, papers in enumerate(citing):
            acc = np.zeros(k)
            for p in papers:
                if p not in citers:
                    continue
                if config.fractional:
                    acc += weights[p] / n_refs[p]
                else:
                    acc += weights[p]
            s = acc.sum()
            if s > 0:
                omega[rid] = acc / s
        return omega

    def back_propagate(weights, omega, masked):
        new = weights.copy()
        for p in eligible:
            acc = np.zeros(k)
            for rid in refs[p]:
                if rid in omega:
                    acc += omega[rid]
            if masked:
                acc = np.where(weights[p] > 0, acc, 0.0)
            s = acc.sum()
            if s > 0:
                new[p] = acc / s
        return new

    for _ in range(config.max_iterations):
        omega = reference_vectors(w)
        w_new = back_propagate(w, omega, masked=True)
        residual = float(((w_new - w) ** 2).sum())
        w = w_new
        if residual < threshold:
            break
    jl = w[eligible]

    u1 = back_propagate(w, reference_vectors(w), masked=False)
    return jl, u1[eligible]


def max_component_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-component deviation between two papers x categories arrays."""
    if a.shape != b.shape:
        raise ValueError(f"mismatched shapes {a.shape} and {b.shape}")
    return float(np.abs(a - b).max(initial=0.0))
