"""Memory gates: traced allocations of the prune, of run() and of the writer,
measured with tracemalloc.

numpy reports its buffers to tracemalloc, so these peaks count every array a
stage holds at once; they involve no clock and give the same verdict on
every run.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from refclass.assign import PruneConfig, prune_classification
from refclass.corpus import load_corpus
from refclass.engine import Classification, EngineConfig, run, write_classification
from refclass.scheme import load_scheme
from refclass.synth import SynthParams, generate

from conftest import build_scheme


def traced(fn, *args):
    """(fn's result, peak traced bytes while it ran, traced bytes it left held)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def dense_classification(n, k):
    """A raw U1-like classification whose n rows all hold every one of k categories."""
    weights = np.random.default_rng(0).random((n, k)) + 1e-3
    weights /= weights.sum(axis=1)[:, None]
    return Classification("U1-F", tuple(f"p{i:05d}" for i in range(n)),
                          sp.csr_matrix(weights))


@pytest.mark.parametrize("threshold", [0.5, 0.8])
def test_prune_of_dense_rows_allocates_a_fraction_of_its_input(threshold):
    # every row holds all 285 categories: the cut to each row's five heaviest
    # works in bounded blocks, so beyond its output the prune allocates less
    # than half of its input's data and indices (2.75 times them when a
    # row-length group was cut as one block)
    n, k = 2000, 285
    c = dense_classification(n, k)
    pruned, peak, _ = traced(prune_classification, c, PruneConfig(threshold))
    out = pruned.weights
    assert out.shape == (n, k) and np.diff(out.indptr).max() <= 5
    output = out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
    assert peak - output <= 0.5 * (c.weights.data.nbytes + c.weights.indices.nbytes)


def test_run_peak_on_dense_rows_is_bounded_in_dense_matrices(tmp_path):
    # a corpus like the dense-converge workload (285 categories, dense U1
    # rows): the citing weights and blocks are dropped before the U1 pass
    # allocates its rows, and the blocks are the only copy of the slots.  The
    # traced peak is 3.9 papers x categories x 8 bytes (4.9 when the citing
    # weights, the blocks and the whole transpose stayed alive through the
    # U1 pass)
    paths = generate(SynthParams(
        n_papers=2000, n_categories=285, n_areas=26, seed=11, journal_noise=0.3,
        ref_noise=0.3, misc_fraction=0.1, multidisciplinary_fraction=0.2)).write(tmp_path)
    corpus = load_corpus(paths["papers"], paths["journals"], paths["references"],
                         load_scheme(paths["scheme"]))
    config = EngineConfig(fractional=True, convergence_threshold=1e-12,
                          per_paper_threshold=None, max_iterations=5)
    (jl, u1), peak, _ = traced(run, corpus, config)
    assert u1.weights.nnz > 0.9 * len(corpus) * 285
    assert peak <= 4.4 * len(corpus) * 285 * 8


def test_write_of_dense_rows_is_bounded_by_entries(tmp_path):
    # 570,000 entries: the writer ranks and formats one row chunk of about
    # 2^16 entries at a time, so its traced peak is 1.4 times the input's
    # data and indices (3.2 times with a permutation, codes and weights held
    # for every entry; 11.7 times when a chunk was 2^16 rows)
    n, k = 2000, 285
    c = dense_classification(n, k)
    scheme = build_scheme([(1102 + i, 1100) for i in range(k)])
    _, peak, _ = traced(write_classification, c, scheme, tmp_path / "U1-F.csv")
    assert peak <= 2 * (c.weights.data.nbytes + c.weights.indices.nbytes)
