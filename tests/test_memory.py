"""Memory gates: traced allocations of the prune, of run(), of the CLI's
engine and prune path, of the writer and of what a loaded corpus holds,
measured with tracemalloc.

numpy reports its buffers to tracemalloc, so these peaks count every array a
stage holds at once; they involve no clock and give the same verdict on
every run.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from refclass import cli, engine
from refclass.assign import PruneConfig, prune_classification
from refclass.corpus import load_corpus
from refclass.engine import (EngineConfig, _Support, _row_blocks, run,
                             write_classification)
from refclass.scheme import load_scheme
from refclass.synth import SynthParams, generate

from conftest import build_scheme, own_index


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
    return own_index("U1-F", [f"p{i:05d}" for i in range(n)], sp.csr_matrix(weights))


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


@pytest.mark.parametrize("threshold", [0.5, 0.8])
def test_prune_of_short_rows_scans_no_entry_twice(threshold):
    # rows of 1-3 entries, as most JL rows are: every stored entry is ranked,
    # so the per-entry arrays set the prune's peak.  Each row's passing
    # prefix comes from shifted boolean ANDs, and the row sums copy no per-row
    # index array, so the traced peak, output included, is 3.17 times the
    # input's data and indices, set by the ranking's blocks (5.3 with a
    # cumulative count of failures and its repeat over every entry, 3.23 when
    # the row sums copied fancy-indexed row starts and values)
    rng = np.random.default_rng(0)
    n, k = 60_000, 16
    counts = rng.integers(1, 4, n)
    cols = np.argsort(rng.random((n, k)), axis=1)[:, :3]
    cols = np.sort(np.where(np.arange(3) < counts[:, None], cols, k), axis=1)
    indices = cols[cols < k].astype(np.int32)
    weights = sp.csr_matrix((rng.random(len(indices)) + 1e-3, indices,
                             np.concatenate(([0], np.cumsum(counts)))), shape=(n, k))
    c = own_index("JL-F", [f"p{i:05d}" for i in range(n)], weights)
    pruned, peak, _ = traced(prune_classification, c, PruneConfig(threshold))
    assert pruned.weights.nnz < weights.nnz
    assert peak <= 3.2 * (weights.data.nbytes + weights.indices.nbytes)


def test_run_peak_on_dense_rows_is_bounded_in_dense_matrices(tmp_path):
    # a corpus like the dense-converge workload (285 categories, dense U1
    # rows): the citing weights and blocks are dropped before the U1 pass
    # allocates its rows, the citing blocks are the only copy of the
    # transposed slots and the paper blocks are views of the incidence, and
    # the JL support costs 12 bytes an entry, built from the journal rows one
    # range at a time.  The traced peak is 3.12 papers x categories x 8 bytes
    # (3.14 with a 24-byte support, 3.9 with a 44-byte support and the
    # journal rows held through the loop; 4.9 when the citing weights, the
    # blocks and the whole transpose stayed alive through the U1 pass)
    paths = generate(SynthParams(
        n_papers=2000, n_categories=285, n_areas=26, seed=11, journal_noise=0.3,
        ref_noise=0.3, misc_fraction=0.1, multidisciplinary_fraction=0.2)).write(tmp_path)
    corpus = load_corpus(paths["papers"], paths["journals"], paths["references"],
                         load_scheme(paths["scheme"]))
    config = EngineConfig(fractional=True, convergence_threshold=1e-12,
                          per_paper_threshold=None, max_iterations=5)
    (jl, u1), peak, _ = traced(run, corpus, config)
    assert u1.weights.nnz > 0.9 * len(corpus) * 285
    assert peak <= 3.15 * len(corpus) * 285 * 8


def test_cli_weighting_without_a_raw_u1_variant_holds_no_u1_matrix(tmp_path):
    # the CLI's engine and prune path for one weighting, as on the
    # dense-converge workload (285 categories, nearly full U1 rows, JL and U1
    # pruned): the U1 rows are pruned one row block at a time as the U1 pass
    # makes them, and the traced peak is 2.57 papers x
    # categories x 8 bytes (2.67 with the support built in ranges of 2^16
    # entries, 2.84 with a 24-byte support and a copy of the eligible
    # incidence rows; 3.03 with the support's scatter in ranges of
    # 2^16 entries; 3.11 when the U1 rows were assembled whole, 12 bytes per
    # entry, and then pruned)
    paths = generate(SynthParams(
        n_papers=2000, n_categories=285, n_areas=26, seed=11, journal_noise=0.3,
        ref_noise=0.3, misc_fraction=0.1, multidisciplinary_fraction=0.2)).write(tmp_path)
    corpus = load_corpus(paths["papers"], paths["journals"], paths["references"],
                         load_scheme(paths["scheme"]))
    config = EngineConfig(fractional=True, convergence_threshold=1e-12,
                          per_paper_threshold=None, max_iterations=5)

    def weighting():
        jl, u1_rows, u1_stalled = cli.propagate(corpus, config)
        return cli._variants(jl, u1_rows, u1_stalled,
                             [("JL", PruneConfig(0.5)), ("U1", PruneConfig(0.5))])

    made, peak, _ = traced(weighting)
    assert made["U1-F-0.5"].weights.nnz >= len(corpus)
    assert peak <= 2.6 * len(corpus) * 285 * 8


def test_corpus_holds_the_journal_vectors_once_per_journal(tmp_path):
    # load_corpus keeps each journal's vector once, and each paper's journal
    # index: what it leaves held for the dense-converge corpus (2000 x 285,
    # 117,243 journal entries across its papers) is 0.41 of the papers x
    # categories journal matrix that its Corpus held before, ids and
    # incidence included
    paths = generate(SynthParams(
        n_papers=2000, n_categories=285, n_areas=26, seed=11, journal_noise=0.3,
        ref_noise=0.3, misc_fraction=0.1, multidisciplinary_fraction=0.2)).write(tmp_path)
    scheme = load_scheme(paths["scheme"])
    corpus, _, held = traced(load_corpus, paths["papers"], paths["journals"],
                             paths["references"], scheme)
    initial = corpus.initial
    assert initial.shape == (len(corpus), 285)
    assert held < initial.data.nbytes + initial.indices.nbytes + initial.indptr.nbytes


def test_jl_support_costs_at_most_16_bytes_per_entry():
    # the support keeps a value and an int32 position in the citing buffer
    # per entry (12 bytes; 24 with an int32 column, an int32 product position
    # and a spare value, 44 with an intp flat position, an intp product
    # position and a citing scale per entry), and each of its passes goes one
    # row block or range at a time.  Built from the journal rows and stepped
    # three times, with entries leaving, its traced peak is 12.4 bytes per
    # entry (24.2 with the 24-byte entries); the blocks are cut small, so
    # that their temporaries stay small beside it
    rng = np.random.default_rng(0)
    n, k, n_refs = 3000, 285, 400
    w0 = sp.random(n, k, density=0.5, format="csr", random_state=rng)
    incidence = sp.random(n, n_refs, density=0.02, format="csr", random_state=rng)
    incidence.data[:] = 1.0
    refs = rng.random((n_refs, k))
    refs[:, ::7] = 0.0  # every seventh column's entries come out zero and leave
    rows, scale, flat = np.arange(n), np.ones(n), np.zeros(n * k)

    def steps():
        support = _Support(w0, rows, rows, scale)
        for _ in range(3):
            support.propagate(blocks, refs, flat)
            support.residual()
            support.advance(flat)
        return support

    with mock.patch.object(engine, "_BLOCK_ENTRIES", 1 << 12):
        blocks = _row_blocks(incidence, k)
        support, peak, _ = traced(steps)
    assert 0 < len(support.values) < 0.9 * w0.nnz
    assert peak <= 16 * w0.nnz


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
