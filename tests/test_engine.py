import csv
import dataclasses
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from refclass import engine
from refclass import scheme as scheme_module
from refclass.corpus import Corpus, CorpusError, eligible_rows, load_corpus
from refclass.engine import (EngineConfig, EngineError, _Support, _propagate,
                             _row_blocks, collect_rows, read_classification, run,
                             write_classification)
from refclass.oracle import dense_run, max_component_difference
from refclass.scheme import load_scheme
from refclass.synth import SynthParams, generate

from conftest import (MALFORMED_SIDECARS, MALFORMED_TABLES, build_corpus, build_scheme,
                      from_vectors, vec_sum)


def approx_vec(vec, expected, tol=1e-12):
    assert set(vec) == set(expected)
    for k, v in expected.items():
        assert vec[k] == pytest.approx(v, abs=tol)


def two_cat_corpus(papers):
    scheme = build_scheme([(1102, 1100), (1103, 1100)])
    journals = {"JA": [(1102, 1.0)], "JB": [(1103, 1.0)]}
    return build_corpus(scheme, journals, papers)


class TestConfig:
    def test_defaults_carry_the_stopping_constants(self):
        cfg = EngineConfig()
        assert cfg.per_paper_threshold == pytest.approx(9.243e-4)
        assert cfg.effective_threshold(3_246_022) == pytest.approx(3000.0, rel=1e-3)
        assert cfg.max_iterations == 50

    def test_exactly_one_threshold(self):
        with pytest.raises(EngineError):
            EngineConfig(convergence_threshold=3000.0,
                         per_paper_threshold=1e-3)
        with pytest.raises(EngineError):
            EngineConfig(convergence_threshold=None, per_paper_threshold=None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_threshold_must_be_positive_and_finite(self, value):
        with pytest.raises(EngineError, match="positive and finite"):
            EngineConfig(per_paper_threshold=value)
        with pytest.raises(EngineError, match="positive and finite"):
            EngineConfig(convergence_threshold=value, per_paper_threshold=None)

    def test_min_refs_must_not_be_negative(self):
        with pytest.raises(EngineError, match="min_refs must be >= 0"):
            EngineConfig(min_refs=-2)
        assert EngineConfig(min_refs=0).min_refs == 0


def csr(rows):
    return sp.csr_matrix(np.array(rows, dtype=float))


def row_vectors(m):
    """Nonzero entries of each row of a sparse matrix as {column: value} dicts."""
    m = m.tocsr()
    m.sort_indices()
    return [{int(c): float(w)
             for c, w in zip(m.indices[lo:hi], m.data[lo:hi]) if w != 0.0}
            for lo, hi in zip(m.indptr, m.indptr[1:])]


def sparse_product(a, b, mask=None):
    """The scipy composition the block kernels replace: SpGEMM, sort, mask, drop zeros."""
    out = (a @ b).tocsr()
    out.sort_indices()
    if mask is not None:
        out = out.multiply(mask).tocsr()
    out.eliminate_zeros()
    return out


def scipy_row_normalize(m):
    """Rows of CSR ``m`` scaled in place by scipy's ``sum(axis=1)``: (m, zero rows)."""
    sums = np.asarray(m.sum(axis=1)).ravel()
    zero = sums == 0
    m.data /= np.repeat(np.where(zero, 1.0, sums), np.diff(m.indptr))
    m.eliminate_zeros()
    return m, zero


def accumulate(incidence, w, scale=None, rows=None):
    """run()'s references x categories matrix for the papers x references
    ``incidence`` and citing rows ``w``, as CSR.  The support holds ``rows``
    (all by default); the other rows cite as fixed rows."""
    n, k = w.shape
    rows = np.arange(n) if rows is None else rows
    support = _Support(w, np.arange(n), rows, np.ones(n) if scale is None else scale)
    refs = np.empty((incidence.shape[1], k))
    support.cite(_row_blocks(incidence, k), refs)
    return sp.csr_matrix(refs)


def jl_step(blocks, refs, prev):
    """run()'s JL rows on ``prev``'s support from dense ``refs``: (canonical CSR
    rows, stalled)."""
    n, k = prev.shape
    support = _Support(prev, np.arange(n), np.arange(n), np.ones(n))
    stalled = support.propagate(blocks, refs)
    support.advance()
    return support.csr(), stalled


def u1_rows(blocks, refs, prev):
    """run()'s U1 rows from dense ``refs``, streamed and collected: (CSR rows, stalled)."""
    n = prev.shape[0]
    stalled = np.zeros(n, dtype=bool)
    return collect_rows(_propagate(blocks, refs, prev, np.arange(n), stalled),
                        prev.shape), stalled


def propagate(incidence, refs, prev, masked=False):
    """run()'s paper rows from reference rows ``refs``: (CSR rows, stalled)."""
    blocks = _row_blocks(incidence, refs.shape[1])
    if masked:
        return jl_step(blocks, refs.toarray(), prev)
    return u1_rows(blocks, refs.toarray(), prev)


def reversed_rows(m):
    """``m`` with each row's stored entries in reverse order: unsorted indices."""
    order = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                            for lo, hi in zip(m.indptr, m.indptr[1:])] + [[]]).astype(int)
    return sp.csr_matrix((m.data[order], m.indices[order], m.indptr), shape=m.shape)


def sorted_mask(m):
    """The 0/1 matrix of ``m``'s stored entries, with sorted indices.

    ``m`` itself is left as it is: scipy's ``!=`` sorts its operand in place.
    """
    mask = (m.copy() != 0).astype(float)
    mask.sort_indices()
    return mask


@st.composite
def product_operands(draw):
    """(a, b, prev, masked): incidence counts 0-3, rows of b and prev that may be
    empty, prev's indices sorted or not (a stalled row's fallback unsorts them)."""
    n, m, k = draw(st.integers(0, 9)), draw(st.integers(0, 7)), draw(st.integers(1, 6))

    def matrix(rows, cols, values):
        cells = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        return sp.csr_matrix(np.array(cells, dtype=float).reshape(rows, cols))

    a = matrix(n, m, st.sampled_from([0, 0, 1, 1, 2, 3]))
    b = matrix(m, k, st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    prev = matrix(n, k, st.sampled_from([0, 0.5, 1]))
    if draw(st.booleans()):
        prev = reversed_rows(prev)
    return a, b, prev, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_matmul_equals_sparse_product_bit_for_bit(operands):
    # the block kernels against scipy's products: the citing pass's dense rows
    # are the normalized a @ b, whether b's rows are the support's or fixed
    # rows (a's transpose is then the incidence); the JL step's rows the
    # normalized product masked by prev's support, _propagate's the unmasked
    # one, with stalled rows taken from prev.  scipy's stall fallback leaves
    # its rows in an order of its own, and _propagate's stalled rows keep
    # prev's order: every later use sorts them, so both are compared in column
    # order.  The JL step's rows are canonical as they are
    a, b, prev, masked = operands
    k = b.shape[1]
    refs, _ = scipy_row_normalize(sparse_product(a, b))
    rows, zero = scipy_row_normalize(sparse_product(a, b, sorted_mask(prev) if masked
                                                    else None))
    if zero.any():
        rows = (rows + sp.diags(zero.astype(float)) @ prev).tocsr()
        rows.sort_indices()
    for budget in (1, 2, k, engine._BLOCK_ENTRIES):
        with mock.patch.object(engine, "_BLOCK_ENTRIES", budget):
            blocks = _row_blocks(a, k)
            cited = [accumulate(a.T.tocsr(), b, rows=rows)
                     for rows in (np.arange(b.shape[0]), np.arange(0, b.shape[0], 2))]
            out, stalled = (jl_step(blocks, b.toarray(), prev) if masked
                            else u1_rows(blocks, b.toarray(), prev))
        if not masked:
            out.sort_indices()
        for dense in cited:
            assert np.array_equal(dense.toarray(), refs.toarray())
        assert np.array_equal(stalled, zero)
        assert out.shape == rows.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(out, part), getattr(rows, part)), part


@st.composite
def citing_operands(draw):
    """(incidence, x): papers x references counts 1-2 with empty rows and
    columns, and a dense papers x categories ``x`` holding zeros."""
    n, m, k = draw(st.integers(0, 9)), draw(st.integers(0, 7)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n * m, max_size=n * m))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                           min_size=n * k, max_size=n * k))
    return (sp.csr_matrix(np.array(cells, dtype=float).reshape(n, m)),
            np.array(values).reshape(n, k))


@settings(max_examples=300, deadline=None)
@given(citing_operands(), st.sampled_from([1, 2, 7, engine._BLOCK_ENTRIES]))
def test_csc_matvecs_adds_block_transposes_as_the_whole_product(operands, budget):
    # the citing pass's one private scipy kernel: for a CSR paper block,
    # csc_matvecs adds the block's transpose @ x into y in place.  Added block
    # by block into one y from zero, it is bit-equal to scipy's product of the
    # whole transpose; on whole-number operands, where every sum is exact, a
    # nonzero y is added to, not overwritten
    incidence, x = operands
    m, k = incidence.shape[1], x.shape[1]
    with mock.patch.object(engine, "_BLOCK_ENTRIES", budget):
        blocks = _row_blocks(incidence, k)

    def cite(x, y):
        for lo, block in blocks:
            engine.csc_matvecs(m, block.shape[0], k, block.indptr, block.indices,
                               block.data, x[lo:lo + block.shape[0]].reshape(-1), y)
        return y

    assert np.array_equal(cite(x, np.zeros((m, k))), incidence.T.tocsr() @ x)
    whole = np.ceil(4 * x)
    start = np.arange(m * k, dtype=float).reshape(m, k) + 1
    assert np.array_equal(cite(whole, start.copy()), start + incidence.T @ whole)


def reference_run(corpus, config):
    """run()'s loop as scipy sparse products, with ``frozen + embed @ w_new`` re-embedding.

    Returns (JL rows, residual trace, JL stalled, U1 rows, total stalled).
    """
    incidence, w0, ref_counts = corpus.matrices()
    n = len(corpus.paper_ids)
    rows = eligible_rows(corpus, config.min_refs)
    in_scope = np.zeros(n, dtype=bool)
    in_scope[rows] = True
    scale = None
    if config.fractional:
        counts = ref_counts.astype(float)
        scale = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    if not config.include_ineligible_citers:
        scale = in_scope * (1.0 if scale is None else scale)
    embed = sp.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                          shape=(n, len(rows)))
    frozen = (sp.diags((~in_scope).astype(float)) @ w0).tocsr()
    citations = incidence.T.tocsr()

    def step(w_el, w_full, masked):
        if scale is not None:
            w_full = sp.csr_matrix(
                (w_full.data * np.repeat(scale, np.diff(w_full.indptr)), w_full.indices,
                 w_full.indptr), shape=w_full.shape)
        refs, _ = scipy_row_normalize(sparse_product(citations, w_full))
        mask = sorted_mask(w_el) if masked else None
        w_new, zero = scipy_row_normalize(sparse_product(incidence[rows], refs, mask))
        if zero.any():
            w_new = (w_new + sp.diags(zero.astype(float)) @ w_el).tocsr()
        return w_new, (frozen + embed @ w_new).tocsr(), int(zero.sum())

    w_el, w_full = w0[rows].tocsr(), w0.tocsr()
    trace, stalled = [], 0
    for _ in range(config.max_iterations):
        w_new, w_full, n_stalled = step(w_el, w_full, True)
        stalled += n_stalled
        diff = (w_new - w_el).tocsr()
        trace.append(float(diff.multiply(diff).sum()))
        w_el = w_new
        if trace[-1] < config.effective_threshold(len(rows)):
            break
    jl, jl_stalled = w_el, stalled
    w_el, _, n_stalled = step(w_el, w_full, False)
    stalled += n_stalled
    for w in (jl, w_el):
        w.sum_duplicates()
        w.eliminate_zeros()
    return jl, trace, jl_stalled, w_el, stalled


def matrix_corpus(incidence, weights):
    """A Corpus of papers p0.. and references r0.. from dense arrays, one
    journal per paper.

    ``weights`` rows are scaled to unit sum; an all-zero row becomes (1, 0, ...).
    """
    n, k = weights.shape
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return Corpus(
        scheme=build_scheme([(1102 + c, 1100) for c in range(k)]), journals=(),
        paper_ids=np.array([f"p{i}" for i in range(n)], dtype=object),
        ref_ids=np.array([f"r{j}" for j in range(incidence.shape[1])], dtype=object),
        paper_journal=np.arange(n), incidence=sp.csr_matrix(incidence),
        journal_weights=sp.csr_matrix(weights / weights.sum(axis=1, keepdims=True)),
        ref_counts=incidence.sum(axis=1).astype(np.intp))


@st.composite
def engine_corpora(draw):
    """Corpora of at most 8 papers, 6 references and 5 categories.

    They hold papers with short or no reference lists (with min_refs 0 these
    stall), references that no paper in scope cites, corpora without
    references, and subnormal weights whose scaled or normalized terms round
    to zero, so that a paper's support shrinks.  Journal rows may be stored
    out of column order, as load_corpus keeps a journal table's order.  A
    paper may count fewer reference slots than it cites: under F a count of
    0 makes it a citer of scale 0, whose row can stall after steps that did
    not (with slot counts equal to the citations, a row stalls in every step
    or in none).
    """
    n, m, k = draw(st.integers(1, 8)), draw(st.integers(0, 6)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 1, 2]), min_size=n * m,
                          max_size=n * m))
    weight = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from([5e-324, 1e-310]),
                       st.floats(1e-3, 1.0))
    weights = draw(st.lists(weight, min_size=n * k, max_size=n * k))
    corpus = matrix_corpus(np.array(cells, dtype=float).reshape(n, m),
                           np.array(weights).reshape(n, k))
    if draw(st.booleans()):
        corpus = dataclasses.replace(
            corpus, journal_weights=reversed_rows(corpus.journal_weights))
    uncounted = draw(st.lists(st.sampled_from([False, False, False, True]),
                              min_size=n, max_size=n))
    return dataclasses.replace(corpus, ref_counts=np.where(uncounted, 0, corpus.ref_counts))


ENGINE_CONFIGS = st.builds(
    EngineConfig, fractional=st.booleans(),
    convergence_threshold=st.sampled_from([1e-30, 1e-4, 0.1]),
    per_paper_threshold=st.none(), max_iterations=st.integers(1, 4),
    min_refs=st.integers(0, 3), include_ineligible_citers=st.booleans())


@settings(max_examples=300, deadline=None)
@given(corpus=engine_corpora(), config=ENGINE_CONFIGS,
       budget=st.sampled_from([1, 2, 7, engine._BLOCK_ENTRIES]))
def test_run_equals_sparse_step_composition_bit_for_bit(corpus, config, budget):
    with mock.patch.object(engine, "_BLOCK_ENTRIES", budget):
        if not (corpus.ref_counts >= config.min_refs).any():
            with pytest.raises(EngineError, match="no eligible papers"):
                run(corpus, config)
            return
        jl, u1 = run(corpus, config)
    jl_rows, trace, jl_stalled, u1_rows, stalled = reference_run(corpus, config)
    for c, rows in ((jl, jl_rows), (u1, u1_rows)):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(c.weights, part), getattr(rows, part)), part
        assert c.residual_trace == trace
        # canonical as built: strictly increasing indices in each row, no stored zero
        w = c.weights
        assert all((np.diff(w.indices[lo:hi]) > 0).all()
                   for lo, hi in zip(w.indptr, w.indptr[1:]))
        assert (w.data != 0).all()
    assert (jl.stalled, u1.stalled) == (jl_stalled, stalled)


def test_weight_that_rounds_to_zero_leaves_the_citing_vector():
    # p0 and p4 cite r1, which halves p4's 5e-324 on category 2 to zero, so
    # the JL step drops that entry from p4's support.  The U1 pass must no
    # longer see it through r1: r1's new sum falls just short of 2, and a
    # stale 5e-324 would survive the division by it
    incidence = np.zeros((5, 2))
    incidence[[0, 4], 1] = 1
    weights = np.zeros((5, 5))
    weights[:, 0] = 1.0
    weights[0] = (0, 0, 0, 0, 1)
    weights[4] = (0, 0, 5e-324, 2 / 3, 1 / 3)
    corpus = matrix_corpus(incidence, weights)
    config = EngineConfig(convergence_threshold=1e-30, per_paper_threshold=None,
                          max_iterations=1, min_refs=0)
    jl, u1 = run(corpus, config)
    assert jl.vectors["p4"].keys() == {3, 4}
    assert u1.vectors["p4"].keys() == {3, 4}
    _, _, _, u1_rows, _ = reference_run(corpus, config)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(u1.weights, part), getattr(u1_rows, part)), part


def test_rows_after_a_stall_are_summed_in_column_order():
    # p2 and p3 cite nothing and stall, and the fallback to their previous
    # rows leaves every row's indices unsorted; the next step must still add
    # p1's masked terms in column order: (0.5556 + 0.0556) + 0.0556
    incidence = np.zeros((5, 4))
    incidence[[0, 1, 4], 3] = 1
    weights = np.array([[0, 1, 0, 0, 0], [0, 1, 1, 1, 0], [1, 0, 0, 0, 0],
                        [0, 0, 0, 1, 1], [1, 0, 0, 0, 0]], dtype=float)
    corpus = matrix_corpus(incidence, weights)
    config = EngineConfig(convergence_threshold=1e-30, per_paper_threshold=None,
                          max_iterations=2, min_refs=0)
    jl, _ = run(corpus, config)
    assert jl.stalled == 4
    assert jl.vectors["p1"][1] == float.fromhex("0x1.aaaaaaaaaaaabp-1")
    jl_rows, trace, _, _, _ = reference_run(corpus, config)
    assert np.array_equal(jl.weights.data, jl_rows.data)
    assert jl.residual_trace == trace


def test_shrink_then_stall_matches_the_sparse_composition():
    # p0 = (2t, 1), t the least subnormal, cites r0 and r1; r1's other citers
    # weigh c1 only, so step 1 gives p0's c0 (t + 0) / 2, which rounds to zero
    # and leaves the support.  p1 = (1, 0) cites r0 but counts no reference
    # slot, so under F its citing scale is 0 and r0's c0 is p0's alone: gone
    # in step 2, where p1 stalls, and again in step 3.  p5 and p6 keep the
    # residual above the bound.  (With slot counts equal to the citations, a
    # row stalls in every step or in none.)
    t = 5e-324
    incidence = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 0, 0],
                          [0, 0, 1], [0, 0, 1]], dtype=float)
    weights = np.array([[2 * t, 1], [1, 0], [0, 1], [0, 1], [0, 1], [1, 2], [0, 1]])
    corpus = dataclasses.replace(matrix_corpus(incidence, weights),
                                 ref_counts=np.array([2, 0, 1, 1, 1, 1, 1]))
    config = EngineConfig(fractional=True, convergence_threshold=1e-30,
                          per_paper_threshold=None, max_iterations=3, min_refs=0)
    steps, real = [], _Support.propagate

    def propagate(support, blocks, refs):
        nnz = len(support.values)
        zero = real(support, blocks, refs)
        steps.append((nnz, np.count_nonzero(support.values), int(zero.sum())))
        return zero

    with mock.patch.object(_Support, "propagate", propagate):
        jl, u1 = run(corpus, config)
    # (support entries, nonzero new values, stalled rows) per step
    assert steps == [(9, 8, 0), (8, 8, 1), (8, 8, 1)]
    assert jl.vectors["p0"] == {1: 1.0}
    jl_rows, trace, jl_stalled, u1_rows, stalled = reference_run(corpus, config)
    for c, rows in ((jl, jl_rows), (u1, u1_rows)):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(c.weights, part), getattr(rows, part)), part
    assert jl.residual_trace == trace
    assert (jl.stalled, u1.stalled) == (jl_stalled, stalled)


class TestAccumulate:
    """_Support.cite: references x categories from citing-paper rows."""

    def test_single_citer_fixed_point(self):
        # p1 (1, 0) cites r1
        refs = accumulate(csr([[1]]), csr([[1, 0]]))
        assert row_vectors(refs) == [{0: 1.0}]

    def test_symmetric_citers(self):
        # p1 (1, 0) and p2 (0, 1) both cite r1
        refs = accumulate(csr([[1], [1]]), csr([[1, 0], [0, 1]]))
        approx_vec(row_vectors(refs)[0], {0: 0.5, 1: 0.5})

    def test_fractional_divides_by_ref_count(self):
        # A: (1,0) with 1 ref; B: (0,1) with 4 refs -> (1, 0.25) -> (0.8, 0.2)
        incidence = csr([[1, 0, 0, 0], [1, 1, 1, 1]])
        refs = accumulate(incidence, csr([[1, 0], [0, 1]]), np.array([1.0, 0.25]))
        approx_vec(row_vectors(refs)[0], {0: 0.8, 1: 0.2})

    def test_out_of_scope_reference_absent(self):
        # only p1 (citing r1) is in scope; r2 gets no weight at all
        refs = accumulate(csr([[1, 0]]), csr([[1, 0]]))
        assert row_vectors(refs) == [{0: 1.0}, {}]


    def test_zero_scaled_citers_equal_dropped_citers_bit_for_bit(self, tmp_path):
        # run() scales citers outside the scope by 0 instead of dropping their rows
        paths = generate(SynthParams(n_papers=300, n_categories=16, seed=3,
                                     refs_per_paper_mean=4)).write(tmp_path)
        corpus = load_corpus(paths["papers"], paths["journals"], paths["references"],
                             load_scheme(paths["scheme"]))
        incidence, w0, ref_counts = corpus.matrices()
        scope = eligible_rows(corpus, 5)
        assert 0 < len(scope) < len(corpus)
        inv = 1.0 / np.maximum(ref_counts, 1)
        for row_scale in (np.ones(len(corpus)), inv):
            in_scope = np.zeros(len(corpus))
            in_scope[scope] = row_scale[scope]
            kept = accumulate(incidence, w0, in_scope)
            dropped = accumulate(incidence[scope], w0[scope], row_scale[scope])
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(kept, part), getattr(dropped, part))


class TestPropagate:
    """_propagate: paper rows from cited reference rows."""

    def test_singleton_support_forces_fixed_point(self):
        out, zero = propagate(csr([[1, 1]]), csr([[0, 1, 0], [0.5, 0, 0.5]]),
                              csr([[1, 0, 0]]), masked=True)
        assert row_vectors(out) == [{0: 1.0}]
        assert not zero.any()

    def test_masked_sum_renormalizes(self):
        # support {c0,c1}; refs (c0:0.5, c2:0.5) and (c1:1.0) -> (1/3, 2/3)
        out, _ = propagate(csr([[1, 1]]), csr([[0.5, 0, 0.5], [0, 1, 0]]),
                           csr([[0.5, 0.5, 0]]), masked=True)
        approx_vec(row_vectors(out)[0], {0: 1 / 3, 1: 2 / 3})

    def test_disjoint_support_stalls_and_keeps_previous(self):
        out, zero = propagate(csr([[1]]), csr([[0, 0, 1]]), csr([[1, 0, 0]]),
                              masked=True)
        assert row_vectors(out) == [{0: 1.0}]
        assert zero.tolist() == [True]

    def test_unlimited_single_ref(self):
        out, _ = propagate(csr([[1]]), csr([[0, 0.25, 0.75]]), csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {1: 0.25, 2: 0.75})

    def test_unlimited_symmetric_pair(self):
        out, _ = propagate(csr([[1, 1]]), csr([[1, 0, 0], [0, 1, 0]]),
                           csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {0: 0.5, 1: 0.5})

    def test_unlimited_three_refs(self):
        # (0.5,0.5,0)+(1,0,0)+(0,0,1) = (1.5,0.5,1) -> (0.5, 1/6, 1/3)
        out, _ = propagate(csr([[1, 1, 1]]),
                           csr([[0.5, 0.5, 0], [1, 0, 0], [0, 0, 1]]),
                           csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {0: 0.5, 1: 1 / 6, 2: 1 / 3})


class TestResidual:
    """residual_trace[0]: total squared change of the first JL iteration."""

    def test_fixed_point_has_zero_residual(self):
        corpus = two_cat_corpus({"p1": ("JA", ["r1", "r2", "r3"]),
                                 "p2": ("JB", ["r4", "r5", "r6"])})
        jl, _ = run(corpus, EngineConfig())
        assert jl.residual_trace == [0.0]

    def test_first_residual_by_hand(self):
        # r1..r3 are cited by p1 (0.5, 0.5) and p2 (1, 0): each is (0.75, 0.25),
        # so p1 moves by (0.25, -0.25) and p2 stays put -> 2 * 0.25^2
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        journals = {"JA": [(1102, 1.0)], "JAB": [(1102, 1.0), (1103, 1.0)]}
        corpus = build_corpus(scheme, journals, {"p1": ("JAB", ["r1", "r2", "r3"]),
                                                 "p2": ("JA", ["r1", "r2", "r3"])})
        jl, _ = run(corpus, EngineConfig(max_iterations=1))
        assert jl.residual_trace[0] == 0.125
        assert jl.vectors["p1"] == {0: 0.75, 1: 0.25}


class TestRun:
    def test_self_consistent_fixed_point(self):
        corpus = two_cat_corpus({"p1": ("JA", ["r1", "r2", "r3"])})
        jl, u1 = run(corpus, EngineConfig())
        assert jl.iterations_run == 1
        assert jl.converged
        assert jl.vectors["p1"] == {0: 1.0}
        assert u1.vectors["p1"] == {0: 1.0}

    def test_ineligible_paper_stays_frozen_but_cites(self):
        corpus = two_cat_corpus({
            "p1": ("JA", ["r1", "r2", "r3"]),
            "p2": ("JB", ["r1"]),  # below min_refs
        })
        jl, u1 = run(corpus, EngineConfig())
        assert "p2" not in jl.vectors
        assert set(corpus.paper_ids) - set(jl.paper_ids) == {"p2"}
        assert jl.unreclassified == u1.unreclassified == 1
        incidence, w0, _ = corpus.matrices()
        refs = accumulate(incidence, w0)
        r1 = corpus.ref_ids.tolist().index("r1")
        assert refs[r1, 1] > 0  # the short paper still contributed to r1

    def test_exclude_ineligible_citers_switch(self):
        corpus = two_cat_corpus({
            "p1": ("JA", ["r1", "r2", "r3"]),
            "p2": ("JB", ["r1"]),
        })
        _, u1_in = run(corpus, EngineConfig(include_ineligible_citers=True))
        _, u1_out = run(corpus, EngineConfig(include_ineligible_citers=False))
        # with p2 in scope r1 carries weight on category 1; without it, not
        assert 1 in u1_in.vectors["p1"]
        assert 1 not in u1_out.vectors["p1"]

    def test_five_paper_corpus_matches_dense_oracle(self):
        scheme = build_scheme([(1102, 1100), (1103, 1100), (1104, 1100)])
        journals = {"J1": [(1102, 1.0)], "J23": [(1103, 1.0), (1104, 2.0)],
                    "J13": [(1102, 1.0), (1104, 1.0)]}
        papers = {
            "p1": ("J1", ["a", "b", "c"]),
            "p2": ("J23", ["a", "c", "d"]),
            "p3": ("J13", ["b", "d", "e", "a"]),
            "p4": ("J23", ["e", "e", "b"]),
            "p5": ("J1", ["d", "c", "a", "b"]),
        }
        corpus = build_corpus(scheme, journals, papers)
        for fractional in (False, True):
            cfg = EngineConfig(fractional=fractional)
            jl, u1 = run(corpus, cfg)
            oracle_jl, oracle_u1 = dense_run(corpus, cfg)
            assert max_component_difference(jl.weights.toarray(), oracle_jl) <= 1e-12
            assert max_component_difference(u1.weights.toarray(), oracle_u1) <= 1e-12

    def test_oracle_difference_needs_equal_shapes(self):
        assert max_component_difference(np.eye(2), np.eye(2)[::-1]) == 1.0
        with pytest.raises(ValueError, match="mismatched shapes"):
            max_component_difference(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_support_check_rejects_weight_outside_journal_support(self):
        w0 = sp.csr_matrix([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        inside = sp.csr_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        outside = sp.csr_matrix([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        engine._check_support(inside, w0, np.arange(2), np.arange(2))
        with pytest.raises(EngineError, match="support invariant"):
            engine._check_support(outside, w0, np.arange(2), np.arange(2))

    def test_run_rejects_jl_rows_outside_the_journal_support(self):
        # run() holds no copy of the journal rows through the loop: the check
        # after it reads each range's rows from corpus.journal_weights
        corpus = two_cat_corpus({
            "p1": ("JA", ["a", "b", "c"]),
            "p2": ("JB", ["a", "b", "d"]),
        })
        with mock.patch.object(_Support, "csr",
                               lambda support: sp.csr_matrix(np.ones(support.shape))):
            with pytest.raises(EngineError, match="support invariant"):
                run(corpus, EngineConfig())

    def test_jl_support_subset_of_journal_support(self):
        scheme = build_scheme([(1102, 1100), (1103, 1100), (1104, 1100)])
        journals = {"J12": [(1102, 1.0), (1103, 1.0)], "J3": [(1104, 1.0)]}
        papers = {
            "p1": ("J12", ["a", "b", "c"]),
            "p2": ("J3", ["a", "b", "d"]),
            "p3": ("J12", ["c", "d", "a"]),
        }
        corpus = build_corpus(scheme, journals, papers)
        jl, _ = run(corpus, EngineConfig())
        journal_support = {"J12": {0, 1}, "J3": {2}}
        for pid, vec in jl.vectors.items():
            assert set(vec) <= journal_support[papers[pid][0]]

    def test_vectors_stay_normalized(self):
        corpus = two_cat_corpus({
            "p1": ("JA", ["a", "b", "c"]),
            "p2": ("JB", ["a", "b", "d"]),
            "p3": ("JA", ["c", "d", "a"]),
        })
        for c in run(corpus, EngineConfig()):
            for vec in c.vectors.values():
                assert abs(vec_sum(vec) - 1.0) <= 1e-9

    def test_non_convergence_is_reported_not_fatal(self):
        scheme = build_scheme([(1102, 1100), (1103, 1100), (1104, 1100)])
        journals = {"J12": [(1102, 1.0), (1103, 1.0)], "J1": [(1102, 1.0)],
                    "J23": [(1103, 1.0), (1104, 1.0)]}
        corpus = build_corpus(scheme, journals, {
            "p1": ("J1", ["a", "b", "c"]),
            "p2": ("J12", ["a", "c", "d"]),
            "p3": ("J23", ["b", "d", "e"]),
            "p4": ("J12", ["e", "a", "d"]),
        })
        cfg = EngineConfig(per_paper_threshold=1e-30, max_iterations=2)
        jl, u1 = run(corpus, cfg)
        assert not jl.converged
        assert jl.iterations_run == 2
        assert jl.vectors and u1.vectors


def test_classification_rejects_a_row_without_entries():
    # a pairwise metric would take the next row's winner for it, or fail on
    # the last row
    with pytest.raises(ValueError, match="^paper p: no entries$"):
        from_vectors("a", {"p": {}, "q": {0: 1.0}}, 3)
    with pytest.raises(ValueError, match="^paper q: no entries$"):
        from_vectors("a", {"p": {0: 1.0}, "q": {}}, 3)


def test_paper_ids_are_the_index_at_the_rows():
    corpus = two_cat_corpus({"p1": ("JA", ["r1", "r2", "r3"]),
                             "p2": ("JB", ["r1"]),
                             "p3": ("JB", ["r1", "r2", "r4"])})
    jl, u1 = run(corpus, EngineConfig())
    for c in (jl, u1):
        assert c.index is corpus.paper_ids
        assert c.rows.tolist() == [0, 2]
        assert c.paper_ids.tolist() == ["p1", "p3"]


class TestClassificationIO:
    def test_round_trip(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = from_vectors(
            "JL-NF", {"p1": {0: 0.75, 1: 0.25}, "p2": {1: 1.0}}, scheme.size,
            unreclassified=1, iterations_run=4,
            residual_trace=[1.0, 0.1], converged=True, stalled=0)
        path = tmp_path / "JL-NF.csv"
        write_classification(c, scheme, path)
        back = read_classification(path, scheme)
        assert back.vectors == c.vectors
        assert back.variant_label == "JL-NF"
        assert back.residual_trace == [1.0, 0.1]
        assert back.unreclassified == 1

    def test_rewrite_of_a_read_table_keeps_its_sidecar(self, tmp_path):
        # the unreclassified count is read back from the sidecar, so writing a
        # read classification again rewrites the sidecar byte for byte
        corpus = two_cat_corpus({"p1": ("JA", ["r1", "r2", "r3"]),
                                 "p2": ("JB", ["r1", "r2", "r4"]),
                                 "p3": ("JB", ["r1"])})
        jl, _ = run(corpus, EngineConfig())
        first, again = tmp_path / "a" / "JL-NF.csv", tmp_path / "b" / "JL-NF.csv"
        first.parent.mkdir(), again.parent.mkdir()
        write_classification(jl, corpus.scheme, first)
        assert '"unreclassified": 1' in engine.sidecar_path(first).read_text()
        write_classification(read_classification(first, corpus.scheme), corpus.scheme,
                             again)
        assert again.read_bytes() == first.read_bytes()
        assert (engine.sidecar_path(again).read_bytes()
                == engine.sidecar_path(first).read_bytes())

    def test_sorted_by_descending_weight(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = from_vectors("U1-F", {"p1": {0: 0.25, 1: 0.75}}, scheme.size)
        path = tmp_path / "U1-F.csv"
        write_classification(c, scheme, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "paper_id,category_code,weight"
        assert lines[1].startswith("p1,1103,")
        assert lines[2].startswith("p1,1102,")

    def test_writes_are_byte_stable(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = from_vectors("JL-F", {"p1": {0: 1 / 3, 1: 2 / 3}}, scheme.size)
        write_classification(c, scheme, tmp_path / "a.csv")
        write_classification(c, scheme, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_read_classification_rejects_malformed_row(tmp_path, case):
    body, line, field = MALFORMED_TABLES[case]
    path = tmp_path / "x.csv"
    path.write_text("paper_id,category_code,weight\n" + body)
    scheme = build_scheme([(1102, 1100), (1103, 1100)])
    with pytest.raises(CorpusError) as err:
        read_classification(path, scheme)
    assert f"{path}, line {line}: " in str(err.value)
    assert field in str(err.value)


@pytest.mark.parametrize("case", sorted(MALFORMED_SIDECARS))
def test_read_classification_rejects_malformed_sidecar(tmp_path, case):
    text, words = MALFORMED_SIDECARS[case]
    path = tmp_path / "x.csv"
    path.write_text("paper_id,category_code,weight\np1,1102,1.0\n")
    engine.sidecar_path(path).write_text(text)
    with pytest.raises(CorpusError) as err:
        read_classification(path, build_scheme([(1102, 1100), (1103, 1100)]))
    assert str(err.value).startswith(f"{engine.sidecar_path(path)}: {words}")


# ---------------------------------------------------------------------------
# read_classification against a plain reading of generated tables

FUZZ_SCHEME = build_scheme([(1102, 1100), (1103, 1100), (1202, 1200)],
                           multi=1000, misc={1100: 1101})
# ids with the delimiter, quotes and spaces inside, so some fields are quoted
FUZZ_ID = st.one_of(
    st.text(alphabet='ab1,"; é\0', min_size=1, max_size=4).map(lambda t: f"x{t}x"),
    st.sampled_from(["xa", "xa\0", "xa\0\0"]))  # ids told apart by trailing NULs
# (field text, category index); the index is None where the code must be rejected
CODE = st.sampled_from([("1102", 0), ("1103", 1), ("1202", 2)])
BAD_CODE = st.sampled_from([("1101", None), ("1000", None), ("99999", None),
                            ("x1102", None), ("11.02", None), ("", None)])
# (field text, weight); the weight is None where it must be rejected
WEIGHT = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, exclude_min=True).map(lambda w: (repr(w), w)),
    st.sampled_from([("1", 1.0), ("2.5e-3", 2.5e-3)]))
BAD_WEIGHT = st.sampled_from([("0", None), ("0.0", None), ("-0.5", None), ("nan", None),
                              ("inf", None), ("-inf", None), ("abc", None), ("", None)])


@st.composite
def classification_tables(draw):
    """A classification table as text and what each of its rows holds.

    Returns the text and, per row, (line, pid, (code text, index),
    (weight text, weight)).  At most one kind of defect is planted: a bad
    code, a bad weight, or one or two repeated (paper, code) pairs.
    """
    pids = draw(st.lists(FUZZ_ID, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(st.sampled_from(pids), CODE, WEIGHT),
                         min_size=1, max_size=12, unique_by=lambda row: row[:2]))
    defect = draw(st.sampled_from((None, None, "code", "weight", "repeat")))
    if defect == "code":
        rows.append((draw(st.sampled_from(pids)), draw(BAD_CODE), draw(WEIGHT)))
    elif defect == "weight":
        rows.append((draw(st.sampled_from(pids)), draw(CODE), draw(BAD_WEIGHT)))
    elif defect == "repeat":
        for _ in range(draw(st.integers(1, 2))):
            rows.append(draw(st.sampled_from(rows))[:2] + (draw(WEIGHT),))
    rows = draw(st.permutations(rows))
    columns = ["paper_id", "category_code", "weight"]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, 3)), "note")
    columns = draw(st.permutations(columns))

    def fields(pid, code, weight):
        values = {"paper_id": pid, "category_code": code[0], "weight": weight[0],
                  "note": "n, b"}
        return [values[c] for c in columns]

    lines = [_csv_line(columns)] + [_csv_line(fields(*row)) for row in rows]
    row_of_line = [None] + list(range(len(rows)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, "")
        row_of_line.insert(at, None)
    numbered = [None] * len(rows)
    for line, row in enumerate(row_of_line, start=1):
        if row is not None:
            numbered[row] = (line, *rows[row])
    ending = draw(st.sampled_from(("\n", "\r\n")))
    bom = draw(st.sampled_from(("", "\ufeff")))
    return bom + ending.join(lines) + ending, numbered


def _csv_line(values) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(values)
    return out.getvalue()


def plain_read(rows):
    """(line, words of the error) of the first rejected row, or {pid: {index: weight}}.

    A malformed code or weight anywhere wins over a repeated pair; a repeat
    is reported at the first row that repeats an earlier one.
    """
    for line, _, (_, index), (_, weight) in rows:
        if index is None:
            return line, "category_code"
        if weight is None:
            return line, "weight"
    vectors: dict[str, dict[int, float]] = {}
    for line, pid, (_, index), (_, weight) in rows:
        if index in vectors.setdefault(pid, {}):
            return line, "repeats category_code"
        vectors[pid][index] = weight
    return vectors


@settings(max_examples=300, deadline=None)
@given(table=classification_tables(), chunk_rows=st.integers(1, 4))
def test_read_classification_matches_plain_reading(table, chunk_rows):
    text, rows = table
    expected = plain_read(rows)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(scheme_module, "CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, tuple):
            line, words = expected
            with pytest.raises(CorpusError) as err:
                read_classification(path, FUZZ_SCHEME)
            assert str(err.value).startswith(f"{path}, line {line}: ")
            assert words in str(err.value)
            return
        c = read_classification(path, FUZZ_SCHEME)
        assert c.paper_ids.tolist() == sorted(expected)
        assert c.vectors == expected
        # any table that reads also round-trips through write_classification
        write_classification(c, FUZZ_SCHEME, Path(tmp) / "back.csv")
        back = read_classification(Path(tmp) / "back.csv", FUZZ_SCHEME)
    assert back.paper_ids.tolist() == c.paper_ids.tolist()
    assert back.variant_label == c.variant_label
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back.weights, attr), getattr(c.weights, attr))
