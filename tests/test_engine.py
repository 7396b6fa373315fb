import csv
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
from refclass.corpus import CorpusError, eligible_rows, load_corpus
from refclass.engine import (Classification, EngineConfig, EngineError,
                             _accumulate_matrix, _matmul, _propagate_matrix,
                             read_classification, run, write_classification)
from refclass.oracle import dense_run, max_component_difference
from refclass.scheme import load_scheme
from refclass.synth import SynthParams, generate

from conftest import MALFORMED_TABLES, build_corpus, build_scheme, vec_sum


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
    """The scipy composition _matmul replaces: SpGEMM, sort, mask, drop zeros."""
    out = (a @ b).tocsr()
    out.sort_indices()
    if mask is not None:
        out = out.multiply(mask).tocsr()
    out.eliminate_zeros()
    return out


@st.composite
def product_operands(draw):
    """(a, b, mask): incidence counts 0-3, weight rows that may be all zero."""
    n, m, k = draw(st.integers(0, 9)), draw(st.integers(1, 7)), draw(st.integers(1, 6))

    def matrix(rows, cols, values):
        cells = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        return sp.csr_matrix(np.array(cells, dtype=float).reshape(rows, cols))

    a = matrix(n, m, st.sampled_from([0, 0, 1, 1, 2, 3]))
    b = matrix(m, k, st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    mask = matrix(n, k, st.sampled_from([0, 1])) if draw(st.booleans()) else None
    return a, b, mask


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_matmul_equals_sparse_product_bit_for_bit(operands):
    a, b, mask = operands
    expected = sparse_product(a, b, mask)
    k = b.shape[1]
    for budget in (1, 2, k, engine._PRODUCT_BLOCK_ENTRIES):
        with mock.patch.object(engine, "_PRODUCT_BLOCK_ENTRIES", budget):
            out = _matmul(a, b, mask)
        assert out.shape == expected.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(out, part), getattr(expected, part)), part


class TestAccumulate:
    """_accumulate_matrix: references x categories from citing-paper rows."""

    def test_single_citer_fixed_point(self):
        # p1 (1, 0) cites r1
        refs = _accumulate_matrix(csr([[1]]).T.tocsr(), csr([[1, 0]]))
        assert row_vectors(refs) == [{0: 1.0}]

    def test_symmetric_citers(self):
        # p1 (1, 0) and p2 (0, 1) both cite r1
        refs = _accumulate_matrix(csr([[1], [1]]).T.tocsr(), csr([[1, 0], [0, 1]]))
        approx_vec(row_vectors(refs)[0], {0: 0.5, 1: 0.5})

    def test_fractional_divides_by_ref_count(self):
        # A: (1,0) with 1 ref; B: (0,1) with 4 refs -> (1, 0.25) -> (0.8, 0.2)
        incidence = csr([[1, 0, 0, 0], [1, 1, 1, 1]])
        refs = _accumulate_matrix(incidence.T.tocsr(), csr([[1, 0], [0, 1]]),
                                  np.array([1.0, 0.25]))
        approx_vec(row_vectors(refs)[0], {0: 0.8, 1: 0.2})

    def test_out_of_scope_reference_absent(self):
        # only p1 (citing r1) is in scope; r2 gets no weight at all
        refs = _accumulate_matrix(csr([[1, 0]]).T.tocsr(), csr([[1, 0]]))
        assert row_vectors(refs) == [{0: 1.0}, {}]


    def test_zero_scaled_citers_equal_dropped_citers_bit_for_bit(self, tmp_path):
        # run() scales citers outside the scope by 0 instead of dropping their rows
        paths = generate(SynthParams(n_papers=300, n_categories=16, seed=3,
                                     refs_per_paper_mean=4)).write(tmp_path)
        corpus = load_corpus(paths["papers"], paths["journals"], paths["references"],
                             load_scheme(paths["scheme"]))
        incidence, w0, ref_counts = corpus.matrices()
        scope, _, _ = eligible_rows(corpus, 5)
        assert 0 < len(scope) < len(corpus)
        inv = 1.0 / np.maximum(ref_counts, 1)
        for row_scale in (np.ones(len(corpus)), inv):
            in_scope = np.zeros(len(corpus))
            in_scope[scope] = row_scale[scope]
            kept = _accumulate_matrix(corpus.citations, w0, in_scope)
            dropped = _accumulate_matrix(incidence[scope].T.tocsr(), w0[scope],
                                         row_scale[scope])
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(kept, part), getattr(dropped, part))


class TestPropagate:
    """_propagate_matrix: paper rows from cited reference rows."""

    def test_singleton_support_forces_fixed_point(self):
        out, zero = _propagate_matrix(csr([[1, 1]]), csr([[0, 1, 0], [0.5, 0, 0.5]]),
                                      csr([[1, 0, 0]]), mask=csr([[1, 0, 0]]))
        assert row_vectors(out) == [{0: 1.0}]
        assert not zero.any()

    def test_masked_sum_renormalizes(self):
        # support {c0,c1}; refs (c0:0.5, c2:0.5) and (c1:1.0) -> (1/3, 2/3)
        out, _ = _propagate_matrix(csr([[1, 1]]), csr([[0.5, 0, 0.5], [0, 1, 0]]),
                                   csr([[0.5, 0.5, 0]]), mask=csr([[1, 1, 0]]))
        approx_vec(row_vectors(out)[0], {0: 1 / 3, 1: 2 / 3})

    def test_disjoint_support_stalls_and_keeps_previous(self):
        out, zero = _propagate_matrix(csr([[1]]), csr([[0, 0, 1]]),
                                      csr([[1, 0, 0]]), mask=csr([[1, 0, 0]]))
        assert row_vectors(out) == [{0: 1.0}]
        assert zero.tolist() == [True]

    def test_unlimited_single_ref(self):
        out, _ = _propagate_matrix(csr([[1]]), csr([[0, 0.25, 0.75]]), csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {1: 0.25, 2: 0.75})

    def test_unlimited_symmetric_pair(self):
        out, _ = _propagate_matrix(csr([[1, 1]]), csr([[1, 0, 0], [0, 1, 0]]),
                                   csr([[1, 0, 0]]))
        approx_vec(row_vectors(out)[0], {0: 0.5, 1: 0.5})

    def test_unlimited_three_refs(self):
        # (0.5,0.5,0)+(1,0,0)+(0,0,1) = (1.5,0.5,1) -> (0.5, 1/6, 1/3)
        out, _ = _propagate_matrix(csr([[1, 1, 1]]),
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
        assert jl.unreclassified == frozenset({"p2"})
        incidence, w0, _ = corpus.matrices()
        refs = _accumulate_matrix(incidence.T.tocsr(), w0)
        r1 = corpus.ref_ids.index("r1")
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
        engine._check_support(inside, w0)
        with pytest.raises(EngineError, match="support invariant"):
            engine._check_support(outside, w0)

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


class TestClassificationIO:
    def test_round_trip(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = Classification.from_vectors(
            "JL-NF", {"p1": {0: 0.75, 1: 0.25}, "p2": {1: 1.0}},
            frozenset({"p3"}), iterations_run=4,
            residual_trace=[1.0, 0.1], converged=True, stalled=0)
        path = tmp_path / "JL-NF.csv"
        write_classification(c, scheme, path)
        back = read_classification(path, scheme)
        assert back.vectors == c.vectors
        assert back.variant_label == "JL-NF"
        assert back.residual_trace == [1.0, 0.1]

    def test_sorted_by_descending_weight(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = Classification.from_vectors("U1-F", {"p1": {0: 0.25, 1: 0.75}})
        path = tmp_path / "U1-F.csv"
        write_classification(c, scheme, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "paper_id,category_code,weight"
        assert lines[1].startswith("p1,1103,")
        assert lines[2].startswith("p1,1102,")

    def test_writes_are_byte_stable(self, tmp_path):
        scheme = build_scheme([(1102, 1100), (1103, 1100)])
        c = Classification.from_vectors("JL-F", {"p1": {0: 1 / 3, 1: 2 / 3}})
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


# ---------------------------------------------------------------------------
# read_classification against a plain reading of generated tables

FUZZ_SCHEME = build_scheme([(1102, 1100), (1103, 1100), (1202, 1200)],
                           multi=1000, misc={1100: 1101})
# ids with the delimiter, quotes and spaces inside, so some fields are quoted
FUZZ_ID = st.text(alphabet='ab1,"; ', min_size=1, max_size=4).map(lambda t: f"x{t}x")
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
        assert c.paper_ids == tuple(sorted(expected))
        assert c.vectors == expected
        # any table that reads also round-trips through write_classification
        write_classification(c, FUZZ_SCHEME, Path(tmp) / "back.csv")
        back = read_classification(Path(tmp) / "back.csv", FUZZ_SCHEME)
    assert back.paper_ids == c.paper_ids
    assert back.variant_label == c.variant_label
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back.weights, attr), getattr(c.weights, attr))
