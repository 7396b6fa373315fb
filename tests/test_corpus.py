import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refclass import scheme as scheme_module
from refclass.corpus import CorpusError, eligible_rows, load_corpus, misc_exclusive_papers
from refclass.scheme import (JournalAssignment, SchemeError, fractionalize_journal,
                             load_scheme)

from conftest import build_corpus, build_scheme, vec_sum

SCHEME_TEXT = (
    "code,area_code,kind\n"
    "1000,1000,multidisciplinary\n"
    "1101,1100,misc\n"
    "1102,1100,regular\n1103,1100,regular\n"
    "1202,1200,regular\n"
)
JOURNALS_TEXT = (
    "journal_id,code,degree\n"
    "J1,1102,1\nJ2,1102,1\nJ2,1202,1\nJM,1101,1\n"
)
PAPERS_TEXT = "paper_id,journal_id\np1,J1\np2,J2\np3,JM\n"
REFS_TEXT = (
    "paper_id,reference_id\n"
    "p1,r1\np1,r1\np1,r2\np2,r2\np3,r3\n"
)


def load_example(refs_text=REFS_TEXT):
    scheme = load_scheme(io.StringIO(SCHEME_TEXT))
    return load_corpus(io.StringIO(PAPERS_TEXT), io.StringIO(JOURNALS_TEXT),
                       io.StringIO(refs_text), scheme)


def row_vectors(m):
    return [dict(zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist()))
            for lo, hi in zip(m.indptr, m.indptr[1:])]


class TestLoadCorpus:
    def test_structural_counts(self):
        corpus = load_example()
        assert len(corpus) == 3
        assert corpus.paper_ids == ("p1", "p2", "p3")
        assert corpus.ref_ids == ("r1", "r2", "r3")

    def test_duplicate_reference_pair_counts_twice(self):
        corpus = load_example()
        incidence, _, counts = corpus.matrices()
        assert counts[0] == 3
        assert incidence[0, corpus.ref_ids.index("r1")] == 2

    def test_initial_vectors_inherit_journal(self):
        corpus = load_example()
        scheme = corpus.scheme
        v1, v2, v3 = row_vectors(corpus.matrices()[1])
        assert v1 == {scheme.index_of(1102): 1.0}
        assert v2 == {scheme.index_of(1102): 0.5, scheme.index_of(1202): 0.5}
        # JM is the misc journal of area 1100: split over 1102 and 1103
        assert v3 == {scheme.index_of(1102): 0.5, scheme.index_of(1103): 0.5}

    def test_every_initial_vector_unit_sum(self):
        corpus = load_example()
        for vec in row_vectors(corpus.matrices()[1]):
            assert abs(vec_sum(vec) - 1.0) <= 1e-9

    def test_unknown_journal_rejected(self):
        scheme = load_scheme(io.StringIO(SCHEME_TEXT))
        with pytest.raises(CorpusError, match="unknown journal"):
            load_corpus(io.StringIO("paper_id,journal_id\np1,NOPE\n"),
                        io.StringIO(JOURNALS_TEXT), io.StringIO(REFS_TEXT), scheme)

    def test_empty_corpus_rejected(self):
        scheme = load_scheme(io.StringIO(SCHEME_TEXT))
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(io.StringIO("paper_id,journal_id\n"),
                        io.StringIO(JOURNALS_TEXT), io.StringIO(REFS_TEXT), scheme)

    def test_malformed_row_rejected(self):
        scheme = load_scheme(io.StringIO(SCHEME_TEXT))
        with pytest.raises(CorpusError, match="line 2: "):
            load_corpus(io.StringIO("paper_id,journal_id\np1\n"),
                        io.StringIO(JOURNALS_TEXT), io.StringIO(REFS_TEXT), scheme)

    def test_nan_degree_rejected(self):
        scheme = load_scheme(io.StringIO(SCHEME_TEXT))
        journals = JOURNALS_TEXT + "J3,1102,nan\nJ3,1103,1\n"
        with pytest.raises(SchemeError, match="journal J3: non-finite degree"):
            load_corpus(io.StringIO(PAPERS_TEXT), io.StringIO(journals),
                        io.StringIO(REFS_TEXT), scheme)

    def test_ref_row_for_unknown_paper_rejected(self):
        with pytest.raises(CorpusError, match="unknown paper"):
            load_example("paper_id,reference_id\npX,r1\n")

    def test_byte_order_mark_and_crlf_accepted(self, tmp_path):
        paths = {}
        for name, text in (("papers", PAPERS_TEXT), ("journals", JOURNALS_TEXT),
                           ("references", REFS_TEXT)):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_bytes(
                b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
        corpus = load_corpus(paths["papers"], paths["journals"], paths["references"],
                             load_scheme(io.StringIO(SCHEME_TEXT)))
        example = load_example()
        assert corpus.paper_ids == example.paper_ids
        assert corpus.ref_ids == example.ref_ids
        for a, b in zip(corpus.matrices()[:2], example.matrices()[:2]):
            assert (a != b).nnz == 0


# table -> (text that replaces the example's table, line and words the error names)
MALFORMED_CORPUS_TABLES = {
    "short-journal-row": (
        "journals", "journal_id,note,code\nJ1,x,1102\nJ2,1102\n", 3,
        "2 fields, too few to reach column 'code'"),
    "journal-code-not-an-integer": (
        "journals", JOURNALS_TEXT + "J3,11o2,1\n", 6, "malformed journal row: code '11o2'"),
    "journal-degree-not-a-number": (
        "journals", JOURNALS_TEXT + "J3,1102,heavy\n", 6, "degree 'heavy'"),
    "duplicate-paper": (
        "papers", PAPERS_TEXT + "p2,J1\n", 5, "duplicate paper_id p2"),
    "unknown-journal": (
        "papers", "paper_id,journal_id\np1,J1\np2,NOPE\n", 3,
        "paper_id p2 names unknown journal NOPE"),
    "reference-for-unknown-paper": (
        "references", REFS_TEXT + "\npX,r1\n", 8, "reference row for unknown paper_id pX"),
    "short-reference-row": (
        "references", REFS_TEXT + "p1\n", 7, "too few to reach column 'reference_id'"),
    "field-spans-lines": (
        "references", 'paper_id,reference_id\np1,r1\np1,"r\n2"\n', 3,
        "a field spans lines"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CORPUS_TABLES))
def test_malformed_table_names_file_and_line(tmp_path, case):
    table, text, line, words = MALFORMED_CORPUS_TABLES[case]
    tables = {"papers": PAPERS_TEXT, "journals": JOURNALS_TEXT, "references": REFS_TEXT,
              table: text}
    paths = {}
    for name, body in tables.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(body, encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(paths["papers"], paths["journals"], paths["references"],
                    load_scheme(io.StringIO(SCHEME_TEXT)))
    assert str(err.value).startswith(f"{paths[table]}, line {line}: ")
    assert words in str(err.value)


class TestEligibility:
    def make(self, ref_counts):
        scheme = build_scheme([(1102, 1100)])
        journals = {"J": [(1102, 1.0)]}
        papers = {f"p{i}": ("J", [f"r{i}_{j}" for j in range(n)])
                  for i, n in enumerate(ref_counts)}
        return build_corpus(scheme, journals, papers)

    def test_min_refs_filter(self):
        corpus = self.make([0, 2, 3, 7])
        rows, eligible, unreclassified = eligible_rows(corpus, 3)
        assert rows.tolist() == [2, 3]
        assert eligible == ("p2", "p3")
        assert unreclassified == {"p0", "p1"}

    def test_min_refs_zero_keeps_all(self):
        corpus = self.make([0, 2, 3, 7])
        assert eligible_rows(corpus, 0)[1] == ("p0", "p1", "p2", "p3")


class TestInvariants:
    def test_transpose_identity(self):
        corpus = load_example()
        incidence, _, counts = corpus.matrices()
        slots = REFS_TEXT.count("\n") - 1
        assert incidence.sum() == counts.sum() == incidence.T.tocsr().sum() == slots

    def test_load_is_deterministic(self):
        a, b = load_example(), load_example()
        assert a.paper_ids == b.paper_ids
        assert a.ref_ids == b.ref_ids
        for ma, mb in zip(a.matrices()[:2], b.matrices()[:2]):
            assert (ma != mb).nnz == 0
        assert np.array_equal(a.ref_counts, b.ref_counts)

    def test_matrices_shapes(self):
        corpus = load_example()
        incidence, initial, counts = corpus.matrices()
        assert incidence.shape == (3, 3)
        assert initial.shape == (3, corpus.scheme.size)
        assert list(counts) == [3, 1, 1]
        # multiplicity lands in the incidence values
        assert incidence[0, corpus.ref_ids.index("r1")] == 2


def test_misc_exclusive_papers():
    corpus = load_example()
    assert misc_exclusive_papers(corpus).tolist() == [-1, -1, 1100]


def test_rows_of_names_the_first_unknown_paper():
    corpus = load_example()
    assert corpus.rows_of(("p3", "p1")).tolist() == [2, 0]
    with pytest.raises(CorpusError, match="^paper_id p0 is not in the corpus$"):
        corpus.rows_of(("p1", "p0", "p9"))


# ---------------------------------------------------------------------------
# load_corpus against a plain csv + dict reading of generated tables

SCHEME = load_scheme(io.StringIO(SCHEME_TEXT))
CODES = (1000, 1101, 1102, 1103, 1202)
# ids with the delimiter, quotes and spaces inside, so some fields are quoted
ID_TEXT = st.text(alphabet='ab1,"; ', min_size=1, max_size=4).map(lambda t: f"x{t}x")


@st.composite
def corpus_tables(draw):
    """Three tables as text, each a (header, rows, extra column, line ending, BOM) draw.

    Returns {table: text} and, when a defect was planted, the table and
    the row it sits in.
    """
    journals = draw(st.lists(ID_TEXT, min_size=1, max_size=3, unique=True))
    journal_rows = [(jid, str(code), repr(degree))
                    for jid in journals
                    for code, degree in draw(st.lists(
                        st.tuples(st.sampled_from(CODES),
                                  st.sampled_from((0.5, 1.0, 2.0, 3.0))),
                        min_size=1, max_size=3))]
    papers = draw(st.lists(ID_TEXT, min_size=1, max_size=6, unique=True))
    paper_rows = [(pid, draw(st.sampled_from(journals))) for pid in papers]
    refs = draw(st.lists(ID_TEXT, min_size=1, max_size=5, unique=True))
    ref_rows = draw(st.lists(st.tuples(st.sampled_from(papers), st.sampled_from(refs)),
                             max_size=20))
    ref_rows += ref_rows[:draw(st.integers(0, 3))]  # repeated (paper, reference) rows
    tables = {"journals": (("journal_id", "code", "degree"), journal_rows),
              "papers": (("paper_id", "journal_id"), paper_rows),
              "references": (("paper_id", "reference_id"), ref_rows)}
    defect = draw(st.sampled_from(
        (None, None, "duplicate-paper", "short-row", "journal-code", "unknown-paper")))
    if defect == "duplicate-paper":
        paper_rows.append(draw(st.sampled_from(paper_rows)))
    elif defect == "short-row":
        ref_rows.append((draw(st.sampled_from(papers)),))
    elif defect == "journal-code":
        journal_rows.append((journals[0], "x1102", "1.0"))
    elif defect == "unknown-paper":
        ref_rows.append(("not-a-paper", refs[0]))

    texts = {}
    for name, (header, rows) in tables.items():
        rows = draw(st.permutations(rows))
        extra = draw(st.sampled_from((None, 0, len(header))))
        if extra is not None:
            header = header[:extra] + ("note",) + header[extra:]
            rows = [row[:extra] + ("n, b",) + row[extra:] for row in rows]
        lines = [_csv_line(header)] + [_csv_line(row) for row in rows]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))), "")
        ending = draw(st.sampled_from(("\n", "\r\n")))
        bom = draw(st.sampled_from(("", "\ufeff")))
        texts[name] = bom + ending.join(lines) + ending
    return texts


def _csv_line(values) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(values)
    return out.getvalue()


def plain_load(texts):
    """The corpus by csv and dicts: (paper_ids, ref_ids, incidence, W0, counts).

    A defect comes back as (table, line) of the first bad row, tables read in
    the order journals, papers, references.
    """
    def rows(name, required):
        reader = csv.reader(io.StringIO(texts[name].removeprefix("\ufeff"), newline=""))
        header = next(reader)
        at = [header.index(c) for c in required]
        for row in reader:
            if row:
                if len(row) <= max(at):
                    raise LookupError(name, reader.line_num)
                yield reader.line_num, [row[i] for i in at]

    try:
        journals: dict[str, list] = {}
        for line, (jid, code) in rows("journals", ("journal_id", "code")):
            if not code.isdigit():
                raise LookupError("journals", line)
        for line, (jid, code, degree) in rows("journals", ("journal_id", "code", "degree")):
            journals.setdefault(jid, []).append((int(code), float(degree)))
        journal_of = {}
        for line, (pid, jid) in rows("papers", ("paper_id", "journal_id")):
            if pid in journal_of:
                raise LookupError("papers", line)
            journal_of[pid] = jid
        slots = []
        for line, (pid, rid) in rows("references", ("paper_id", "reference_id")):
            if pid not in journal_of:
                raise LookupError("references", line)
            slots.append((pid, rid))
    except LookupError as defect:
        return defect.args
    paper_ids = sorted(journal_of)
    ref_ids = sorted({rid for _, rid in slots})
    incidence = np.zeros((len(paper_ids), len(ref_ids)))
    for pid, rid in slots:
        incidence[paper_ids.index(pid), ref_ids.index(rid)] += 1
    initial = np.zeros((len(paper_ids), SCHEME.size))
    for i, pid in enumerate(paper_ids):
        jid = journal_of[pid]
        vector = fractionalize_journal(JournalAssignment(jid, tuple(journals[jid])), SCHEME)
        for c, w in vector.items():
            initial[i, c] = w
    counts = [sum(1 for p, _ in slots if p == pid) for pid in paper_ids]
    return tuple(paper_ids), tuple(ref_ids), incidence, initial, counts


@settings(max_examples=300, deadline=None)
@given(texts=corpus_tables(), chunk_rows=st.integers(1, 4))
def test_load_corpus_matches_plain_csv_reading(texts, chunk_rows):
    tables = {}
    for name, text in texts.items():
        tables[name] = io.StringIO(text, newline="")
        tables[name].name = f"{name}.csv"
    expected = plain_load(texts)
    with mock.patch.object(scheme_module, "CHUNK_ROWS", chunk_rows):
        if len(expected) == 2:
            table, line = expected
            with pytest.raises(CorpusError, match=f"^{table}.csv, line {line}: "):
                load_corpus(tables["papers"], tables["journals"], tables["references"],
                            SCHEME)
            return
        corpus = load_corpus(tables["papers"], tables["journals"], tables["references"],
                             SCHEME)
    paper_ids, ref_ids, incidence, initial, counts = expected
    assert corpus.paper_ids == paper_ids
    assert corpus.ref_ids == ref_ids
    for matrix, dense in ((corpus.incidence, incidence), (corpus.initial, initial)):
        assert matrix.has_canonical_format
        assert np.array_equal(matrix.toarray(), dense)
    assert corpus.ref_counts.tolist() == counts
