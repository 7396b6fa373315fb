import io

import pytest

from refclass.corpus import (Corpus, CorpusError, eligible_papers, load_corpus,
                             misc_exclusive_papers, unreclassified_fraction)
from refclass.scheme import SchemeError, load_scheme

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


class TestLoadCorpus:
    def test_structural_counts(self):
        corpus = load_example()
        assert len(corpus) == 3
        assert set(corpus.ref_index) == {"r1", "r2", "r3"}

    def test_duplicate_reference_pair_counts_twice(self):
        corpus = load_example()
        assert corpus.papers["p1"].ref_count == 3
        assert corpus.ref_index["r1"] == ["p1", "p1"]

    def test_initial_vectors_inherit_journal(self):
        corpus = load_example()
        scheme = corpus.scheme
        assert corpus.papers["p1"].initial_vector == {scheme.index_of(1102): 1.0}
        v2 = corpus.papers["p2"].initial_vector
        assert v2 == {scheme.index_of(1102): 0.5, scheme.index_of(1202): 0.5}
        # JM is the misc journal of area 1100: split over 1102 and 1103
        v3 = corpus.papers["p3"].initial_vector
        assert v3 == {scheme.index_of(1102): 0.5, scheme.index_of(1103): 0.5}

    def test_every_initial_vector_unit_sum(self):
        corpus = load_example()
        for paper in corpus.papers.values():
            assert abs(vec_sum(paper.initial_vector) - 1.0) <= 1e-9

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
        with pytest.raises(CorpusError):
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


class TestEligibility:
    def make(self, ref_counts):
        scheme = build_scheme([(1102, 1100)])
        journals = {"J": [(1102, 1.0)]}
        papers = {f"p{i}": ("J", [f"r{i}_{j}" for j in range(n)])
                  for i, n in enumerate(ref_counts)}
        return build_corpus(scheme, journals, papers)

    def test_min_refs_filter(self):
        corpus = self.make([0, 2, 3, 7])
        assert eligible_papers(corpus, 3) == {"p2", "p3"}
        assert unreclassified_fraction(corpus, 3) == 0.5

    def test_min_refs_zero_keeps_all(self):
        corpus = self.make([0, 2, 3, 7])
        assert eligible_papers(corpus, 0) == {"p0", "p1", "p2", "p3"}


class TestInvariants:
    def test_transpose_identity(self):
        corpus = load_example()
        slots = sum(p.ref_count for p in corpus.papers.values())
        assert slots == sum(len(v) for v in corpus.ref_index.values())

    def test_load_is_deterministic(self):
        a, b = load_example(), load_example()
        assert a.paper_ids == b.paper_ids
        assert a.ref_ids == b.ref_ids
        assert a.ref_index == b.ref_index
        ca, _, _ = a.matrices()
        cb, _, _ = b.matrices()
        assert (ca != cb).nnz == 0

    def test_matrices_shapes(self):
        corpus = load_example()
        incidence, initial, counts = corpus.matrices()
        assert incidence.shape == (3, 3)
        assert initial.shape == (3, corpus.scheme.size)
        assert list(counts) == [3, 1, 1]
        # multiplicity lands in the incidence values
        assert incidence[0, corpus.ref_col["r1"]] == 2


def test_misc_exclusive_papers():
    corpus = load_example()
    assert misc_exclusive_papers(corpus) == {"p3": 1100}
