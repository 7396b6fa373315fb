"""Corpus ingestion: papers, journals, reference lists.

The tables are streamed in chunks of rows whose ids become integer codes
chunk by chunk, so no table is ever held as Python rows.  A Corpus is the
sorted paper ids, the sorted reference ids, each paper's journal and three
arrays in that canonical row and column order: the papers x references
incidence (reference slots keep multiplicity: a paper citing the same
source twice contributes twice), the papers x categories initial weights
(each paper's journal vector) and the reference-slot count of each paper.
A Corpus is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .scheme import (CategoryScheme, JournalAssignment, fractionalize_journal,
                     read_table)

DEFAULT_MIN_REFS = 3


class CorpusError(ValueError):
    """Raised for malformed or inconsistent corpus tables."""


@dataclass(frozen=True, eq=False)
class Corpus:
    """Paper and reference ids plus the matrices the engine runs on.

    Row ``i`` of ``incidence`` (papers x references, citation counts),
    ``initial`` (papers x categories, rows summing to 1) and ``ref_counts``
    belongs to ``paper_ids[i]``; column ``j`` of ``incidence`` belongs to
    ``ref_ids[j]``.  Both id tuples are sorted.  ``paper_journal[i]`` is the
    index of paper ``i``'s journal in ``journals``.
    """

    scheme: CategoryScheme
    journals: tuple[JournalAssignment, ...]
    paper_ids: tuple[str, ...]
    ref_ids: tuple[str, ...]
    paper_journal: np.ndarray
    incidence: sp.csr_matrix
    initial: sp.csr_matrix
    ref_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.paper_ids)

    def matrices(self):
        """(incidence, initial_weights, ref_counts) in canonical row/col order."""
        return self.incidence, self.initial, self.ref_counts

    @cached_property
    def citations(self) -> sp.csr_matrix:
        """References x papers: the transpose of ``incidence``, built on first use."""
        return self.incidence.T.tocsr()

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return dict(zip(self.paper_ids, range(len(self.paper_ids))))

    def rows_of(self, paper_ids) -> np.ndarray:
        """The rows of ``paper_ids``; CorpusError names the first one not in the corpus."""
        rows = np.fromiter(map(self._row_of.get, paper_ids, repeat(-1)), np.intp,
                           len(paper_ids))
        missing = np.flatnonzero(rows < 0)
        if len(missing):
            raise CorpusError(f"paper_id {paper_ids[missing[0]]} is not in the corpus")
        return rows


def eligible_rows(corpus: Corpus, min_refs: int = DEFAULT_MIN_REFS):
    """Split the corpus at ``min_refs`` reference slots.

    Returns the rows of the eligible papers, their ids, and the ids of the
    other (unreclassified) papers.
    """
    ids = np.array(corpus.paper_ids, dtype=object)
    eligible = corpus.ref_counts >= min_refs
    return np.flatnonzero(eligible), tuple(ids[eligible]), frozenset(ids[~eligible])


def misc_exclusive_papers(corpus: Corpus) -> np.ndarray:
    """Papers whose journal is assigned exclusively to one miscellaneous code.

    Returns, by corpus row, the area code of that miscellaneous category, or
    -1 for a paper whose journal is not misc-exclusive.
    """
    misc_area = {code: area for area, code in corpus.scheme.misc_codes.items()}
    journal_area = np.full(len(corpus.journals), -1)
    for j, ja in enumerate(corpus.journals):
        codes = {code for code, d in ja.raw_assignments if d > 0}
        if len(codes) == 1 and (code := codes.pop()) in misc_area:
            journal_area[j] = misc_area[code]
    return journal_area[corpus.paper_journal]


def load_corpus(papers_path, journals_path, refs_path, scheme: CategoryScheme,
                delimiter: str | None = None) -> Corpus:
    """Load a corpus from the three delimited tables.

    journals(journal_id, code[, degree]) - one row per raw assignment;
    papers(paper_id, journal_id); references(paper_id, reference_id).
    Duplicate (paper, reference) rows are kept as distinct slots.  A row
    that breaks a rule raises CorpusError naming the file and line.
    """
    journals, journal_weights = _read_journals(journals_path, scheme, delimiter)
    paper_code, paper_journal = _read_papers(
        papers_path, {ja.journal_id: j for j, ja in enumerate(journals)}, delimiter)
    if not paper_code:
        raise CorpusError("empty corpus")
    ref_code, slot_papers, slot_refs = _read_references(refs_path, paper_code, delimiter)

    paper_ids, paper_rank = _sorted_codes(paper_code)
    ref_ids, ref_rank = _sorted_codes(ref_code)
    rows = paper_rank[slot_papers]
    incidence = sp.csr_matrix(
        (np.ones(len(rows)), (rows, ref_rank[slot_refs])),
        shape=(len(paper_ids), len(ref_ids)))
    # paper_journal in sorted row order: the file position of each sorted id
    paper_journal = paper_journal[np.argsort(paper_rank)]
    return Corpus(
        scheme=scheme, journals=journals, paper_ids=paper_ids, ref_ids=ref_ids,
        paper_journal=paper_journal, incidence=incidence,
        initial=journal_weights[paper_journal],
        ref_counts=np.bincount(rows, minlength=len(paper_ids)))


def _read_journals(path, scheme: CategoryScheme, delimiter):
    """The journal assignments in table order and their weights, journals x categories."""
    raw: dict[str, list[tuple[int, float]]] = {}
    for chunk in read_table(path, ("journal_id", "code"), ("degree",), delimiter,
                            CorpusError):
        cols = chunk.columns
        for i, (jid, code, degree) in enumerate(
                zip(cols["journal_id"], cols["code"], cols["degree"])):
            try:
                assignment = (int(code), float(degree or 1.0))
            except ValueError:
                raise chunk.error(i, f"malformed journal row: code {code!r}, "
                                     f"degree {degree!r}") from None
            raw.setdefault(jid, []).append(assignment)
    journals = tuple(JournalAssignment(jid, tuple(a)) for jid, a in raw.items())
    vectors = [fractionalize_journal(ja, scheme) for ja in journals]
    for ja, vec in zip(journals, vectors):
        if abs(math.fsum(vec.values()) - 1.0) > 1e-9:
            raise CorpusError(f"journal {ja.journal_id}: vector does not sum to 1")
    indices = [idx for vec in vectors for idx in vec]
    weights = sp.csr_matrix(
        ([w for vec in vectors for w in vec.values()], indices,
         np.cumsum([0] + [len(vec) for vec in vectors])),
        shape=(len(vectors), scheme.size))
    return journals, weights


def _read_papers(path, journal_code: dict[str, int], delimiter):
    """Paper id -> code in table order, and each paper's journal index in that order."""
    paper_code: dict[str, int] = {}
    journal_chunks = [np.empty(0, dtype=np.intp)]
    for chunk in read_table(path, ("paper_id", "journal_id"), (), delimiter, CorpusError):
        pids, jids = chunk.columns["paper_id"], chunk.columns["journal_id"]
        journal = np.fromiter(map(journal_code.get, jids, repeat(-1)), np.intp, len(jids))
        if ((journal < 0).any() or len(set(pids)) < len(pids)
                or not paper_code.keys().isdisjoint(pids)):
            seen: set[str] = set()
            for i, (pid, jid) in enumerate(zip(pids, jids)):
                if pid in paper_code or pid in seen:
                    raise chunk.error(i, f"duplicate paper_id {pid}")
                if journal[i] < 0:
                    raise chunk.error(i, f"paper_id {pid} names unknown journal {jid}")
                seen.add(pid)
        paper_code.update(zip(pids, range(len(paper_code), len(paper_code) + len(pids))))
        journal_chunks.append(journal)
    return paper_code, np.concatenate(journal_chunks)


def _read_references(path, paper_code: dict[str, int], delimiter):
    """Reference id -> code, plus the paper code and reference code of every slot."""
    ref_code: dict[str, int] = {}
    paper_chunks = [np.empty(0, dtype=np.intp)]
    ref_chunks = [np.empty(0, dtype=np.intp)]
    for chunk in read_table(path, ("paper_id", "reference_id"), (), delimiter, CorpusError):
        pids, rids = chunk.columns["paper_id"], chunk.columns["reference_id"]
        papers = np.fromiter(map(paper_code.get, pids, repeat(-1)), np.intp, len(pids))
        unknown = np.flatnonzero(papers < 0)
        if len(unknown):
            i = unknown[0]
            raise chunk.error(i, f"reference row for unknown paper_id {pids[i]}")
        # provisional codes in no particular order; _sorted_codes sorts them
        new = set(rids).difference(ref_code)
        ref_code.update(zip(new, range(len(ref_code), len(ref_code) + len(new))))
        paper_chunks.append(papers)
        ref_chunks.append(np.fromiter(map(ref_code.__getitem__, rids), np.intp, len(rids)))
    return ref_code, np.concatenate(paper_chunks), np.concatenate(ref_chunks)


def _sorted_codes(codes: dict[str, int]):
    """The ids in sorted order and, per code, the id's position in that order."""
    ids = tuple(sorted(codes))
    rank = np.empty(len(ids), dtype=np.intp)
    rank[np.fromiter(map(codes.__getitem__, ids), np.intp, len(ids))] = np.arange(len(ids))
    return ids, rank
