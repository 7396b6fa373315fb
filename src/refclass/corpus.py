"""Corpus ingestion: papers, journals, reference lists.

The tables are streamed in chunks of rows whose ids become integer codes
chunk by chunk, so no table is ever held as Python rows.  A Corpus is the
sorted paper ids, the sorted reference ids, the journals' vectors, each
paper's journal and two arrays in that canonical row and column order: the
papers x references incidence (reference slots keep multiplicity: a paper
citing the same source twice contributes twice) and the reference-slot
count of each paper.  A paper's initial weights are its journal's vector,
held once per journal.  A Corpus is immutable after construction.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, repeat

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

    Row ``i`` of ``incidence`` (papers x references, citation counts) and
    ``ref_counts`` belongs to ``paper_ids[i]``; column ``j`` of
    ``incidence`` belongs to ``ref_ids[j]``.  Both are sorted, read-only
    arrays of ``str`` objects.
    ``paper_journal[i]`` is the index of paper ``i``'s journal in
    ``journals`` and its row in ``journal_weights`` (journals x categories,
    rows summing to 1).
    """

    scheme: CategoryScheme
    journals: tuple[JournalAssignment, ...]
    paper_ids: np.ndarray
    ref_ids: np.ndarray
    paper_journal: np.ndarray
    incidence: sp.csr_matrix
    journal_weights: sp.csr_matrix
    ref_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.paper_ids)

    @property
    def initial(self) -> sp.csr_matrix:
        """Papers x categories, each row the paper's journal vector; built on each read."""
        return self.journal_weights[self.paper_journal]

    def matrices(self):
        """(incidence, initial, ref_counts) in canonical row/col order; ``initial``
        is built on each call."""
        return self.incidence, self.initial, self.ref_counts


def eligible_rows(corpus: Corpus, min_refs: int = DEFAULT_MIN_REFS) -> np.ndarray:
    """The rows of the papers with at least ``min_refs`` reference slots, ascending.

    The other papers are the unreclassified ones.
    """
    return np.flatnonzero(corpus.ref_counts >= min_refs)


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


def load_corpus(papers_path, journals_path, refs_path, scheme: CategoryScheme) -> Corpus:
    """Load a corpus from the three delimited tables.

    journals(journal_id, code[, degree]) - one row per raw assignment;
    papers(paper_id, journal_id); references(paper_id, reference_id).
    Duplicate (paper, reference) rows are kept as distinct slots.  A row
    that breaks a rule raises CorpusError naming the file and line.
    """
    journals, journal_weights = _read_journals(journals_path, scheme)
    paper_code, paper_journal = _read_papers(
        papers_path, {ja.journal_id: j for j, ja in enumerate(journals)})
    if not paper_code:
        raise CorpusError("empty corpus")
    ref_code, slot_papers, slot_refs = _read_references(refs_path, paper_code)

    paper_ids, paper_rank = _sorted_codes(paper_code)
    ref_ids, ref_rank = _sorted_codes(ref_code)
    rows, cols = paper_rank[slot_papers], ref_rank[slot_refs]
    del paper_code, ref_code, slot_papers, slot_refs  # freed before the CSR build
    incidence = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                              shape=(len(paper_ids), len(ref_ids)))
    # paper_journal in sorted row order: the file position of each sorted id
    paper_journal = paper_journal[np.argsort(paper_rank)]
    return Corpus(
        scheme=scheme, journals=journals, paper_ids=paper_ids, ref_ids=ref_ids,
        paper_journal=paper_journal, incidence=incidence, journal_weights=journal_weights,
        ref_counts=np.bincount(rows, minlength=len(paper_ids)))


def _read_journals(path, scheme: CategoryScheme):
    """The journal assignments in table order and their weights, journals x categories.

    A row's code must be one of the scheme's and its degree finite and not
    negative; a journal whose degrees are all zero is named at its last row.
    """
    known = {cat.code for cat in scheme.categories} | {
        *scheme.misc_codes.values(), scheme.multidisciplinary_code}
    raw: dict[str, list[tuple[int, float]]] = {}
    last = {}  # journal id -> (chunk, row) of its last row
    for chunk in read_table(path, ("journal_id", "code"), ("degree",), CorpusError):
        cols = chunk.columns
        for i, (jid, code_text, degree_text) in enumerate(
                zip(cols["journal_id"], cols["code"], cols["degree"])):
            try:
                code, degree = int(code_text), float(degree_text or 1.0)
            except ValueError:
                raise chunk.error(i, f"malformed journal row: code {code_text!r}, "
                                     f"degree {degree_text!r}") from None
            if code not in known:
                raise chunk.error(i, f"journal {jid}: unknown code {code}")
            if not math.isfinite(degree):
                raise chunk.error(i, f"journal {jid}: non-finite degree")
            if degree < 0:
                raise chunk.error(i, f"journal {jid}: negative degree")
            raw.setdefault(jid, []).append((code, degree))
            last[jid] = chunk, i
    for jid, assignments in raw.items():
        if not any(d for _, d in assignments):
            chunk, i = last[jid]
            raise chunk.error(i, f"journal {jid}: all degrees zero")
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


def _read_papers(path, journal_code: dict[str, int]):
    """Paper id -> code in table order, and each paper's journal index in that order."""
    paper_code: dict[str, int] = {}
    journal_chunks = [np.empty(0, dtype=np.intp)]
    for chunk in read_table(path, ("paper_id", "journal_id"), (), CorpusError):
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


def _read_references(path, paper_code: dict[str, int]):
    """Reference id -> code, plus the paper code and reference code of every slot."""
    ref_code = defaultdict(count().__next__)  # one probe per slot codes a new id too
    paper_chunks = [np.empty(0, dtype=np.int32)]
    ref_chunks = [np.empty(0, dtype=np.int32)]
    for chunk in read_table(path, ("paper_id", "reference_id"), (), CorpusError):
        pids, rids = chunk.columns["paper_id"], chunk.columns["reference_id"]
        papers = np.fromiter(map(paper_code.get, pids, repeat(-1)), np.int32, len(pids))
        unknown = np.flatnonzero(papers < 0)
        if len(unknown):
            i = unknown[0]
            raise chunk.error(i, f"reference row for unknown paper_id {pids[i]}")
        paper_chunks.append(papers)
        ref_chunks.append(np.fromiter(map(ref_code.__getitem__, rids), np.int32, len(rids)))
    return ref_code, np.concatenate(paper_chunks), np.concatenate(ref_chunks)


def _sorted_codes(codes: dict[str, int]):
    """The ids in sorted order, read-only, and, per code, the id's position in that order."""
    ids = np.array(sorted(codes), dtype=object)
    ids.flags.writeable = False
    rank = np.empty(len(ids), dtype=np.int32)
    rank[np.fromiter(map(codes.__getitem__, ids), np.intp, len(ids))] = np.arange(len(ids))
    return ids, rank
