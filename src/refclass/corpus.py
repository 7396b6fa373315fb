"""Corpus ingestion: papers, journals, reference lists.

Builds the paper->reference incidence (reference slots keep multiplicity:
a paper citing the same source twice contributes twice) and the inverted
reference->citing-papers index, and applies the minimum-references
eligibility filter.  A Corpus is immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .scheme import (CategoryScheme, JournalAssignment, fractionalize_journal,
                     iter_rows)

DEFAULT_MIN_REFS = 3


class CorpusError(ValueError):
    """Raised for malformed or inconsistent corpus tables."""


@dataclass(frozen=True)
class Paper:
    paper_id: str
    journal_id: str
    initial_vector: dict[int, float]
    references: tuple[str, ...]

    @property
    def ref_count(self) -> int:
        return len(self.references)


class Corpus:
    """Immutable collection of papers with the reference inverted index."""

    def __init__(self, papers: dict[str, Paper], journals: dict[str, JournalAssignment],
                 scheme: CategoryScheme):
        if not papers:
            raise CorpusError("empty corpus")
        self.papers = dict(sorted(papers.items()))
        self.journals = dict(journals)
        self.scheme = scheme
        self.paper_ids: tuple[str, ...] = tuple(self.papers)
        self.paper_row = {pid: i for i, pid in enumerate(self.paper_ids)}
        ref_index: dict[str, list[str]] = {}
        for pid in self.paper_ids:
            for rid in self.papers[pid].references:
                ref_index.setdefault(rid, []).append(pid)
        self.ref_index = ref_index
        self.ref_ids: tuple[str, ...] = tuple(sorted(ref_index))
        self.ref_col = {rid: j for j, rid in enumerate(self.ref_ids)}
        self._matrices = None

    def __len__(self) -> int:
        return len(self.papers)

    def eligible(self, min_refs: int = DEFAULT_MIN_REFS) -> set[str]:
        return {pid for pid, p in self.papers.items() if p.ref_count >= min_refs}

    def ref_counts(self) -> np.ndarray:
        return np.array([self.papers[pid].ref_count for pid in self.paper_ids])

    def matrices(self):
        """(incidence, initial_weights, ref_counts) in canonical row/col order.

        incidence is papers x references with citation multiplicities;
        initial_weights is papers x categories, rows summing to 1.
        """
        if self._matrices is None:
            n, m, k = len(self.paper_ids), len(self.ref_ids), self.scheme.size
            rows, cols = [], []
            for i, pid in enumerate(self.paper_ids):
                for rid in self.papers[pid].references:
                    rows.append(i)
                    cols.append(self.ref_col[rid])
            incidence = sp.csr_matrix(
                (np.ones(len(rows)), (rows, cols)), shape=(n, m))
            incidence.sum_duplicates()
            wr, wc, wd = [], [], []
            for i, pid in enumerate(self.paper_ids):
                for c, w in sorted(self.papers[pid].initial_vector.items()):
                    wr.append(i)
                    wc.append(c)
                    wd.append(w)
            initial = sp.csr_matrix((wd, (wr, wc)), shape=(n, k))
            self._matrices = (incidence, initial, self.ref_counts())
        return self._matrices


def eligible_papers(corpus: Corpus, min_refs: int = DEFAULT_MIN_REFS) -> set[str]:
    """Papers with at least min_refs reference slots; the rest stay unreclassified."""
    return corpus.eligible(min_refs)


def unreclassified_fraction(corpus: Corpus, min_refs: int = DEFAULT_MIN_REFS) -> float:
    return 1.0 - len(corpus.eligible(min_refs)) / len(corpus)


def misc_exclusive_papers(corpus: Corpus) -> dict[str, int]:
    """Papers whose journal is assigned exclusively to one miscellaneous code.

    Returns paper_id -> area code of that miscellaneous category.
    """
    scheme = corpus.scheme
    misc_area = {code: area for area, code in scheme.misc_codes.items()}
    journal_area: dict[str, int] = {}
    for jid, ja in corpus.journals.items():
        codes = {code for code, d in ja.raw_assignments if d > 0}
        if len(codes) == 1:
            (code,) = codes
            if code in misc_area:
                journal_area[jid] = misc_area[code]
    return {pid: journal_area[p.journal_id]
            for pid, p in corpus.papers.items() if p.journal_id in journal_area}


def load_corpus(papers_path, journals_path, refs_path, scheme: CategoryScheme,
                delimiter: str | None = None) -> Corpus:
    """Load a corpus from the three delimited tables.

    journals(journal_id, code[, degree]) - one row per raw assignment;
    papers(paper_id, journal_id); references(paper_id, reference_id).
    Duplicate (paper, reference) rows are kept as distinct slots.
    """
    raw_journals: dict[str, list[tuple[int, float]]] = {}
    for _, row in iter_rows(journals_path, ("journal_id", "code"), delimiter, CorpusError):
        try:
            code = int(row["code"])
            degree = float(row.get("degree") or 1.0)
        except ValueError as exc:
            raise CorpusError(f"malformed journal row: {row}") from exc
        raw_journals.setdefault(row["journal_id"], []).append((code, degree))
    journals = {jid: JournalAssignment(jid, tuple(assigns))
                for jid, assigns in raw_journals.items()}
    vectors = {jid: fractionalize_journal(ja, scheme) for jid, ja in journals.items()}

    paper_journal: dict[str, str] = {}
    for _, row in iter_rows(papers_path, ("paper_id", "journal_id"), delimiter, CorpusError):
        pid, jid = row["paper_id"], row["journal_id"]
        if pid in paper_journal:
            raise CorpusError(f"duplicate paper id {pid}")
        if jid not in journals:
            raise CorpusError(f"paper {pid} references unknown journal {jid}")
        paper_journal[pid] = jid
    if not paper_journal:
        raise CorpusError("empty corpus")

    references: dict[str, list[str]] = {pid: [] for pid in paper_journal}
    for _, row in iter_rows(refs_path, ("paper_id", "reference_id"), delimiter, CorpusError):
        pid = row["paper_id"]
        if pid not in references:
            raise CorpusError(f"reference row for unknown paper {pid}")
        references[pid].append(row["reference_id"])

    papers = {}
    for pid, jid in paper_journal.items():
        vec = vectors[jid]
        if abs(math.fsum(vec.values()) - 1.0) > 1e-9:
            raise CorpusError(f"journal {jid}: vector does not sum to 1")
        papers[pid] = Paper(pid, jid, vec, tuple(references[pid]))
    return Corpus(papers, journals, scheme)

