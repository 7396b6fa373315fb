"""Shared builders for hand-made schemes and corpora."""

from __future__ import annotations

import csv
import io
import math

import pytest
from hypothesis import HealthCheck, settings

from refclass.assign import prune_classification
from refclass.corpus import Corpus, load_corpus
from refclass.engine import Classification

settings.register_profile(
    "refclass", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("refclass")
from refclass.scheme import Category, CategoryScheme


# (table body after the header, expected line, field named in the error)
MALFORMED_TABLES = {
    "repeated-row": ("p1,1102,0.5\np1,1102,0.5\n", 3, "category_code 1102"),
    "unknown-code": ("p1,99999,1.0\n", 2, "category_code 99999"),
    "weight-not-a-number": ("p1,1102,abc\n", 2, "weight 'abc'"),
    "weight-nan": ("p1,1102,1.0\np2,1102,nan\n", 3, "weight 'nan'"),
    "weight-negative": ("p1,1102,-1\n", 2, "weight '-1'"),
    "short-row": ("p1,1102,0.5\np2,1102\n", 3, "column 'weight'"),
}


def vec_sum(vec: dict[int, float]) -> float:
    return math.fsum(vec.values())


def prune_vector(vector: dict[int, float], config) -> dict[int, float]:
    """``prune_classification`` of a one-paper classification, as its vector."""
    c = Classification.from_vectors("", {"": vector})
    return prune_classification(c, config).vectors[""]


def build_scheme(categories, multi=None, misc=None) -> CategoryScheme:
    """categories: list of (code, area_code); misc: {area_code: misc_code}."""
    return CategoryScheme([Category(c, a) for c, a in categories], multi, misc)


def build_corpus(scheme, journals, papers) -> Corpus:
    """journals: {jid: [(code, degree), ...]}; papers: {pid: (jid, [ref ids])}.

    Writes the three tables in memory and loads them with load_corpus.
    """
    def table(header, rows):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text.seek(0)
        return text

    return load_corpus(
        table(("paper_id", "journal_id"),
              [(pid, jid) for pid, (jid, _) in papers.items()]),
        table(("journal_id", "code", "degree"),
              [(jid, code, degree) for jid, assigns in journals.items()
               for code, degree in assigns]),
        table(("paper_id", "reference_id"),
              [(pid, rid) for pid, (_, refs) in papers.items() for rid in refs]),
        scheme)


@pytest.fixture
def three_cat_scheme():
    """Three regular categories in one area, no catch-all codes."""
    return build_scheme([(1102, 1100), (1103, 1100), (1104, 1100)])


@pytest.fixture
def two_area_scheme():
    """Five regular categories in two areas plus misc and multidisciplinary."""
    return build_scheme(
        [(1102, 1100), (1103, 1100), (1104, 1100), (1202, 1200), (1203, 1200)],
        multi=1000,
        misc={1100: 1101, 1200: 1201},
    )
