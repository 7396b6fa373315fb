"""Shared builders for hand-made schemes and corpora."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, settings

from refclass.corpus import Corpus, Paper

settings.register_profile(
    "refclass", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("refclass")
from refclass.scheme import (Category, CategoryScheme, JournalAssignment,
                             fractionalize_journal)


# (table body after the header, expected line, field named in the error)
MALFORMED_TABLES = {
    "repeated-row": ("p1,1102,0.5\np1,1102,0.5\n", 3, "category_code 1102"),
    "unknown-code": ("p1,99999,1.0\n", 2, "category_code 99999"),
    "weight-not-a-number": ("p1,1102,abc\n", 2, "weight 'abc'"),
    "weight-nan": ("p1,1102,1.0\np2,1102,nan\n", 3, "weight 'nan'"),
    "weight-negative": ("p1,1102,-1\n", 2, "weight '-1'"),
}


def vec_sum(vec: dict[int, float]) -> float:
    return math.fsum(vec.values())


def build_scheme(categories, multi=None, misc=None) -> CategoryScheme:
    """categories: list of (code, area_code); misc: {area_code: misc_code}."""
    return CategoryScheme([Category(c, a) for c, a in categories], multi, misc)


def build_corpus(scheme, journals, papers) -> Corpus:
    """journals: {jid: [(code, degree), ...]}; papers: {pid: (jid, [ref ids])}."""
    jas = {jid: JournalAssignment(jid, tuple(assigns))
           for jid, assigns in journals.items()}
    vectors = {jid: fractionalize_journal(ja, scheme) for jid, ja in jas.items()}
    built = {pid: Paper(pid, jid, vectors[jid], tuple(refs))
             for pid, (jid, refs) in papers.items()}
    return Corpus(built, jas, scheme)


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
