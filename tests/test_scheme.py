import io
import math

import pytest
from hypothesis import given, strategies as st

from refclass.scheme import (Category, CategoryScheme, JournalAssignment,
                             SchemeError, fractionalize_journal, load_scheme,
                             reference_scheme)

from conftest import build_scheme, vec_sum


def make_table(text):
    return io.StringIO(text)


class TestLoadScheme:
    def test_reference_scheme_has_285_categories(self):
        scheme = reference_scheme()
        assert scheme.size == 285
        assert len(scheme.area_codes) == 26
        assert scheme.area_codes == tuple(range(1100, 3700, 100))
        assert scheme.multidisciplinary_code == 1000

    def test_minimal_two_category_scheme(self):
        scheme = load_scheme(make_table(
            "code,area_code,kind\n1102,1100,regular\n1103,1100,regular\n"))
        assert scheme.size == 2
        assert scheme.misc_codes == {}

    def test_duplicate_code_rejected(self):
        with pytest.raises(SchemeError, match="duplicate"):
            load_scheme(make_table(
                "code,area_code,kind\n2744,2700,regular\n2744,2700,regular\n"))

    def test_misc_flag_on_regular_code_rejected(self):
        with pytest.raises(SchemeError):
            load_scheme(make_table(
                "code,area_code,kind\n1102,1100,regular\n1102,1100,misc\n"))

    def test_empty_table_rejected(self):
        with pytest.raises(SchemeError):
            load_scheme(make_table("code,area_code,kind\n"))

    def test_canonical_order_is_ascending_code(self):
        scheme = load_scheme(make_table(
            "code,area_code,kind\n1104,1100,regular\n1102,1100,regular\n"))
        assert [c.code for c in scheme.categories] == [1102, 1104]
        assert scheme.index_of(1102) == 0

    def test_semicolon_delimiter_sniffed(self):
        scheme = load_scheme(make_table(
            "code;area_code;kind\n1102;1100;regular\n"))
        assert scheme.size == 1


class TestFractionalize:
    def test_multidisciplinary_spreads_over_all(self):
        scheme = reference_scheme()
        vec = fractionalize_journal(JournalAssignment("j", ((1000, 1.0),)), scheme)
        assert len(vec) == 285
        assert all(math.isclose(w, 1 / 285) for w in vec.values())

    def test_two_equal_regular_categories(self, three_cat_scheme):
        vec = fractionalize_journal(
            JournalAssignment("j", ((1102, 1.0), (1104, 1.0))), three_cat_scheme)
        assert vec == {0: 0.5, 2: 0.5}

    def test_misc_splits_over_area(self):
        scheme = build_scheme(
            [(1102, 1100), (1103, 1100), (1104, 1100)], misc={1100: 1101})
        vec = fractionalize_journal(JournalAssignment("j", ((1101, 2.0),)), scheme)
        assert vec == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3),
                       2: pytest.approx(1 / 3)}

    def test_unknown_code_rejected(self, three_cat_scheme):
        with pytest.raises(SchemeError, match="unknown code"):
            fractionalize_journal(
                JournalAssignment("j", ((9999, 1.0),)), three_cat_scheme)

    def test_all_zero_degrees_rejected(self):
        with pytest.raises(SchemeError):
            JournalAssignment("j", ((1102, 0.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_degree_rejected(self, bad):
        with pytest.raises(SchemeError, match="journal J: non-finite degree"):
            JournalAssignment("J", ((1102, bad), (1103, 1.0)))


@st.composite
def assignments(draw):
    codes = draw(st.lists(st.sampled_from([1102, 1103, 1104, 1101, 1000]),
                          min_size=1, max_size=4, unique=True))
    degrees = draw(st.lists(
        st.floats(0.1, 10.0, allow_nan=False), min_size=len(codes),
        max_size=len(codes)))
    return JournalAssignment("j", tuple(zip(codes, degrees)))


MISC_SCHEME = build_scheme(
    [(1102, 1100), (1103, 1100), (1104, 1100)], multi=1000, misc={1100: 1101})


class TestProperties:
    @given(assignments())
    def test_output_sums_to_one_on_regular_support(self, ja):
        vec = fractionalize_journal(ja, MISC_SCHEME)
        assert abs(vec_sum(vec) - 1.0) <= 1e-12
        assert all(0 <= idx < MISC_SCHEME.size for idx in vec)
        assert all(w > 0 for w in vec.values())

    @given(assignments(), st.integers(-8, 8))
    def test_homogeneous_under_exact_scaling(self, ja, exponent):
        scale = 2.0 ** exponent
        scaled = JournalAssignment(
            ja.journal_id, tuple((c, d * scale) for c, d in ja.raw_assignments))
        assert fractionalize_journal(ja, MISC_SCHEME) == \
            fractionalize_journal(scaled, MISC_SCHEME)

    @given(assignments(), st.floats(0.01, 100.0, allow_nan=False))
    def test_homogeneous_under_arbitrary_scaling(self, ja, scale):
        scaled = JournalAssignment(
            ja.journal_id, tuple((c, d * scale) for c, d in ja.raw_assignments))
        a = fractionalize_journal(ja, MISC_SCHEME)
        b = fractionalize_journal(scaled, MISC_SCHEME)
        assert set(a) == set(b)
        assert all(abs(a[i] - b[i]) < 1e-12 for i in a)

    @given(st.lists(st.sampled_from([1102, 1103, 1104]), min_size=1,
                    max_size=3, unique=True))
    def test_regular_only_support_is_assigned_set(self, codes):
        ja = JournalAssignment("j", tuple((c, 1.0) for c in codes))
        vec = fractionalize_journal(ja, MISC_SCHEME)
        assert {MISC_SCHEME.code_of(i) for i in vec} == set(codes)
