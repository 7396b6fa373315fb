import csv
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from refclass import scheme as scheme_module

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

    @pytest.mark.parametrize("body, where, message", [
        ("", "", "empty scheme table"),
        ("1101,1100,misc\n1000,1000,multidisciplinary\n", "",
         "scheme has no regular categories"),
        ("1102,1100,regular\n1001,1000,misc\n", ", line 3",
         "miscellaneous code 1001 belongs to area 1000 with no regular categories"),
    ])
    def test_table_level_error_names_the_file(self, tmp_path, body, where, message):
        path = tmp_path / "scheme.csv"
        path.write_text("code,area_code,kind\n" + body)
        with pytest.raises(SchemeError) as err:
            load_scheme(path)
        assert str(err.value) == f"{path}{where}: {message}"

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


# ---------------------------------------------------------------------------
# load_scheme against a plain reading of generated tables

KINDS = ("regular", "Regular", "REGULAR")


@st.composite
def scheme_tables(draw):
    """A scheme table as text and its rows as (line, code text, area text, kind).

    Areas 10-12 hold regular codes area * 100 + 2..9, misc codes area * 100 + 1
    and the multidisciplinary code 1000.  At most one defect is planted: a
    malformed field, an unknown kind, a repeated code, a second misc code of
    an area or a second multidisciplinary row, a misc code of an area without
    regular categories, a row too short to reach a column, no rows, or no
    regular rows.
    """
    areas = draw(st.lists(st.sampled_from([10, 11, 12]), min_size=1, max_size=3,
                          unique=True))
    regular = draw(st.lists(st.tuples(st.sampled_from(areas), st.integers(2, 9)),
                            min_size=1, max_size=6, unique=True))
    rows = [(str(a * 100 + j), str(a * 100), draw(st.sampled_from(KINDS)))
            for a, j in regular]
    used = sorted({a for a, _ in regular})
    for a in draw(st.lists(st.sampled_from(used), unique=True)):
        rows.append((str(a * 100 + 1), str(a * 100), draw(st.sampled_from(("misc", "Misc")))))
    if draw(st.booleans()):
        rows.append(("1000", "1000", "multidisciplinary"))
    defect = draw(st.sampled_from((None, None, "code", "area", "kind", "repeat",
                                   "misc", "multi", "lonely misc", "short", "empty",
                                   "no regular")))
    if defect == "code":
        rows.append((draw(st.sampled_from(("x1102", "11.02", ""))), "1100", "regular"))
    elif defect == "area":
        rows.append(("1109", draw(st.sampled_from(("x", "1.1e3", ""))), "regular"))
    elif defect == "kind":
        rows.append(("1109", "1100", draw(st.sampled_from(("other", "", "misc-ish")))))
    elif defect == "repeat":
        rows.append((draw(st.sampled_from(rows))[0], "1100", "regular"))
    elif defect == "misc":
        rows.append((str(used[0] * 100 + 10), str(used[0] * 100), "misc"))
    elif defect == "multi":
        rows.append(("999", "1000", "multidisciplinary"))
    elif defect == "lonely misc":
        rows.append(("1301", "1300", "misc"))
    elif defect == "empty":
        rows = []
    elif defect == "no regular":
        rows = [row for row in rows if row[2].lower() != "regular"] or [
            ("1000", "1000", "multidisciplinary")]
    rows = draw(st.permutations(rows))
    columns = ["code", "area_code", "kind"]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, 3)), "note")
    columns = draw(st.permutations(columns))
    need = max(columns.index(c) for c in ("code", "area_code", "kind"))
    short = draw(st.integers(0, len(rows) - 1)) if defect == "short" and rows else None
    delimiter = draw(st.sampled_from((",", ";")))

    def line(values):
        out = io.StringIO()
        csv.writer(out, delimiter=delimiter, lineterminator="").writerow(values)
        return out.getvalue()

    lines, numbered = [line(columns)], []
    for i, (code, area, kind) in enumerate(rows):
        values = {"code": code, "area_code": area, "kind": kind, "note": "n, b"}
        fields = [values[c] for c in columns]
        if i == short:
            fields = fields[:need]
        lines.append(line(fields))
        numbered.append((len(lines), code, area, kind, i == short))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    ending = draw(st.sampled_from(("\n", "\r\n")))
    bom = draw(st.sampled_from(("", "\ufeff")))
    return bom + ending.join(lines) + ending, numbered


def plain_scheme(rows):
    """(line or None, words of the error) for a rejected table, else
    (categories, misc codes, multidisciplinary code)."""
    short = [line for line, *_, is_short in rows if is_short]
    if short:
        return short[0], "too few"
    seen, categories, misc, misc_line, multi = set(), [], {}, {}, None
    for line, code_text, area_text, kind, _ in rows:
        try:
            code, area = int(code_text), int(area_text)
        except ValueError:
            return line, "malformed scheme row"
        if code in seen:
            return line, "duplicate code"
        seen.add(code)
        kind = kind.lower()
        if kind == "regular":
            categories.append(Category(code, area))
        elif kind == "misc":
            if area in misc:
                return line, "two miscellaneous codes"
            misc[area], misc_line[area] = code, line
        elif kind == "multidisciplinary":
            if multi is not None:
                return line, "multiple multidisciplinary rows"
            multi = code
        else:
            return line, "unknown kind"
    if not seen:
        return None, "empty scheme table"
    if not categories:
        return None, "no regular categories"
    for area, code in misc.items():
        if area not in {c.area_code for c in categories}:
            return misc_line[area], f"miscellaneous code {code} belongs to area {area}"
    return tuple(sorted(categories, key=lambda c: c.code)), misc, multi


@settings(max_examples=300, deadline=None)
@given(table=scheme_tables(), chunk_rows=st.integers(1, 4),
       as_file=st.booleans())
def test_load_scheme_matches_plain_reading(table, chunk_rows, as_file):
    text, rows = table
    expected = plain_scheme(rows)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(scheme_module, "CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "scheme.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, newline="", encoding="utf-8") as fh:
            source = fh if as_file else path
            if len(expected) == 2:
                line, words = expected
                with pytest.raises(SchemeError) as err:
                    load_scheme(source)
                where = f"{path}, line {line}: " if line else f"{path}: "
                assert str(err.value).startswith(where)
                assert words in str(err.value)
                return
            scheme = load_scheme(source)
    assert (scheme.categories, scheme.misc_codes, scheme.multidisciplinary_code) \
        == expected


# ---------------------------------------------------------------------------
# read_table against a reading that sends every chunk through the csv reader

BLANKS = " \xa0\x1c"


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


@st.composite
def delimited_tables(draw):
    """Table text with columns a and b (and c, note) that csv may or may not read.

    Each table turns on a few quirks: quoted fields (some spanning lines),
    a stray quote, NUL or CR in a field, fields padded with blanks that
    strip removes, rows one field short and rows 1 or ncols + 1 fields long,
    blank and whitespace-only lines, lone CR endings.  Endings are LF or
    CRLF; some tables have a byte order mark or no final line ending.
    """
    quirks = draw(st.sets(st.sampled_from(
        ("quoted", "stray", "padded", "ragged", "blank", "cr")), max_size=3))
    delimiter = draw(st.sampled_from((",", ";", "\t", "|")))
    header = draw(st.permutations(
        ["a", "b"] + draw(st.lists(st.sampled_from(("c", "note")), unique=True))))
    alphabet = "ab1" + (BLANKS if "padded" in quirks else "")
    odd = {"quoted": st.text(alphabet='a1 ,;\t|"\n', max_size=3).map(_quoted),
           "stray": st.sampled_from(('a"b', "a\0", "x\ry"))}
    odd = [strategy for quirk, strategy in odd.items() if quirk in quirks]

    def field():
        if odd and draw(st.integers(0, 3)) == 0:
            return draw(st.one_of(odd))
        return draw(st.text(alphabet=alphabet, max_size=3))

    kinds = (["row"] + ["blank"] * ("blank" in quirks)
             + ["short", "long"] * ("ragged" in quirks))
    lines = [delimiter.join(draw(st.sampled_from(("", " ", "\xa0"))) + name
                            for name in header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds)) if draw(st.booleans()) else "row"
        if kind == "blank":
            lines.append(draw(st.text(alphabet=BLANKS, max_size=2)))
        else:
            size = len(header) + {"row": 0, "short": -1,
                                  "long": draw(st.sampled_from((1, len(header) + 1)))}[kind]
            lines.append(delimiter.join(field() for _ in range(size)))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    endings = [("\r" if "cr" in quirks and draw(st.booleans()) else ending)
               for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    bom = draw(st.sampled_from(("", "\ufeff")))
    return bom + "".join(line + end for line, end in zip(lines, endings))


def _read_chunks(text: str, newline):
    """Every chunk of ``text`` as (lines, columns), then the error text if one is raised."""
    source = io.StringIO(text, newline=newline)
    source.name = "t.csv"
    out = []
    try:
        for chunk in scheme_module.read_table(source, ("a", "b"), ("c",)):
            out.append((list(chunk.lines), chunk.columns))
    except SchemeError as exc:
        out.append(str(exc))
    return out


def test_read_table_matches_csv_only_reading():
    split_plain = scheme_module._split_plain
    taken = {True: 0, False: 0}  # chunks split directly, chunks handed to csv

    def spy(*args):
        items = split_plain(*args)
        taken[items is not None] += 1
        return items

    @settings(max_examples=500, deadline=None)
    @given(text=delimited_tables(), newline=st.sampled_from(("", "\n", None)),
           chunk_rows=st.integers(1, 4))
    # as many fields as two full rows, in a short and a long row or in one row
    @example(text="a,b\nx\nx,y,z\n", newline="", chunk_rows=2)
    @example(text="a,b\nx,y,z,w,v\n", newline="", chunk_rows=1)
    def check(text, newline, chunk_rows):
        with mock.patch.object(scheme_module, "CHUNK_ROWS", chunk_rows):
            with mock.patch.object(scheme_module, "_split_plain", return_value=None):
                expected = _read_chunks(text, newline)
            with mock.patch.object(scheme_module, "_split_plain", spy):
                assert _read_chunks(text, newline) == expected

    check()
    assert taken[True] and taken[False]


def test_ascii_blanks_are_what_strip_removes():
    assert set(scheme_module._ASCII_BLANKS) == {
        c for c in map(chr, range(128)) if not c.strip()} - {"\n"}
