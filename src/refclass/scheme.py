"""Category scheme handling and fractional journal assignment vectors.

A scheme is a flat list of 4-digit category codes grouped into areas, plus
two kinds of catch-all codes whose weight is redistributed:

* the *miscellaneous* code of an area spreads equally over that area's
  regular categories;
* the *multidisciplinary* code spreads equally over every regular category
  of the scheme.

The canonical component order for all weight vectors is ascending category
code; category index ``i`` refers to ``scheme.categories[i]``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path


# rows per chunk of read_table: enough to make per-chunk work negligible, few
# enough that a chunk's strings stay a few MiB whatever the table's size
CHUNK_ROWS = 8192


class SchemeError(ValueError):
    """Raised for malformed scheme tables or journal assignments."""


@dataclass(frozen=True)
class Category:
    code: int
    area_code: int


@dataclass(frozen=True)
class JournalAssignment:
    """Raw journal-level assignment: (code, degree) pairs.

    Codes may be regular categories, miscellaneous codes or the
    multidisciplinary code.  Degrees are finite, non-negative and not all
    zero.
    """

    journal_id: str
    raw_assignments: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.raw_assignments:
            raise SchemeError(f"journal {self.journal_id}: no assignments")
        if not all(math.isfinite(d) for _, d in self.raw_assignments):
            raise SchemeError(f"journal {self.journal_id}: non-finite degree")
        if all(d == 0 for _, d in self.raw_assignments):
            raise SchemeError(f"journal {self.journal_id}: all degrees zero")
        if any(d < 0 for _, d in self.raw_assignments):
            raise SchemeError(f"journal {self.journal_id}: negative degree")


class CategoryScheme:
    """Validated, immutable category scheme."""

    def __init__(self, categories, multidisciplinary_code=None, misc_codes=None):
        cats = sorted(categories, key=lambda c: c.code)
        if not cats:
            raise SchemeError("scheme has no regular categories")
        codes = [c.code for c in cats]
        if len(set(codes)) != len(codes):
            dup = sorted({c for c in codes if codes.count(c) > 1})
            raise SchemeError(f"duplicate category codes: {dup}")
        misc_codes = dict(misc_codes or {})
        regular = set(codes)
        for area, code in misc_codes.items():
            if code in regular:
                raise SchemeError(f"code {code} is both regular and miscellaneous")
        if multidisciplinary_code in regular:
            raise SchemeError(
                f"multidisciplinary code {multidisciplinary_code} is also a regular category"
            )
        self.categories: tuple[Category, ...] = tuple(cats)
        self.multidisciplinary_code = multidisciplinary_code
        self.misc_codes: dict[int, int] = misc_codes
        self._index = {c.code: i for i, c in enumerate(self.categories)}
        members: dict[int, list[int]] = {}
        for i, c in enumerate(self.categories):
            members.setdefault(c.area_code, []).append(i)
        self._area_members = {a: tuple(m) for a, m in members.items()}
        self._misc_area = {code: area for area, code in misc_codes.items()}
        for area, code in misc_codes.items():
            if area not in self._area_members:
                raise SchemeError(
                    f"miscellaneous code {code} belongs to area {area} "
                    "with no regular categories"
                )

    @property
    def size(self) -> int:
        return len(self.categories)

    @property
    def area_codes(self) -> tuple[int, ...]:
        return tuple(sorted(self._area_members))

    def index_of(self, code: int) -> int:
        return self._index[code]

    def code_of(self, index: int) -> int:
        return self.categories[index].code

    def area_of_index(self, index: int) -> int:
        return self.categories[index].area_code

    def area_members(self, area_code: int) -> tuple[int, ...]:
        return self._area_members[area_code]

    def is_regular(self, code: int) -> bool:
        return code in self._index

    def is_misc(self, code: int) -> bool:
        return code in self._misc_area


def load_scheme(source) -> CategoryScheme:
    """Load a scheme from a delimited table with columns code, area_code, kind.

    ``kind`` is one of regular / misc / multidisciplinary.  ``source`` may be
    a path or an open text file.  Every error names the file, and the line
    where a row is to blame.
    """
    name = str(source) if isinstance(source, (str, Path)) else getattr(
        source, "name", "<table>")
    categories = []
    misc_codes: dict[int, int] = {}
    misc_lines: dict[int, int] = {}
    multi_code = None
    seen: set[int] = set()
    for chunk in read_table(source, ("code", "area_code", "kind")):
        cols = chunk.columns
        for i, (code_text, area_text, kind) in enumerate(
                zip(cols["code"], cols["area_code"], cols["kind"])):
            try:
                code = int(code_text)
                area = int(area_text)
            except ValueError:
                raise chunk.error(i, f"malformed scheme row: code {code_text!r}, "
                                     f"area_code {area_text!r}") from None
            kind = kind.lower()
            if code in seen:
                raise chunk.error(i, f"duplicate code {code} in scheme table")
            seen.add(code)
            if kind == "regular":
                categories.append(Category(code, area))
            elif kind == "misc":
                if area in misc_codes:
                    raise chunk.error(i, f"area {area} has two miscellaneous codes")
                misc_codes[area], misc_lines[area] = code, chunk.lines[i]
            elif kind == "multidisciplinary":
                if multi_code is not None:
                    raise chunk.error(i, "multiple multidisciplinary rows")
                multi_code = code
            else:
                raise chunk.error(i, f"unknown kind {kind!r} for code {code}")
    if not seen:
        raise SchemeError(f"{name}: empty scheme table")
    if not categories:
        raise SchemeError(f"{name}: scheme has no regular categories")
    areas = {c.area_code for c in categories}
    for area, code in misc_codes.items():
        if area not in areas:
            raise SchemeError(f"{name}, line {misc_lines[area]}: miscellaneous code "
                              f"{code} belongs to area {area} with no regular categories")
    return CategoryScheme(categories, multi_code, misc_codes)


def reference_scheme() -> CategoryScheme:
    """The bundled 285-category / 26-area reference scheme."""
    data = resources.files("refclass.data").joinpath("asjc_reference.csv").read_text()
    return load_scheme(io.StringIO(data))


def fractionalize_journal(
    assignment: JournalAssignment, scheme: CategoryScheme
) -> dict[int, float]:
    """Turn raw journal assignments into a unit-sum vector over regular categories.

    Each degree (after normalizing degrees to sum 1) is routed: a regular
    code keeps its share, a miscellaneous code splits its share equally over
    its area's categories, and the multidisciplinary code splits equally
    over the whole scheme.
    """
    total = sum(d for _, d in assignment.raw_assignments)
    if total <= 0:
        raise SchemeError(f"journal {assignment.journal_id}: all degrees zero")
    out: dict[int, float] = {}
    for code, degree in assignment.raw_assignments:
        if degree == 0:
            continue
        share = degree / total
        if scheme.is_regular(code):
            idx = scheme.index_of(code)
            out[idx] = out.get(idx, 0.0) + share
        elif code == scheme.multidisciplinary_code:
            part = share / scheme.size
            for idx in range(scheme.size):
                out[idx] = out.get(idx, 0.0) + part
        elif scheme.is_misc(code):
            members = scheme.area_members(scheme._misc_area[code])
            part = share / len(members)
            for idx in members:
                out[idx] = out.get(idx, 0.0) + part
        else:
            raise SchemeError(
                f"journal {assignment.journal_id}: unknown code {code}"
            )
    return normalize(out)


def normalize(vec: dict[int, float]) -> dict[int, float]:
    """Scale a vector to unit sum; the zero vector normalizes to {}."""
    total = math.fsum(vec.values())
    if total == 0.0:
        return {}
    return {i: w / total for i, w in sorted(vec.items()) if w != 0.0}


@dataclass(frozen=True)
class TableChunk:
    """Consecutive rows of a delimited table, held as columns of stripped strings."""

    name: str
    lines: range | list[int]  # line number of each row; the header is line 1
    columns: dict[str, list[str]]
    error_cls: type[Exception]

    def error(self, row: int, message: str) -> Exception:
        """The table's error type with ``message``, naming the file and the row's line."""
        return self.error_cls(f"{self.name}, line {self.lines[row]}: {message}")


def read_table(source, required, optional=(), error_cls=SchemeError):
    """Stream a delimited table with a header row as TableChunks of CHUNK_ROWS rows.

    ``source`` is a path or an open text file.  The header line decides the
    delimiter (the first of , ; tab | it contains, else comma).  A
    leading UTF-8 byte order mark is dropped, blank rows are skipped and
    values are stripped.  Each chunk holds the ``required`` columns and the
    ``optional`` ones, which read as "" where the header or a row lacks them.
    A missing column, a row too short to reach a required column, a field
    that spans lines and a csv syntax error raise ``error_cls`` naming the
    file and line.  Chunks of plain lines (see _split_plain) skip the csv reader.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            yield from read_table(fh, required, optional, error_cls)
        return
    name = getattr(source, "name", "<table>")
    sample = next(source, "")
    delimiter = next((c for c in (",", ";", "\t", "|") if c in sample), ",")

    def rows(reader, count, start):
        try:
            return list(islice(reader, count))
        except csv.Error as exc:
            raise error_cls(f"{name}, line {start + reader.line_num}: {exc}") from None

    reader = csv.reader(chain([sample], source), delimiter=delimiter)
    first = rows(reader, 1, 0)
    if not first or not first[0]:
        raise error_cls(f"{name}: empty table")
    start = reader.line_num  # lines read so far
    header = [h.strip() for h in first[0]]
    header[0] = header[0].removeprefix("\ufeff").strip()
    missing = [c for c in required if c not in header]
    if missing:
        raise error_cls(f"{name}: missing columns {missing} (header: {header})")
    need = max(header.index(c) for c in required)
    wanted = [(c, header.index(c)) for c in (*required, *optional) if c in header]
    width = max(pos for _, pos in wanted) + 1
    while block := list(islice(source, CHUNK_ROWS)):
        text = "".join(block)
        items = _split_plain(text, delimiter, len(header))
        lines = range(start + 1, start + 1 + len(block))
        if items is not None:
            columns = {c: items[pos::len(header) + 1] for c, pos in wanted}
            if not text.isascii() or any(c in text for c in _ASCII_BLANKS):
                columns = {c: list(map(str.strip, v)) for c, v in columns.items()}
        else:
            reader = csv.reader(chain(block, source), delimiter=delimiter)
            raw = rows(reader, CHUNK_ROWS, start)
            # one row per line, so that a row's line follows from its position
            if reader.line_num != len(raw):
                row = next((i for i, r in enumerate(raw)
                            if any("\n" in v or "\r" in v for v in r)), 0)
                raise error_cls(f"{name}, line {start + 1 + row}: a field spans lines")
            if min(map(len, raw)) < max(width, 2):
                # rare: blank rows to drop, short rows to reject or pad
                full, kept = [], []
                for r, line in zip(raw, lines):
                    if not r or (len(r) == 1 and not r[0].strip()):
                        continue
                    if len(r) <= need:
                        raise error_cls(f"{name}, line {line}: {len(r)} fields, too few "
                                        f"to reach column {header[need]!r}")
                    full.append(r + [""] * (width - len(r)))
                    kept.append(line)
                raw, lines = full, kept
            columns = {c: list(map(str.strip, map(itemgetter(pos), raw)))
                       for c, pos in wanted}
        start += len(block)
        if lines:
            columns.update((c, [""] * len(lines)) for c in optional if c not in columns)
            yield TableChunk(name, lines, columns, error_cls)


def write_table(path, header, rows) -> None:
    """Write ``header``, then ``rows``, as lines of comma-joined ``str`` values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


# what str.strip removes from ASCII text, besides the line feed
_ASCII_BLANKS = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _split_plain(text: str, delimiter: str, ncols: int):
    """The fields of ``text``'s lines, a "\\n" item after each line's; None unless each
    line has ``ncols`` >= 2 fields and no quote, NUL or CR outside a CRLF ending."""
    if ncols < 2 or '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    if not text.endswith("\n"):
        text += "\n"
    items = text.replace("\n", f"{delimiter}\n{delimiter}").split(delimiter)
    rows = text.count("\n")
    if len(items) != (ncols + 1) * rows + 1 or items[ncols::ncols + 1].count("\n") != rows:
        return None
    return items[:-1]
