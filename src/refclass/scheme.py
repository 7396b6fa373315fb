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
from pathlib import Path


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


def load_scheme(source, delimiter: str | None = None) -> CategoryScheme:
    """Load a scheme from a delimited table with columns code, area_code, kind.

    ``kind`` is one of regular / misc / multidisciplinary.  ``source`` may be
    a path or an open text file.
    """
    rows = [row for _, row in
            iter_rows(source, ("code", "area_code", "kind"), delimiter)]
    if not rows:
        raise SchemeError("empty scheme table")
    categories = []
    misc_codes: dict[int, int] = {}
    multi_code = None
    seen: set[int] = set()
    for row in rows:
        try:
            code = int(row["code"])
            area = int(row["area_code"])
        except ValueError as exc:
            raise SchemeError(f"malformed scheme row: {row}") from exc
        kind = row["kind"].strip().lower()
        if code in seen:
            raise SchemeError(f"duplicate code {code} in scheme table")
        seen.add(code)
        if kind == "regular":
            categories.append(Category(code, area))
        elif kind == "misc":
            if area in misc_codes:
                raise SchemeError(f"area {area} has two miscellaneous codes")
            misc_codes[area] = code
        elif kind == "multidisciplinary":
            if multi_code is not None:
                raise SchemeError("multiple multidisciplinary rows")
            multi_code = code
        else:
            raise SchemeError(f"unknown kind {kind!r} for code {code}")
    return CategoryScheme(categories, multi_code, misc_codes)


def reference_scheme() -> CategoryScheme:
    """The bundled 285-category / 26-area reference scheme."""
    data = resources.files("refclass.data").joinpath("asjc_reference.csv").read_text()
    return load_scheme(io.StringIO(data), delimiter=",")


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


def iter_rows(source, required_columns, delimiter=None, error_cls=SchemeError):
    """Stream the rows of a delimited table with a header row as (line, dict) pairs.

    ``line`` is the 1-based line number the row ends on (the header is line
    1).  ``source`` is a path or an open text file.  Without ``delimiter`` the
    header line decides (the first of , ; tab | it contains, else comma).
    Blank rows are skipped; problems raise ``error_cls``.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            yield from iter_rows(fh, required_columns, delimiter, error_cls)
        return
    if delimiter is None:
        pos = source.tell() if hasattr(source, "tell") else None
        sample = source.readline()
        if pos is not None:
            source.seek(pos)
        delimiter = next((c for c in (",", ";", "\t", "|") if c in sample), ",")
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise error_cls("empty table") from None
    missing = [c for c in required_columns if c not in header]
    if missing:
        raise error_cls(f"missing columns {missing} (header: {header})")
    for raw in reader:
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) < len(required_columns):
            raise error_cls(f"line {reader.line_num}: malformed row: {raw}")
        yield reader.line_num, {h: v.strip() for h, v in zip(header, raw)}
