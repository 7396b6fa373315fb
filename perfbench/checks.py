"""Checks on the files one ``refclass run`` wrote, independent of refclass's code.

``expected_inputs`` derives what the checks need from the generated tables;
``check_outputs`` returns a list of problems (empty when the run is correct);
``digest`` fingerprints every output except the timing log.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

WEIGHT_SUM_TOLERANCE = 1e-9
FLOW_SUM_TOLERANCE = 1e-9  # relative to the common-paper count
MAX_PRUNED_CATEGORIES = 5
MIN_REFS = 3  # refclass run's default --min-refs
NOT_DIGESTED = ("run.log",)


@dataclass
class ExpectedInputs:
    journal_support: dict[str, frozenset[int]]  # paper id -> codes its journal allows
    eligible: frozenset[str]                    # papers with at least MIN_REFS slots
    external: dict[str, frozenset[str]]         # --compare name -> paper ids in that table


def expected_inputs(corpus, external=None) -> ExpectedInputs:
    """From a ``refclass.synth.SynthCorpus``: per-paper journal support and eligibility."""
    regular: dict[int, set[int]] = {}
    expands: dict[int, str] = {}
    for code, area, kind in corpus.scheme_rows:
        if kind == "regular":
            regular.setdefault(area, set()).add(code)
        else:
            expands[code] = kind
    every_regular = frozenset().union(*regular.values())

    def codes_of(code):
        kind = expands.get(code)
        if kind == "multidisciplinary":
            return every_regular
        if kind == "misc":
            area = next(a for c, a, _ in corpus.scheme_rows if c == code)
            return frozenset(regular[area])
        return frozenset((code,))

    journal: dict[str, frozenset[int]] = {}
    for jid, code, degree in corpus.journal_rows:
        if degree > 0:
            journal[jid] = journal.get(jid, frozenset()) | codes_of(code)
    slots: dict[str, int] = {}
    for pid, _ in corpus.ref_rows:
        slots[pid] = slots.get(pid, 0) + 1
    return ExpectedInputs(
        journal_support={pid: journal[jid] for pid, jid in corpus.paper_rows},
        eligible=frozenset(pid for pid, _ in corpus.paper_rows
                           if slots.get(pid, 0) >= MIN_REFS),
        external=dict(external or {}))


def read_classification_table(path) -> dict[str, dict[int, float]]:
    vectors: dict[str, dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["paper_id", "category_code", "weight"]:
            raise ValueError(f"{path}: unexpected header")
        for pid, code, weight in reader:
            vectors.setdefault(pid, {})[int(code)] = float(weight)
    return vectors


def check_outputs(out_dir, expected: ExpectedInputs) -> list[str]:
    out = Path(out_dir)
    problems: list[str] = []
    paper_sets = {"initial": expected.eligible, **expected.external}
    for path in sorted(out.glob("*.csv")):
        label = path.stem
        vectors = read_classification_table(path)
        paper_sets[label] = frozenset(vectors)
        pruned = _is_number(label.rpartition("-")[2])
        for pid, vector in vectors.items():
            total = math.fsum(vector.values())
            if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
                problems.append(f"{path.name}: {pid} weights sum to {total!r}")
            if pruned and len(vector) > MAX_PRUNED_CATEGORIES:
                problems.append(f"{path.name}: {pid} has {len(vector)} categories")
            if label.startswith("JL-") and not set(vector) <= expected.journal_support[pid]:
                problems.append(f"{path.name}: {pid} outside its journal's categories")
    if not paper_sets.keys() - {"initial"} - expected.external.keys():
        problems.append("no classification table written")

    report = out / "report"
    try:
        meta = json.loads((report / "metadata.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"report metadata unreadable: {exc}"]
    for table in meta["tables"]:
        if not (report / table).is_file():
            problems.append(f"report table {table} listed but missing")
    for path in sorted(report.glob("flow_*_to_*.csv")):
        origin, _, result = path.stem[len("flow_"):].partition("_to_")
        if origin not in paper_sets or result not in paper_sets:
            problems.append(f"{path.name}: unknown classification")
            continue
        common = len(paper_sets[origin] & paper_sets[result])
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        total = math.fsum(float(v) for row in rows for v in row[1:])
        if abs(total - common) > FLOW_SUM_TOLERANCE * max(common, 1):
            problems.append(f"{path.name}: flow sums to {total!r}, expected {common}")
    return problems


def digest(out_dir) -> str:
    """sha256 over the relative path and bytes of every output except run.log."""
    out = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name in NOT_DIGESTED:
            continue
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
