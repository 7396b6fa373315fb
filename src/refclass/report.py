"""Assemble and write the indicator tables for a set of classifications."""

from __future__ import annotations

import json
from pathlib import Path

from . import metrics
from .corpus import Corpus, misc_exclusive_papers
from .engine import Classification
from .scheme import CategoryScheme


def _write_table(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_report(out_dir, classifications: dict[str, Classification],
                 scheme: CategoryScheme, corpus: Corpus | None = None,
                 origin: str | None = None):
    """Write structure/pairwise/area/flow/retention tables plus metadata.

    ``origin`` names the classification used as the flow source and, when a
    corpus is given, the retention tables are computed for every
    classification against the corpus's misc-exclusive papers.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = sorted(classifications)
    written = []

    rows = []
    for name in names:
        c = classifications[name]
        sizes = metrics.category_sizes(c)
        hist = metrics.assignment_histogram(c)
        rows.append((
            name, len(sizes), max(sizes.values()), min(sizes.values()),
            metrics.size_cv(c), metrics.granularity(c),
            hist.total_assignments, hist.average,
            hist.percentages["1"], hist.percentages["2"], hist.percentages["3"],
            hist.percentages["4"], hist.percentages["5+"],
        ))
    _write_table(out / "structure.csv",
                 ("classification", "categories", "max_size", "min_size", "cv",
                  "granularity", "n_assignments", "avg_assignments",
                  "pct_1", "pct_2", "pct_3", "pct_4", "pct_5plus"), rows)
    written.append("structure.csv")

    if corpus is not None:
        rows = [(name, metrics.refs_per_paper_acv(classifications[name], corpus))
                for name in names]
        _write_table(out / "acv.csv", ("classification", "acv_all"), rows)
        written.append("acv.csv")

    rows = []
    for i, a_name in enumerate(names):
        for b_name in names[i + 1:]:
            a, b = classifications[a_name], classifications[b_name]
            try:
                ab, ba = metrics.rank_metrics(a, b)
            except ValueError:  # no common papers
                continue
            rows.append((
                a_name, b_name,
                metrics.coincidence_percentage(a, b),
                metrics.category_correlation(a, b, scheme, common_only=True),
                ab.avg_rank, ab.missing, ba.avg_rank, ba.missing,
            ))
    if rows:
        _write_table(out / "pairwise.csv",
                     ("a", "b", "coincidence_pct", "size_correlation",
                      "a_winner_rank_in_b", "a_winner_missing_in_b",
                      "b_winner_rank_in_a", "b_winner_missing_in_a"), rows)
        written.append("pairwise.csv")

    areas = list(scheme.area_codes)
    by_name = {name: metrics.area_aggregate(classifications[name], scheme)
               for name in names}
    rows = [[area] + [by_name[name][area] for name in names] for area in areas]
    _write_table(out / "areas.csv", ["area_code"] + names, rows)
    written.append("areas.csv")

    if origin is not None and origin in classifications:
        for name in names:
            if name == origin:
                continue
            try:
                axes, flow = metrics.area_flow(
                    classifications[origin], classifications[name], scheme)
            except ValueError:
                continue
            fname = f"flow_{origin}_to_{name}.csv"
            rows = [[axes[i]] + [float(flow[i, j]) for j in range(len(axes))]
                    for i in range(len(axes))]
            _write_table(out / fname,
                         ["origin_area"] + [str(a) for a in axes], rows)
            written.append(fname)

    if corpus is not None:
        home_area = misc_exclusive_papers(corpus)
        if (home_area >= 0).any():
            rows = []
            for name in names:
                c = classifications[name]
                retention = metrics.same_area_retention(
                    home_area[corpus.rows_of(c.paper_ids)], c, scheme)
                for area, pct in retention.items():
                    rows.append((name, area, pct))
            _write_table(out / "retention.csv",
                         ("classification", "area_code", "same_area_pct"), rows)
            written.append("retention.csv")

    meta = {"formulas": metrics.FORMULA_VERSIONS,
            "classifications": names, "tables": written}
    (out / "metadata.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return written
