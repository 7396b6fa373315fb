"""Spans around refclass's public layer functions, recorded from outside the package.

``Tracer.install`` replaces each function in ``WRAPPED`` by a wrapper that
records a span (name, start, end, parent) in memory.  The wrapper is bound
wherever the original is reachable by name: in its own module and in every
refclass module that imported it by name (``refclass.cli`` imports ``run``,
``load_corpus``, ``write_report`` and others, ``refclass.report`` imports
``misc_exclusive_papers``).  Calls between functions of ``refclass.metrics``
resolve through module globals, so they are caught too.  Nothing under
``src/`` is changed on disk.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from pathlib import Path

METRIC_FUNCTIONS = (
    "category_sizes", "granularity", "size_cv", "refs_per_paper_acv",
    "coincidence_percentage", "rank_metrics", "assignment_histogram",
    "category_correlation", "area_aggregate", "area_flow", "same_area_retention",
)

# layer (module under refclass) -> wrapped public functions; span names are
# "<layer>.<function>"
WRAPPED = {
    "scheme": ("load_scheme",),
    "corpus": ("load_corpus", "Corpus.matrices", "misc_exclusive_papers"),
    "engine": ("run", "write_classification", "read_classification"),
    "assign": ("prune_classification",),
    "metrics": METRIC_FUNCTIONS,
    "report": ("write_report",),
}

# The report table that each direct callee of write_report computes.
REPORT_TABLES = {
    "metrics.category_sizes": "structure",
    "metrics.assignment_histogram": "structure",
    "metrics.size_cv": "structure",
    "metrics.granularity": "structure",
    "metrics.refs_per_paper_acv": "acv",
    "metrics.rank_metrics": "pairwise",
    "metrics.coincidence_percentage": "pairwise",
    "metrics.category_correlation": "pairwise",
    "metrics.area_aggregate": "areas",
    "metrics.area_flow": "flow",
    "metrics.same_area_retention": "retention",
    "corpus.misc_exclusive_papers": "retention",
}
TABLES = ("structure", "acv", "pairwise", "areas", "flow", "retention")

ROOT_SPAN = "cli.main"

# Calls whose arguments and results are kept to derive counts after the run.
_OBSERVED = ("engine.run", "engine.write_classification",
             "engine.read_classification", "assign.prune_classification",
             "report.write_report")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.observed: list[tuple] = []  # (name, args, kwargs, result)
        self._stack: list[int] = []

    def install(self) -> None:
        import refclass.cli  # noqa: F401  (imports every layer module)

        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"refclass.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                setattr(owner, attr, wrapper)
                if owner is module:
                    _rebind_imports(original, wrapper)

    def _wrap(self, name, fn):
        observe = name in _OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if observe:
                self.observed.append((name, args, kwargs, result))
            return result

        return traced

    def call_main(self, argv) -> int:
        """Run ``refclass.cli.main(argv)`` inside the root span."""
        from refclass import cli

        return self._wrap(ROOT_SPAN, cli.main)(argv)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and work counts of the finished run."""
        duration = [end - start for _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, duration):
            if parent >= 0:
                children[parent] += d
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, *_), d, c in zip(self.spans, duration, children):
            self_time[name] = self_time.get(name, 0.0) + d - c
            calls[name] = calls.get(name, 0) + 1

        out: dict[str, float] = {}
        for layer, names in WRAPPED.items():
            for qualname in names:
                name = f"{layer}.{qualname.rpartition('.')[2]}"
                out[f"{name}.s"] = self_time.get(name, 0.0)
                out[f"{name}.calls"] = calls.get(name, 0)

        root = next(i for i, span in enumerate(self.spans) if span[0] == ROOT_SPAN)
        out["trace.total_s"] = duration[root]
        out["cli.unattributed_s"] = duration[root] - children[root]

        tables = dict.fromkeys(TABLES, 0.0)
        report_total = 0.0
        report_children = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == "report.write_report":
                report_total += duration[i]
                report_children += children[i]
            elif parent >= 0 and self.spans[parent][0] == "report.write_report":
                table = REPORT_TABLES.get(name)
                if table is not None:
                    tables[table] += duration[i]
        # write_report's time is reported inclusive; report.self_s is its self time
        out["report.write_report.s"] = report_total
        out["report.self_s"] = report_total - report_children
        for table, seconds in tables.items():
            out[f"report.table.{table}.s"] = seconds

        out.update(self._work_counts())
        iterations_and_passes = out["engine.iterations"] + out["engine.u1_passes"]
        out["engine.s_per_iteration"] = (out["engine.run.s"] / iterations_and_passes
                                         if iterations_and_passes else 0.0)
        out["assign.kept_ratio"] = (out["assign.entries_kept"] / out["assign.entries_in"]
                                    if out["assign.entries_in"] else 0.0)
        return out

    def _work_counts(self) -> dict[str, float]:
        counts = dict.fromkeys(
            ("engine.iterations", "engine.u1_passes", "engine.stalled",
             "engine.output_nnz", "engine.write_classification.bytes",
             "engine.read_classification.rows", "assign.entries_in",
             "assign.entries_kept", "report.bytes"), 0)
        for name, args, kwargs, result in self.observed:
            if name == "engine.run":
                jl, u1 = result
                config = _argument(args, kwargs, 1, "config")
                counts["engine.iterations"] += jl.iterations_run
                counts["engine.u1_passes"] += config.unlimited_passes
                counts["engine.stalled"] += u1.stalled
                counts["engine.output_nnz"] += _entries(jl) + _entries(u1)
            elif name == "engine.write_classification":
                counts[f"{name}.bytes"] += os.path.getsize(_argument(args, kwargs, 2, "path"))
            elif name == "engine.read_classification":
                counts[f"{name}.rows"] += _entries(result)
            elif name == "assign.prune_classification":
                counts["assign.entries_in"] += _entries(_argument(args, kwargs, 0, "c"))
                counts["assign.entries_kept"] += _entries(result)
            elif name == "report.write_report":
                out_dir = Path(_argument(args, kwargs, 0, "out_dir"))
                counts["report.bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())
        return counts


def _rebind_imports(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("refclass"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _entries(classification) -> int:
    return sum(len(vector) for vector in classification.vectors.values())
