"""Command-line entry point.

Subcommands:

* ``run``     ingest -> propagate -> prune -> metrics report
* ``synth``   generate a seeded synthetic corpus with planted communities
* ``oracle``  cross-check the engine against the dense reference run
* ``metrics`` metrics-only over existing classification files
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

from . import __version__
from .assign import DEFAULT_THRESHOLDS, PruneConfig, prune_classification
from .corpus import DEFAULT_MIN_REFS, CorpusError, eligible_rows, load_corpus
from .engine import (ABSOLUTE_THRESHOLD, DEFAULT_PER_PAPER_THRESHOLD, Classification,
                     EngineConfig, read_classification, run, write_classification)
from .oracle import OracleSizeError, dense_run, max_component_difference
from .report import write_report
from .scheme import load_scheme
from .synth import SynthParams, generate

ORACLE_TOLERANCE = 1e-12

ALL_VARIANTS = tuple(
    f"{phase}-{weight}-{threshold:g}"
    for phase in ("JL", "U1") for weight in ("NF", "F")
    for threshold in DEFAULT_THRESHOLDS)


class CliError(Exception):
    pass


def parse_variant(token: str):
    """'JL-F-0.8' -> ('JL', 'F', PruneConfig(0.8)); 'U1-NF' or 'U1-NF-raw' -> raw (None)."""
    parts = token.split("-")
    if len(parts) not in (2, 3) or parts[0] not in ("JL", "U1") \
            or parts[1] not in ("F", "NF"):
        raise CliError(f"bad variant {token!r}; expected e.g. JL-F-0.8 or U1-NF-raw")
    prune = None
    if len(parts) == 3 and parts[2] != "raw":
        try:
            prune = PruneConfig(float(parts[2]))
        except ValueError as exc:
            raise CliError(f"bad threshold in variant {token!r}: {exc}") from None
    return parts[0], parts[1], prune


def _engine_config(args, fractional: bool) -> EngineConfig:
    if args.threshold_mode == "absolute":
        absolute = args.threshold if args.threshold is not None else ABSOLUTE_THRESHOLD
        per_paper = None
    else:
        absolute = None
        per_paper = (args.threshold if args.threshold is not None
                     else DEFAULT_PER_PAPER_THRESHOLD)
    return EngineConfig(
        fractional=fractional,
        convergence_threshold=absolute,
        per_paper_threshold=per_paper,
        max_iterations=args.max_iterations,
        min_refs=args.min_refs,
        include_ineligible_citers=not args.no_ineligible_citers,
    )


def _corpus_paths(args):
    if getattr(args, "dir", None):
        base = Path(args.dir)
        return (base / "papers.csv", base / "journals.csv",
                base / "references.csv", base / "scheme.csv")
    for name in ("papers", "journals", "refs", "scheme"):
        if getattr(args, name, None) is None:
            raise CliError(f"--{name} required (or use --dir)")
    return args.papers, args.journals, args.refs, args.scheme


def _named_paths(items, flag: str, taken=frozenset()) -> dict[str, str]:
    """NAME=PATH items -> {NAME: PATH}; a NAME may neither repeat nor be in ``taken``."""
    out = {}
    for item in items:
        name, _, path = item.partition("=")
        if not path:
            raise CliError(f"{flag} expects NAME=PATH, got {item!r}")
        if name in out or name in taken:
            raise CliError(f"{flag} name {name!r} is already in use")
        out[name] = path
    return out


def _read_classifications(paths: dict[str, str], scheme, corpus=None):
    """{NAME: PATH} -> {NAME: classification}.

    With a corpus, every paper a table names must be in it.
    """
    out = {}
    for name, path in paths.items():
        c = read_classification(path, scheme, label=name)
        if corpus is not None:
            try:
                corpus.rows_of(c.paper_ids)
            except CorpusError as exc:
                raise CliError(f"{path}: {exc}") from None
        out[name] = c
    return out


def _initial_classification(corpus, min_refs: int) -> Classification:
    """The journal vectors of the papers with at least ``min_refs`` references."""
    rows, eligible, unreclassified = eligible_rows(corpus, min_refs)
    return Classification("initial", eligible, corpus.matrices()[1][rows], unreclassified)


def cmd_run(args) -> int:
    if args.out is None:
        raise CliError("--out required")
    if args.variants is None:
        variants = list(ALL_VARIANTS)
    else:
        variants = [v for v in args.variants.split(",") if v]
    if not variants:
        raise CliError("no variants requested")
    parsed = [parse_variant(v) for v in variants]
    configs = {weight: _engine_config(args, fractional=(weight == "F"))
               for weight in ("NF", "F") if any(w == weight for _, w, _ in parsed)}
    labels = {f"{phase}-{weight}" + (f"-{prune.label}" if prune else "")
              for phase, weight, prune in parsed}
    compare = _named_paths(args.compare or [], "--compare", labels | {"initial"})
    papers_path, journals_path, refs_path, scheme_path = _corpus_paths(args)
    scheme = load_scheme(scheme_path)
    corpus = load_corpus(papers_path, journals_path, refs_path, scheme)
    comparisons = _read_classifications(compare, scheme, corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    log_lines = [f"refclass {__version__}",
                 f"papers={len(corpus)} references={len(corpus.ref_ids)}",
                 f"min_refs={args.min_refs} threshold_mode={args.threshold_mode}"]
    raw: dict[str, Classification] = {}
    for weight, config in configs.items():
        t0 = time.perf_counter()
        jl, u1 = run(corpus, config)
        raw[f"JL-{weight}"] = jl
        raw[f"U1-{weight}"] = u1
        log_lines.append(
            f"{weight}: iterations={jl.iterations_run} converged={jl.converged} "
            f"stalled={jl.stalled} seconds={time.perf_counter() - t0:.2f}")
        log_lines.append(f"{weight}: residuals={jl.residual_trace}")
        if not jl.converged:
            log_lines.append(f"WARNING: {weight} run did not converge "
                             f"within {config.max_iterations} iterations")
            print(f"warning: {weight} run did not converge", file=sys.stderr)

    produced: dict[str, Classification] = {}
    for phase, weight, prune in parsed:
        c = raw[f"{phase}-{weight}"]
        if prune is not None:
            c = prune_classification(c, prune)
        produced[c.variant_label] = c
        write_classification(c, scheme, out / f"{c.variant_label}.csv")

    report_inputs = dict(produced)
    report_inputs.update(comparisons)
    report_inputs["initial"] = _initial_classification(corpus, args.min_refs)
    write_report(out / "report", report_inputs, scheme, corpus=corpus,
                 origin="initial")
    (out / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return 0


def cmd_synth(args) -> int:
    params = SynthParams(
        n_papers=args.papers, n_categories=args.categories, seed=args.seed,
        n_areas=args.areas, refs_per_paper_mean=args.refs_mean,
        pool_per_category=args.pool, journal_noise=args.journal_noise,
        misc_fraction=args.misc_fraction,
        multidisciplinary_fraction=args.multi_fraction,
        ref_noise=args.ref_noise, short_ref_fraction=args.short_ref_fraction)
    paths = generate(params).write(args.out)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    papers_path, journals_path, refs_path, scheme_path = _corpus_paths(args)
    scheme = load_scheme(scheme_path)
    corpus = load_corpus(papers_path, journals_path, refs_path, scheme)
    worst = 0.0
    for fractional in (False, True):
        config = _engine_config(args, fractional)
        jl, u1 = run(corpus, config)
        try:
            oracle_jl, oracle_u1 = dense_run(corpus, config)
        except OracleSizeError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        for label, mine, ref in (("JL", jl.weights.toarray(), oracle_jl),
                                 ("U1", u1.weights.toarray(), oracle_u1)):
            diff = max_component_difference(mine, ref)
            worst = max(worst, diff)
            print(f"{label}-{config.weight_label}: max diff {diff:.3e}")
    if worst > ORACLE_TOLERANCE:
        print(f"FAIL: max difference {worst:.3e} > {ORACLE_TOLERANCE:.0e}")
        return 1
    print(f"PASS: max difference {worst:.3e} <= {ORACLE_TOLERANCE:.0e}")
    return 0


def cmd_metrics(args) -> int:
    paths = _named_paths(args.classification, "--classification")
    if not paths:
        raise CliError("no classifications given")
    if args.origin is not None and args.origin not in paths:
        raise CliError(f"--origin {args.origin!r} is not a --classification name")
    scheme = load_scheme(args.scheme)
    corpus = None
    if args.corpus_dir:
        base = Path(args.corpus_dir)
        corpus = load_corpus(base / "papers.csv", base / "journals.csv",
                             base / "references.csv", scheme)
    classifications = _read_classifications(paths, scheme, corpus)
    write_report(args.out, classifications, scheme, corpus=corpus,
                 origin=args.origin)
    print(f"report written to {args.out}")
    return 0


def _add_corpus_args(p):
    p.add_argument("--dir", help="directory with papers/journals/references/scheme.csv")
    p.add_argument("--papers")
    p.add_argument("--journals")
    p.add_argument("--refs")
    p.add_argument("--scheme")


def _add_engine_args(p):
    p.add_argument("--threads", type=int, default=1,
                   help="deprecated; has no effect")
    p.add_argument("--min-refs", type=int, default=DEFAULT_MIN_REFS)
    p.add_argument("--threshold-mode", choices=("absolute", "per-paper"),
                   default="per-paper")
    p.add_argument("--threshold", type=float,
                   help="stopping value in the chosen mode")
    p.add_argument("--max-iterations", type=int, default=50)
    p.add_argument("--no-ineligible-citers", action="store_true",
                   help="exclude short-reference papers from the citing scope")


def build_parser(run_defaults=None) -> argparse.ArgumentParser:
    """The CLI parser; ``run_defaults`` replaces defaults of ``run`` flags."""
    parser = argparse.ArgumentParser(
        prog="refclass",
        description="Reference-based paper-by-paper subject classification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline: propagate, prune, report")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    _add_corpus_args(p)
    _add_engine_args(p)
    p.add_argument("--out", help="output directory (required here or in --config)")
    p.add_argument("--variants",
                   help="comma list like JL-F-0.8,U1-NF-raw (default: all 12)")
    p.add_argument("--compare", action="append", metavar="NAME=PATH",
                   help="external classification table to include in the report")
    p.set_defaults(func=cmd_run, **(run_defaults or {}))

    p = sub.add_parser("synth", help="generate a synthetic planted corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--papers", type=int, default=1000)
    p.add_argument("--categories", type=int, default=8)
    p.add_argument("--areas", type=int)
    p.add_argument("--refs-mean", type=float, default=8.0)
    p.add_argument("--pool", type=int)
    p.add_argument("--journal-noise", type=float, default=0.0)
    p.add_argument("--misc-fraction", type=float, default=0.0)
    p.add_argument("--multi-fraction", type=float, default=0.0)
    p.add_argument("--ref-noise", type=float, default=0.0)
    p.add_argument("--short-ref-fraction", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("oracle", help="engine vs dense reference cross-check")
    _add_corpus_args(p)
    _add_engine_args(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("metrics", help="metrics over existing classification files")
    p.add_argument("--scheme", required=True)
    p.add_argument("--classification", action="append", default=[],
                   metavar="NAME=PATH")
    p.add_argument("--corpus-dir",
                   help="corpus tables for reference-count and retention metrics")
    p.add_argument("--origin", help="flow-matrix origin classification name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; values from ``run --config`` replace flag defaults.

    The file's values act as defaults, so any flag given on the command
    line wins, even when it equals the built-in default.
    """
    args = build_parser().parse_args(argv)
    if not getattr(args, "config", None):
        return args
    overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
    flags = set(vars(args)) - {"command", "func", "config"}
    defaults = {}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            raise CliError(f"unknown config key {key!r}")
        defaults[attr] = value
    return build_parser(defaults).parse_args(argv)


def main(argv=None) -> int:
    # glibc's sliding mmap/trim thresholds unmapped the engine's freed multi-MiB
    # temporaries on a share of iterations that varied from run to run; pin them
    if hasattr(libc := ctypes.CDLL(None) if sys.platform == "linux" else None, "mallopt"):
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap-serve blocks up to 32 MiB
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep 64 MiB of freed heap mapped
    try:
        args = parse_args(argv)
        if getattr(args, "threads", 1) != 1:
            print("warning: --threads is deprecated and has no effect", file=sys.stderr)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
