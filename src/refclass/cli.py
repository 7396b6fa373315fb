"""Command-line entry point.

Subcommands:

* ``run``     ingest -> propagate -> prune -> metrics report
* ``synth``   generate a seeded synthetic corpus with planted communities
* ``oracle``  cross-check the engine against the dense reference run
* ``metrics`` metrics-only over existing classification files
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from . import __version__
from .assign import DEFAULT_THRESHOLDS, PruneConfig, prune_blocks, pruned
from .corpus import DEFAULT_MIN_REFS, CorpusError, eligible_rows, load_corpus
from .engine import (ABSOLUTE_THRESHOLD, DEFAULT_PER_PAPER_THRESHOLD, Classification,
                     EngineConfig, collect_rows, on_index, propagate, read_classification,
                     run, unlimited, write_classification)
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


def _load_corpus(base: Path, scheme):
    """The corpus of the papers, journals and references tables in ``base``."""
    return load_corpus(base / "papers.csv", base / "journals.csv",
                       base / "references.csv", scheme)


def _load_dir(args):
    """The scheme and the corpus of the tables in ``--dir``."""
    if not args.dir:
        raise CliError("--dir required")
    scheme = load_scheme(Path(args.dir) / "scheme.csv")
    return scheme, _load_corpus(Path(args.dir), scheme)


def _named_paths(items, flag: str, taken=frozenset()) -> dict[str, str]:
    """NAME=PATH items -> {NAME: PATH}; a NAME may neither repeat nor be in ``taken``.

    A NAME becomes a report column and part of a file name, so it must be
    non-empty and hold none of , " / \\.
    """
    out = {}
    for item in items:
        name, _, path = item.partition("=")
        if not name or not path:
            raise CliError(f"{flag} expects NAME=PATH, got {item!r}")
        if any(c in name for c in ',"/\\'):
            raise CliError(f"{flag} name {name!r} holds one of , \" / \\")
        if name in out or name in taken:
            raise CliError(f"{flag} name {name!r} is already in use")
        out[name] = path
    return out


def _read_classifications(paths: dict[str, str], scheme, corpus=None):
    """{NAME: PATH} -> {NAME: classification}.

    A table must hold a row.  With a corpus, it is placed on the corpus's index.
    """
    out = {}
    for name, path in paths.items():
        c = read_classification(path, scheme, label=name)
        if not len(c.rows):
            raise CliError(f"{path}: no classification rows")
        if corpus is not None:
            try:
                c = on_index(c, corpus.paper_ids)
            except CorpusError as exc:
                raise CliError(f"{path}: {exc}") from None
        out[name] = c
    return out


def _initial_classification(corpus, min_refs: int) -> Classification:
    """The journal vectors of the papers with at least ``min_refs`` references."""
    rows = eligible_rows(corpus, min_refs)
    return Classification("initial", corpus.paper_ids, rows,
                          corpus.journal_weights[corpus.paper_journal[rows]],
                          unreclassified=len(corpus) - len(rows))


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
    labels: dict[str, str] = {}  # variant label -> the token naming it
    for token, (phase, weight, prune) in zip(variants, parsed):
        label = f"{phase}-{weight}" + (f"-{prune.label}" if prune else "")
        if label in labels:
            raise CliError(f"variants {labels[label]!r} and {token!r} both name {label}")
        labels[label] = token
    compare = _named_paths(args.compare or [], "--compare", labels.keys() | {"initial"})
    t0 = time.perf_counter()
    scheme, corpus = _load_dir(args)
    comparisons = _read_classifications(compare, scheme, corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    log_lines = [f"refclass {__version__}",
                 f"papers={len(corpus)} references={len(corpus.ref_ids)}",
                 f"min_refs={args.min_refs} threshold_mode={args.threshold_mode}",
                 _stage_line("ingest", t0)]
    # one weighting at a time: its raw classifications are dropped once its
    # variants are written, unless a raw variant keeps one
    report_inputs: dict[str, Classification] = {}
    for weight, config in configs.items():
        t0 = time.perf_counter()
        jl, u1_rows, u1_stalled = propagate(corpus, config)
        log_lines.append(f"{weight}: iterations={jl.iterations_run} "
                         f"converged={jl.converged} stalled={jl.stalled}")
        log_lines.append(f"{weight}: residuals={jl.residual_trace}")
        if not jl.converged:
            log_lines.append(f"WARNING: {weight} run did not converge "
                             f"within {config.max_iterations} iterations")
            print(f"warning: {weight} run did not converge", file=sys.stderr)
        log_lines.append(_stage_line(f"run-{weight}", t0))
        t0 = time.perf_counter()
        made = _variants(jl, u1_rows, u1_stalled,
                         [(phase, prune) for phase, w, prune in parsed if w == weight])
        for label, (_, w, _) in zip(labels, parsed):
            if w == weight:
                report_inputs[label] = made[label]
                write_classification(made[label], scheme, out / f"{label}.csv")
        del jl, u1_rows, made
        log_lines.append(_stage_line(f"prune-write-{weight}", t0))

    t0 = time.perf_counter()
    report_inputs.update(comparisons)
    report_inputs["initial"] = _initial_classification(corpus, args.min_refs)
    write_report(out / "report", report_inputs, scheme, corpus=corpus,
                 origin="initial")
    log_lines.append(_stage_line("report", t0))
    (out / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return 0


def _variants(jl, u1_rows, u1_stalled, wanted) -> dict[str, Classification]:
    """{variant label: classification} of one weighting's ``wanted`` (phase, prune) pairs.

    ``jl``, ``u1_rows`` and ``u1_stalled`` are ``propagate``'s result.  The JL
    rows, and the U1 rows, are ranked once for all their thresholds.  The U1
    matrix is assembled only for a raw U1 variant; otherwise the U1 pass's row
    blocks are pruned as they are made.
    """
    out = {}
    for phase in ("JL", "U1"):
        prunes = [prune for ph, prune in wanted if ph == phase and prune]
        if phase == "JL" or (phase, None) in wanted:
            c = jl if phase == "JL" else unlimited(
                jl, collect_rows(u1_rows, jl.weights.shape), u1_stalled)
            out[c.variant_label] = c
            blocks = [c.weights]
        else:
            c, blocks = None, u1_rows
        if prunes:
            weights = prune_blocks(blocks, jl.paper_ids, prunes)
            # a U1 classification never assembled lends the pruned ones its label
            # and metadata only
            c = c or unlimited(jl, weights[0], u1_stalled)
            for prune, w in zip(prunes, weights):
                p = pruned(c, prune, w)
                out[p.variant_label] = p
    return out


def _stage_line(stage: str, t0: float) -> str:
    """A run.log line: the stage's wall time since ``t0`` and the process's peak RSS so far."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return f"stage={stage} seconds={time.perf_counter() - t0:.2f} peak_rss_mib={peak:.1f}"


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
    configs = [_engine_config(args, fractional) for fractional in (False, True)]
    _, corpus = _load_dir(args)
    worst = 0.0
    for config in configs:
        try:
            oracle_jl, oracle_u1 = dense_run(corpus, config)
        except OracleSizeError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        jl, u1 = run(corpus, config)
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
    corpus = _load_corpus(Path(args.corpus_dir), scheme) if args.corpus_dir else None
    classifications = _read_classifications(paths, scheme, corpus)
    write_report(args.out, classifications, scheme, corpus=corpus,
                 origin=args.origin)
    print(f"report written to {args.out}")
    return 0


def _add_run_args(p) -> list[argparse.Action]:
    """The flags ``run`` and ``oracle`` share: the corpus directory and the engine's."""
    return [
        p.add_argument("--dir",
                       help="directory with papers/journals/references/scheme.csv"),
        p.add_argument("--threads", type=int, default=1, help="deprecated; has no effect"),
        p.add_argument("--min-refs", type=int, default=DEFAULT_MIN_REFS),
        p.add_argument("--threshold-mode", choices=("absolute", "per-paper"),
                       default="per-paper"),
        p.add_argument("--threshold", type=float,
                       help="stopping value in the chosen mode"),
        p.add_argument("--max-iterations", type=int, default=50),
        p.add_argument("--no-ineligible-citers", action="store_true",
                       help="exclude short-reference papers from the citing scope")]


def _config_defaults(parser, flags, config: dict) -> dict:
    """``config``'s values by flag, checked as on the command line (a switch takes true
    or false, a list is one value per use); CliError names the key of a bad one."""
    by_dest = {flag.dest: flag for flag in flags}
    defaults = argparse.Namespace()
    for key, value in config.items():
        flag = by_dest.get(key.replace("-", "_"))
        if flag is None:
            raise CliError(f"unknown config key {key!r}")
        if flag.nargs == 0:
            if type(value) is not bool:
                raise CliError(f"config key {key!r} takes true or false, not {value!r}")
            setattr(defaults, flag.dest, value)
            continue
        for token in value if isinstance(value, list) else [value]:
            try:
                if type(token) not in ((str, int, float) if flag.type else (str,)):
                    raise ValueError
                token = (flag.type or str)(str(token))
                if token not in (flag.choices or [token]):
                    raise ValueError
            except ValueError:
                raise CliError(f"config key {key!r}: {flag.option_strings[0]} "
                               f"does not take {token!r}") from None
            flag(parser, defaults, token)
    return vars(defaults)


def build_parser(config=None) -> argparse.ArgumentParser:
    """The CLI parser; the values of ``config`` replace defaults of ``run`` flags."""
    parser = argparse.ArgumentParser(
        prog="refclass",
        description="Reference-based paper-by-paper subject classification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline: propagate, prune, report")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    flags = _add_run_args(p) + [
        p.add_argument("--out", help="output directory (required here or in --config)"),
        p.add_argument("--variants",
                       help="comma list like JL-F-0.8,U1-NF-raw (default: all 12)"),
        p.add_argument("--compare", action="append", metavar="NAME=PATH",
                       help="external classification table to include in the report")]
    p.set_defaults(func=cmd_run, **_config_defaults(p, flags, config or {}))

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
    _add_run_args(p)
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
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise CliError(f"{args.config}: not a JSON object")
    return build_parser(config).parse_args(argv)


def main(argv=None) -> int:
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
