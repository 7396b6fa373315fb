"""Pipeline benchmark for refclass.

    python3 perfbench/run.py --workload report-heavy --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from a checkout that has ``src/refclass``.  For one workload it

1. generates the corpus tables from ``--seed`` with ``refclass.synth``
   (checked against ``fingerprints.json`` at the default seed),
2. runs ``refclass oracle`` once on a 2000-paper corpus with the same
   generator params and engine flags,
3. with ``--trace 0``: for ``--seconds``, times one ``refclass run`` child
   after another (a closed loop, one run at a time), every other one
   preceded by a ``setup`` child (import refclass, load the tables, build
   the matrices),
4. with ``--trace 1``: alternates untraced runs with traced runs, whose
   per-layer spans come from ``tracer.py``,
5. checks every run's outputs (``checks.py``) and that all runs of the set
   wrote byte-identical outputs.

Timed values are medians over the runs of one invocation.  Scratch files go
to ``.perfbench-work/`` in the checkout and are removed at the end, except
the spans of the first traced run of each workload and seed.

Every metric is printed with its unit; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``,
names and units as listed in BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = HERE / "child.py"
FINGERPRINTS = HERE / "fingerprints.json"

MIN_RUNS = 3      # runs of each kind per invocation, however short --seconds is
MAX_ATTEMPTS = 10  # ... unless this many runs have failed to give them
CHILD_TIMEOUT_S = 150
ORACLE_TOLERANCE = 1e-12
ORACLE_PAPERS = 2000      # corpus size of the oracle check (200 with --tiny)
TINY_ORACLE_PAPERS = 200
TABLES = ("scheme", "journals", "papers", "references", "labels")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, changed inputs)."""


# ---------------------------------------------------------------------------
# child processes

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path) -> tuple[int, float, float]:
    """Run ``child.py ARGV``; return (exit code, wall seconds, peak RSS in MiB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv], cwd=ROOT,
                                env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# inputs

def _threads(workload) -> int:
    threads = workload["threads"]
    return len(os.sched_getaffinity(0)) if threads == "nproc" else int(threads)


def generate_tables(workload, seed: int, n_papers: int, directory: Path):
    """Write the workload's corpus tables; return the corpus and the planted ids.

    With ``planted_every`` set, ``planted.csv`` holds the planted label of
    every so-many-th paper as a weight-1.0 classification for ``--compare``;
    the returned ids are the papers in it.
    """
    from refclass.synth import SynthParams, generate

    corpus = generate(SynthParams(**dict(workload["synth"], n_papers=n_papers, seed=seed)))
    corpus.write(directory)
    every = workload["planted_every"]
    planted = sorted(corpus.labels.items())[::every] if every else []
    if every:
        with open(directory / "planted.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("paper_id,category_code,weight\n")
            for pid, code in planted:
                fh.write(f"{pid},{code},1.0\n")
    return corpus, frozenset(pid for pid, _ in planted)


def fingerprint(directory: Path) -> dict[str, dict]:
    out = {}
    for table in TABLES:
        data = (directory / f"{table}.csv").read_bytes()
        out[table] = {"sha256": hashlib.sha256(data).hexdigest(),
                      "rows": data.count(b"\n") - 1}
    return out


def run_argv(workload, data_dir: Path, out_dir: Path) -> list[str]:
    argv = ["run", "--dir", str(data_dir), "--out", str(out_dir),
            "--threads", str(_threads(workload)), *workload["engine_args"]]
    if workload["variants"]:
        argv += ["--variants", workload["variants"]]
    if workload["planted_every"]:
        argv += ["--compare", f"planted={data_dir / 'planted.csv'}"]
    return argv


# ---------------------------------------------------------------------------
# one workload

class Tally:
    """Attempted and failed operations of one invocation, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def oracle_check(workload, seed, n_papers, work: Path, tally: Tally, say):
    directory = work / "oracle"
    generate_tables(dict(workload, planted_every=None), seed, n_papers, directory)
    log = work / "oracle.log"
    argv = ["cli", "oracle", "--dir", str(directory),
            "--threads", str(_threads(workload)), *workload["engine_args"]]
    rc, wall, _ = run_child(argv, log)
    lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
    verdict = lines[-1] if lines else ""
    problems = []
    if rc != 0 or not verdict.startswith("PASS"):
        problems.append(f"exit {rc}: {verdict}")
    else:
        worst = float(verdict.split()[3])
        if worst > ORACLE_TOLERANCE:
            problems.append(f"max difference {worst!r}")
    tally.record(f"oracle ({n_papers} papers)", problems)
    say(f"oracle on {n_papers} papers: {verdict} ({wall:.2f} s)")


def bench_workload(name, workload, seed, seconds, trace, tiny, recorded, say):
    """Measure one workload; returns (metric values, tally).

    ``recorded`` is the expected table fingerprint, or None to skip the check.
    """
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench_in(work, name, workload, seed, seconds, trace, tiny, recorded, say)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench_in(work, name, workload, seed, seconds, trace, tiny, recorded, say):
    n_papers = workload["tiny_papers"] if tiny else workload["synth"]["n_papers"]
    tally = Tally()
    data = work / "data"
    corpus, planted = generate_tables(workload, seed, n_papers, data)
    if recorded is not None:
        if fingerprint(data) != recorded:
            raise BenchError(f"{name}: generated tables differ from fingerprints.json; "
                             "refclass.synth changed, so results would not compare")
    expected = checks.expected_inputs(corpus, {"planted": planted} if planted else {})
    inputs = [data / f"{t}.csv" for t in TABLES[:4]]
    if planted:
        inputs.append(data / "planted.csv")
    input_counts = {"corpus.ref_slots": len(corpus.ref_rows),
                    "corpus.input_bytes": sum(p.stat().st_size for p in inputs)}
    say(f"seed {seed}: {n_papers} papers, "
        f"{input_counts['corpus.ref_slots']} reference slots, "
        f"{input_counts['corpus.input_bytes']} input bytes")
    say("argv: refclass " + " ".join(run_argv(workload, Path("DATA"), Path("OUT"))))

    oracle_check(workload, seed, TINY_ORACLE_PAPERS if tiny else ORACLE_PAPERS,
                 work, tally, say)

    setups, runs, traced_runs, layer_samples = [], [], [], []
    reference = None  # (digest, problems) of the first completed run
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (
            i < MAX_ATTEMPTS and (len(runs) < MIN_RUNS
                                  or (trace and len(traced_runs) < MIN_RUNS))):
        if not trace and i % 2 == 0:
            # interleaved with the runs, so that both see the same machine state
            rc, wall, _ = run_child(["setup", str(data)], work / "setup.log")
            if tally.record(f"setup {i}", [] if rc == 0 else [f"exit {rc}"]):
                setups.append(wall)
        traced = trace and i % 2 == 1
        out = work / f"out{i}"
        spans_file = work / f"trace{i}.json"
        argv = run_argv(workload, data, out)
        argv = ["trace", str(spans_file), *argv] if traced else ["cli", *argv]
        rc, wall, rss = run_child(argv, work / f"run{i}.log")
        problems = [] if rc == 0 else [f"exit {rc}"]
        if rc == 0:
            d = checks.digest(out)
            if reference is None:
                reference = (d, checks.check_outputs(out, expected))
            elif d != reference[0]:
                problems += ["outputs differ from the first run"]
                problems += checks.check_outputs(out, expected)
            problems += reference[1]
        tally.record(f"{'traced ' if traced else ''}run {i}", problems)
        if rc == 0:  # timed even when an output check failed; counted as failed
            if traced:
                traced_runs.append(wall)
                layer_samples.append(json.loads(spans_file.read_text())["metrics"])
                if len(layer_samples) == 1:
                    shutil.copy(spans_file, WORK / f"spans-{name}-{seed}.json")
            else:
                runs.append((wall, rss))
        shutil.rmtree(out, ignore_errors=True)
        i += 1

    if not runs or (trace and not traced_runs) or (not trace and not setups):
        raise BenchError(f"{name}: no successful run; " + "; ".join(tally.problems[:5]))

    if not trace:
        walls = [w for w, _ in runs]
        say(_summary("total_s", walls, "s"))
        say(_summary("setup_s", setups, "s"))
        say(_summary("peak_rss_mb", [r for _, r in runs], "MiB"))
        values = {"total_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r for _, r in runs)}
    else:
        values = {key: _median([s[key] for s in layer_samples])
                  for key in layer_samples[0]}
        values.update(input_counts)
        values["trace.overhead_s"] = (statistics.median(traced_runs)
                                      - statistics.median(w for w, _ in runs))
        say(f"{len(traced_runs)} traced runs, {len(runs)} untraced; "
            f"spans of the first in {WORK.name}/spans-{name}-{seed}.json")
        say(_shares(values))
    say(f"failed_frac: {tally.failed}/{tally.attempted} = "
        f"{tally.failed / tally.attempted:g}")
    for problem in tally.problems[:10]:
        say(f"FAILED {problem}")
    return values, tally


def _median(samples):
    """The median; the value itself when every sample agrees (exact counts)."""
    return samples[0] if len(set(samples)) == 1 else statistics.median(samples)


def _summary(metric, samples, unit) -> str:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return (f"{metric}: median {statistics.median(samples):.4f} {unit} "
            f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples)}; samples "
            + " ".join(f"{s:.3f}" for s in samples) + ")")


def _shares(values) -> str:
    """Share of the traced in-process time per top-level layer."""
    total = values["trace.total_s"]
    corpus = sum(values[f"corpus.{f}.s"] for f in ("load_corpus", "matrices"))
    engine = sum(values[f"engine.{f}.s"]
                 for f in ("run", "write_classification", "read_classification"))
    parts = {
        "scheme": values["scheme.load_scheme.s"],
        "corpus": corpus,
        "engine": engine,
        "engine.run+matrices": values["engine.run.s"] + values["corpus.matrices.s"],
        "assign": values["assign.prune_classification.s"],
        "report": values["report.write_report.s"],
        "covered": total - values["cli.unattributed_s"],
    }
    return "shares of traced time: " + ", ".join(
        f"{k} {100 * v / total:.1f}%" for k, v in parts.items())


# ---------------------------------------------------------------------------
# environment and entry point

def environment() -> dict:
    import numpy
    import refclass
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "refclass": refclass.__version__,
            "git_commit": commit, "loadavg": os.getloadavg(), "src_lines": src_lines}


def write_fingerprints(workloads, seed) -> None:
    out = {}
    for name, workload in workloads.items():
        directory = WORK / f"fingerprint-{name}"
        shutil.rmtree(directory, ignore_errors=True)
        generate_tables(workload, seed, workload["synth"]["n_papers"], directory)
        out[name] = fingerprint(directory)
        shutil.rmtree(directory)
    FINGERPRINTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")


def _result(values, tally, metric_specs) -> dict:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    defaults = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = defaults["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=defaults["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both with --workload all)")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every corpus (self-check); skips the fingerprint")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="record the default-seed table fingerprints and exit")
    args = parser.parse_args(argv)

    if not (SRC / "refclass" / "__init__.py").is_file():
        print(f"error: no refclass package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.write_fingerprints:
        write_fingerprints(workloads, defaults["default_seed"])
        return 0

    print("env: " + json.dumps(environment()), flush=True)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if args.trace is not None:
        traces = (args.trace,)
    else:
        traces = (0, 1) if args.workload == "all" else (0,)
    check_fingerprint = args.seed == defaults["default_seed"] and not args.tiny
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    results = {}
    for name in names:
        for trace in traces:
            prefix = f"[{name} trace={trace}] "

            def say(line):
                print(prefix + line, flush=True)

            say(f"why: {why[name]}")
            try:
                values, tally = bench_workload(
                    name, workloads[name], args.seed, args.seconds, trace, args.tiny,
                    recorded[name] if check_fingerprint else None, say)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            specs = spec["per_layer"] if trace else spec["end_to_end"]
            results[(name, trace)] = _result(values, tally, specs)
            for key, metric in results[(name, trace)]["metrics"].items():
                say(f"{key} = {metric['value']!r} {metric['unit']}")

    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric
                        for (name, _), r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
