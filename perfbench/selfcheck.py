"""Quick self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py        (or: python3 -m pytest perfbench/selfcheck.py)

Runs every workload once untraced and once traced with ``--tiny`` and
asserts that the result line has exactly the four keys, that every output
check passed, and that each metric BENCHMARK.json lists is emitted as a
finite number with its unit.  Also asserts that the benchmark fails,
without a result, in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300, check=False)


def check_workload(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def test_every_workload_emits_every_metric():
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _bench(SPEC["workloads"][0]["name"], 0, root=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_fails_without_the_program()
    print("ok: fails without the program")
    for w in SPEC["workloads"]:
        for t in (0, 1):
            check_workload(w["name"], t)
            print(f"ok: {w['name']} trace={t}")
