"""Child-process entry points of the benchmark.

    python3 child.py cli ARGV...            run ``refclass ARGV...`` as the console script does
    python3 child.py setup DIR              import refclass, load the tables in DIR, build matrices
    python3 child.py trace OUT.json ARGV... run ``refclass ARGV...`` with every public layer
                                            function wrapped; write per-layer metrics to OUT.json

The parent puts the checkout's ``src/`` on PYTHONPATH.  The ``cli`` and
``setup`` modes import nothing beyond what refclass imports itself, so their
wall time is what a user of the command pays.
"""

import sys


def main_cli(argv):
    from refclass.cli import main
    return main(argv)


def main_setup(directory):
    from pathlib import Path

    import refclass

    base = Path(directory)
    scheme = refclass.load_scheme(base / "scheme.csv")
    corpus = refclass.load_corpus(base / "papers.csv", base / "journals.csv",
                                  base / "references.csv", scheme)
    corpus.matrices()
    return 0


def main_trace(out_path, argv):
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    rc = tracer.call_main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "metrics": tracer.layer_metrics(),
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(main_cli(rest))
    if mode == "setup":
        sys.exit(main_setup(rest[0]))
    if mode == "trace":
        sys.exit(main_trace(rest[0], rest[1:]))
    sys.exit(f"unknown mode {mode!r}")
