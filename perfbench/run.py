"""Offline triage benchmark entry point.

    python3 perfbench/run.py --workload small-cpu --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It builds nothing: it imports the library
from ``src/`` next to this directory and writes only under
``.perfbench_work/`` there.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``); the line before it holds the run's details.  A wrong output
exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="offline vulncontext triage benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vulncontext" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bench
    from spans import BenchmarkFailure

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    try:
        report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), scratch, results)
    except BenchmarkFailure as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps({"details": report["details"]}, sort_keys=True))
    print(json.dumps(report["line"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
