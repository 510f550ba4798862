"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ref-grid --seed 0 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON object of diagnostics (per-unit
medians, the host-speed marker, ``nproc``, failures).  The exit code is
0 only if every unit's output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ref-grid", "batch-grid", "service-mix", "crash-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; outputs are pinned for seed 0")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed window (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import declared_metrics, run_benchmark

    trace = bool(args.trace)
    report = run_benchmark(args.workload, args.seed, args.seconds, trace, ROOT)
    units = declared_metrics(ROOT, trace)
    print(json.dumps({"diagnostics": report.diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
