"""Record one point of the benchmark trajectory.

    python3 perfbench/record.py <tag>

Run from the repository root.  Runs every workload untraced and traced
at the pinned seed and writes ``perfbench/results/<tag>.json`` with each
run's result line and diagnostics (which carry the host-speed marker and
``nproc``).  Compare points only when they were recorded on the same
host; the marker shows whether the host was in a slow phase.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = spec["command"] + [
                "--workload", workload, "--seed", "0",
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace} failed:\n{done.stderr}", file=sys.stderr)
                return 1
            runs[f"{workload}/trace={trace}"] = {
                "result": json.loads(lines[-1]),
                "diagnostics": json.loads(lines[-2])["diagnostics"],
            }
            print(f"recorded {workload} trace={trace}", flush=True)
    out = ROOT / "perfbench" / "results" / f"{argv[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"run_seconds": spec["run_seconds"], "runs": runs},
                              indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
