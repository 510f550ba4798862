"""Re-pin the digests the benchmark checks at its default seed.

    python3 perfbench/pin.py

Run from the repository root, only when a change is meant to alter the
simulator's outputs (or the benchmark's sizes).  Grid cells are pinned
from the per-access engine (the batched engine must match them too),
the service mix and the crash sweep from one pass of their workloads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    seed = bench.DEFAULT_SEED
    pins = {"seed": seed, "sizes": bench.SIZES}
    for workload in (bench.RefGrid(seed), bench.ServiceMix(seed), bench.CrashSweep(seed)):
        record = bench.Pass()
        workload.run_pass(record)
        if record.failures:
            print(f"not pinning, units failed: {sorted(record.failures)}", file=sys.stderr)
            return 1
        pins[workload.pin_group] = record.digests
    bench.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned seed {seed} digests to {bench.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
