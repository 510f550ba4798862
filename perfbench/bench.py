"""The four benchmark workloads, their output checks and their metrics.

Load comes from this one process and one thread: every call into the
simulator is made back to back (a closed loop with one client), with no
process pool, and the cached experiment runner (``repro.exec``) is
bypassed so no timed unit can be served from its result cache.

A *unit* is what the benchmark times and checks: a grid cell, a
service-model run (calibration or load point), or a crash point.  One
*pass* runs every unit of a workload once; a run repeats passes until
its window is used up and reports per-unit medians.  See README.md for
why each workload exists and which layer metric should move with which
end-to-end metric.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.tails import percentile_summary
from repro.exec.spec import canonical_json, resolve_workload
from repro.faults.plan import FaultPlan
from repro.faults.sweep import sweep_workload
from repro.sim import batch as batch_mod
from repro.sim import service as service_mod
from repro.sim.config import MachineConfig
from repro.sim.schemes import get_scheme
from repro.workloads.base import StreamSpec, parse_stream_mix, run_workload, stream_factories

PINS_PATH = Path(__file__).with_name("pinned.json")

#: The seed whose outputs are pinned in ``pinned.json``.  Seed ``s``
#: offsets every factory's default seed by ``s``, so seed 0 runs the
#: repository's default workloads exactly.
DEFAULT_SEED = 0

GRID_WORKLOADS = ("Fillseq-S", "Readrandom-S", "Hashmap")
GRID_SCHEMES = ("baseline_secure", "fsencr")
SERVICE_MIX = "2xFillseq-S+ManyFiles@25"
SERVICE_SCHEMES = ("baseline_secure", "fsencr")
SERVICE_LOADS = (0.25, 0.5, 1.0)
SERVICE_ARRIVAL_SEED = 0xA221
SWEEP_WORKLOAD = "DAX-3"
SWEEP_SCHEME = "fsencr"
SWEEP_SEED = 0xC0FFEE

#: Benchmark sizes (not figure sizes), small enough that several passes
#: fit in one run so per-unit medians can reject a slow stretch of the
#: host.  Pins are recorded for exactly these sizes.
SIZES = {
    "grid_ops": 400,
    # Per stream of the service mix; ManyFiles' size is its file count,
    # and under ~120 files the OTT port sees next to no requests.
    "Fillseq-S": 50,
    "ManyFiles@25": 150,
    "sweep_iterations": 40,
    "sweep_points": 4,
}

#: Number of fresh-interpreter set-ups whose median is ``setup_s``.
SETUP_REPEATS = 5

#: The host-speed marker: a fixed pure-Python loop that runs no simulator
#: code, timed before every pass and ``EDGE_MARKERS`` times at the start
#: and at the end of a run.  A shared host drifts between speed phases
#: (up to 2.6x, for minutes at a time, on a shared 2-CPU container), so
#: time metrics are scaled to a host on which the marker takes
#: ``MARKER_REFERENCE_S``; README.md gives the measurements behind this.
MARKER_ITERATIONS = 300_000
MARKER_REFERENCE_S = 0.025
EDGE_MARKERS = 8


def host_marker_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(MARKER_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def scheme_config(scheme: str) -> MachineConfig:
    return get_scheme(scheme).configure(MachineConfig())


def seeded_factory(name: str, seed: int, ops: int = 0, iterations: int = 0) -> Callable:
    """The named workload's factory with its default seed offset by ``seed``."""
    base = resolve_workload(name, ops=ops, iterations=iterations)().seed
    return resolve_workload(name, ops=ops, iterations=iterations, seed=base + seed)


# ----------------------------------------------------------------------
# One pass: timed units and their outputs
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """Timings, digests and raw results of one pass over a workload."""

    times: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    #: unit -> reason it failed (raised, or a check below).
    failures: Dict[str, str] = field(default_factory=dict)
    run_results: list = field(default_factory=list)
    service_results: Dict[str, object] = field(default_factory=dict)
    sweep_results: list = field(default_factory=list)
    #: Simulated work done: line accesses, measured ops or crash points.
    work: int = 0

    def time(self, unit: str, fn: Callable):
        """Run ``fn`` as one timed unit; a raise fails the unit only."""
        gc.collect()
        start = time.perf_counter()
        try:
            return fn()
        except Exception:
            self.failures[unit] = "raised: " + traceback.format_exc(limit=3)
            print(f"unit {unit} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            self.times[unit] = time.perf_counter() - start

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def line_accesses(result) -> int:
    """Simulated cache-line accesses of one run: every TLB lookup."""
    return sum(
        value for key, value in result.stats.items()
        if key.startswith("tlb") and key.endswith((".hits", ".misses"))
    )


class Workload:
    """A benchmark workload: ``units`` per pass and ``run_pass``."""

    name = ""
    pin_group = ""
    work_name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @property
    def units(self) -> List[str]:
        raise NotImplementedError

    def run_pass(self, record: Pass) -> None:
        raise NotImplementedError

    def cross_check(self, first: Pass) -> Dict[str, str]:
        """Extra per-unit checks after the timed window; unit -> reason."""
        return {}


class Grid(Workload):
    """{Fillseq-S, Readrandom-S, Hashmap} x {baseline_secure, fsencr}."""

    pin_group = "grid"
    work_name = "line_accesses_per_s"
    batched = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cells = [
            (f"{w}/{s}", scheme_config(s), seeded_factory(w, seed, ops=SIZES["grid_ops"]))
            for w in GRID_WORKLOADS for s in GRID_SCHEMES
        ]

    @property
    def units(self) -> List[str]:
        return [key for key, _config, _factory in self.cells]

    def run_pass(self, record: Pass, batched: Optional[bool] = None) -> None:
        batched = self.batched if batched is None else batched
        # A fresh runner per pass: sharing one trace per encryption
        # class within the grid is the engine's point, reusing traces
        # from an earlier pass would not be.
        runner = batch_mod.BatchRunner() if batched else None
        for key, config, factory in self.cells:
            if runner is not None:
                result = record.time(key, lambda: runner.run(config, factory()))
            else:
                result = record.time(key, lambda: run_workload(config, factory()))
            if result is None:
                continue
            record.digests[key] = digest(result.to_dict())
            record.run_results.append((key, result))
            record.work += line_accesses(result)

    def cross_check(self, first: Pass) -> Dict[str, str]:
        """The other engine must produce the same payload, cell for cell."""
        other = Pass()
        self.run_pass(other, batched=not self.batched)
        engine = "per-access" if self.batched else "batched"
        failures = {key: f"{engine} engine: {why}" for key, why in other.failures.items()}
        for key, value in other.digests.items():
            if key in first.digests and first.digests[key] != value:
                failures[key] = f"payload differs from the {engine} engine's"
        return failures


class RefGrid(Grid):
    name = "ref-grid"


class BatchGrid(Grid):
    name = "batch-grid"
    batched = True


class ServiceMix(Workload):
    """Closed-loop calibration, then open-loop load points, per scheme.

    The same steps as ``repro.analysis.tails.load_curve``, through
    ``run_service`` directly so each run is timed on its own and the
    stream seeds and per-stream sizes follow the benchmark's settings.
    """

    name = "service-mix"
    pin_group = "service-mix"
    work_name = "measured_ops_per_s"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        specs = []
        for spec in parse_stream_mix(SERVICE_MIX):
            ops = SIZES[spec.workload]
            base = resolve_workload(spec.workload, ops=ops)().seed
            specs.append(StreamSpec(spec.workload, spec.count, ops=ops, seed=base + seed))
        self.factories = stream_factories(specs)
        self.arrival_seed = SERVICE_ARRIVAL_SEED + seed
        self.configs = {scheme: scheme_config(scheme) for scheme in SERVICE_SCHEMES}

    @property
    def units(self) -> List[str]:
        return [
            f"{scheme}/{point}"
            for scheme in SERVICE_SCHEMES
            for point in ["calibration"] + [f"load={load}" for load in SERVICE_LOADS]
        ]

    def _run(self, config, policy):
        return service_mod.run_service(config, [f() for f in self.factories], policy)

    def run_pass(self, record: Pass) -> None:
        for scheme, config in self.configs.items():
            key = f"{scheme}/calibration"
            calibration = record.time(
                key, lambda: self._run(config, service_mod.ClosedLoop(window=1)))
            if calibration is None:
                for load in SERVICE_LOADS:
                    record.failures[f"{scheme}/load={load}"] = "calibration failed"
                continue
            record.service_results[key] = calibration
            record.digests[key] = digest(service_payload(calibration, percentiles=False))
            record.work += calibration.measured_ops
            capacity = calibration.measured_ops / calibration.makespan_ns
            for load in SERVICE_LOADS:
                key = f"{scheme}/load={load}"
                interarrival = len(self.factories) / (capacity * load)
                result = record.time(key, lambda: self._run(config, service_mod.OpenLoop(
                    interarrival_ns=interarrival, seed=self.arrival_seed)))
                if result is None:
                    continue
                record.service_results[key] = result
                record.digests[key] = digest(service_payload(result, percentiles=True))
                record.work += result.measured_ops
                if result.measured_ops != calibration.measured_ops:
                    record.failures[key] = (
                        f"measured {result.measured_ops} ops, calibration "
                        f"measured {calibration.measured_ops}")


def service_payload(result, percentiles: bool) -> Dict:
    """The pinned part of a service run: its interleave digest, measured
    op count and, for load points, the strict p50, p99 and p99.9."""
    payload = {"interleave_digest": result.interleave_digest,
               "measured_ops": result.measured_ops}
    if percentiles:
        summary = percentile_summary(result.samples)
        payload.update({key: summary[key] for key in ("p50_ns", "p99_ns", "p99.9_ns")})
    return payload


class CrashSweep(Workload):
    """``sweep_workload`` on DAX-3 under fsencr, default ``FaultPlan``."""

    name = "crash-sweep"
    pin_group = "crash-sweep"
    work_name = "crash_points_per_s"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.factory = seeded_factory(SWEEP_WORKLOAD, seed, iterations=SIZES["sweep_iterations"])
        self.config = scheme_config(SWEEP_SCHEME)
        self.sweep_seed = SWEEP_SEED + seed

    @property
    def units(self) -> List[str]:
        return [f"point{i}" for i in range(SIZES["sweep_points"])]

    def run_pass(self, record: Pass) -> None:
        result = record.time("sweep", lambda: sweep_workload(
            self.factory, self.config, plan=FaultPlan(),
            max_points=SIZES["sweep_points"], seed=self.sweep_seed))
        if result is None:
            for unit in self.units:
                record.failures[unit] = "sweep raised"
            return
        record.sweep_results.append(result)
        for unit, point_digest, point in zip(self.units, sweep_point_digests(result.to_dict()),
                                             result.points):
            record.digests[unit] = point_digest
            if point.silent_lines:
                record.failures[unit] = f"{len(point.silent_lines)} silent corruption(s)"
        record.work += len(result.points)
        for unit in self.units[len(result.points):]:
            record.failures[unit] = "crash point missing"


def sweep_point_digests(sweep: Dict) -> List[str]:
    """One digest per crash point, each covering the sweep's header."""
    header = {key: value for key, value in sweep.items() if key != "points"}
    return [digest({"sweep": header, "point": point}) for point in sweep["points"]]


WORKLOADS = {cls.name: cls for cls in (RefGrid, BatchGrid, ServiceMix, CrashSweep)}


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------


def load_pins() -> Dict:
    return json.loads(PINS_PATH.read_text())


def check_passes(workload: Workload, passes: List[Pass], pins: Optional[Dict]) -> Dict:
    """Failed units per pass, keyed ``(pass index, unit)``.

    A unit fails if it raised, failed its own check, differs from the
    same unit in the first pass (the simulator is deterministic), or —
    at the pinned seed — differs from its pinned digest.
    """
    expected = pins[workload.pin_group] if pins is not None else None
    failed = {}
    for index, record in enumerate(passes):
        for unit in workload.units:
            if unit in record.failures:
                failed[(index, unit)] = record.failures[unit]
            elif unit not in record.digests:
                failed[(index, unit)] = "no output"
            elif record.digests[unit] != passes[0].digests.get(unit):
                failed[(index, unit)] = "differs from the first pass"
            elif expected is not None and record.digests[unit] != expected.get(unit):
                failed[(index, unit)] = "differs from the pinned digest"
    return failed


def pins_for(seed: int) -> Optional[Dict]:
    """The pinned digests if ``seed`` is the pinned seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    pins = load_pins()
    if pins.get("sizes") != SIZES:
        raise SystemExit(
            f"{PINS_PATH} was pinned for sizes {pins.get('sizes')}, the benchmark "
            f"runs {SIZES}: re-pin with perfbench/pin.py")
    return pins


def unit_medians(passes: List[Pass]) -> Dict[str, float]:
    """Each timed unit's median over the passes that timed it."""
    units = dict.fromkeys(unit for p in passes for unit in p.times)
    return {
        unit: statistics.median(p.times[unit] for p in passes if unit in p.times)
        for unit in units
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples_s(workload: str, seed: int, root: Path) -> List[float]:
    """Set the benchmark up in ``SETUP_REPEATS`` fresh interpreters.

    Each sample runs from process spawn (interpreter start included) to
    the end of imports and workload construction, on the system-wide
    monotonic clock the child reports back.
    """
    import subprocess

    probe = (
        "import sys, time\n"
        "sys.path[:0] = ['src', '.']\n"
        "from perfbench import bench\n"
        "bench.WORKLOADS[sys.argv[1]](int(sys.argv[2]))\n"
        "print(time.monotonic())\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", probe, workload, str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples
