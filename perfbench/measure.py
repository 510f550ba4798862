"""One benchmark run: set up, time the window, check outputs, derive metrics.

End-to-end metrics are measured with tracing off.  Their times are host
seconds scaled to a reference host speed: raw seconds times
``MARKER_REFERENCE_S`` over the median of the run's host-speed marker
samples (``bench.host_marker_s``); the raw values are in the
diagnostics.  A traced run
(``trace=True``) makes one untraced pass and one traced pass instead of
filling the window; its per-layer metrics come from the traced pass and
``trace_overhead_s`` is the difference between the two passes' times.
Metric names and units are read from ``BENCHMARK.json``, and a run that
would emit a different set of names raises instead of printing it.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from . import bench
from .tracing import LAYERS, LAYOUT_LAYER, LayerTracer


@dataclass
class Report:
    attempted: int
    failed: int
    #: name -> value, exactly the declared metric set of the run's mode.
    metrics: Dict[str, float]
    diagnostics: Dict


def declared_metrics(root: Path, trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics a run of this mode must print."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Report:
    start_markers = [bench.host_marker_s() for _ in range(bench.EDGE_MARKERS)]
    setup_samples = bench.setup_samples_s(name, seed, root)
    workload = bench.WORKLOADS[name](seed)
    pins = bench.pins_for(seed)

    passes: List[bench.Pass] = []
    markers = list(start_markers)

    def run_pass() -> None:
        markers.append(bench.host_marker_s())
        record = bench.Pass()
        workload.run_pass(record)
        passes.append(record)

    tracer = None
    if trace:
        run_pass()
        tracer = LayerTracer()
        with tracer:
            run_pass()
    else:
        deadline = time.perf_counter() + seconds
        run_pass()
        while time.perf_counter() < deadline:
            run_pass()
    rss_mb = bench.peak_rss_mb()

    failed = bench.check_passes(workload, passes, pins)
    for unit, why in workload.cross_check(passes[0]).items():
        for index in range(len(passes)):
            failed[(index, unit)] = why
    end_markers = [bench.host_marker_s() for _ in range(bench.EDGE_MARKERS)]

    marker_s = statistics.median(markers + end_markers)
    scale = bench.MARKER_REFERENCE_S / marker_s
    medians = bench.unit_medians(passes[:1] if trace else passes)
    raw_wall_s = sum(medians.values())
    wall_s = raw_wall_s * scale
    work_per_s = passes[0].work / wall_s
    diagnostics = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "unit_median_s": medians,
        "raw_wall_s": raw_wall_s,
        workload.work_name: work_per_s,
        "setup_samples_s": setup_samples,
        "host_marker_s": {
            "start": statistics.median(start_markers),
            "end": statistics.median(end_markers),
            "run": marker_s,
            "reference": bench.MARKER_REFERENCE_S,
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "failures": sorted(f"pass {i} {unit}: {why}" for (i, unit), why in failed.items()),
    }
    if trace:
        metrics = layer_metrics(tracer, passes[1], passes[0])
        diagnostics["traced_wall_s"] = passes[1].wall_s
        diagnostics["untraced_wall_s"] = passes[0].wall_s
    else:
        metrics = {
            "wall_s": wall_s,
            "work_per_s": work_per_s,
            "setup_s": statistics.median(setup_samples) * scale,
            "peak_rss_mb": rss_mb,
        }
    declared = declared_metrics(root, trace)
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} are emitted or "
            "declared in BENCHMARK.json but not both")
    return Report(
        attempted=len(passes) * len(workload.units),
        failed=len(failed),
        metrics=metrics,
        diagnostics=diagnostics,
    )


def _ratio(numerator: float, denominator: float) -> float:
    """A ratio, or 0 where the workload never exercises the denominator."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, traced: bench.Pass, untraced: bench.Pass) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self times come from the spans; every count comes from the results
    the simulator returned (or from exact call counts), so counts repeat
    exactly from run to run.  A metric whose layer the workload never
    runs reads 0.
    """
    runs = [result for _key, result in traced.run_results] + [
        stream.run
        for service in traced.service_results.values()
        for stream in service.streams
    ]
    stats: Counter = Counter()
    for run in runs:
        stats.update(run.stats)
    accesses = sum(bench.line_accesses(run) for run in runs)

    def total(prefix: str, suffix: str) -> int:
        return sum(v for k, v in stats.items() if k.startswith(prefix) and k.endswith(suffix))

    metrics = {f"{layer}.self_s": tracer.layer_self_s(layer) for layer in LAYERS}

    md_hits = total("metadata_cache.", "_hits")
    md_misses = total("metadata_cache.", "_misses")
    metrics.update({
        "secmem.layout_self_s": tracer.self_s[LAYOUT_LAYER],
        "secmem.layout_calls_per_access": _ratio(tracer.calls_in(LAYOUT_LAYER + ":"), accesses),
        "secmem.mdcache_hit_ratio": _ratio(md_hits, md_hits + md_misses),
        "secmem.merkle_fetches": stats["controller.merkle_fetches"],
        "mem.stat_adds_per_access": _ratio(tracer.calls["mem:StatCounters.add"], accesses),
        "mem.l1_hit_ratio": _ratio(stats["l1.hits"], stats["l1.hits"] + stats["l1.misses"]),
        "mem.l3_miss_ratio": _ratio(stats["l3.misses"], stats["l3.hits"] + stats["l3.misses"]),
        "mem.nvm_reads": stats["nvm.reads"],
        "mem.nvm_writes": stats["nvm.writes"],
        "mem.nvm_row_hit_ratio": _ratio(
            stats["nvm.row_hits"], stats["nvm.row_hits"] + stats["nvm.row_misses"]),
        "kernel.tlb_hit_ratio": _ratio(total("tlb", ".hits"), accesses),
        "sim.batch.capture_s": tracer.inclusive_in("sim.batch:repro.sim.batch._capture_raw"),
        "sim.batch.compile_s": tracer.inclusive_in("sim.batch:repro.sim.batch._compile_raw"),
        "sim.batch.interp_ratio": _ratio(
            tracer.calls["sim.batch:repro.sim.batch._interpret"],
            tracer.calls["sim.batch:repro.sim.batch.execute_compiled"]),
        "core.ott_lookups": stats["ott.hits"] + stats["ott.misses"],
        "core.ott_hit_ratio": _ratio(stats["ott.hits"], stats["ott.hits"] + stats["ott.misses"]),
        "core.ott_spills": stats["controller.ott_spills"],
        "fs.faults": stats["fs.dax_faults"],
        "crypto.aes_blocks": tracer.calls_in("crypto:AES128."),
        "trace_overhead_s": traced.wall_s - untraced.wall_s,
    })

    services = list(traced.service_results.values())
    mc_requests = sum(s.mc_queue["requests"] for s in services)
    metrics.update({
        "sim.service.mc_wait_ns_mean": _ratio(
            sum(s.mc_queue["total_wait_ns"] for s in services), mc_requests),
        "sim.service.mc_contended_ratio": _ratio(
            sum(s.mc_queue["contended"] for s in services), mc_requests),
        "sim.service.ott_port_requests": sum(s.ott_queue["requests"] for s in services),
    })

    outcomes: Counter = Counter()
    for sweep in traced.sweep_results:
        for point in sweep.points:
            outcomes.update(point.outcomes)
    recovered = outcomes["recovered_new"] + outcomes["recovered_old"]
    metrics["faults.recovered_ratio"] = _ratio(recovered, sum(outcomes.values()))
    metrics["faults.silent"] = sum(s.silent_corruptions for s in traced.sweep_results)

    metrics["model.fsencr_slowdown"] = fsencr_slowdown(dict(traced.run_results))
    p99_point = traced.service_results.get(f"fsencr/load={max(bench.SERVICE_LOADS)}")
    metrics["model.p99_ns"] = (
        bench.percentile_summary(p99_point.samples)["p99_ns"] if p99_point else 0.0)
    return metrics


def fsencr_slowdown(cells: Dict) -> float:
    """Mean over grid workloads of fsencr's simulated time over the
    baseline's (0 when the workload runs no grid)."""
    ratios = [
        cells[f"{w}/fsencr"].elapsed_ns / cells[f"{w}/baseline_secure"].elapsed_ns
        for w in bench.GRID_WORKLOADS
        if f"{w}/fsencr" in cells and f"{w}/baseline_secure" in cells
    ]
    return statistics.mean(ratios) if ratios else 0.0
