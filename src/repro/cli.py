"""Command-line front end: regenerate any paper artefact from a shell.

    python -m repro fig3            # software-encryption motivation
    python -m repro fig8            # PMEMKV slowdown/writes/reads
    python -m repro fig11           # Whisper slowdown/writes/reads
    python -m repro fig12           # synthetic micro-benchmarks
    python -m repro fig15           # metadata-cache sensitivity sweep
    python -m repro table1          # executable vulnerability matrix
    python -m repro bench           # every figure grid on one runner
    python -m repro all             # everything, in paper order
    python -m repro quick           # one fast end-to-end sanity pass
    python -m repro crashsweep      # systematic crash/recovery audit
    python -m repro batchcheck      # batch-vs-per-access fidelity + speed gate
    python -m repro loadcurve       # concurrent-traffic throughput vs p99
    python -m repro cache stats     # entry counts / bytes / age
    python -m repro cache verify    # checksum audit (exit = corrupt count)
    python -m repro cache gc        # sweep temp files + stale entries

``--ops`` / ``--iters`` scale the workloads; ``--json PATH`` saves the
table data for downstream plotting.  Every grid command takes ``--jobs
N`` to fan its cells over worker processes (default: serial) and serves
unchanged cells from ``.repro-cache/`` — ``--no-cache`` always
simulates, ``--clear-cache`` empties the cache first, ``--cache-dir``
relocates it (docs/RUNNER.md).  Supervision flags shape how hard the
runner fights for each cell: ``--timeout SECONDS`` kills hung workers,
``--retries N`` re-runs failed cells (with ``--backoff SECONDS``
deterministic seeded exponential delay), and ``--failure-policy
continue`` quarantines failed cells into the run's grid report instead
of aborting the whole grid.  ``crashsweep`` runs the full (scheme x
fault-profile) matrix by default — narrow it with ``--scheme`` /
``--profile``, or shape a one-off plan with ``--profile custom`` plus
``--drain-fraction/--torn-prob/--torn-burst/--bit-flips/
--counter-flips`` — and exits non-zero iff any cell's crash point
produced silent corruption.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .analysis import (
    figure3_software_encryption,
    figure8_to_10_pmemkv,
    figure11_whisper,
    figure12_to_14_micro,
    figure15_cache_sensitivity,
    render_sensitivity,
    render_table1,
)
from .exec import ExperimentRunner, ResultCache, SupervisionPolicy, source_fingerprint
from .sim.results import run_provenance

__all__ = ["main"]


def _make_runner(args) -> ExperimentRunner:
    """Build the runner the command's grids execute on.

    ``--jobs`` unset means serial (the library default); ``--jobs 0``
    means "one worker per CPU".  ``--clear-cache`` empties the cache
    before the run rather than instead of it, so ``--clear-cache`` plus
    a figure command is the natural "rebuild from scratch" spelling.
    """
    jobs = args.jobs
    if jobs == 0:
        jobs = None  # ExperimentRunner(None) -> os.cpu_count()
    # SupervisionPolicy's defaults are the historical semantics (no
    # timeout, single attempt, fail_fast), so it is built unconditionally.
    policy = SupervisionPolicy(
        timeout_seconds=args.timeout,
        max_attempts=max(0, args.retries) + 1,
        backoff_base=args.backoff,
        failure_policy=args.failure_policy,
    )
    runner = ExperimentRunner(
        jobs if jobs is not None else 1,
        use_cache=not args.no_cache,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        policy=policy,
    )
    if args.clear_cache:
        removed = runner.clear_cache()
        print(f"cache cleared: {removed} entries")
    return runner


def _report_failures(runner: ExperimentRunner) -> None:
    """Under ``--failure-policy continue`` a grid can finish with
    quarantined cells; name them rather than let a shorter table pass
    for a complete one."""
    report = runner.last_report
    if report is None or not report.quarantined:
        return
    print(f"WARNING: {len(report.quarantined)} cell(s) quarantined:", file=sys.stderr)
    for line in report.failure_lines():
        print(line, file=sys.stderr)


def _emit(table, json_path: Optional[str], runner: ExperimentRunner) -> None:
    print(table.render())
    print(runner.last_stats.summary())
    _report_failures(runner)
    print()
    if json_path:
        table.save_json(Path(json_path), extra=run_provenance(runner))
        print(f"saved: {json_path}")


def _run_fig3(args, runner: Optional[ExperimentRunner] = None) -> None:
    runner = runner or _make_runner(args)
    _emit(
        figure3_software_encryption(
            ops=args.ops or 1500, batch=args.batch, runner=runner
        ),
        args.json,
        runner,
    )


def _run_fig8(args, runner: Optional[ExperimentRunner] = None) -> None:
    runner = runner or _make_runner(args)
    _emit(
        figure8_to_10_pmemkv(ops=args.ops or 600, batch=args.batch, runner=runner),
        args.json,
        runner,
    )


def _run_fig11(args, runner: Optional[ExperimentRunner] = None) -> None:
    runner = runner or _make_runner(args)
    _emit(
        figure11_whisper(ops=args.ops or 1500, batch=args.batch, runner=runner),
        args.json,
        runner,
    )


def _run_fig12(args, runner: Optional[ExperimentRunner] = None) -> None:
    runner = runner or _make_runner(args)
    _emit(
        figure12_to_14_micro(
            iterations=args.iters or 8000, batch=args.batch, runner=runner
        ),
        args.json,
        runner,
    )


def _run_fig15(args, runner: Optional[ExperimentRunner] = None) -> None:
    runner = runner or _make_runner(args)
    # --scheme selects the measured column ("fsencr+partitioned" plots
    # the partitioned-cache variant); "all" keeps the figure's default.
    scheme = None if args.scheme == "all" else args.scheme
    curves = figure15_cache_sensitivity(
        pmemkv_ops=args.ops or 400,
        whisper_ops=(args.ops or 400) * 3,
        micro_iters=args.iters or 6000,
        scheme=scheme,
        batch=args.batch,
        runner=runner,
    )
    print(render_sensitivity(curves))
    print(runner.last_stats.summary())
    _report_failures(runner)
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(
                {
                    "curves": {
                        k: {str(s): v for s, v in c.items()} for k, c in curves.items()
                    },
                    **run_provenance(runner),
                },
                indent=2,
            )
        )
        print(f"saved: {args.json}")


def _run_table1(args) -> None:
    print(render_table1())


def _run_report(args) -> None:
    from .analysis import aggregate_report

    results = Path(args.json) if args.json else Path("benchmarks/results")
    print(aggregate_report(results))


def _run_quick(args) -> None:
    """A fast sanity pass: tiny versions of the headline comparisons."""
    runner = _make_runner(args)
    print(render_table1())
    print()
    _emit(figure11_whisper(ops=400, batch=args.batch, runner=runner), None, runner)
    _emit(
        figure3_software_encryption(ops=400, batch=args.batch, runner=runner),
        None,
        runner,
    )


def _run_bench(args) -> None:
    """Every figure grid on one shared runner.

    The point of sharing: overlapping grids (fig8 and fig15 both run
    Fillrandom-L cells, say) are simulated once, and the closing
    lifetime summary shows exactly how much the cache saved.
    """
    runner = _make_runner(args)
    for step in (_run_fig3, _run_fig8, _run_fig11, _run_fig12, _run_fig15):
        step(args, runner)
        print()
    print(runner.lifetime.summary())


def _run_all(args) -> None:
    for step in (_run_fig3, _run_fig8, _run_fig11, _run_fig12, _run_fig15):
        step(args)
        print()
    _run_table1(args)


def _run_crashsweep(args) -> int:
    """Crash-sweep the (scheme x fault-profile) matrix, audit every line.

    ``--scheme all`` runs every registry matrix column; a matrix-column
    name narrows to that column, and any other *registered* scheme name
    runs as a one-off ad-hoc column (so new registry entries are
    sweepable before they earn a matrix seat).  ``--profile all`` runs
    every named fault profile; ``--profile custom`` builds one plan from
    the individual fault flags.  Exit code is the total
    silent-corruption count.
    """
    import json

    from .faults.plan import FAULT_PROFILES, FaultPlan
    from .faults.sweep import matrix_configs, sweep_matrix
    from .sim.config import MachineConfig
    from .sim.schemes import crash_matrix_names, get_scheme, scheme_names

    columns = matrix_configs()
    if args.scheme != "all":
        columns = [(label, cfg) for label, cfg in columns if label == args.scheme]
        if not columns:
            try:
                spec = get_scheme(args.scheme)
            except ValueError:
                known = ", ".join(crash_matrix_names())
                registered = ", ".join(scheme_names())
                raise SystemExit(
                    f"unknown --scheme {args.scheme!r} (matrix columns: "
                    f"{known}, all; any registered scheme also works: "
                    f"{registered})"
                )
            # Ad-hoc column: same base normalisation as matrix_configs.
            columns = [(spec.name, spec.configure(MachineConfig().with_wpq(False)))]

    knobs = {
        "drain_fraction": args.drain_fraction,
        "torn_probability": args.torn_prob,
        "torn_burst": args.torn_burst,
        "bit_flips": args.bit_flips,
        "counter_flips": args.counter_flips,
    }
    knobs_given = any(value is not None for value in knobs.values())
    profile = args.profile
    if knobs_given and profile == "all":
        # Individual plan flags imply a one-off plan; silently running
        # the named profiles instead would ignore what the user typed.
        profile = "custom"
    if profile == "custom":
        # Base for unspecified flags: the historical CLI plan (a mixed
        # half-drain), not FaultPlan's all-drained default.
        base = {
            "drain_fraction": 0.5,
            "torn_probability": 0.5,
            "torn_burst": 1,
            "bit_flips": 0,
            "counter_flips": 0,
        }
        base.update({key: value for key, value in knobs.items() if value is not None})
        profiles = {"custom": FaultPlan(**base)}
    elif knobs_given:
        raise SystemExit(
            f"--profile {profile!r} is a named profile; plan flags like "
            "--drain-fraction only apply with --profile custom (or all, "
            "which they override)"
        )
    elif args.profile == "all":
        profiles = dict(FAULT_PROFILES)
    elif args.profile in FAULT_PROFILES:
        profiles = {args.profile: FAULT_PROFILES[args.profile]}
    else:
        known = ", ".join(sorted(FAULT_PROFILES))
        raise SystemExit(f"unknown --profile {args.profile!r} (choose from {known}, all, custom)")

    runner = _make_runner(args)
    matrix = sweep_matrix(
        args.workload,
        profiles=profiles,
        schemes=columns,
        max_points=args.points,
        seed=args.seed,
        name=args.workload,
        ops=args.ops or 0,
        iterations=args.iters or 0,
        runner=runner,
    )
    print(matrix.summary())
    print(runner.last_stats.summary())
    _report_failures(runner)
    for (scheme_label, profile_name), cell in sorted(matrix.cells.items()):
        for point in cell.points:
            print(
                f"  [{scheme_label}/{profile_name}] op {point.op_index:>5}: "
                f"{point.dispositions} -> {point.outcomes}, "
                f"{point.trials} trials, {point.recovery_ns / 1000.0:.1f} us recovery"
            )
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "workload": matrix.workload,
                    "seed": matrix.seed,
                    "silent_corruptions": matrix.silent_corruptions,
                    **run_provenance(runner),
                    "cells": [
                        {
                            "scheme": scheme_label,
                            "profile": profile_name,
                            "boundaries_total": cell.boundaries_total,
                            "silent_corruptions": cell.silent_corruptions,
                            "outcomes": cell.outcome_totals(),
                            "points": [
                                {
                                    "op_index": p.op_index,
                                    "plan_seed": p.plan_seed,
                                    "dispositions": p.dispositions,
                                    "outcomes": p.outcomes,
                                    "silent_lines": list(p.silent_lines),
                                    "trials": p.trials,
                                    "recovery_ns": p.recovery_ns,
                                }
                                for p in cell.points
                            ],
                        }
                        for (scheme_label, profile_name), cell in sorted(matrix.cells.items())
                    ],
                },
                indent=2,
            )
        )
        print(f"saved: {args.json}")
    if matrix.silent_corruptions:
        print(f"FAIL: {matrix.silent_corruptions} silent corruption(s)")
    else:
        print("OK: every cell's crash points detected or recovered")
    return matrix.silent_corruptions


#: The batchcheck grid is pinned: these exact (workload, scheme) cells,
#: at these sizes, are what the recorded speedup means.  The cells all
#: sit inside the interpreter's fast-path envelope (DAX-capable
#: schemes) because the check exists to gate that interpreter — the
#: overlay schemes execute through the reference replay by design and
#: are covered by the equality assertions in the test suite instead.
BATCHCHECK_CELLS = [
    ("DAX-1", "ext4dax_plain"),
    ("DAX-1", "fsencr"),
    ("Fillseq-S", "baseline_secure"),
    ("Fillseq-S", "fsencr"),
    ("Fillseq-S", "fsencr+wpq"),
    ("Fillseq-S", "fsencr+partitioned"),
    ("Hashmap", "baseline_secure"),
    ("Hashmap", "fsencr"),
    ("Hashmap", "fsencr+wpq"),
    ("Hashmap", "fsencr+partitioned"),
]

BATCHCHECK_SIZES = {"DAX-1": 3000, "Fillseq-S": 1200, "Hashmap": 3000}

#: One service-model cell: the closed-loop run of this mix under this
#: scheme must give the same payload (interleave digest included)
#: whether its streams step on the interpreter or on the reference
#: cursor.  150 files keep the OTT port queue busy.
BATCHCHECK_SERVICE = ("2xFillseq-S+ManyFiles@25", "fsencr",
                      {"Fillseq-S": 200, "ManyFiles@25": 150})


def _batchcheck_factory(workload: str):
    from .workloads import make_dax_micro, make_pmemkv_workload, make_whisper_workload

    size = BATCHCHECK_SIZES[workload]
    if workload == "DAX-1":
        return lambda: make_dax_micro(workload, iterations=size, seed=7)
    if workload == "Fillseq-S":
        return lambda: make_pmemkv_workload(workload, ops=size, seed=1234)
    return lambda: make_whisper_workload(workload, ops=size, seed=99)


def _run_batchcheck(args) -> int:
    """Prove the batch path on the pinned grid: every cell's payload must
    be bit-identical to per-access execution, and the sweep must beat it
    on throughput.  The service cell runs the same stream mix with its
    streams stepped on the interpreter, then on the reference cursor.
    Timing is best-of-N per mode so a transient host stall cannot fake
    a regression (or an improvement); the digests come from the
    measured runs themselves.  Exit code is the number of divergent
    cells.
    """
    import hashlib
    import json
    import time
    from unittest import mock

    from .exec.spec import canonical_json
    from .sim import batch as batch_mod
    from .sim.config import MachineConfig
    from .sim.schemes import get_scheme
    from .sim.service import ClosedLoop, run_service
    from .workloads.base import (
        StreamSpec,
        parse_stream_mix,
        run_workload,
        stream_factories,
    )

    reps = max(1, args.reps)
    mix, service_scheme, service_ops = BATCHCHECK_SERVICE
    service_specs = [
        StreamSpec(spec.workload, spec.count, ops=service_ops[spec.workload])
        for spec in parse_stream_mix(mix)
    ]

    def run_service_cell():
        config = get_scheme(service_scheme).configure(MachineConfig())
        workloads = [factory() for factory in stream_factories(service_specs)]
        return run_service(config, workloads, ClosedLoop())

    def sweep(use_batch: bool):
        runner = batch_mod.BatchRunner() if use_batch else None
        digests = {}
        start = time.perf_counter()
        for workload_name, scheme_name in BATCHCHECK_CELLS:
            workload = _batchcheck_factory(workload_name)()
            config = get_scheme(scheme_name).configure(MachineConfig())
            if runner is not None:
                result = runner.run(config, workload)
            else:
                result = run_workload(config, workload)
            blob = canonical_json(result.to_dict())
            digests[f"{workload_name}/{scheme_name}"] = hashlib.sha256(
                blob.encode()
            ).hexdigest()
        if use_batch:
            service = run_service_cell()
        else:
            # The service model has no per-access mode of its own: take
            # every stream outside the interpreter's envelope instead.
            with mock.patch.object(batch_mod, "_supports_fast_path",
                                   lambda machine: False):
                service = run_service_cell()
        blob = canonical_json(service.to_dict())
        digests[f"service:{mix}/{service_scheme}"] = hashlib.sha256(
            blob.encode()
        ).hexdigest()
        return time.perf_counter() - start, digests

    direct_time, direct_digests = sweep(False)
    batch_time, batch_digests = sweep(True)
    for _ in range(reps - 1):
        direct_time = min(direct_time, sweep(False)[0])
        batch_time = min(batch_time, sweep(True)[0])

    mismatches = [
        cell for cell in direct_digests if direct_digests[cell] != batch_digests[cell]
    ]
    cells = len(direct_digests)
    per_access_rate = cells / direct_time
    batched_rate = cells / batch_time
    speedup = direct_time / batch_time

    print(f"batchcheck: {cells} pinned cells, best of {reps} run(s) per mode")
    for cell in sorted(direct_digests):
        status = "DIVERGED" if cell in mismatches else "ok"
        print(f"  {status:8s} {cell}  {direct_digests[cell][:16]}")
    print(f"  per-access: {per_access_rate:8.3f} cells/s")
    print(f"  batched:    {batched_rate:8.3f} cells/s")
    print(f"  speedup:    {speedup:8.2f}x")
    if mismatches:
        print(f"FAIL: {len(mismatches)} cell(s) diverged from the per-access path")
    else:
        print("OK: every batched payload is bit-identical to per-access")

    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "cells": {
                        cell: {
                            "digest": direct_digests[cell],
                            "match": cell not in mismatches,
                        }
                        for cell in sorted(direct_digests)
                    },
                    "runner": {
                        "mode": "batchcheck",
                        "cells": cells,
                        "reps": reps,
                        "per_access_cells_per_s": per_access_rate,
                        "batched_cells_per_s": batched_rate,
                        "speedup": speedup,
                        "digests_match": not mismatches,
                    },
                },
                indent=2,
            )
        )
        print(f"saved: {args.json}")
    return len(mismatches)


def _run_loadcurve(args) -> int:
    """Throughput-vs-tail curves for a concurrent stream mix.

    One loadcurve cell per scheme (so ``--jobs`` parallelises across
    schemes and the cache serves unchanged curves); each cell
    calibrates the mix closed-loop, then sweeps the offered loads
    open-loop through the shared memory-controller and OTT-port queues.
    Exit code is the number of schemes whose p99 is *not* monotonically
    non-decreasing in load — loud, because a non-monotone curve means
    the sweep is under-sampled for the mix.
    """
    import json

    from .analysis.tails import p99_monotone, render_load_curve
    from .exec.spec import CellSpec, payload_to_curves
    from .sim.config import MachineConfig
    from .workloads.base import parse_stream_mix

    loads = tuple(float(part) for part in args.loads.split(","))
    schemes = [part.strip() for part in args.schemes.split(",") if part.strip()]
    parse_stream_mix(args.streams)  # fail on a malformed mix before running
    runner = _make_runner(args)
    specs = [
        CellSpec(
            kind="loadcurve",
            workload=args.streams,
            config=MachineConfig(),
            ops=args.ops or 0,
            schemes=(scheme,),
            loads=loads,
            mlp_window=args.window,
        )
        for scheme in schemes
    ]
    curves = {}
    for result in runner.run(specs):
        curves.update(payload_to_curves(result.payload))

    print(render_load_curve(curves))
    print(runner.last_stats.summary())
    _report_failures(runner)
    non_monotone = 0
    for scheme, curve in curves.items():
        if p99_monotone(curve["points"]):
            print(f"  p99 monotone in load: {scheme} ok")
        else:
            non_monotone += 1
            print(f"  p99 NOT monotone in load: {scheme}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "mix": args.streams,
                    "loads": list(loads),
                    "window": args.window,
                    "curves": curves,
                    "p99_monotone": {
                        scheme: p99_monotone(curve["points"])
                        for scheme, curve in curves.items()
                    },
                    **run_provenance(runner),
                },
                indent=2,
            )
        )
        print(f"saved: {args.json}")
    return non_monotone


def _run_cache(argv) -> int:
    """``python -m repro cache stats|verify|gc`` — cache hygiene tooling.

    Handled by its own parser (the main one is shaped around figure
    grids).  ``verify``'s exit code is the corrupt-entry count so CI can
    assert a warm cache is clean with a bare command.
    """
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect, audit, or garbage-collect .repro-cache/.",
    )
    parser.add_argument(
        "operation",
        choices=["stats", "verify", "gc"],
        help="stats: counts/bytes/age; verify: checksum audit, quarantine "
        "corrupt entries (exit code = corrupt count); gc: remove orphaned "
        "*.tmp.* files and stale-fingerprint entries",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, help="result-cache directory (default: .repro-cache)"
    )
    args = parser.parse_args(argv)
    cache = ResultCache(Path(args.cache_dir) if args.cache_dir else None)
    if args.operation == "stats":
        stats = cache.stats()
        print(f"cache: {stats['directory']}")
        print(f"  entries:     {stats['entries']} ({stats['bytes']} bytes)")
        print(f"  tmp files:   {stats['tmp_files']}")
        print(f"  quarantined: {stats['quarantined']}")
        if stats["entries"]:
            print(
                f"  age span:    {stats['newest_age_seconds']:.0f}s (newest) "
                f"to {stats['oldest_age_seconds']:.0f}s (oldest)"
            )
        return 0
    if args.operation == "verify":
        report = cache.verify()
        print(
            f"cache verify: {report['checked']} checked, {report['ok']} ok, "
            f"{report['legacy']} legacy (pre-checksum), {report['corrupt']} corrupt"
        )
        for name in report["quarantined"]:
            print(f"  quarantined: {name}")
        return report["corrupt"]
    report = cache.gc(source_fingerprint())
    print(
        f"cache gc: {report['tmp_removed']} tmp file(s) and "
        f"{report['stale_removed']} stale entr(ies) removed "
        f"({report['bytes_freed']} bytes), {report['entries_kept']} kept"
    )
    return 0


_COMMANDS = {
    "fig3": _run_fig3,
    "fig8": _run_fig8,
    "fig9": _run_fig8,  # same run produces all three PMEMKV series
    "fig10": _run_fig8,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig12,
    "fig14": _run_fig12,
    "fig15": _run_fig15,
    "table1": _run_table1,
    "report": _run_report,
    "quick": _run_quick,
    "bench": _run_bench,
    "all": _run_all,
    "crashsweep": _run_crashsweep,
    "batchcheck": _run_batchcheck,
    "loadcurve": _run_loadcurve,
}


def main(argv: Optional[list] = None) -> int:
    arglist = list(sys.argv[1:] if argv is None else argv)
    if arglist[:1] == ["cache"]:
        return _run_cache(arglist[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the FsEncr paper's tables and figures.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="artefact to regenerate")
    parser.add_argument("--ops", type=int, default=None, help="workload operation count")
    parser.add_argument("--iters", type=int, default=None, help="micro-benchmark iterations")
    parser.add_argument("--json", type=str, default=None, help="save table data to this path")
    runner = parser.add_argument_group("runner")
    runner.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for grid cells (0 = one per CPU; default: serial)",
    )
    runner.add_argument(
        "--batch",
        action="store_true",
        help="execute compare cells through the compiled-trace batch "
        "path (bit-identical payloads, one capture per encryption class)",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate; never read or write .repro-cache/",
    )
    runner.add_argument(
        "--clear-cache",
        action="store_true",
        help="empty the result cache before running",
    )
    runner.add_argument(
        "--cache-dir", type=str, default=None, help="result-cache directory (default: .repro-cache)"
    )
    runner.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock deadline in seconds; hung workers are killed "
        "(needs --jobs >= 2; default: none)",
    )
    runner.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run a failed or timed-out cell up to N more times (default: 0)",
    )
    runner.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        help="base delay in seconds before a retry, doubling per attempt with "
        "deterministic seeded jitter (default: 0)",
    )
    runner.add_argument(
        "--failure-policy",
        choices=["fail_fast", "continue"],
        default="fail_fast",
        help="fail_fast: first exhausted cell aborts the grid; continue: "
        "quarantine it in the grid report and keep going",
    )
    curve = parser.add_argument_group("loadcurve")
    curve.add_argument(
        "--streams",
        type=str,
        default="3xFillseq-S",
        help="loadcurve stream mix, e.g. 3xFillseq-S+2xHashmap "
        "(default: 3xFillseq-S)",
    )
    curve.add_argument(
        "--schemes",
        type=str,
        default="baseline_secure,fsencr",
        help="loadcurve: comma-separated scheme columns "
        "(default: baseline_secure,fsencr)",
    )
    curve.add_argument(
        "--loads",
        type=str,
        default="0.25,0.5,1.0",
        help="loadcurve: offered-load fractions of the mix's calibrated "
        "throughput (default: 0.25,0.5,1.0)",
    )
    curve.add_argument(
        "--window",
        type=int,
        default=1,
        help="loadcurve: closed-loop calibration MLP window (default: 1)",
    )
    sweep = parser.add_argument_group("crashsweep")
    sweep.add_argument("--workload", type=str, default="DAX-3", help="workload to crash-sweep")
    sweep.add_argument("--points", type=int, default=8, help="max crash points to sample")
    sweep.add_argument(
        "--reps",
        type=int,
        default=2,
        help="batchcheck: timing repetitions per mode (best-of-N; default: 2)",
    )
    sweep.add_argument("--seed", type=int, default=0xC0FFEE, help="sweep / fault-plan seed")
    from .sim.schemes import crash_matrix_names, scheme_names

    sweep.add_argument(
        "--scheme",
        type=str,
        default="all",
        help=(
            "crashsweep: matrix column ("
            + ", ".join(crash_matrix_names())
            + ", or all), or any registered scheme as an ad-hoc column ("
            + ", ".join(
                name for name in scheme_names() if name not in crash_matrix_names()
            )
            + "); fig15: the measured column (default fsencr)"
        ),
    )
    sweep.add_argument(
        "--profile",
        type=str,
        default="all",
        help="fault profile: mixed, torn-burst, counter-flips, all, or custom",
    )
    sweep.add_argument(
        "--drain-fraction", type=float, default=None, help="fraction of the WPQ the ADR drains"
    )
    sweep.add_argument(
        "--torn-prob", type=float, default=None, help="torn-write probability per undrained line"
    )
    sweep.add_argument(
        "--torn-burst", type=int, default=None, help="max contiguous lines one tear event takes down"
    )
    sweep.add_argument("--bit-flips", type=int, default=None, help="media bit flips per crash")
    sweep.add_argument(
        "--counter-flips", type=int, default=None, help="media bit flips in security metadata per crash"
    )
    args = parser.parse_args(arglist)
    rc = _COMMANDS[args.command](args)
    return int(rc or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
