"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Most tests shrink the workloads through ``bench.SIZES`` and use a seed
other than the pinned one, so they check the benchmark's plumbing, not
the pinned outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, measure, run  # noqa: E402
from perfbench.tracing import LAYERS, LayerTracer  # noqa: E402

SMALL = {"grid_ops": 150, "Fillseq-S": 30, "ManyFiles@25": 30,
         "sweep_iterations": 12, "sweep_points": 2}
UNPINNED_SEED = 1


@pytest.fixture
def small(monkeypatch):
    for key, value in SMALL.items():
        monkeypatch.setitem(bench.SIZES, key, value)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def declared(trace: bool):
    return set(measure.declared_metrics(ROOT, trace))


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_declared_metric(small, workload, trace):
    report = measure.run_benchmark(workload, UNPINNED_SEED, 0.01, trace, ROOT)
    assert set(report.metrics) == declared(trace)
    assert report.failed == 0, report.diagnostics["failures"]
    assert report.attempted >= 1
    if not trace:
        assert all(value > 0 for value in report.metrics.values())


def test_corrupted_pin_fails_the_unit_and_the_command(monkeypatch, capsys):
    pins = bench.load_pins()
    cell = "Hashmap/fsencr"
    pins["grid"][cell] = "0" * 64
    monkeypatch.setattr(bench, "load_pins", lambda: pins)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)

    code = run.main(["--workload", "batch-grid", "--seed", str(bench.DEFAULT_SEED),
                     "--seconds", "0.01"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    failures = json.loads(lines[-2])["diagnostics"]["failures"]
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert any(cell in line and "pinned" in line for line in failures)


def test_traced_self_times_fit_in_the_traced_window(small):
    report = measure.run_benchmark("ref-grid", UNPINNED_SEED, 0.01, True, ROOT)
    self_total = sum(report.metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < self_total <= report.diagnostics["traced_wall_s"]
    assert report.metrics["secmem.layout_self_s"] <= report.metrics["secmem.self_s"]


def test_tracer_restores_every_wrapped_attribute():
    from repro.secmem.layout import MetadataLayout
    from repro.sim.machine import Machine

    before = (MetadataLayout.__dict__["num_pages"], Machine.__dict__["load"])
    with LayerTracer():
        assert MetadataLayout.__dict__["num_pages"] is not before[0]
    assert (MetadataLayout.__dict__["num_pages"], Machine.__dict__["load"]) == before


def test_seed_reaches_the_workload_factories(small):
    offset = 5
    base, shifted = bench.RefGrid(0), bench.RefGrid(offset)
    for (_key, _config, f0), (_key2, _config2, f1) in zip(base.cells, shifted.cells):
        assert f1().seed == f0().seed + offset
    base, shifted = bench.ServiceMix(0), bench.ServiceMix(offset)
    for f0, f1 in zip(base.factories, shifted.factories):
        assert f1().seed == f0().seed + offset
    base, shifted = bench.CrashSweep(0), bench.CrashSweep(offset)
    assert shifted.factory().seed == base.factory().seed + offset
    assert shifted.sweep_seed == base.sweep_seed + offset


def test_seed_argument_reaches_the_run(monkeypatch, capsys):
    seen = {}

    def fake_run(name, seed, seconds, trace, root):
        seen.update(name=name, seed=seed)
        return measure.Report(1, 0, {"wall_s": 1.0, "work_per_s": 1.0, "setup_s": 1.0,
                                     "peak_rss_mb": 1.0}, {})

    monkeypatch.setattr(measure, "run_benchmark", fake_run)
    assert run.main(["--workload", "service-mix", "--seed", "42", "--seconds", "1"]) == 0
    assert seen == {"name": "service-mix", "seed": 42}
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is True


def test_without_the_simulator_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
