"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", workloads.GOLDEN_EPOCH)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_self_time_excludes_nested_traced_calls():
    tracer = tracing.Tracer()

    def inner(x):
        return sum(range(x))

    inner_w = tracer._wrap("t.inner", inner)

    def outer(x):
        return inner_w(x) + inner_w(x)

    outer_w = tracer._wrap("t.outer", outer)
    outer_w(1000)                      # inactive: nothing recorded
    assert not tracer.calls
    tracer.active = True
    assert outer_w(20000) == 2 * sum(range(20000))
    assert tracer.calls == {"t.outer": 1, "t.inner": 2}
    assert tracer.self_time["t.inner"] == tracer.inclusive["t.inner"]
    assert tracer.self_time["t.outer"] == pytest.approx(
        tracer.inclusive["t.outer"] - tracer.inclusive["t.inner"], abs=1e-12)


def test_timing_takes_kernel_runs_out_and_scales_by_them():
    speed = reference.Reference()
    first = len(speed.samples)
    t0 = perf_counter()
    with speed.timing() as timing:
        while perf_counter() - t0 < 0.35:       # busy, so the alarms interrupt it
            pass
    during = speed.samples[first:-1]            # the last run follows the block
    assert len(during) >= 2
    assert timing.seconds + sum(during) == pytest.approx(0.35, abs=0.02)
    assert timing.scaled == pytest.approx(
        timing.seconds * reference.NOMINAL_S / statistics.fmean(during))

    first = len(speed.samples)
    with speed.timing(interrupt=False) as timing:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.15:
            pass
    assert len(speed.samples) == first + 1      # only the run after the block
    assert timing.scaled == pytest.approx(
        timing.seconds * reference.NOMINAL_S / statistics.fmean(speed.samples[-2:]))


def test_install_wraps_every_binding_and_uninstall_restores(workdir):
    ap = run.load_adiapower()
    originals = {
        "cli.entropy_sweep": ap.cli.entropy_sweep,
        "power.entropy_sweep": ap.power.entropy_sweep,
        "families.tensor": ap.families.tensor,
        "package.bound_check": ap.bound_check,
        "eigensystem": ap.power.HamiltonianFamily.__dict__["eigensystem"],
        "numpy.eigh": np.linalg.eigh,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {
            "cli.entropy_sweep": ap.cli.entropy_sweep,
            "power.entropy_sweep": ap.power.entropy_sweep,
            "families.tensor": ap.families.tensor,
            "package.bound_check": ap.bound_check,
            "eigensystem": ap.power.HamiltonianFamily.__dict__["eigensystem"],
            "numpy.eigh": np.linalg.eigh,
        }
        assert all(wrapped[k] is not originals[k] for k in originals)
        assert wrapped["cli.entropy_sweep"] is wrapped["power.entropy_sweep"]
        tracer.active = True
        ap.entropy_sweep(ap.example1_family(), 3)
        tracer.active = False
        assert tracer.calls["power.entropy_sweep"] == 1
        assert tracer.calls["power.eigensystem"] == 9
        assert tracer.counters["lapack.eigh.mats"] == tracer.calls["lapack.eigh"] > 0
    finally:
        tracer.uninstall()
    assert ap.cli.entropy_sweep is originals["cli.entropy_sweep"]
    assert ap.power.HamiltonianFamily.__dict__["eigensystem"] is originals["eigensystem"]
    assert np.linalg.eigh is originals["numpy.eigh"]


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_metrics_match_benchmark_spec(workdir, trace):
    result = run.measure("sweep_maps", 1, 0.0, trace, smoke=True)
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_wrong_output_is_counted_as_failure(workdir):
    golden = workdir / "golden"
    shutil.copytree(run.GOLDEN, golden)
    lines = (golden / "fig1.csv").read_text().splitlines(keepends=True)
    row = lines[2].rstrip("\n").split(",")
    row[-1] = repr(float(row[-1]) + 1e-9)
    lines[2] = ",".join(row) + "\n"
    (golden / "fig1.csv").write_text("".join(lines))

    ap = run.load_adiapower()
    failures = []
    ops = workloads.sweep_maps(ap, 0, golden, smoke=True)

    def broken():
        raise RuntimeError("operation crashed")

    ops.append(workloads.Op("crash", broken, lambda res: {}))
    _, _, failed, _ = run.run_pass(ops, None, failures, run.Reference())
    assert failed == 2
    assert "fig1.csv: deviation" in failures[0] and "crash" in failures[1]


def test_smoke_mode_runs_every_workload():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "3"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in workloads.WORKLOADS:
        assert f"workload {name}:" in proc.stdout


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "paths",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
