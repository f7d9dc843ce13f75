"""Smoke tests of the benchmark on the fast grid.

Run from the repository root with ``python3 -m pytest cotfbench -q``.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cotf  # noqa: E402
from cotf import cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--fast"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_fast_mode_reports_every_metric(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    if workload != "config-study":  # config-study's cross sweeps hit the known defect
        assert result["failed"] == 0


def run_op(workload, op) -> list:
    code = cli.main(workload.argv(op))
    return workload.check(op, code, "")


def first_op(workload, command: str, kind: str):
    return next(op for op in workload.ops
                if op.info["command"] == command and op.info["geometry"][0] == kind)


def test_perturbed_objective_fails_reference_check(tmp_path):
    workload = workloads.ConfigStudy(11, workloads.FAST, tmp_path)
    workload.prepare()
    op = first_op(workload, "optimize", "line")
    assert run_op(workload, op) == []
    path = workload.out_dir(op) / f"combination_{workloads.file_label(op.info['levels'][0])}.json"
    result = json.loads(path.read_text())
    result["objective"] *= 1.0 + 1e-5
    path.write_text(json.dumps(result))
    fresh = workloads.ConfigStudy(11, workloads.FAST, tmp_path)
    assert any("reference" in p for p in fresh.check(op, 0, ""))


def test_perturbed_coefficient_fails_recomputed_objective(tmp_path):
    workload = workloads.ConfigStudy(11, workloads.FAST, tmp_path)
    workload.prepare()
    op = first_op(workload, "sweep", "point")
    assert run_op(workload, op) == []
    assert workload.finish() == []
    path = workload.out_dir(op) / "sweep.json"
    results = json.loads(path.read_text())
    results[-1]["coefficients"][1] += 0.1
    path.write_text(json.dumps(results))
    fresh = workloads.ConfigStudy(11, workloads.FAST, tmp_path)
    assert fresh.check(op, 0, "") == []  # the reported values are untouched
    assert any("recomputed" in p for p in fresh.finish())


def test_perturbed_figure_fails_golden_check(tmp_path):
    workload = workloads.ReproduceAll(2, workloads.FAST, tmp_path)
    workload.prepare()
    (op,) = workload.ops
    assert run_op(workload, op) == []
    path = workload.out_dir(op) / "fig02_power_vs_shift.csv"
    lines = path.read_text().splitlines()
    shift, focal, rest = lines[3].split(",", 2)
    lines[3] = ",".join([shift, repr(float(focal) * (1.0 + 1e-9)), rest])
    path.write_text("\n".join(lines) + "\n")
    fresh = workloads.ReproduceAll(2, workloads.FAST, tmp_path)
    assert any("golden" in p for p in fresh.check(op, 0, ""))


def test_repeated_op_with_other_bytes_fails(tmp_path):
    workload = workloads.FieldGrids(3, workloads.FAST, tmp_path)
    workload.prepare()
    op = workload.ops[0]
    assert run_op(workload, op) == []
    radial = workload.out_dir(op) / "radial_profile.csv"
    radial.write_text(radial.read_text() + "\n")
    manifest = workload.out_dir(op) / "manifest.json"
    files = json.loads(manifest.read_text())
    files["files"]["radial_profile.csv"] = "0" * 64
    manifest.write_text(json.dumps(files))
    assert any("different artifacts" in p for p in workload.check(op, 0, ""))


def test_tracer_wraps_every_binding_site(tmp_path):
    """Each traced function's span count equals its calls seen by the
    profiler, however it was reached; at this commit reproduce-all makes 5
    simulate_field, 7 build_stack, 16 solve, 1 truncation_sweep and 19 emit
    calls."""
    workload = workloads.ReproduceAll(4, workloads.FAST, tmp_path)
    workload.prepare()
    (op,) = workload.ops
    tracer = Tracer()
    originals = {id(f.__code__): name for f, name in (
        (cotf.debye.simulate_field, "simulate_field"), (cotf.otf.build_stack, "build_stack"),
        (cotf.optimizer.solve, "solve"), (cotf.optimizer.truncation_sweep, "truncation_sweep"),
        (cotf.regions.mainlobe_mask, "mainlobe_mask"), (cotf.analysis.zero_channel_grid, "zero_channel_grid"),
        (cli.Runner.emit, "emit"),
    )}
    profiled = {name: 0 for name in originals.values()}

    def profile(frame, event, arg):
        if event == "call" and id(frame.f_code) in originals:
            profiled[originals[id(frame.f_code)]] += 1

    with tracer.active():
        sys.setprofile(profile)
        try:
            code = tracer.span("cli.main", "main", lambda: cli.main(workload.argv(op)))
        finally:
            sys.setprofile(None)
    assert code == 0
    assert not hasattr(cotf.analysis.simulate_field, "__wrapped__")  # restored
    traced = tracer.calls()
    assert {name: traced[name] for name in profiled} == profiled
    assert {name: traced[name] for name in ("simulate_field", "build_stack", "solve",
                                            "truncation_sweep", "emit")} == {
        "simulate_field": 5, "build_stack": 7, "solve": 16, "truncation_sweep": 1, "emit": 19,
    }
    totals = tracer.totals()
    attributed = sum(entry["self_s"] for entry in totals.values())
    assert attributed == pytest.approx(totals["cli.main"]["total_s"], rel=1e-9)
