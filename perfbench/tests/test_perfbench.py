"""Tests of the benchmark harness itself (not part of the riscov test suite).

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _callables():
    modules = [importlib.import_module(f"riscov.{m}") for m in probes.MODULES]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_probes_time_calls_and_are_restored():
    from riscov import cli
    from riscov.config import NetworkConfig

    before = _callables()
    with probes.Tracer() as tracer:
        assert cli.run_analytic is not before[("riscov.cli", "run_analytic")]
        assert cli.load_config is not before[("riscov.cli", "load_config")]
        cli.run_analytic(NetworkConfig(alpha=3.0, thresholds_db=(0.0, 5.0)))
    after = _callables()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    report = tracer.report()
    assert report["absent"] == []
    run_analytic = report["groups"]["cli.run_analytic"]
    assert run_analytic["calls"] == 1
    assert 0.0 <= run_analytic["self_s"] <= run_analytic["total_s"]
    assert report["groups"]["analytic.coverage"]["calls"] == 8
    assert report["groups"]["analytic.interference_factor"]["calls"] > 0
    assert 0.0 < report["counters"]["abs_tol_max"] < 1e-9


def test_missing_probe_target_is_reported_absent(monkeypatch):
    targets = (
        ("geometry.window_sampler", "geometry", ("no_such_sampler",)),
        ("removed.f", "removed_module", ("f",)),
    )
    monkeypatch.setattr(probes, "MODULES", probes.MODULES + ("removed_module",))
    monkeypatch.setattr(probes, "TARGETS", probes.TARGETS + targets)
    with probes.Tracer() as tracer:
        pass
    assert tracer.report()["absent"] == ["geometry.no_such_sampler", "removed_module.f"]


def test_probe_restores_stack_when_target_raises():
    from riscov import geometry
    from riscov.errors import ParameterError

    with probes.Tracer() as tracer:
        with pytest.raises(ParameterError):
            geometry.expected_r1(-1.0, 1.0)
        assert tracer._stack == []
    assert tracer.report()["groups"]["geometry.expected_r1"]["calls"] == 1


def _perturbed(text: str, line: int, delta: float) -> str:
    lines = text.splitlines()
    fields = lines[line].split(",")
    fields[5] = repr(float(fields[5]) + delta)
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_analytic_check_rejects_perturbed_csv():
    ref = (BENCH / "reference" / "closed-form" / "analytic-a3.csv").read_text()
    assert checks.check_analytic_csv(ref, ref) == []
    assert checks.check_analytic_csv(_perturbed(ref, 5, 5e-7), ref) == []
    assert len(checks.check_analytic_csv(_perturbed(ref, 5, 2e-6), ref)) == 1
    assert checks.check_analytic_csv(_perturbed(ref, 5, float("nan")), ref)
    dropped = "\n".join(ref.splitlines()[:-1]) + "\n"
    assert checks.check_analytic_csv(dropped, ref)


def _tiny(workload):
    """The workload with 1000-trial compares; the 1 s moment sweep replaces the 12 s one."""
    commands = []
    for cmd in workload.commands:
        if cmd.name == "sweep-e_p_ris":
            continue
        if cmd.name == "sweep-e_r1":
            cmd = dataclasses.replace(cmd, main=True)
        if cmd.kind == "compare":
            cmd = dataclasses.replace(cmd, args=cmd.args + ("--trials", "1000"))
        commands.append(cmd)
    return dataclasses.replace(workload, commands=tuple(commands))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", {name: _tiny(WORKLOADS[name])})
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    # 1000 trials are too few for compare's 0.02 gates (exit code 1); any other
    # failure is a defect
    failures = [line for line in err.splitlines() if line.startswith("CHECK FAILED")]
    assert all(line == "CHECK FAILED: compare: exit code 1" for line in failures)
    assert result["failed"] <= len(failures)
    assert result["correct"] == (result["failed"] == 0) == (code == 0)
    if trace:
        assert result["metrics"]["cli.run_analytic.self_s"]["value"] > 0
        assert result["metrics"]["montecarlo.drop_scenario.calls"]["value"] >= 1000
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
