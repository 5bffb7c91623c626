"""Every config that can be built gives correct numbers or a typed exit.

A :class:`riscov.config.NetworkConfig` is the one place where a config field
is checked, so whatever it accepts reaches the engines unchecked. Two
properties draw accepted configs (derandomized by the profile in
``conftest.py``) and run the commands on them through the CLI:

* over the physical range, the engine's ``gamma_o`` and ``gamma_a`` lie
  within the 0.02 compare gate of their exact closed forms at 2e4 trials,
  and every command ends with a documented exit code, never a traceback;
* over a box wide enough to reach the edges of the float range, the
  closed-form commands either write finite values (coverage in [0, 1]) or
  exit 4, and ``simulate`` and ``compare`` at 200 trials write coverage in
  [0, 1] and exit 0 or 1, never 4: the engines read the deployment through
  the logs of its groups, so only a value written in metres or watts can
  leave the float range; ``analytic`` keeps that up to the largest float
  ``alpha``.
"""
from __future__ import annotations

import json
import math
import tempfile
import traceback
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from riscov import cli, montecarlo

DOCUMENTED_EXITS = (0, cli.EXIT_GATE_FAILED, cli.EXIT_CONFIG_ERROR, cli.EXIT_PIPELINE_ERROR)
EXACT_METRICS = ("gamma_o", "gamma_a")  # the metrics whose closed forms are exact


def log_uniform(lo_exp: float, hi_exp: float):
    """Floats ``10**e`` with the exponent ``e`` drawn from ``[lo_exp, hi_exp]``."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


physical_configs = st.fixed_dictionaries({
    "alpha": st.floats(2.0, 5.0, exclude_min=True),
    "n_elements": st.integers(1, 256),
    "lambda_bs": log_uniform(0, 3),
    "lambda_ris": log_uniform(2, 6),
    "p_s": log_uniform(-2, 2),
    "m_elements": st.integers(1, 10_000),
    "beta": st.floats(0.01, 1.0),
    "mu": log_uniform(-1, 1),
    "epsilon_floor": log_uniform(-2, 1),
    "phase_bits": st.one_of(st.just("ideal"), st.integers(1, 8)),
    "thresholds_db": st.lists(
        st.sampled_from([-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]),
        min_size=1, max_size=3, unique=True,
    ),
    "orientation": st.sampled_from(["thinning", "explicit"]),
    "master_seed": st.integers(0, 2**32),
    "n_trials": st.just(20_000),
})

wide_configs = st.fixed_dictionaries({
    "alpha": st.floats(-6, 5).map(lambda e: 2.0 + 10.0**e),
    "n_elements": st.integers(1, 10**12),
    "m_elements": st.integers(1, 10**400),
    "lambda_bs": log_uniform(-100, 100),
    "lambda_ris": log_uniform(-100, 100),
    "p_s": log_uniform(-100, 100),
    "mu": log_uniform(-100, 100),
    "epsilon_floor": log_uniform(-100, 100),
    "beta": log_uniform(-100, 0),
    "phase_bits": st.one_of(st.just("ideal"), st.integers(1, 2000)),
    "thresholds_db": st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4, unique=True),
})


def run_command(work: Path, config: dict, name: str, *argv: str):
    """Invoke ``riscov *argv`` on ``config``, writing into ``work / name``; return result and dir.

    Fails on an uncaught exception: a typed exit is a ``SystemExit``.
    """
    path = work / "cfg.json"
    path.write_text(json.dumps(config))
    out = work / name
    result = CliRunner().invoke(cli.main, [*argv, "-c", str(path), "--out", str(out)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError(
            f"riscov {' '.join(argv)} raised on {config}:\n"
            + "".join(traceback.format_exception(*result.exc_info))
        )
    assert result.exit_code in DOCUMENTED_EXITS, result.output
    return result, out


def read_values(path: Path) -> list[float]:
    """The CSV's ``value`` column."""
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index("value")
    return [float(line.split(",")[column]) for line in lines[1:]]


@settings(max_examples=60)
@given(config=physical_configs, quantity=st.sampled_from(montecarlo.HISTOGRAM_QUANTITIES))
def test_physical_configs_meet_the_exact_gates(config, quantity):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_command(work, config, "analytic", "analytic")
        run_command(work, config, "simulate", "simulate", "--trials", "1000")
        run_command(work, config, "hist", "hist", "--quantity", quantity, "--trials", "1000")
        result, out = run_command(work, config, "compare", "compare")
        assert result.exit_code in (0, cli.EXIT_GATE_FAILED), result.output
        gates = json.loads((out / "compare_report.json").read_text())["gates"]
    exact = [g for g in gates if g["metric"] in EXACT_METRICS]
    assert len(exact) == len(EXACT_METRICS) * len(config["thresholds_db"])
    for gate in exact:
        assert gate["tolerance"] == 0.02 and gate["passed"], gate


@settings(max_examples=300)
@given(config=wide_configs)
def test_wide_configs_give_finite_closed_forms_or_exit_4(config):
    grid = ["--axis", "lambda_ris", "--grid", repr(config["lambda_ris"])]
    commands = {
        "analytic": (["analytic"], "analytic.csv"),
        "e_p_ris": (["sweep", *grid, "--metric", "e_p_ris"], "sweep.csv"),
        "e_r1": (["sweep", *grid, "--metric", "e_r1"], "sweep.csv"),
        "simulate": (["simulate", "--trials", "200"], "simulate.csv"),
        "compare": (["compare", "--trials", "200"], "compare.csv"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, (argv, csv_name) in commands.items():
            result, out = run_command(work, config, name, *argv)
            if name in ("simulate", "compare"):
                assert result.exit_code in (0, cli.EXIT_GATE_FAILED), (name, result.output)
            else:
                assert result.exit_code in (0, cli.EXIT_PIPELINE_ERROR), result.output
            if result.exit_code == cli.EXIT_PIPELINE_ERROR:
                continue
            values = read_values(out / csv_name)
            assert values and all(math.isfinite(v) for v in values), (name, values)
            if name in ("analytic", "simulate", "compare"):
                assert all(0.0 <= v <= 1.0 for v in values), (name, values)


@settings(max_examples=100)
@given(config=wide_configs, alpha_exponent=st.floats(5.0, 308.25))
def test_closed_forms_reach_the_largest_alpha(config, alpha_exponent):
    config = {**config, "alpha": 10.0**alpha_exponent}
    with tempfile.TemporaryDirectory() as tmp:
        result, out = run_command(Path(tmp), config, "analytic", "analytic")
        assert result.exit_code in (0, cli.EXIT_PIPELINE_ERROR), result.output
        if result.exit_code == 0:
            values = read_values(out / "analytic.csv")
            assert values and all(0.0 <= v <= 1.0 for v in values), values
