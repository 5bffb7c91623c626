"""Command-line surface: rows, gates, exit codes, output stability."""
from __future__ import annotations

import ast
import dataclasses
import errno
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from scipy import special

from oracle_helpers import INTERFERENCE_ABS_TOL, gamma_b_large_alpha_limit, interference_quadrature
import riscov
from riscov import analytic, cli, geometry, montecarlo
from riscov.config import KM2_TO_M2, NetworkConfig, load_config
from riscov.errors import NumericalError


@pytest.fixture()
def runner():
    return CliRunner()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """A module of the benchmark harness, loaded read-only from its file; nothing is written under perfbench/."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


# the benchmark's reference CSVs, by workload; each is the output of one analytic or sweep command
BENCHMARK_REFERENCES = sorted((path.parent.name, path.stem) for path in (PERFBENCH / "reference").glob("*/*.csv"))


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _invoke(runner, argv):
    """``runner.invoke(cli.main, argv)`` and the warnings it raised, which would reach stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(cli.main, argv)
    return result, caught


class TestAnalyticCommand:
    def test_reference_value_at_zero_db(self, runner, tmp_path):
        result = runner.invoke(
            cli.main, ["analytic", "--out", str(tmp_path)], catch_exceptions=False
        )
        assert result.exit_code == 0
        rows = read_rows(tmp_path / "analytic.csv")
        baseline = [
            r for r in rows if r["engine"] == "analytic_q2" and r["T_db"] == "0"
        ]
        assert len(baseline) == 1
        assert float(baseline[0]["value"]) == pytest.approx(0.83587, abs=5e-5)

    @pytest.mark.parametrize(
        "yaml_text", ["alpha: 2.2\n", "alpha: 2.5\nthresholds_db: [30]\n"],
        ids=["alpha2.2", "alpha2.5-30dB"],
    )
    def test_low_alpha_rows_match_quadrature_oracle(self, runner, tmp_path, yaml_text):
        # the interference quadrature used to miss its tolerance at these
        # exponents and abort the command with a traceback
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml_text)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg_path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        cfg = load_config(cfg_path)
        rows = read_rows(tmp_path / "analytic.csv")
        assert len(rows) == len(cli.GATES) * len(cfg.thresholds_db)
        checked = 0
        for row in rows:
            value = float(row["value"])
            assert 0.0 < value < 1.0
            threshold = 10.0 ** (float(row["T_db"]) / 10.0)
            kappa = math.exp(analytic.log_reflector_ratio(cfg))
            rho = kappa**-0.5 if row["engine"] == "approx1" else 1.0
            i_factor, abs_err = interference_quadrature(threshold, cfg.alpha, rho=rho)
            if abs_err > INTERFERENCE_ABS_TOL:
                continue  # the oracle itself did not converge here
            expected = {
                "analytic_q2": 1.0 / (1.0 + i_factor / math.sqrt(cfg.n_elements)),
                "analytic_q23": 1.0 / (1.0 + math.sqrt(2.0 / cfg.n_elements) * i_factor),
            }.get(row["engine"])
            if expected is None:  # approx1 and approx2 share one form up to rho
                _, p_split = cfg.retentions
                expected = kappa / (kappa + p_split / rho**2 * i_factor)
            assert value == pytest.approx(expected, abs=1e-8)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("yaml_text, approx", [
        # T * rho**alpha underflows to 0 here; the approx1 row used to abort the
        # command with "T must be positive"
        pytest.param("alpha: 5000\nthresholds_db: [0]\n", None, id="alpha5000"),
        pytest.param("thresholds_db: [-3200]\n", None, id="subnormal-threshold"),
        # the command used to end in an OverflowError (rho**alpha) or a
        # ZeroDivisionError (E[r1**-2] = 0) traceback with exit 1, the
        # gate-failed code; to write nan rows (rho = inf); to exit 4 when
        # pi*lambda_eff*eps**2 overflowed; or, at the tiny floor, to report
        # E[r1**-2] beyond the float range with exit 4
        *[pytest.param(f"epsilon_floor: {floor}\n", None, id=f"floor-{case}") for case, floor in (
            ("rho-overflow", "2.5e+3"), ("rho-inf", "3.0e+3"), ("moment-zero", "1.0e+4"),
            ("x-overflow", "1.0e+160"), ("moment-log", "1.0e-200"))],
        # mu**2 used to end in a ZeroDivisionError (tiny mu) or an
        # OverflowError (huge mu) traceback with exit 1, the gate-failed code;
        # at alpha 2.01 the intermediate mu**(-4/alpha) overflowed (exit 4)
        # although kappa, about 1e302, does not
        pytest.param("mu: 1.0e-300\n", 1.0, id="mu-tiny"),
        pytest.param("mu: 1.0e+300\n", 0.0, id="mu-huge"),
        pytest.param("mu: 1.0e-300\nalpha: 2.01\n", 1.0, id="mu-tiny-alpha2.01"),
        # approx1 and approx2 used to write nan rows with exit 0; kappa is
        # about 1e-111 and 1e230 here, both inside the float range. Every
        # converted intensity underflowed to 0, giving 0/0, or the converted
        # reflector intensity overflowed to inf, giving inf/inf
        pytest.param("lambda_ris: 1.24e+38\nmu: 9.08e+296\np_s: 1.14e-261\nepsilon_floor: 1.47e-219\n", None,
                     id="all-underflow"),
        pytest.param("n_elements: 1\nm_elements: 1" + "0" * 66 + "\nmu: 4.74e-167\nlambda_ris: 5.63e+85\n", None,
                     id="ris-overflow"),
        # the floored moment underflowed to 0 in SI units, so approx1 and
        # approx2 wrote 0 where kappa is about 1e576
        pytest.param("lambda_bs: 3.0e-318\nlambda_ris: 1.0e+308\nepsilon_floor: 2.8e+162\n"
                     "mu: 1.0e-308\nm_elements: 1" + "0" * 154 + "\n", "1", id="underflowing-moment"),
        # log K = log mu - log G - (alpha/2) * log(pi * lambda_bs) overflows
        # past alpha ~ 4e307: at the defaults kappa is about 1.39, and approx1
        # and approx2 wrote 0; with dense bases and a huge floor the moment
        # underflows, and -inf + inf raised
        pytest.param("alpha: 1.0e+308\n", "1", id="largest-alpha"),
        pytest.param("alpha: 1.0e+308\nlambda_bs: 1.0e+8\nepsilon_floor: 1.0e+200\n", "0",
                     id="largest-alpha-dense-bases-huge-floor"),
    ])
    def test_edge_config_writes_coverage(self, runner, tmp_path, yaml_text, approx):
        # each edge config exits 0 with nothing on stderr and writes every
        # gated engine at every threshold, each value a coverage in [0, 1];
        # ``approx`` is the text of every approx1 and approx2 value, or the
        # limit that they take within 1e-9
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text)
        result, caught = _invoke(runner, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0 and result.stderr == "" and caught == [], result.output
        rows = read_rows(tmp_path / "analytic.csv")
        assert len(rows) == len(cli.GATES) * len(load_config(cfg).thresholds_db)
        assert all(0.0 <= float(row["value"]) <= 1.0 for row in rows)
        reflected = [row["value"] for row in rows if row["engine"] in ("approx1", "approx2")]
        if isinstance(approx, str):
            assert set(reflected) == {approx}
        elif approx is not None:
            assert all(abs(float(value) - approx) < 1e-9 for value in reflected)

    @pytest.mark.parametrize("bits", ["1100", "1000000"])
    def test_phase_bits_beyond_float_give_ideal_values(self, runner, tmp_path, bits):
        # pi / (1 << bits) used to end in an OverflowError traceback with exit 1
        values = {}
        for name, phase_bits in (("ideal", "ideal"), ("bits", bits)):
            cfg_path = tmp_path / f"{name}.yaml"
            cfg_path.write_text(f"phase_bits: {phase_bits}\n")
            out = tmp_path / name
            result = runner.invoke(cli.main, ["analytic", "-c", str(cfg_path), "--out", str(out)])
            assert result.exit_code == 0, result.output
            values[name] = [row["value"] for row in read_rows(out / "analytic.csv")]
        assert values["bits"] == values["ideal"]

    @pytest.mark.parametrize("command", ["analytic", "compare"])
    def test_huge_reflector_bank_gives_numbers(self, runner, tmp_path, command):
        # M is an unbounded integer whose M**2 leaves the float range; the
        # engines read log G = 2 log M + ..., so both commands used to exit 4.
        # compare passes every gate at 20,000 trials
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("m_elements: 1" + "0" * 160 + "\nn_trials: 20000\n")
        result, caught = _invoke(runner, [command, "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.stderr == "" and caught == []
        rows = read_rows(tmp_path / f"{command}.csv")
        # a bank this large makes every reflected-path approximation 1
        assert {r["value"] for r in rows if r["engine"] in ("approx1", "approx2")} == {"1"}

    def test_overflowing_interference_leaves_stderr_empty(self, runner, tmp_path):
        # the interference factor overflows to its limit inf, so the rows of
        # I(T) itself are 0; numpy's overflow warning used to reach stderr
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("alpha: 2.00000000001\nthresholds_db: [2970]\n")
        result, caught = _invoke(runner, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0 and result.stderr == "" and caught == []
        rows = {row["engine"]: row["value"] for row in read_rows(tmp_path / "analytic.csv")}
        assert len(rows) == len(cli.GATES)
        assert all(rows[engine] == "0" for engine in ("analytic_q2", "analytic_q23", "approx2"))
        # approx1 reads I at T * kappa**(-a/2), about 8e292, where p * I is
        # still a float: 1.77e-304 by scipy's hyp2f1, where it read 0 before
        cfg = load_config(cfg)
        alpha, T = cfg.alpha, cfg.thresholds_linear[0]
        scaled = T * math.exp(-0.5 * alpha * analytic.log_reflector_ratio(cfg))
        delta = 2.0 / alpha
        i_scaled = 2.0 * scaled / (alpha - 2.0) * special.hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -scaled)
        _, p_split = cfg.retentions
        value = float(rows["approx1"])
        assert value == pytest.approx(1.0 / (1.0 + p_split * i_scaled), rel=1e-9, abs=0)
        assert value == pytest.approx(1.7735432e-304, rel=1e-7, abs=0)

    def test_header_is_exact(self, runner, tmp_path):
        runner.invoke(cli.main, ["analytic", "--out", str(tmp_path)], catch_exceptions=False)
        first = (tmp_path / "analytic.csv").read_text().splitlines()[0]
        assert first == "engine,metric,T_db,axis_name,axis_value,value,ci_half_width,n_trials,config_hash,seed"


class TestSimulateCommand:
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_non_finite_values_are_pipeline_error(self, runner, tmp_path, monkeypatch, command):
        # nan conditional values stand in for a value that is not finite, which
        # no config reaches now that the interferers are integrated out (at
        # alpha = 1.7e308 the reflected path's were nan); this once ended in
        # "T must be nonnegative" with an array repr
        monkeypatch.setattr(montecarlo, "_values", lambda cfg, records, engaged, direct: [
            dict.fromkeys(montecarlo.METRICS, np.full(len(records.r0), math.nan)) for _ in direct])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 2000\n")
        result, caught = _invoke(runner, [command, "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR and caught == []
        # 2000 trials are 62 lattice points under each of 32 shifts, one block
        assert result.stderr == "pipeline error: lattice points 0-61: a coverage value leaves the float range\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_largest_alpha_takes_the_large_alpha_limit(self, runner, tmp_path):
        # log q = alpha * L - log f1 overflows at this alpha and the reflected
        # path's values were nan (exit 4); they are read from log(q) / alpha,
        # which stays finite, so gamma_b takes its alpha -> inf limit. At
        # 2000 points it read 0.5163 +- 0.0029 against the limit's 0.5201 +-
        # 0.0007; it converges there: 0.52015 +- 6e-5 at 2**16 points and
        # 0.52016 +- 2e-5 at 2**18
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("alpha: 1.7e+308\nn_trials: 20000\n")
        result, caught = _invoke(runner, ["simulate", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0 and caught == [], result.output
        limit, limit_half_width = gamma_b_large_alpha_limit(load_config(cfg))
        rows = [r for r in read_rows(tmp_path / "simulate.csv") if r["metric"] == "gamma_b"]
        assert len(rows) == len(NetworkConfig().thresholds_db)
        for r in rows:
            assert abs(float(r["value"]) - limit) <= float(r["ci_half_width"]) + limit_half_width, (r, limit)

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_tiny_mu_gives_the_default_direct_paths(self, runner, tmp_path, command):
        # mu = 1e-320 used to exit 4: its fades overflowed the float range
        # once drawn in SI units; they are drawn in units of 1/mu now
        rows = {}
        for name, yaml_text in (("default", ""), ("tiny-mu", "mu: 1.0e-320\n")):
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(yaml_text + "n_trials: 2000\n")
            result = runner.invoke(cli.main, [command, "-c", str(cfg), "--out", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
            rows[name] = [
                (r["metric"], r["T_db"], r["value"], r["ci_half_width"], r["n_trials"])
                for r in read_rows(tmp_path / name / f"{command}.csv")
                if r["engine"] == "mc" and r["metric"] in ("gamma_o", "gamma_a")
            ]
        assert len(rows["default"]) == 2 * len(NetworkConfig().thresholds_db)
        assert rows["tiny-mu"] == rows["default"]

    def test_dense_bases_engage_no_reflector(self, runner, tmp_path):
        # at 1.7e308 bases and 1e-18 reflectors per km^2 the probability of
        # an engaged reflector underflows to 0 at every point, so gamma_b has
        # no weight: its gates are null and fail, though every metric counts
        # every point
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lambda_bs: 1.7e+308\nlambda_ris: 1.0e-18\nn_trials: 2000\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_GATE_FAILED, result.output
        report = json.loads((tmp_path / "compare_report.json").read_text())
        failed = [(g["metric"], g["mc"]) for g in report["gates"] if not g["passed"]]
        assert failed == [("gamma_b", None), ("gamma_b", None)]
        gamma_b = [r for r in read_rows(tmp_path / "compare.csv") if r["metric"] == "gamma_b" and r["engine"] == "mc"]
        assert gamma_b and all(r["value"] == "nan" and r["n_trials"] == "1984" for r in gamma_b)

    @pytest.mark.parametrize("yaml_text", ["lambda_bs: 1.0e-300\n", "mu: 1.0e-320\n"], ids=["sparse-bases", "tiny-mu"])
    def test_extreme_scales_pass_the_direct_path_gates(self, runner, tmp_path, yaml_text):
        # distances are drawn in units of 1/sqrt(pi*lambda_bs) and fades in
        # units of 1/mu. At 1e-300 bases per km^2 the serving distance's
        # alpha-th power left the float range in metres, and gamma_o read
        # 1.0000 against 0.2138; at mu = 1e-320 the fades did, and compare exited 4
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text + "thresholds_db: [20.0]\n")
        result = runner.invoke(
            cli.main, ["compare", "-c", str(cfg), "--trials", "20000", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert [g["metric"] for g in report["gates"]] == ["gamma_o", "gamma_a"]
        assert all(g["passed"] for g in report["gates"])

    def test_emits_four_metrics_per_threshold(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 2000\nthresholds_db: [0, 5]\n")
        result = runner.invoke(
            cli.main,
            ["simulate", "-c", str(cfg), "--out", str(tmp_path)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        rows = read_rows(tmp_path / "simulate.csv")
        assert len(rows) == 4 * 2
        assert {r["metric"] for r in rows} == {"gamma_o", "gamma_a", "gamma_b", "gamma_s"}
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".csv"] == ["simulate.csv"]

    def test_gamma_b_counts_every_point(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lambda_ris: 100.0\n")
        result = runner.invoke(
            cli.main, ["simulate", "-c", str(cfg), "--trials", "2000", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        rows = read_rows(tmp_path / "simulate.csv")
        # gamma_b weights every point by its probability of an engaged
        # reflector, so it counts the 32 shifts of 62 points that every metric counts
        assert {(r["metric"], r["n_trials"]) for r in rows} == {(m, "1984") for m in montecarlo.METRICS}

    def test_seed_repetition_identical_bytes(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 1500\nthresholds_db: [0]\n")
        runner.invoke(
            cli.main,
            ["simulate", "-c", str(cfg), "--out", str(tmp_path / "one"), "--seed", "5"],
            catch_exceptions=False,
        )
        runner.invoke(
            cli.main,
            ["simulate", "-c", str(cfg), "--out", str(tmp_path / "two"), "--seed", "5"],
            catch_exceptions=False,
        )
        assert (tmp_path / "one" / "simulate.csv").read_bytes() == (
            tmp_path / "two" / "simulate.csv"
        ).read_bytes()

    def test_seed_override_changes_values(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 1500\nthresholds_db: [0]\n")
        runner.invoke(
            cli.main,
            ["simulate", "-c", str(cfg), "--out", str(tmp_path / "one"), "--seed", "5"],
            catch_exceptions=False,
        )
        runner.invoke(
            cli.main,
            ["simulate", "-c", str(cfg), "--out", str(tmp_path / "two"), "--seed", "6"],
            catch_exceptions=False,
        )
        assert (tmp_path / "one" / "simulate.csv").read_bytes() != (
            tmp_path / "two" / "simulate.csv"
        ).read_bytes()


class TestCompare:
    def test_gate_logic_negative_control(self):
        # an engine evaluated at the wrong path-loss exponent must trip a gate
        cfg = NetworkConfig(n_trials=20_000, thresholds_db=(0.0,), master_seed=3)
        wrong = cfg.replace(alpha=3.0)
        mc_rows = cli.run_simulate(cfg)
        analytic_rows = cli.run_analytic(wrong)
        report = cli.build_comparison(cfg, analytic_rows, mc_rows)
        assert not report["all_passed"]

    def test_missing_engine_rows_raise(self):
        # both row sets come from one config, so a missing row is a programming
        # error; it must raise rather than silently drop the gate
        cfg = NetworkConfig(n_trials=200, thresholds_db=(0.0,))
        with pytest.raises(KeyError):
            cli.build_comparison(cfg, [], [])

    @pytest.mark.parametrize("t_db, gated", [(5.000000004, True), (5.00000001, False)])
    def test_reflected_path_gates_take_thresholds_within_5e_9_db(self, t_db, gated):
        # math.isclose keeps its default rel_tol of 1e-9 beside GATE_T_DB_ABS_TOL,
        # so at 5 dB the window is 5e-9 dB wide on each side, not 1e-9 dB
        cfg = NetworkConfig(n_trials=200, thresholds_db=(t_db,))
        report = cli.build_comparison(cfg, cli.run_analytic(cfg), cli.run_simulate(cfg))
        reflected = ["approx1", "approx2"] if gated else []
        assert [g["engine"] for g in report["gates"]] == ["analytic_q2", "analytic_q23", *reflected]

    def test_compare_cli_failure_exit_code(self, runner, tmp_path, monkeypatch):
        # an impossible tolerance forces a gate failure
        gates = tuple(
            dataclasses.replace(g, tolerance=0.0) if g.metric == "gamma_o" else g for g in cli.GATES
        )
        monkeypatch.setattr(cli, "GATES", gates)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 1000\nthresholds_db: [0]\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_GATE_FAILED
        assert "[FAIL] gamma_o vs analytic_q2 @ +0.0 dB" in result.output

    def test_config_cannot_drop_a_failing_gate(self, runner, tmp_path):
        # approx2 overshoots the simulated reflected-path coverage at N = 2,
        # alpha = 3 by more than its margin; moving the reflected-path gates to
        # a threshold outside the run used to turn that failure into exit 0
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_elements: 2\nalpha: 3\nn_trials: 5000\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path / "a")])
        assert result.exit_code == cli.EXIT_GATE_FAILED
        failed = [line for line in result.output.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1
        assert failed[0].startswith("[FAIL] gamma_b vs approx2 @ +5.0 dB:")
        assert failed[0].endswith(" tol=0.03")
        # the same config with the key that moved the gates is the typed-exit
        # row [retired-compare_tolerances-key]

    def test_report_contents(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 4000\nthresholds_db: [0, 5]\n")
        result = runner.invoke(
            cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert report["all_passed"] is True
        kinds = {(g["metric"], g["t_db"], g["engine"]) for g in report["gates"]}
        assert ("gamma_o", 0.0, "analytic_q2") in kinds
        assert ("gamma_b", 5.0, "approx2") in kinds
        # path-B gates anchor at the advertised operating point only
        assert ("gamma_b", 0.0, "approx1") not in kinds

    def test_report_counts_the_points_that_compare_csv_counts(self, runner, tmp_path):
        # 2000 trials evaluate 32 shifts of 62 lattice points
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 2000\nthresholds_db: [0]\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)], catch_exceptions=False)
        assert result.exit_code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        rows = read_rows(tmp_path / "compare.csv")
        counts = {r["n_trials"] for r in rows if r["engine"] == "mc"}
        assert report["n_trials"] == 1984 and counts == {"1984"}

    def test_thresholds_with_equal_linear_ratio_keep_their_labels(self, runner, tmp_path):
        # 0 dB and 1e-17 dB are distinct in the config but both 1.0 as linear ratios
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 1000\nthresholds_db: [0.0, 1.0e-17]\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code != cli.EXIT_PIPELINE_ERROR, result.output
        mc_rows = [r for r in read_rows(tmp_path / "compare.csv") if r["engine"] == "mc"]
        for metric in ("gamma_o", "gamma_a", "gamma_b", "gamma_s"):
            labels = sorted(r["T_db"] for r in mc_rows if r["metric"] == metric)
            assert labels == ["0", "1e-17"]
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert {g["t_db"] for g in report["gates"] if g["metric"] == "gamma_o"} == {0.0, 1e-17}

    def test_report_is_strict_json_without_engaged_trials(self, runner, tmp_path):
        # the probability of an engaged reflector underflows to 0 at every
        # point, so the gamma_b estimate is NaN; the report used to carry
        # bare NaN tokens that strict parsers reject
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lambda_bs: 1.7e+308\nlambda_ris: 1.0e-18\nn_trials: 200\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_GATE_FAILED

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads((tmp_path / "compare_report.json").read_text(), parse_constant=reject)
        gamma_b = [g for g in report["gates"] if g["metric"] == "gamma_b"]
        assert len(gamma_b) == 2
        for g in gamma_b:
            assert g["mc"] is None and g["gap"] is None and g["mc_ci_half_width"] is None
            assert g["passed"] is False and math.isfinite(g["analytic"])
        assert report["all_passed"] is False

    def test_gate_threshold_matches_within_tolerance(self, runner, tmp_path):
        # a threshold a few ULPs off the 5 dB gate point still gets both gates
        t_db = 5.0 + 4 * math.ulp(5.0)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"n_trials: 1000\nthresholds_db: [0, {t_db!r}]\n")
        runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "compare_report.json").read_text())
        gamma_b = {g["engine"] for g in report["gates"] if g["metric"] == "gamma_b"}
        assert gamma_b == {"approx1", "approx2"}


def _run_fresh(code: str, *args: str, returncode: int = 0, cwd: Path | None = None) -> str:
    """Stdout of ``code`` run in a fresh interpreter with the package's ``src`` on PYTHONPATH.

    The interpreter must exit with ``returncode``.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True)
    assert out.returncode == returncode, out.stderr
    return out.stdout


# what a cold start must not pay for unless it computes: numpy is most of a
# cold start and the Monte-Carlo engine's alone; numpy.random would cost the
# engine peak memory, as the lattice's shifts come from the standard library;
# scipy.special alone is about half of a cold start; and the engine runs in one
# process, so nothing needs the 10 ms multiprocessing import
_WATCHED = ("numpy", "numpy.random", "scipy", "multiprocessing")
# runs the command in sys.argv[1:]; click returns where the script would exit
_COMMAND = (
    "from riscov import cli\n"
    "cli.main.main(args=sys.argv[1:], prog_name='riscov', standalone_mode=False)\n"
)
_SWEEP = ["sweep", "--axis", "lambda_ris", "--grid", "1000", "--metric"]
_MC_TRIALS = ["--trials", "20000"]


def _loaded_probe(prelude: str) -> str:
    """Code that runs ``prelude``, then prints a sorted list of the ``_WATCHED`` packages loaded.

    A package counts as loaded when it or any submodule is. The line is
    printed at exit, so a command that ends in ``sys.exit`` prints it too.
    """
    return (
        "import atexit, sys\n"
        f"atexit.register(lambda: print(sorted(p for p in {_WATCHED!r}"
        " if any(m == p or m.startswith(p + '.') for m in sys.modules))))\n"
        + prelude
    )


def _imported_packages(source: str) -> set[str]:
    """The top-level packages that ``source`` imports absolutely, at any depth.

    Imports inside functions, methods, ``try`` and ``if`` blocks count; those
    under ``if TYPE_CHECKING:``, which never run, do not.
    """
    tree = ast.parse(source)
    typing_only = {id(node) for block in ast.walk(tree)
                   if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
                   for stmt in block.body for node in ast.walk(stmt)}
    packages = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        packages.update(name.partition(".")[0] for name in names)
    return packages


class TestColdImport:
    @pytest.mark.parametrize("prelude, argv, returncode, loaded", [
        ("import riscov.cli", [], 0, set()),
        ("import riscov.analytic, riscov.geometry", [], 0, set()),
        (_COMMAND, ["--help"], 0, set()),
        (_COMMAND, ["--version"], 0, set()),
        # the benchmark's set-up sample: load a config, reject it and exit 2
        (_COMMAND, ["analytic", "-c", str(PERFBENCH / "configs" / "mc-dense.yaml"), "--trials", "0"],
         cli.EXIT_CONFIG_ERROR, set()),
        (_COMMAND, ["analytic"], 0, set()),
        (_COMMAND, [*_SWEEP, "coverage"], 0, set()),
        (_COMMAND, [*_SWEEP, "e_p_ris"], 0, set()),
        (_COMMAND, [*_SWEEP, "e_r1"], 0, set()),
        # ten blocks of trials, each in this process
        (_COMMAND, ["compare", *_MC_TRIALS], 0, {"numpy"}),
        (_COMMAND, ["simulate", *_MC_TRIALS], 0, {"numpy"}),
        (_COMMAND, ["hist", "--quantity", "r1", *_MC_TRIALS], 0, {"numpy"}),
        # positive control: the probe sees every package once it is loaded
        ("import multiprocessing, numpy.random, scipy\n" + _COMMAND, [*_SWEEP, "e_r1"], 0, set(_WATCHED)),
    ], ids=["import-cli", "import-closed-forms", "help", "version", "config-error", "analytic",
            "sweep-coverage", "sweep-e_p_ris", "sweep-e_r1", "compare", "simulate", "hist-r1", "control"])
    def test_cold_start_loads_only_what_it_computes_with(self, tmp_path, monkeypatch, prelude, argv, returncode,
                                                          loaded):
        # a RISCOV_WORKERS left in the environment by an older release starts
        # no pool; the commands write to riscov_out/ under tmp_path
        monkeypatch.setenv("RISCOV_WORKERS", "2")
        out = _run_fresh(_loaded_probe(prelude), *argv, returncode=returncode, cwd=tmp_path)
        assert set(ast.literal_eval(out.splitlines()[-1])) == loaded

    def test_only_the_engine_imports_numpy(self):
        # the table above runs a few commands; this scan covers every code
        # path. numpy is the engine's alone, and no module imports scipy or
        # multiprocessing
        importers = {"numpy": set(), "scipy": set(), "multiprocessing": set()}
        for path in Path(riscov.__file__).parent.glob("*.py"):
            for package in _imported_packages(path.read_text()) & importers.keys():
                importers[package].add(path.name)
        assert importers == {"numpy": {"montecarlo.py"}, "scipy": set(), "multiprocessing": set()}

    @pytest.mark.parametrize("source, packages", [
        ("def run():\n    import multiprocessing\n", {"multiprocessing"}),
        ("class Engine:\n    def draw(self):\n        from scipy.special import gammaincc\n", {"scipy"}),
        ("import os, numpy.random as npr\n", {"os", "numpy"}),
        ("try:\n    import scipy\nexcept ImportError:\n    scipy = None\n", {"scipy"}),
        ("if sys.version_info >= (3, 12):\n    import multiprocessing.pool\n", {"multiprocessing"}),
        ("from . import geometry\nfrom .config import NetworkConfig\n", set()),
        ("if TYPE_CHECKING:\n    import numpy as np\n    from scipy import special\n", set()),
    ], ids=["in-a-function", "in-a-method", "submodule-beside-another", "in-a-try", "in-an-if",
            "relative", "type-checking-only"])
    def test_scan_sees_every_import_that_runs(self, source, packages):
        # positive controls for the scan above: a scan that missed a nested
        # import would pass any source tree
        assert _imported_packages(source) == packages


class TestVersion:
    def test_version_from_source_tree(self):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "riscov.cli", "--version"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == f"riscov, version {riscov.__version__}"

    def test_pyproject_version_matches_package(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
        assert match is not None
        assert match.group(1) == riscov.__version__


class TestSweep:
    def test_cardinality(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("thresholds_db: [5]\n")
        result = runner.invoke(
            cli.main,
            [
                "sweep", "-c", str(cfg), "--out", str(tmp_path),
                "--axis", "lambda_ris", "--grid", "500,1000,10000,50000",
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        rows = read_rows(tmp_path / "sweep.csv")
        # 4 grid points x 4 analytic engines x 1 threshold
        assert len(rows) == 16
        for gate in cli.GATES:
            assert sum(r["engine"] == gate.engine for r in rows) == 4

    def test_expected_r1_sweep_is_monotone(self, runner, tmp_path):
        result = runner.invoke(
            cli.main,
            [
                "sweep", "--out", str(tmp_path), "--axis", "lambda_ris",
                "--grid", "500,1000,4000,16000", "--metric", "e_r1",
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        rows = read_rows(tmp_path / "sweep.csv")
        vals = [float(r["value"]) for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_expected_r1_at_sparse_bases_scales_exactly(self, runner, tmp_path):
        # per m^2 the quadrature squared distances near 1e155 m: two numpy
        # warnings, then "did not converge" and exit 4. In units of the base
        # spacing both points are rho = 100, and E[r1] scales as that spacing
        values = []
        for bs, grid in (("1.0e-305", "1.0e-303"), ("1.0", "100")):
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"lambda_bs: {bs}\n")
            argv = ["sweep", "-c", str(cfg), "--out", str(tmp_path), "--axis", "lambda_ris",
                    "--grid", grid, "--metric", "e_r1"]
            result = runner.invoke(cli.main, argv, catch_exceptions=False)
            assert result.exit_code == 0, result.output
            (row,) = read_rows(tmp_path / "sweep.csv")
            values.append(float(row["value"]))
        assert values[0] == pytest.approx(values[1] * 10**152.5, rel=1e-9)
        # the exact mean 0.5 / sqrt(lambda_eff), the truncated rule's limit
        assert values[0] == pytest.approx(0.5 / math.sqrt(1e-311 * 100 / 101), rel=1e-5)

    @pytest.mark.parametrize("workload,reference", BENCHMARK_REFERENCES,
                             ids=[f"{w}-{r}" for w, r in BENCHMARK_REFERENCES])
    def test_benchmark_references_pass_the_harness_check(self, runner, tmp_path, workload, reference):
        # the benchmark's analytic or sweep command, judged by the harness's
        # own check (every reference row present, each value within 1e-6), so
        # tier-1 fails wherever the benchmark would: the two mc-* analytic
        # references and the five closed-form ones
        commands = {
            (w.name, c.reference): c
            for w in perfbench_module("workloads").WORKLOADS.values()
            for c in w.commands if c.kind in ("analytic", "sweep") and c.reference
        }
        assert sorted(commands) == BENCHMARK_REFERENCES and len(commands) == 7
        command = commands[workload, reference]
        checks = perfbench_module("checks")
        argv = command.argv(str(PERFBENCH / "configs" / command.config), str(tmp_path), seed=1)
        result = runner.invoke(cli.main, argv, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        expected = (PERFBENCH / "reference" / workload / f"{reference}.csv").read_text()
        assert checks.ANALYTIC_ABS_TOL == 1e-6
        assert checks.check_analytic_csv((tmp_path / f"{command.kind}.csv").read_text(), expected) == []

    @pytest.mark.parametrize("bs,grid", [
        ("25.0", "1.0e-306"), ("25.0", "1.0e-310"), ("1.0e-318", "1.0e-3"), ("1.0e+300", "1e-300"),
        ("1.7e+308", "5.0e-324"), ("5.0e-324", "1.7e+308"),
    ], ids=["squares-overflow", "subnormal-rho", "infinite-rho", "vanishing-rho", "subnormal-ris", "subnormal-bs"])
    def test_expected_r1_at_vanishing_density_ratio_is_exact(self, runner, tmp_path, bs, grid):
        # below rho = 8e-308 a tail radius squared per m**2 left the float
        # range, and at 1e-310 rho/pi is subnormal; where rho itself leaves it
        # the sweep exited 4, as it read the densities in units of the base
        # spacing. In the config's own units every case gives the exact mean
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"lambda_bs: {bs}\n")
        result = runner.invoke(cli.main, ["sweep", "-c", str(cfg), "--out", str(tmp_path),
                                          "--axis", "lambda_ris", "--grid", grid, "--metric", "e_r1"],
                               catch_exceptions=False)
        assert result.exit_code == 0, result.output
        (row,) = read_rows(tmp_path / "sweep.csv")
        exact = 0.5 * math.hypot(float(bs) ** -0.5, float(grid) ** -0.5) / math.sqrt(KM2_TO_M2)
        assert float(row["value"]) == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize("axis,grid,point", [
        ("lambda_ris", "1000,50000", lambda cfg, v: cfg.replace(lambda_ris=v)),
        ("T", "0,5", lambda cfg, v: cfg.replace(thresholds_db=(v,))),
    ], ids=["lambda_ris", "T"])
    def test_with_mc_rows_are_each_points_simulation(self, runner, tmp_path, axis, grid, point):
        # each grid point's mc rows are run_simulate of that point's config,
        # labelled with the axis
        result = runner.invoke(
            cli.main,
            ["sweep", "--out", str(tmp_path), "--axis", axis, "--grid", grid, "--with-mc",
             "--trials", "2000"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        base = NetworkConfig(n_trials=2000)
        for value in map(float, grid.split(",")):
            cfg = point(base, value)
            expected = [dataclasses.replace(r, axis_name=cli.SWEEP_AXES[axis], axis_value=value)
                        for r in cli.run_simulate(cfg)]
            assert len(expected) == len(montecarlo.METRICS) * len(cfg.thresholds_db)
            mc = [line for line in lines
                  if line.startswith("mc,") and line.split(",")[4] == cli._fmt(value)]
            assert mc == cli.rows_to_csv(expected).splitlines()[1:]

    def test_mean_reflected_power_sweep_is_monotone(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("beta: 1.0\n")  # the reference trend uses a lossless bank
        result = runner.invoke(
            cli.main,
            [
                "sweep", "-c", str(cfg), "--out", str(tmp_path), "--axis", "lambda_ris",
                "--grid", "500,2000,8000", "--metric", "e_p_ris",
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        vals = [float(r["value"]) for r in read_rows(tmp_path / "sweep.csv")]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_integral_float_counts_accepted(self, runner, tmp_path):
        result = runner.invoke(
            cli.main,
            ["sweep", "--out", str(tmp_path), "--axis", "N", "--grid", "4.0,16"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert {r["axis_value"] for r in rows} == {"4", "16"}

    def test_tiny_mu_mean_power_is_a_float(self, runner, tmp_path):
        # M**2 * beta * P_s / (2 * mu) overflowed to inf for a tiny mu. The
        # power is a sum of logs now: at mu = 1e-308 it is 6.9e307 W, a
        # float; at 1e-320 it is not, the typed-exit row [power-tiny-mu]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("mu: 1.0e-308\n")
        result = runner.invoke(cli.main, [*_SWEEP, "e_p_ris", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        value = float(read_rows(tmp_path / "sweep.csv")[0]["value"])
        expected = 1e308 * analytic.mean_reflected_power(NetworkConfig(lambda_ris=1000.0))
        assert value == pytest.approx(expected, rel=1e-9)

    def test_smallest_transmit_power_gives_a_mean_power(self, runner, tmp_path):
        # half of the smallest subnormal p_s rounds to 0, and its log ended
        # the sweep in a `math domain error` traceback with exit 1; the power
        # is about 1.7e-324 W, which rounds to 0 in a float
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("p_s: 5.0e-324\n")
        result = runner.invoke(cli.main, ["sweep", "-c", str(cfg), "--out", str(tmp_path), "--axis", "lambda_ris",
                                          "--grid", "1000", "--metric", "e_p_ris"])
        assert result.exit_code == 0, result.output
        assert float(read_rows(tmp_path / "sweep.csv")[0]["value"]) == 0.0
        # three times that p_s has a subnormal power, p_s / 2 times the unit power's
        unit = analytic.mean_reflected_power(NetworkConfig(p_s=1.0))
        power = analytic.mean_reflected_power(NetworkConfig(p_s=1.5e-323))
        assert power == pytest.approx(unit * 1.5e-323, rel=0, abs=5e-324) and power > 0.0

    @pytest.mark.parametrize("alpha", ["1.0e+9", "6.0e+158"])
    def test_huge_alpha_mean_power_is_bounded_work(self, runner, tmp_path, monkeypatch, alpha):
        # Gamma(1 - alpha/2, x) used to step down alpha/2 recurrences: 5e8 of
        # them (no answer in 30 s) or, at 6e158, a ZeroDivisionError traceback
        fraction_orders = []
        fraction = geometry._upper_gamma_fraction

        def recording_fraction(s, x):
            fraction_orders.append(s)
            return fraction(s, x)

        monkeypatch.setattr(geometry, "_upper_gamma_fraction", recording_fraction)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"alpha: {alpha}\n")
        result = runner.invoke(
            cli.main,
            ["sweep", "-c", str(cfg), "--out", str(tmp_path), "--axis", "lambda_ris",
             "--grid", "50000", "--metric", "e_p_ris"],
        )
        assert result.exit_code == 0, result.output
        # the continued fraction (at most 500 terms) is taken at the order
        # 1 - alpha/2 itself, so no recurrence step runs
        assert fraction_orders == [1.0 - float(alpha) / 2.0]
        value = float(read_rows(tmp_path / "sweep.csv")[0]["value"])
        # with eps = 1 only r1 just above 1 m counts: the moment tends to
        # 2*pi*lambda_eff*exp(-pi*lambda_eff) / (alpha - 2)
        lam_eff = 25e-6 * 5e-2 / (25e-6 + 5e-2)
        near = 2 * math.pi * lam_eff * math.exp(-math.pi * lam_eff) / (float(alpha) - 2.0)
        assert value == pytest.approx(math.exp(NetworkConfig().log_gain) * near, rel=1e-6, abs=0)

class TestHistCommand:
    def test_writes_overlay_column(self, runner, tmp_path):
        result = runner.invoke(
            cli.main,
            ["hist", "--quantity", "r0", "--trials", "2000", "--out", str(tmp_path)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        lines = (tmp_path / "hist_r0.csv").read_text().splitlines()
        assert lines[0].startswith("quantity,bin_left,bin_right,density,count,analytic_pdf")
        first = lines[1].split(",")
        assert float(first[5]) > 0  # analytic overlay populated

    def test_bins_are_checked_before_any_record_is_drawn(self, runner, tmp_path, monkeypatch):
        # a draw here fails the test: at 1e9 trials it would allocate tens of GB
        def draw(cfg):
            raise AssertionError(f"drew {cfg.n_trials} records before checking the bins")

        monkeypatch.setattr(montecarlo, "draw", draw)
        result = runner.invoke(
            cli.main,
            ["hist", "--quantity", "r0", "--trials", "1000000000", "--bins", "0", "--out", str(tmp_path)],
        )
        assert result.exit_code == cli.EXIT_CONFIG_ERROR, result.output
        assert result.stderr.splitlines() == ["config error: bins: must be from 1 to n_trials (1000000000), got 0"]
        assert not (tmp_path / "hist_r0.csv").exists()

    @pytest.mark.parametrize("quantity", ["r1", "p_ris_dbw"])
    def test_overflowing_near_field_leaves_stderr_empty(self, runner, tmp_path, quantity):
        # the drawn interferers' power overflows at this density; hist never
        # reads it, yet numpy's "overflow encountered in power" reached stderr
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lambda_bs: 1.7e+308\n")
        result = runner.invoke(
            cli.main,
            ["hist", "-c", str(cfg), "--quantity", quantity, "--trials", "2000",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert (tmp_path / f"hist_{quantity}.csv").exists()

    @pytest.mark.parametrize("densities", [
        "lambda_bs: 3.0e-318\n", "lambda_bs: 1.0e-318\n", "lambda_bs: 1.0e-305\n", "lambda_bs: 1.0e-300\n",
        "lambda_bs: 1.7e+308\n", "lambda_ris: 1.0e-6\n",
    ], ids=["bs-3e-318", "bs-1e-318", "bs-1e-305", "bs-1e-300", "bs-1.7e308", "ris-1e-6"])
    @pytest.mark.parametrize("quantity", ["r0", "r1", "r2"])
    def test_subnormal_base_density_gives_metres(self, runner, tmp_path, quantity, densities):
        # 3e-318 bases per km^2 is subnormal per m^2: the serving distance
        # squared in metres overflowed, so every r0 was inf and the histogram
        # empty, and the overlay's r**2 overflowed once r0 was finite; the r1
        # overlay's intensity lambda_bs * lambda_ris / (lambda_bs + lambda_ris)
        # underflowed in its product, so it read 0 in every bin. The other
        # extreme densities that the commands must survive join it
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(densities)
        result = runner.invoke(
            cli.main,
            ["hist", "-c", str(cfg), "--quantity", quantity, "--trials", "2000",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        rows = read_rows(tmp_path / f"hist_{quantity}.csv")
        assert {r["n_samples"] for r in rows} == {"2000"}
        widths = [float(r["bin_right"]) - float(r["bin_left"]) for r in rows]
        mass = sum(float(r["analytic_pdf"]) * w for r, w in zip(rows, widths))
        assert mass == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("densities", [
        "lambda_bs: 1.7e+308\nlambda_ris: 1.0e-3\n",
        "lambda_bs: 3.0e-318\nlambda_ris: 1.7e+308\n",
    ], ids=["ratio-overflows", "ratio-underflows"])
    def test_reflector_distance_at_extreme_density_ratios(self, runner, tmp_path, densities):
        # the reflector offset's variance lambda_bs / (2 * lambda_ris), in units
        # of the base spacing, was formed before its root: at an inf variance
        # every r2 was inf and the histogram empty with exit 0, at a 0 variance
        # every r2 was 0 and the overlay rejected the negative bin midpoints
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(densities)
        result = runner.invoke(
            cli.main,
            ["hist", "-c", str(cfg), "--quantity", "r2", "--trials", "2000", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        rows = read_rows(tmp_path / "hist_r2.csv")
        assert {r["n_samples"] for r in rows} == {"2000"}
        # the mean of a Rayleigh distance at intensity lam is 1 / (2 * sqrt(lam))
        mids = [0.5 * (float(r["bin_left"]) + float(r["bin_right"])) for r in rows]
        mean = sum(m * int(r["count"]) for m, r in zip(mids, rows)) / 2000
        lambda_ris_m2 = load_config(cfg).lambda_ris * KM2_TO_M2
        assert mean == pytest.approx(0.5 / math.sqrt(lambda_ris_m2), rel=0.05)

    def test_power_bins_spread_over_decibels(self, runner, tmp_path):
        # in watts, 99.97% of the samples fell in the first of 60 bins and
        # only 6 bins held any; the power law spans many decades
        result = runner.invoke(
            cli.main, ["hist", "--quantity", "p_ris_dbw", "--trials", "20000", "--out", str(tmp_path)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        counts = [int(r["count"]) for r in read_rows(tmp_path / "hist_p_ris_dbw.csv")]
        assert len(counts) == 60 and sum(counts) == 20000
        assert sum(c > 0 for c in counts) >= 40
        assert max(counts) <= 0.2 * 20000

    @pytest.mark.parametrize("yaml_text,trials", [
        # the powers in watts overflow: M**2 leaves the float range, or r1**-alpha
        (f"m_elements: {10**160}\n", "2000"),
        ("alpha: 1.0e+300\n", "2000"),
        # every power in watts underflows to 0, and numpy's widening of constant
        # values by 0.5 wrote 60 bins over [-0.5, 0.5] W
        ("lambda_bs: 3.0e-318\n", "2000"),
        # the powers in watts span only 0 to 5e-324: too narrow for finite densities
        ("beta: 2.85e-202\nmu: 3.25e+79\np_s: 4.19e-44\n", "1000"),
        # half of this p_s rounds to 0, whose log was a math domain error
        ("p_s: 5.0e-324\n", "1000"),
    ], ids=["huge-bank", "huge-alpha", "zero-watts", "subnormal-watts", "subnormal-p_s"])
    def test_power_beyond_the_watts_range_gives_finite_bins(self, runner, tmp_path, yaml_text, trials):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text)
        result = runner.invoke(
            cli.main,
            ["hist", "-c", str(cfg), "--quantity", "p_ris_dbw", "--trials", trials, "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        rows = read_rows(tmp_path / "hist_p_ris_dbw.csv")
        assert len(rows) == 60 and {r["n_samples"] for r in rows} == {trials}
        cells = np.array([[float(r[k]) for k in ("bin_left", "bin_right", "density")] for r in rows])
        assert np.isfinite(cells).all()
        mass = float(np.dot(cells[:, 1] - cells[:, 0], cells[:, 2]))
        assert mass == pytest.approx(1.0, abs=1e-6)


def _exit_row(id, config, argv, exit_code, stderr, name="cfg.yaml"):
    """A row of :meth:`TestTypedExits.test_typed_exit`.

    ``config`` is the text or bytes of the file ``name`` passed with ``-c``,
    or None for no file. ``stderr`` is the exact stderr lines, where
    ``{cfg}`` stands for the file's path, or a predicate of the stderr text.
    """
    return pytest.param(config, name, argv, exit_code, stderr, id=id)


_CONFIG, _PIPELINE, _USAGE = cli.EXIT_CONFIG_ERROR, cli.EXIT_PIPELINE_ERROR, click.UsageError.exit_code
_RATIO = "be a list of dB values t with 10**(t/10) a positive finite float, got "
_BEYOND_FLOAT = "1" + "0" * 400
_POWER = "pipeline error: mean reflected power exceeds the float range: about "


def _one_line(pattern):
    """A stderr predicate: one line that ``pattern`` matches in full."""
    return lambda err: re.fullmatch(pattern + "\n", err) is not None


_TYPED_EXITS = [
    # alpha = 2 has no interference integral
    _exit_row("alpha-two", "alpha: 2\n", ["analytic"], _CONFIG,
              ["config error: alpha: must be a finite number > 2, got 2"]),
    # a bare string used to be split into characters: "10" ran at 1 dB and 0 dB
    _exit_row("string-thresholds", 'thresholds_db: "10"\n', ["analytic"], _CONFIG,
              ["config error: thresholds_db: must be a list of numbers, got '10'"]),
    # 4000 dB overflowed 10**(t/10) (a traceback and exit 1, the gate-failed
    # code), -4000 dB reached the closed forms as T = 0 (exit 4), an empty
    # list wrote a header-only CSV or failed compare with exit 4, and true
    # and "5" ran as 1 dB and 5 dB
    *[_exit_row(f"thresholds-{command}-{case}", f"thresholds_db: {text}\n", [command, "--trials", "200"], _CONFIG,
                [f"config error: thresholds_db: must {problem}"])
      for command in ("analytic", "simulate", "compare")
      for case, text, problem in (
          ("empty", "[]", "hold at least one threshold, got []"), ("overflow", "[4000]", _RATIO + "[4000]"),
          ("underflow", "[-4000]", _RATIO + "[-4000]"), ("bool", "[true]", _RATIO + "[True]"),
          ("string", '["5"]', _RATIO + "['5']"))],
    # the second alpha won silently: the run went ahead at alpha 3 with exit 0
    *[_exit_row(f"repeated-key-{kind}", text, ["analytic"], _CONFIG,
                ["config error: cannot parse config file {cfg}: key 'alpha' repeated in one mapping"], name)
      for kind, name, text in (("yaml", "dup.yaml", "alpha: 4\nalpha: 3\n"),
                               ("json", "dup.json", '{"alpha": 4, "alpha": 3}'))],
    # math.isfinite raised OverflowError on these: a traceback and exit 1
    *[_exit_row(f"beyond-float-{field}", f"{field}: {_BEYOND_FLOAT}\n", ["analytic"], _CONFIG,
                [f"config error: {field}: must be {requirement}, got {_BEYOND_FLOAT}"])
      for field, requirement in (
          *((f, "a positive finite number") for f in ("lambda_bs", "lambda_ris", "p_s", "mu", "epsilon_floor")),
          ("beta", "a finite number in (0, 1]"), ("alpha", "a finite number > 2"))],
    # sqrt(N) used to raise OverflowError: a traceback and exit 1, the
    # gate-failed code
    *[_exit_row(f"beyond-float-n_elements-{command}", f"n_elements: {_BEYOND_FLOAT}\n", [command, "--trials", "200"],
                _CONFIG, [f"config error: n_elements: must convert to a float, got {_BEYOND_FLOAT}"])
      for command in ("analytic", "simulate")],
    # UnicodeDecodeError and RecursionError escaped load_config: a traceback
    # and exit 1, the gate-failed code. How the interpreter words a
    # RecursionError after "maximum recursion depth exceeded" differs across
    # Python versions, so those two rows match the line's end as a pattern
    _exit_row("not-utf-8", b"\xff\xfe\x00", ["analytic"], _CONFIG,
              ["config error: cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xff in position 0:"
               " invalid start byte"]),
    *[_exit_row(f"{kind}-{depth}-deep", b"[" * depth + b"]" * depth, ["analytic"], _CONFIG,
                _one_line(r"config error: cannot parse config file \S+: maximum recursion depth exceeded.*"), name)
      for kind, depth, name in (("yaml", 3000, "cfg.yaml"), ("json", 100_000, "cfg.json"))],
    # PyYAML's message quotes the line and marks the column beneath it: 5 to
    # 7 stderr lines
    *[_exit_row(f"yaml-{case}", text, ["analytic"], _CONFIG,
                [f"config error: cannot parse config file {{cfg}}: {problem}"])
      for case, text, problem in (
          ("syntax", "lambda_ris: [unclosed\n", "line 2, column 1: expected ',' or ']', but got '<stream end>'"),
          ("unhashable-key", "[1]: 2\n", "line 1, column 1: found unhashable key"),
          ("bad-tag", "a: !!map foo\n", "line 1, column 4: expected a mapping node, but found scalar"),
          ("unmarked", "alpha: 4\x00\n",
           'unacceptable character #x0000: special characters are not allowed in "<unicode string>", position 8'))],
    # `hist --quantity` is the one command that writes a histogram
    _exit_row("retired-hist-option", None, ["simulate", "--trials", "1000", "--hist", "r1"], _USAGE,
              lambda err: "No such option" in err and "--hist" in err),
    # one engagement rule remains: the reflector serves iff it is closer than the base
    _exit_row("retired-mode-option", None, ["simulate", "--trials", "1000", "--mode", "unconditional"], _USAGE,
              lambda err: "No such option" in err and "--mode" in err),
    # the per-element fade mode drew all M fades of every trial, so this
    # config never finished; the key is gone and the config is rejected
    _exit_row("retired-shared_ris_fade-key", "m_elements: 1000000000000\nshared_ris_fade: false\n", ["simulate"],
              _CONFIG, ["config error: unknown config key: shared_ris_fade"]),
    # `false` engaged the reflector on every trial; the one rule left is
    # r2 < r0, and the key is rejected whatever its value
    _exit_row("retired-conditional_path_b-key", "conditional_path_b: true\n", ["simulate"], _CONFIG,
              ["config error: unknown config key: conditional_path_b"]),
    # the power is binned in dBW now; the old name must not be read as watts
    _exit_row("retired-p_ris-quantity", None, ["hist", "--quantity", "p_ris", "--trials", "1000"], _USAGE,
              lambda err: "'p_ris' is not one of" in err),
    # approx2 overshoots the simulated reflected-path coverage at N = 2,
    # alpha = 3 by more than its margin (TestCompare); moving the
    # reflected-path gates to a threshold outside the run used to turn that
    # failure into exit 0
    _exit_row("retired-compare_tolerances-key",
              "n_elements: 2\nalpha: 3\nn_trials: 5000\ncompare_tolerances: {gamma_b_gate_t_db: 99}\n", ["compare"],
              _CONFIG, ["config error: unknown config key: compare_tolerances"]),
    # both minimums used to surface as a pipeline error (exit 4)
    _exit_row("trial-minimum-simulate", None, ["simulate", "--trials", "50"], _CONFIG,
              ["config error: n_trials: must be at least 100 to estimate coverage, got 50"]),
    _exit_row("trial-minimum-hist", None, ["hist", "--quantity", "r0", "--trials", "500"], _CONFIG,
              ["config error: n_trials: must be at least 1000 for a histogram, got 500"]),
    # more bins than trials used to be accepted, and 2**62 of them ended in
    # numpy's "array is too big" traceback with exit 1
    *[_exit_row(f"bins-{bins}", None, ["hist", "--quantity", "r0", "--trials", "1000", "--bins", bins], _CONFIG,
                [f"config error: bins: must be from 1 to n_trials (1000), got {bins}"])
      for bins in ("0", "-3", "1001", "4611686018427387904")],
    # a moment has no simulation: --with-mc was ignored, and the sweep wrote
    # its one analytic row with exit 0
    *[_exit_row(f"with-mc-{metric}", None, [*_SWEEP, metric, "--with-mc"], _CONFIG,
                [f"config error: metric: {metric} is a moment: it takes neither --axis T nor --with-mc"])
      for metric in ("e_r1", "e_p_ris")],
    # int() used to truncate 8.5 to 8 while the row kept the label 8.5
    *[_exit_row(f"fractional-{axis}", None, ["sweep", "--axis", axis, "--grid", "8.5,16"], _CONFIG,
                [f"config error: {field}: must be an integer >= 1, got 8.5"])
      for axis, field in (("N", "n_elements"), ("M", "m_elements"))],
    _exit_row("nonincreasing-grid", None, ["sweep", "--axis", "M", "--grid", "100,100"], _CONFIG,
              ["config error: grid: must be nonempty and strictly increasing"]),
    # E[r1**-alpha] above the float range used to escape as an OverflowError
    _exit_row("power-moment-overflow", "alpha: 5000\nlambda_ris: 1000\nepsilon_floor: 0.5\n", [*_SWEEP, "e_p_ris"],
              _PIPELINE, [_POWER + "1e+1501 W"]),
    # the power in watts leaves the float range, though log G does not
    _exit_row("power-huge-bank", None, ["sweep", "--axis", "M", "--grid", "1e160", "--metric", "e_p_ris"], _PIPELINE,
              [_POWER + "1e+316 W"]),
    # M**2 * beta * P_s / (2 * mu) overflowed to inf for a tiny mu, and the
    # sweep wrote the value `inf` with exit 0; the message blamed mu at any
    # cause, as it read "(mu=1)" at the tiny floor
    _exit_row("power-tiny-mu", "mu: 1.0e-320\n", [*_SWEEP, "e_p_ris"], _PIPELINE, [_POWER + "1e+320 W"]),
    _exit_row("power-tiny-floor", "epsilon_floor: 1.0e-200\n", [*_SWEEP, "e_p_ris"], _PIPELINE, [_POWER + "1e+400 W"]),
    # at alpha = 1e308 the power's log is itself inf, and math.exp(inf)
    # raises nothing: the sweep wrote the value `inf` with exit 0
    _exit_row("power-largest-alpha", "alpha: 1.0e+308\nepsilon_floor: 1.0e-10\n", [*_SWEEP, "e_p_ris"], _PIPELINE,
              [_POWER + "1e+inf W"]),
    # lambda_bs / lambda_ris near 1e618: the reflector is farther than the
    # float range in units of the base spacing. The power read 0 everywhere
    # and the distance histograms were empty, with exit 0
    *[_exit_row(f"reflector-beyond-float-{quantity}", "lambda_bs: 1.7e+308\nlambda_ris: 1.0e-310\n",
                ["hist", "--quantity", quantity, "--trials", "2000"], _PIPELINE,
                [f"pipeline error: the {quantity} values exceed the float range"])
      for quantity in ("r1", "r2", "p_ris_dbw")],
    # alpha * log(r1 / spacing) leaves the float range, so the power in dBW does
    _exit_row("power-dbw-largest-alpha", "alpha: 1.0e+308\n", ["hist", "--quantity", "p_ris_dbw", "--trials", "2000"],
              _PIPELINE, ["pipeline error: the p_ris_dbw values exceed the float range"]),
]


class TestTypedExits:
    @pytest.mark.parametrize("config, name, argv, exit_code, stderr", _TYPED_EXITS)
    def test_typed_exit(self, runner, tmp_path, config, name, argv, exit_code, stderr):
        # the exit contract: the documented code with no traceback, one
        # stderr line per error, no warning, and no output written: a fresh
        # --out is never created
        cfg = tmp_path / name
        if config is not None:
            (cfg.write_bytes if isinstance(config, bytes) else cfg.write_text)(config)
            argv = [*argv, "-c", str(cfg)]
        out = tmp_path / "out"
        result, caught = _invoke(runner, [*argv, "--out", str(out)])
        assert result.exit_code == exit_code and isinstance(result.exception, SystemExit), result.output
        if callable(stderr):
            assert stderr(result.stderr), result.stderr
        else:
            assert result.stderr.splitlines() == [line.replace("{cfg}", str(cfg)) for line in stderr]
        assert caught == []
        assert not out.exists()

    @pytest.mark.parametrize("target,argv", [
        ((geometry, "expected_r1"),
         ["sweep", "--axis", "lambda_ris", "--grid", "500,1000", "--metric", "e_r1"]),
        ((analytic, "direct_factors"), ["analytic"]),
        ((montecarlo, "empirical_histogram"), ["hist", "--quantity", "r1", "--trials", "1000"]),
    ], ids=["sweep", "analytic", "hist"])
    def test_numerical_error_is_pipeline_error(self, runner, tmp_path, monkeypatch, target, argv):
        def boom(*args, **kwargs):
            raise NumericalError("quadrature did not converge")

        monkeypatch.setattr(*target, boom)
        result = runner.invoke(cli.main, argv + ["--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == ["pipeline error: quadrature did not converge"]


    @pytest.mark.parametrize("command,out,blocker", [
        ("analytic", "taken", lambda root: (root / "taken").write_text("")),
        ("analytic", "taken/sub", lambda root: (root / "taken").write_text("")),
        ("analytic", "out", lambda root: (root / "out" / "analytic.csv").mkdir(parents=True)),
        ("compare", "out", lambda root: (root / "out" / "compare_report.json").mkdir(parents=True)),
    ], ids=["out-is-a-file", "out-under-a-file", "csv-is-a-directory", "report-is-a-directory"])
    def test_unwritable_out_is_config_error(self, runner, tmp_path, command, out, blocker):
        # these raised FileExistsError, NotADirectoryError and IsADirectoryError:
        # a traceback and exit 1, the gate-failed code; compare wrote
        # compare.csv before its report failed
        blocker(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        result = runner.invoke(cli.main, [command, "--trials", "200", "--out", str(tmp_path / out)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("config error: --out: cannot write ")
        assert sorted(tmp_path.rglob("*")) == before

    @staticmethod
    def _disk_full_on_call(monkeypatch, failing_call: int) -> None:
        """Make the ``failing_call``-th ``Path.write_text`` from here on raise ENOSPC."""
        write_text = Path.write_text
        calls = []

        def disk_full(path, *args, **kwargs):
            calls.append(path)
            if len(calls) == failing_call:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full)

    def test_failed_write_leaves_no_output(self, runner, tmp_path, monkeypatch):
        # compare wrote compare.csv, then failed on its report and exited 2
        # with compare.csv left behind and no report
        self._disk_full_on_call(monkeypatch, 2)
        out = tmp_path / "out"
        result = runner.invoke(cli.main, ["compare", "--trials", "1000", "--out", str(out)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == [f"config error: --out: cannot write {out}: {os.strerror(errno.ENOSPC)}"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("failing_call", [1, 2], ids=["first-write", "second-write"])
    def test_failed_write_keeps_the_previous_outputs(self, runner, tmp_path, monkeypatch, failing_call):
        # all or none holds over a previous run's files too: neither is
        # replaced until both new ones are written
        out = tmp_path / "out"
        out.mkdir()
        previous = {name: f"previous {name}\n" for name in ("compare.csv", "compare_report.json")}
        for name, text in previous.items():
            (out / name).write_text(text)
        self._disk_full_on_call(monkeypatch, failing_call)
        result = runner.invoke(cli.main, ["compare", "--trials", "1000", "--out", str(out)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert len(result.stderr.splitlines()) == 1
        assert {path.name: path.read_text() for path in out.iterdir()} == previous

    @pytest.mark.parametrize("target", ["missing/report.json", "elsewhere", "elsewhere/kept.json"],
                             ids=["dangling", "to-a-directory", "to-a-file"])
    def test_symlinked_output_name_is_replaced(self, runner, tmp_path, target):
        # the report was written through a dangling link, into a directory
        # that does not exist: exit 2, with compare.csv left behind; a link to
        # a directory was rejected as a directory; and a link to a file wrote
        # over that file
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "kept.json").write_text("kept\n")
        (out / "compare_report.json").symlink_to(tmp_path / target)
        result = runner.invoke(cli.main, ["compare", "--trials", "1000", "--out", str(out)])
        assert result.exit_code in (0, cli.EXIT_GATE_FAILED), result.output
        assert not (out / "compare_report.json").is_symlink()
        assert json.loads((out / "compare_report.json").read_text())["gates"]
        assert sorted(path.name for path in out.iterdir()) == ["compare.csv", "compare_report.json"]
        assert sorted(tmp_path.iterdir()) == [tmp_path / "elsewhere", out]
        assert [(path.name, path.read_text()) for path in (tmp_path / "elsewhere").iterdir()] == [("kept.json", "kept\n")]

class TestRowFormatting:
    def test_rows_sorted_and_stable(self):
        rows = [
            cli.ResultRow("mc", "gamma_o", 5.0, "", None, 0.5, 0.01, 100, "h", 1),
            cli.ResultRow("mc", "gamma_o", 0.0, "", None, 0.7, 0.01, 100, "h", 1),
            cli.ResultRow("analytic_q2", "gamma_o", 5.0, "", None, 0.68, None, None, "h", 1),
        ]
        text = cli.rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[1].startswith("analytic_q2")
        assert lines[2].split(",")[2] == "0"
        # analytic rows leave the simulation-only columns empty
        assert lines[1].split(",")[6] == "" and lines[1].split(",")[7] == ""

    def test_infinite_values_render(self):
        assert cli._fmt(math.inf) == "inf"
        assert cli._fmt(None) == ""
