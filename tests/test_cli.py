"""Command-line surface: rows, gates, exit codes, output stability."""
from __future__ import annotations

import ast
import dataclasses
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


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


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

    def test_alpha_two_exits_config_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("alpha: 2\n")
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert "alpha" in result.output

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

    @pytest.mark.parametrize(
        "yaml_text", ["alpha: 5000\nthresholds_db: [0]\n", "thresholds_db: [-3200]\n"],
        ids=["alpha5000", "subnormal-threshold"],
    )
    def test_approx1_threshold_underflow(self, runner, tmp_path, yaml_text):
        # T * rho**alpha underflows to 0 here; the approx1 row used to abort the
        # command with "T must be positive"
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml_text)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg_path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "analytic.csv")
        assert len(rows) == len(cli.GATES)
        assert all(0.0 <= float(row["value"]) <= 1.0 for row in rows)

    @pytest.mark.parametrize(
        "floor", ["2.5e+3", "3.0e+3", "1.0e+4", "1.0e+160", "1.0e-200"],
        ids=["rho-overflow", "rho-inf", "moment-zero", "x-overflow", "moment-log"],
    )
    def test_extreme_floor_exits_zero(self, runner, tmp_path, floor):
        # the command used to end in an OverflowError (rho**alpha) or a
        # ZeroDivisionError (E[r1**-2] = 0) traceback with exit 1, the
        # gate-failed code; to write nan rows (rho = inf); to exit 4 when
        # pi*lambda_eff*eps**2 overflowed; or, at the tiny floor, to report
        # E[r1**-2] beyond the float range with exit 4
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(f"epsilon_floor: {floor}\n")
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg_path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "analytic.csv")
        assert len(rows) == len(cli.GATES) * len(NetworkConfig().thresholds_db)
        assert all(0.0 <= float(row["value"]) <= 1.0 for row in rows)

    @pytest.mark.parametrize("yaml_text, limit", [
        ("mu: 1.0e-300\n", 1.0),
        ("mu: 1.0e+300\n", 0.0),
        ("mu: 1.0e-300\nalpha: 2.01\n", 1.0),
    ], ids=["tiny", "huge", "tiny-alpha2.01"])
    def test_extreme_mu_takes_the_limit(self, runner, tmp_path, yaml_text, limit):
        # mu**2 used to end in a ZeroDivisionError (tiny mu) or an
        # OverflowError (huge mu) traceback with exit 1, the gate-failed code;
        # at alpha 2.01 the intermediate mu**(-4/alpha) overflowed (exit 4)
        # although kappa, about 1e302, does not
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml_text)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg_path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "analytic.csv")
        reflected = [float(r["value"]) for r in rows if r["engine"] in ("approx1", "approx2")]
        assert len(reflected) == 2 * len(NetworkConfig().thresholds_db)
        assert all(abs(value - limit) < 1e-9 for value in reflected)

    @pytest.mark.parametrize("yaml_text", [
        # every converted intensity underflowed to 0, giving 0/0
        "lambda_ris: 1.24e+38\nmu: 9.08e+296\np_s: 1.14e-261\nepsilon_floor: 1.47e-219\n",
        # the converted reflector intensity overflowed to inf, giving inf/inf
        "n_elements: 1\nm_elements: 1" + "0" * 66 + "\nmu: 4.74e-167\nlambda_ris: 5.63e+85\n",
    ], ids=["all-underflow", "ris-overflow"])
    def test_reflected_rows_are_never_nan(self, runner, tmp_path, yaml_text):
        # approx1 and approx2 used to write nan rows with exit 0; kappa is
        # about 1e-111 and 1e230 here, both inside the float range
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml_text)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg_path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "analytic.csv")
        assert len(rows) == len(cli.GATES) * len(NetworkConfig().thresholds_db)
        assert all(0.0 <= float(row["value"]) <= 1.0 for row in rows)

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

    def test_string_thresholds_exit_config_error(self, runner, tmp_path):
        # a bare string used to be split into characters: "10" ran at 1 dB and 0 dB
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text('thresholds_db: "10"\n')
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == [
            "config error: thresholds_db: must be a list of numbers, got '10'"
        ]
        assert not (tmp_path / "analytic.csv").exists()

    def test_underflowing_moment_writes_full_reflected_coverage(self, runner, tmp_path):
        # the floored moment underflowed to 0 in SI units, so approx1 and
        # approx2 wrote 0 where kappa is about 1e576
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "lambda_bs: 3.0e-318\nlambda_ris: 1.0e+308\nepsilon_floor: 2.8e+162\n"
            "mu: 1.0e-308\nm_elements: 1" + "0" * 154 + "\n"
        )
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "analytic.csv")
        approx = [r["value"] for r in rows if r["engine"] in ("approx1", "approx2")]
        assert len(approx) == 2 * len(NetworkConfig().thresholds_db) and set(approx) == {"1"}

    @pytest.mark.parametrize("extra, approx_value", [
        ("", "1"),  # kappa is about 1.39: approx1 and approx2 wrote 0
        ("lambda_bs: 1.0e+8\nepsilon_floor: 1.0e+200\n", "0"),  # the moment underflows: -inf + inf raised
    ], ids=["defaults", "dense-bases-huge-floor"])
    def test_largest_alpha_writes_reflected_coverage(self, runner, tmp_path, extra, approx_value):
        # log K = log mu - log G - (alpha/2) * log(pi * lambda_bs) overflows past alpha ~ 4e307
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("alpha: 1.0e+308\n" + extra)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "analytic.csv")
        approx = [r["value"] for r in rows if r["engine"] in ("approx1", "approx2")]
        assert len(approx) == 2 * len(NetworkConfig().thresholds_db) and set(approx) == {approx_value}

    @pytest.mark.parametrize("command", ["analytic", "compare"])
    def test_huge_reflector_bank_gives_numbers(self, runner, tmp_path, command):
        # M is an unbounded integer whose M**2 leaves the float range; the
        # engines read log G = 2 log M + ..., so both commands used to exit 4
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("m_elements: 1" + "0" * 160 + "\nn_trials: 2000\n")
        with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
            warnings.simplefilter("always")
            result = runner.invoke(cli.main, [command, "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code in (0, cli.EXIT_GATE_FAILED), result.output
        assert result.stderr == "" and caught == []
        rows = read_rows(tmp_path / f"{command}.csv")
        # a bank this large makes every reflected-path approximation 1
        assert {r["value"] for r in rows if r["engine"] in ("approx1", "approx2")} == {"1"}

    def test_overflowing_interference_leaves_stderr_empty(self, runner, tmp_path):
        # the interference factor overflows to its limit inf, so the rows of
        # I(T) itself are 0; numpy's overflow warning used to reach stderr
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("alpha: 2.00000000001\nthresholds_db: [2970]\n")
        with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
            warnings.simplefilter("always")
            result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
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
            dict.fromkeys(montecarlo.METRICS, np.full(len(records), math.nan)) for _ in direct])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 2000\n")
        with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
            warnings.simplefilter("always")
            result = runner.invoke(cli.main, [command, "-c", str(cfg), "--out", str(tmp_path)])
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
        with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
            warnings.simplefilter("always")
            result = runner.invoke(cli.main, ["simulate", "-c", str(cfg), "--out", str(tmp_path)])
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

    def test_sparse_bases_keep_their_direct_paths(self, runner, tmp_path):
        # at 1e-300 bases per km^2 the serving distance's alpha-th power left
        # the float range in metres, and gamma_o read 1.0000 against 0.2138
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lambda_bs: 1.0e-300\nthresholds_db: [20.0]\n")
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

    def test_hist_option_is_gone(self, runner, tmp_path):
        # `hist --quantity` is the one command that writes a histogram
        result = runner.invoke(
            cli.main, ["simulate", "--trials", "1000", "--hist", "r1", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == click.UsageError.exit_code
        assert "No such option" in result.stderr and "--hist" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_mode_option_is_gone(self, runner, tmp_path):
        # one engagement rule remains: the reflector serves iff it is closer than the base
        result = runner.invoke(
            cli.main, ["simulate", "--trials", "1000", "--mode", "unconditional",
                       "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == click.UsageError.exit_code
        assert "No such option" in result.stderr and "--mode" in result.stderr
        assert not (tmp_path / "o").exists()
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

    def test_per_element_fade_key_is_unknown(self, runner, tmp_path):
        # the per-element fade mode drew all M fades of every trial, so this
        # config never finished; the key is gone and the config is rejected
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("m_elements: 1000000000000\nshared_ris_fade: false\n")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == ["config error: unknown config key: shared_ris_fade"]
        assert not (tmp_path / "o").exists()

    def test_conditional_path_b_key_is_unknown(self, runner, tmp_path):
        # `false` engaged the reflector on every trial; the one rule left is
        # r2 < r0, and the key is rejected whatever its value
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("conditional_path_b: true\n")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == ["config error: unknown config key: conditional_path_b"]
        assert not (tmp_path / "o").exists()

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
        cfg.write_text(cfg.read_text() + "compare_tolerances: {gamma_b_gate_t_db: 99}\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path / "b")])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == ["config error: unknown config key: compare_tolerances"]
        assert not (tmp_path / "b").exists()

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


def _run_fresh(code: str, *args: str, returncode: int = 0) -> str:
    """Stdout of ``code`` run in a fresh interpreter with the package's ``src`` on PYTHONPATH.

    The interpreter must exit with ``returncode``.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert out.returncode == returncode, out.stderr
    return out.stdout


def _loaded_probe(package: str) -> str:
    """Code that runs the command in sys.argv[1:], then prints whether ``package`` or a submodule is loaded.

    The line is printed at exit, so a command that ends in ``sys.exit`` prints it too.
    """
    return (
        "import atexit, sys\n"
        f"atexit.register(lambda: print(any(m == {package!r} or m.startswith({package + '.'!r})"
        " for m in sys.modules)))\n"
        "from riscov import cli\n"
        "cli.main.main(args=sys.argv[1:], prog_name='riscov', standalone_mode=False)\n"
    )


_SCIPY_PROBE = _loaded_probe("scipy")
_NUMPY_PROBE = _loaded_probe("numpy")
_NUMPY_RANDOM_PROBE = _loaded_probe("numpy.random")
_MC_DENSE_CONFIG = PERFBENCH / "configs" / "mc-dense.yaml"


class TestColdImport:
    def test_cli_import_leaves_integrators_unloaded(self):
        # importing scipy.special alone costs about half of a cold start, and
        # scipy.integrate pulls in scipy.optimize; no code path loads either
        code = (
            "import sys, riscov.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))"
        )
        assert _run_fresh(code).strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["analytic"],
        ["compare", "--trials", "1000"],
        ["sweep", "--axis", "lambda_ris", "--grid", "1000", "--metric", "e_p_ris"],
        ["hist", "--quantity", "r1", "--trials", "1000"],
        ["sweep", "--axis", "lambda_ris", "--grid", "1000", "--metric", "e_r1"],
    ], ids=["analytic", "compare", "sweep-e_p_ris", "hist-r1", "sweep-e_r1"])
    def test_no_command_loads_scipy(self, tmp_path, argv):
        out = _run_fresh(_SCIPY_PROBE, *argv, "--out", str(tmp_path))
        assert out.splitlines()[-1] == "False"

    def test_probe_sees_scipy_when_loaded(self, tmp_path):
        # positive control for the probe above
        code = "import scipy.special\n" + _SCIPY_PROBE
        argv = ["sweep", "--axis", "lambda_ris", "--grid", "1000", "--metric", "e_r1"]
        out = _run_fresh(code, *argv, "--out", str(tmp_path))
        assert out.splitlines()[-1] == "True"

    def test_cli_import_leaves_numpy_unloaded(self):
        # numpy is most of a cold start, and loading and checking a config needs none of it
        code = "import sys, riscov.cli; print('numpy' in sys.modules)"
        assert _run_fresh(code).strip() == "False"

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_leave_numpy_unloaded(self, flag):
        assert _run_fresh(_NUMPY_PROBE, flag).splitlines()[-1] == "False"

    def test_config_error_leaves_numpy_unloaded(self, tmp_path):
        # the benchmark's set-up sample: load a config, reject it and exit 2
        argv = ["analytic", "-c", str(_MC_DENSE_CONFIG), "--trials", "0", "--out", str(tmp_path)]
        out = _run_fresh(_NUMPY_PROBE, *argv, returncode=cli.EXIT_CONFIG_ERROR)
        assert out.splitlines()[-1] == "False"

    def test_closed_form_modules_leave_numpy_unloaded(self):
        # numpy is the Monte-Carlo engine's dependency; the closed forms use math alone
        code = "import sys, riscov.analytic, riscov.geometry; print('numpy' in sys.modules)"
        assert _run_fresh(code).strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["analytic"],
        ["sweep", "--axis", "lambda_ris", "--grid", "1000,5000"],
        ["sweep", "--axis", "lambda_ris", "--grid", "1000", "--metric", "e_p_ris"],
        ["sweep", "--axis", "lambda_ris", "--grid", "1000", "--metric", "e_r1"],
    ], ids=["analytic", "sweep-coverage", "sweep-e_p_ris", "sweep-e_r1"])
    def test_closed_form_commands_leave_numpy_unloaded(self, tmp_path, argv):
        # the import costs a closed-form command most of its cold start
        out = _run_fresh(_NUMPY_PROBE, *argv, "--out", str(tmp_path))
        assert out.splitlines()[-1] == "False"

    @pytest.mark.parametrize("argv", [
        ["compare", "--trials", "1000"],
        ["hist", "--quantity", "r1", "--trials", "1000"],
    ], ids=["compare", "hist"])
    def test_probe_sees_numpy_when_a_command_computes(self, tmp_path, argv):
        # positive control for the probes above: the Monte-Carlo engine loads numpy
        out = _run_fresh(_NUMPY_PROBE, *argv, "--out", str(tmp_path))
        assert out.splitlines()[-1] == "True"

    @pytest.mark.parametrize("argv", [
        ["compare", "--trials", "2000"],
        ["simulate", "--trials", "2000"],
        ["hist", "--quantity", "r1", "--trials", "2000"],
    ], ids=["compare", "simulate", "hist"])
    def test_no_command_loads_numpy_random(self, tmp_path, argv):
        # the lattice's shifts come from the standard library's generator,
        # and numpy's would cost peak memory; the numpy probe above is this
        # probe's positive control
        out = _run_fresh(_NUMPY_RANDOM_PROBE, *argv, "--out", str(tmp_path))
        assert out.splitlines()[-1] == "False"

    def test_only_the_engine_imports_numpy(self):
        # the probes above see module-level imports and a few commands; this
        # scan also finds an import inside a function, at any depth, and skips
        # only the `if TYPE_CHECKING:` blocks, which never run
        importers = set()
        for path in Path(riscov.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            typing_only = {id(node) for block in ast.walk(tree)
                           if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
                           for stmt in block.body for node in ast.walk(stmt)}
            for node in ast.walk(tree):
                if id(node) in typing_only:
                    continue
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.partition(".")[0] == "numpy" for name in names):
                    importers.add(path.name)
        assert importers == {"montecarlo.py"}

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # the engine runs in one process, so nothing needs the 10 ms import
        code = "import sys, riscov.cli; print('multiprocessing' in sys.modules)"
        assert _run_fresh(code).strip() == "False"

    @pytest.mark.parametrize("command", [
        ["simulate"], ["compare"], ["hist", "--quantity", "r1"],
    ], ids=["simulate", "compare", "hist"])
    def test_no_command_loads_multiprocessing(self, tmp_path, monkeypatch, command):
        # a RISCOV_WORKERS left in the environment by an older release starts
        # no pool: ten blocks of trials run in this process
        monkeypatch.setenv("RISCOV_WORKERS", "2")
        argv = [*command, "--trials", "20000", "--out", str(tmp_path)]
        out = _run_fresh(_loaded_probe("multiprocessing"), *argv)
        assert out.splitlines()[-1] == "False"


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

    def test_e_r1_sweep_passes_the_benchmark_output_check(self, runner, tmp_path):
        # the benchmark's sweep-e_r1 command, judged by the harness's own check
        # (every reference row present, each value within 1e-6 m), so tier-1
        # fails wherever the benchmark would; nothing is written under perfbench/
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        argv = ["sweep", "-c", str(PERFBENCH / "configs" / "closed-form-a4.yaml"), "--out", str(tmp_path),
                "--axis", "lambda_ris", "--grid", "500,1000,4000", "--metric", "e_r1"]
        result = runner.invoke(cli.main, argv, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        reference = (PERFBENCH / "reference" / "closed-form" / "sweep-e_r1.csv").read_text()
        assert checks.ANALYTIC_ABS_TOL == 1e-6
        assert checks.check_analytic_csv((tmp_path / "sweep.csv").read_text(), reference) == []

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

    @pytest.mark.parametrize("axis", ["N", "M"])
    def test_fractional_count_rejected(self, runner, tmp_path, axis):
        # int() used to truncate 8.5 to 8 while the row kept the label 8.5
        result = runner.invoke(
            cli.main,
            ["sweep", "--out", str(tmp_path), "--axis", axis, "--grid", "8.5,16"],
        )
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert "8.5" in result.stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_integral_float_counts_accepted(self, runner, tmp_path):
        result = runner.invoke(
            cli.main,
            ["sweep", "--out", str(tmp_path), "--axis", "N", "--grid", "4.0,16"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert {r["axis_value"] for r in rows} == {"4", "16"}

    def test_moment_overflow_is_pipeline_error(self, runner, tmp_path):
        # E[r1**-alpha] above the float range used to escape as an OverflowError
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("alpha: 5000\nlambda_ris: 1000\nepsilon_floor: 0.5\n")
        result = runner.invoke(
            cli.main,
            ["sweep", "-c", str(cfg), "--out", str(tmp_path), "--axis", "lambda_ris",
             "--grid", "1000", "--metric", "e_p_ris"],
        )
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("pipeline error: mean reflected power exceeds the float range")

    def test_huge_reflector_bank_is_pipeline_error(self, runner, tmp_path):
        # the power in watts leaves the float range, though log G does not
        result = runner.invoke(
            cli.main,
            ["sweep", "--out", str(tmp_path), "--axis", "M", "--grid", "1e160",
             "--metric", "e_p_ris"],
        )
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("pipeline error: mean reflected power exceeds the float range")

    def test_overflowing_mean_power_is_pipeline_error(self, runner, tmp_path):
        # M**2 * beta * P_s / (2 * mu) overflowed to inf for a tiny mu, and
        # the sweep wrote the value `inf` with exit 0. The power is a sum of
        # logs now: at mu = 1e-308 it is 6.9e307 W, a float; at 1e-320 it is not
        args = ["--axis", "lambda_ris", "--grid", "1000", "--metric", "e_p_ris"]
        for mu in ("1.0e-308", "1.0e-320"):
            cfg = tmp_path / f"{mu}.yaml"
            cfg.write_text(f"mu: {mu}\n")
            result = runner.invoke(cli.main, ["sweep", "-c", str(cfg), "--out", str(tmp_path / mu), *args])
            if mu == "1.0e-308":
                assert result.exit_code == 0, result.output
                value = float(read_rows(tmp_path / mu / "sweep.csv")[0]["value"])
                expected = 1e308 * analytic.mean_reflected_power(NetworkConfig(lambda_ris=1000.0))
                assert value == pytest.approx(expected, rel=1e-9)
                continue
            assert result.exit_code == cli.EXIT_PIPELINE_ERROR
            assert isinstance(result.exception, SystemExit)
            assert len(result.stderr.splitlines()) == 1
            assert result.stderr.startswith("pipeline error: mean reflected power")
            assert not (tmp_path / mu / "sweep.csv").exists()

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

    def test_nonincreasing_grid_rejected(self, runner, tmp_path):
        result = runner.invoke(
            cli.main,
            ["sweep", "--out", str(tmp_path), "--axis", "M", "--grid", "100,100"],
        )
        assert result.exit_code == cli.EXIT_CONFIG_ERROR


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

    @pytest.mark.parametrize("bins", ["0", "-3", "1001", "4611686018427387904"])
    def test_nonpositive_bins_is_config_error(self, runner, tmp_path, bins):
        # more bins than trials used to be accepted, and 2**62 of them ended
        # in numpy's "array is too big" traceback with exit 1
        result = runner.invoke(
            cli.main,
            ["hist", "--quantity", "r0", "--trials", "1000", "--bins", bins,
             "--out", str(tmp_path)],
        )
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == [
            f"config error: bins: must be from 1 to n_trials (1000), got {bins}"
        ]
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
        # extreme densities of the installed-package smoke test join it
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

    @pytest.mark.parametrize("quantity", ["r1", "r2", "p_ris_dbw"])
    def test_reflector_beyond_float_range_is_pipeline_error(self, runner, tmp_path, quantity):
        # lambda_bs / lambda_ris near 1e618: the reflector is farther than the
        # float range in units of the base spacing. The power read 0 everywhere
        # and the distance histograms were empty, with exit 0
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lambda_bs: 1.7e+308\nlambda_ris: 1.0e-310\n")
        result = runner.invoke(
            cli.main,
            ["hist", "-c", str(cfg), "--quantity", quantity, "--trials", "2000",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR
        assert result.stderr.splitlines() == [f"pipeline error: the {quantity} values exceed the float range"]
        assert not (tmp_path / f"hist_{quantity}.csv").exists()

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

    def test_watts_quantity_is_usage_error(self, runner, tmp_path):
        # the power is binned in dBW now; the old name must not be read as watts
        result = runner.invoke(cli.main, ["hist", "--quantity", "p_ris", "--trials", "1000", "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert "'p_ris' is not one of" in result.stderr
        assert not (tmp_path / "hist_p_ris.csv").exists()


class TestTypedExits:
    @pytest.mark.parametrize("thresholds", ["[]", "[4000]", "[-4000]", "[true]", '["5"]'],
                             ids=["empty", "overflow", "underflow", "bool", "string"])
    @pytest.mark.parametrize("command", ["analytic", "simulate", "compare"])
    def test_thresholds_without_a_ratio_are_config_errors(self, runner, tmp_path, command, thresholds):
        # 4000 dB overflowed 10**(t/10) (a traceback and exit 1, the gate-failed
        # code), -4000 dB reached the closed forms as T = 0 (exit 4), an empty
        # list wrote a header-only CSV or failed compare with exit 4, and true
        # and "5" ran as 1 dB and 5 dB
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"thresholds_db: {thresholds}\n")
        result = runner.invoke(
            cli.main, [command, "-c", str(cfg), "--trials", "200", "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("config error: thresholds_db: must ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, text", [
        ("dup.yaml", "alpha: 4\nalpha: 3\n"), ("dup.json", '{"alpha": 4, "alpha": 3}'),
    ], ids=["yaml", "json"])
    def test_repeated_config_key_is_config_error(self, runner, tmp_path, name, text):
        # the second alpha won silently: the run went ahead at alpha 3 with exit 0
        cfg = tmp_path / name
        cfg.write_text(text)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        message = f"cannot parse config file {cfg}: key 'alpha' repeated in one mapping"
        assert result.stderr == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target,argv", [
        ((geometry, "expected_r1"),
         ["sweep", "--axis", "lambda_ris", "--grid", "500,1000", "--metric", "e_r1"]),
        ((analytic, "interference_factor"), ["analytic"]),
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


    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--trials", "50"],
         "n_trials: must be at least 100 to estimate coverage, got 50"),
        (["hist", "--quantity", "r0", "--trials", "500"],
         "n_trials: must be at least 1000 for a histogram, got 500"),
    ], ids=["simulate", "hist"])
    def test_trial_minimum_is_config_error(self, runner, tmp_path, argv, message):
        # both minimums used to surface as a pipeline error (exit 4)
        result = runner.invoke(cli.main, argv + ["--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == [f"config error: {message}"]

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_element_count_beyond_float_is_config_error(self, runner, tmp_path, command):
        # sqrt(N) used to raise OverflowError: a traceback and exit 1, the
        # gate-failed code
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_elements: 1" + "0" * 400 + "\n")
        result = runner.invoke(
            cli.main, [command, "-c", str(cfg), "--trials", "200", "--out", str(tmp_path)]
        )
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("config error: n_elements: must convert to a float")


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

    @pytest.mark.parametrize(
        "field", ["lambda_bs", "lambda_ris", "p_s", "beta", "mu", "epsilon_floor", "alpha"]
    )
    def test_real_field_beyond_float_is_config_error(self, runner, tmp_path, field):
        # math.isfinite raised OverflowError on these: a traceback and exit 1
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{field}: 1" + "0" * 400 + "\n")
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"config error: {field}: must be ")

    @pytest.mark.parametrize("name,content", [
        ("cfg.yaml", b"\xff\xfe\x00"),
        ("cfg.yaml", b"[" * 3000 + b"]" * 3000),
        ("cfg.json", b"[" * 100_000 + b"]" * 100_000),
    ], ids=["not-utf-8", "yaml-3000-deep", "json-100000-deep"])
    def test_undecodable_or_deeply_nested_file_is_config_error(self, runner, tmp_path, name, content):
        # UnicodeDecodeError and RecursionError escaped load_config: a
        # traceback and exit 1, the gate-failed code
        cfg = tmp_path / name
        cfg.write_bytes(content)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("config error: cannot ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        ("lambda_ris: [unclosed\n", "line 2, column 1: expected ',' or ']', but got '<stream end>'"),
        ("[1]: 2\n", "line 1, column 1: found unhashable key"),
        ("a: !!map foo\n", "line 1, column 4: expected a mapping node, but found scalar"),
        ("alpha: 4\x00\n", "unacceptable character #x0000: special characters are not allowed"
                           ' in "<unicode string>", position 8'),
    ], ids=["syntax", "unhashable-key", "bad-tag", "unmarked"])
    def test_yaml_error_is_one_line(self, runner, tmp_path, content, message):
        # PyYAML's message quotes the line and marks the column beneath it:
        # 5 to 7 stderr lines
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(content)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == [f"config error: cannot parse config file {cfg}: {message}"]


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
