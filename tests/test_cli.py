"""Command-line surface: rows, gates, exit codes, output stability."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from oracle_helpers import INTERFERENCE_ABS_TOL, interference_quadrature
import riscov
from riscov import analytic, cli, geometry, montecarlo
from riscov.config import NetworkConfig, load_config
from riscov.errors import NumericalError


@pytest.fixture()
def runner():
    return CliRunner()


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
            conv = analytic.path_b_intensities(cfg)
            rho = conv.rho if row["engine"] == "approx1" else 1.0
            i_factor, abs_err = interference_quadrature(threshold, cfg.alpha, rho=rho)
            if abs_err > INTERFERENCE_ABS_TOL:
                continue  # the oracle itself did not converge here
            expected = {
                "analytic_q2": 1.0 / (1.0 + i_factor / math.sqrt(cfg.n_elements)),
                "analytic_q23": 1.0 / (1.0 + math.sqrt(2.0 / cfg.n_elements) * i_factor),
            }.get(row["engine"])
            if expected is None:  # approx1 and approx2 share one form up to rho
                lam_ris_t = conv.lambda_ris_tilde
                expected = lam_ris_t / (lam_ris_t + conv.lambda_i_tilde / rho**2 * i_factor)
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
        ("mu: 1.0e-300\nalpha: 2.01\n", None),  # the moment itself leaves the float range
    ], ids=["tiny", "huge", "tiny-alpha2.01"])
    def test_extreme_mu_takes_the_limit(self, runner, tmp_path, yaml_text, limit):
        # mu**2 used to end in a ZeroDivisionError (tiny mu) or an
        # OverflowError (huge mu) traceback with exit 1, the gate-failed code
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml_text)
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg_path), "--out", str(tmp_path)])
        if limit is None:
            assert result.exit_code == cli.EXIT_PIPELINE_ERROR
            assert result.stderr.startswith("pipeline error: reflected power moment")
            return
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "analytic.csv")
        reflected = [float(r["value"]) for r in rows if r["engine"] in ("approx1", "approx2")]
        assert len(reflected) == 2 * len(NetworkConfig().thresholds_db)
        assert all(abs(value - limit) < 1e-9 for value in reflected)

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

    def test_huge_reflector_bank_is_pipeline_error(self, runner, tmp_path):
        # M is an unbounded integer, so M**2 can leave the float range
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("m_elements: 1" + "0" * 160 + "\n")
        result = runner.invoke(cli.main, ["analytic", "-c", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("pipeline error: reflector gain")

    def test_header_is_exact(self, runner, tmp_path):
        runner.invoke(cli.main, ["analytic", "--out", str(tmp_path)], catch_exceptions=False)
        first = (tmp_path / "analytic.csv").read_text().splitlines()[0]
        assert first == "engine,metric,T_db,axis_name,axis_value,value,ci_half_width,n_trials,config_hash,seed"


class TestSimulateCommand:
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

    def test_per_element_fade_key_is_unknown(self, runner, tmp_path):
        # the per-element fade mode drew all M fades of every trial, so this
        # config never finished; the key is gone and the config is rejected
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("m_elements: 1000000000000\nshared_ris_fade: false\n")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert result.stderr.splitlines() == ["config error: unknown config key: shared_ris_fade"]
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

    def test_missing_engine_rows_is_pipeline_error(self):
        cfg = NetworkConfig(n_trials=200, thresholds_db=(0.0,))
        with pytest.raises(Exception):
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
        # no trial engages a reflector, so the gamma_b estimate is NaN; the
        # report used to carry bare NaN tokens that strict parsers reject
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lambda_ris: 0.001\nn_trials: 200\n")
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


def _run_fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with the package's ``src`` on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def _loaded_probe(package: str) -> str:
    """Code that runs the command in sys.argv[1:], then prints whether ``package`` is loaded."""
    return (
        "import sys\n"
        "from riscov import cli\n"
        "cli.main.main(args=sys.argv[1:], prog_name='riscov', standalone_mode=False)\n"
        f"print(any(m.split('.')[0] == {package!r} for m in sys.modules))\n"
    )


_SCIPY_PROBE = _loaded_probe("scipy")


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

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # importing it costs about 10 ms, which only a pooled run should pay
        code = "import sys, riscov.cli; print('multiprocessing' in sys.modules)"
        assert _run_fresh(code).strip() == "False"

    @pytest.mark.parametrize("workers, trials, pooled", [
        ("1", "20000", False),
        ("2", "8192", False),
        ("2", "20000", True),  # positive control: three blocks start a pool
    ])
    def test_only_a_pooled_run_loads_multiprocessing(self, tmp_path, monkeypatch,
                                                     workers, trials, pooled):
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, workers)
        argv = ["simulate", "--trials", trials, "--out", str(tmp_path)]
        out = _run_fresh(_loaded_probe("multiprocessing"), *argv)
        assert out.splitlines()[-1] == str(pooled)


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


class TestWorkerPool:
    def test_spawned_workers_match_one_worker(self):
        # the pool uses the platform's default start method, which is spawn
        # on macOS and Windows; spawned workers import the package afresh.
        # Three blocks, the last one partial, reach the pool; the recorded
        # imap calls show how many block tasks it ran
        code = (
            "import dataclasses, multiprocessing, multiprocessing.pool, os\n"
            "import numpy as np\n"
            "from riscov import montecarlo\n"
            "from riscov.config import NetworkConfig\n"
            "multiprocessing.set_start_method('spawn')\n"
            "pools = []\n"
            "imap = multiprocessing.pool.Pool.imap\n"
            "def recording_imap(self, func, iterable, chunksize=1):\n"
            "    tasks = list(iterable)\n"
            "    pools.append((self._processes, len(tasks)))\n"
            "    return imap(self, func, tasks, chunksize)\n"
            "multiprocessing.pool.Pool.imap = recording_imap\n"
            "cfg = NetworkConfig(n_trials=20000, master_seed=11)\n"
            "runs = []\n"
            "for workers in ('1', '2'):\n"
            "    os.environ[montecarlo.WORKERS_ENV_VAR] = workers\n"
            "    runs.append(montecarlo.run(cfg)[0])\n"
            "print(multiprocessing.get_start_method(), [\n"
            "    f.name for f in dataclasses.fields(runs[0])\n"
            "    if not np.array_equal(getattr(runs[0], f.name), getattr(runs[1], f.name), equal_nan=True)\n"
            "], pools)\n"
        )
        assert _run_fresh(code).strip() == "spawn [] [(2, 3)]"


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
        assert result.stderr.startswith("pipeline error: E[r1**-5000]")

    def test_huge_reflector_bank_is_pipeline_error(self, runner, tmp_path):
        result = runner.invoke(
            cli.main,
            ["sweep", "--out", str(tmp_path), "--axis", "M", "--grid", "1e160",
             "--metric", "e_p_ris"],
        )
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("pipeline error: reflector gain")

    def test_overflowing_mean_power_is_pipeline_error(self, runner, tmp_path):
        # M**2 * beta * P_s / (2 * mu) overflowed to inf for a tiny mu, and
        # the sweep wrote the value `inf` with exit 0
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("mu: 1.0e-308\n")
        result = runner.invoke(
            cli.main,
            ["sweep", "-c", str(cfg), "--out", str(tmp_path / "o"), "--axis", "lambda_ris",
             "--grid", "1000", "--metric", "e_p_ris"],
        )
        assert result.exit_code == cli.EXIT_PIPELINE_ERROR
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("pipeline error: mean reflected power")
        assert not (tmp_path / "o" / "sweep.csv").exists()

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


class TestTypedExits:
    @pytest.mark.parametrize("thresholds", ["[]", "[4000]", "[-4000]"],
                             ids=["empty", "overflow", "underflow"])
    @pytest.mark.parametrize("command", ["analytic", "simulate", "compare"])
    def test_thresholds_without_a_ratio_are_config_errors(self, runner, tmp_path, command, thresholds):
        # 4000 dB overflowed 10**(t/10) (a traceback and exit 1, the gate-failed
        # code), -4000 dB reached the closed forms as T = 0 (exit 4), and an
        # empty list wrote a header-only CSV or failed compare with exit 4
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

    @pytest.mark.parametrize("target,argv", [
        ((geometry, "expected_r1"),
         ["sweep", "--axis", "lambda_ris", "--grid", "500,1000", "--metric", "e_r1"]),
        ((analytic, "interference_factor"), ["analytic"]),
        ((geometry, "rayleigh_pdf"), ["hist", "--quantity", "r1", "--trials", "1000"]),
    ], ids=["sweep", "analytic", "hist"])
    def test_numerical_error_is_pipeline_error(self, runner, tmp_path, monkeypatch, target, argv):
        def boom(*args, **kwargs):
            raise NumericalError("quadrature did not converge", achieved_tolerance=1e-3)

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
