"""Command-line surface: rows, gates, exit codes, output stability."""
from __future__ import annotations

import ast
import collections
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
import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

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
        # the first block of lattice points, 0-3 under each of 32 shifts
        assert result.stderr == "pipeline error: lattice points 0-3: a coverage value leaves the float range\n"
        assert not list(tmp_path.glob("*.csv"))

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

    @pytest.mark.parametrize("argv, name", [
        (["hist", "--quantity", "r1", "--trials", "2000"], "hist_r1.csv"),
        (["sweep", "--axis", "lambda_ris", "--grid", "1000,5000", "--with-mc", "--trials", "1000"], "sweep.csv"),
    ], ids=["hist", "sweep-with-mc"])
    def test_other_seeded_commands_repeat_their_bytes(self, runner, tmp_path, argv, name):
        # simulate's repeat is the test above, and compare's is criterion 14
        for run in ("one", "two"):
            result = runner.invoke(cli.main, [*argv, "--seed", "5", "--out", str(tmp_path / run)])
            assert result.exit_code == 0, result.output
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

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


_WIDEN = montecarlo.LOOK_QUANTILE / montecarlo.T_QUANTILE  # build_comparison's widening of a half-width


def _half_width_ending_at(gap: float, end: float) -> float:
    """The half-width whose widened interval around ``gap`` has ``end`` as its nearer end, bit for bit."""
    sign = 1.0 if end > gap else -1.0
    half_width = abs(end - gap) / _WIDEN
    for _ in range(100):
        reached = gap + sign * (_WIDEN * half_width)
        if reached == end:
            return half_width
        half_width = math.nextafter(half_width, math.inf if sign * (end - reached) > 0.0 else 0.0)
    raise AssertionError(f"no half-width puts an end of the interval around {gap} at {end}")


# rows of TestCompare.test_gate_verdict: analytic_q2 is an absolute gate of
# tolerance 0.02, approx2 a lower bound of 0.03; a half-width of "-tol" or
# "+tol" puts the widened interval's nearer end at that tolerance, bit for bit
_GATE_VERDICTS = [
    pytest.param("analytic_q2", -0.02, 0.0, True, True, id="absolute-gap-at-minus-tol"),
    pytest.param("analytic_q2", 0.02, 0.0, True, True, id="absolute-gap-at-plus-tol"),
    pytest.param("analytic_q2", 0.02, 1e-4, True, False, id="absolute-gap-at-tol-with-noise"),
    pytest.param("analytic_q2", -0.01, "-tol", True, True, id="absolute-inside-touching-minus-tol"),
    pytest.param("analytic_q2", 0.01, "+tol", True, True, id="absolute-inside-touching-plus-tol"),
    pytest.param("analytic_q2", -0.03, "-tol", False, False, id="absolute-outside-touching-minus-tol"),
    pytest.param("analytic_q2", 0.03, "+tol", False, False, id="absolute-outside-touching-plus-tol"),
    pytest.param("analytic_q2", -0.04, 1e-3, False, True, id="absolute-wholly-below"),
    pytest.param("analytic_q2", 0.04, 1e-3, False, True, id="absolute-wholly-above"),
    pytest.param("analytic_q2", 0.0, math.inf, True, False, id="absolute-half-width-inf"),
    pytest.param("analytic_q2", 0.0, math.nan, True, False, id="absolute-half-width-nan"),
    pytest.param("analytic_q2", math.nan, 0.0, False, False, id="absolute-gap-nan"),
    pytest.param("approx2", -0.03, 0.0, True, True, id="lower-gap-at-minus-tol"),
    pytest.param("approx2", 0.03, 0.0, True, True, id="lower-gap-at-plus-tol"),
    pytest.param("approx2", -0.03, 1e-4, True, False, id="lower-gap-at-minus-tol-with-noise"),
    pytest.param("approx2", -0.02, "-tol", True, True, id="lower-inside-touching-minus-tol"),
    pytest.param("approx2", 0.02, "+tol", True, True, id="lower-inside-touching-plus-tol"),
    pytest.param("approx2", 0.04, "+tol", True, True, id="lower-above-touching-plus-tol"),
    pytest.param("approx2", 0.5, 0.1, True, True, id="lower-far-above"),
    pytest.param("approx2", -0.04, "-tol", False, False, id="lower-outside-touching-minus-tol"),
    pytest.param("approx2", -0.05, 1e-3, False, True, id="lower-wholly-below"),
    pytest.param("approx2", 0.0, math.inf, True, False, id="lower-half-width-inf"),
    pytest.param("approx2", 0.0, math.nan, True, False, id="lower-half-width-nan"),
    pytest.param("approx2", math.nan, 0.0, False, False, id="lower-gap-nan"),
]


class TestCompare:
    def test_tolerances_defaults(self):
        # the gates are constants here; a config cannot set them
        assert [(g.engine, g.metric, g.kind, g.tolerance, g.t_db) for g in cli.GATES] == [
            ("analytic_q2", "gamma_o", "absolute", 0.02, None),
            ("analytic_q23", "gamma_a", "absolute", 0.02, None),
            ("approx1", "gamma_b", "absolute", 0.05, 5.0),
            ("approx2", "gamma_b", "lower_bound", 0.03, 5.0),
        ]
        assert cli.GATE_T_DB_ABS_TOL == 1e-9

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

    @pytest.mark.parametrize("engine, gap, half_width, passed, decided", _GATE_VERDICTS)
    def test_gate_verdict(self, engine, gap, half_width, passed, decided):
        # one gate's gap and half-width in hand-built rows at 5 dB, where all
        # four gates apply
        cfg = NetworkConfig(thresholds_db=(5.0,))
        gate = next(g for g in cli.GATES if g.engine == engine)
        if isinstance(half_width, str):
            half_width = _half_width_ending_at(gap, {"-tol": -gate.tolerance, "+tol": gate.tolerance}[half_width])
        # one value of each pair is 0, so the gap is exact
        analytic_value, mc_value = (0.0, gap) if not gap < 0.0 else (-gap, 0.0)
        row = cli._row_builder(cfg)
        analytic_rows = [row(engine=g.engine, metric=g.metric, t_db=5.0, value=analytic_value if g is gate else 0.5)
                         for g in cli.GATES]
        mc_rows = [row(engine="mc", metric=m, t_db=5.0, value=mc_value if m == gate.metric else 0.5,
                       ci_half_width=half_width if m == gate.metric else 0.0, n_trials=128)
                   for m in montecarlo.METRICS]
        report = cli.build_comparison(cfg, analytic_rows, mc_rows)
        [verdict] = [g for g in report["gates"] if g["engine"] == engine]
        assert verdict["gap"] == gap or math.isnan(gap)
        assert (verdict["passed"], verdict["decided"]) == (passed, decided)

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

    @pytest.mark.parametrize("no_color, styled", [(None, True), ("1", False), ("", True)],
                             ids=["color", "NO_COLOR", "NO_COLOR-empty"])
    def test_gate_lines_are_styled_unless_no_color(self, runner, tmp_path, no_color, styled):
        # on a terminal a passing gate's line is green and a failing one's
        # red; NO_COLOR, which README documents, turns that off, though not
        # when it is set to the empty string. approx2 overshoots gamma_b at
        # N = 2, alpha = 3 by more than its margin, while the other gates pass
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_elements: 2\nalpha: 3\nn_trials: 5000\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)],
                               color=True, env={"NO_COLOR": no_color})
        gates = [line for line in result.stdout.splitlines() if "[PASS]" in line or "[FAIL]" in line]
        assert result.exit_code == cli.EXIT_GATE_FAILED, result.output
        assert len(gates) == len(json.loads((tmp_path / "compare_report.json").read_text())["gates"])
        assert {re.sub(r"\x1b\[\d+m", "", line)[:6] for line in gates} == {"[PASS]", "[FAIL]"}
        assert all(line.startswith(("\x1b[32m[PASS]", "\x1b[31m[FAIL]")) and line.endswith("\x1b[0m") if styled
                   else "\x1b[" not in line for line in gates), gates

    def test_report_counts_the_points_that_compare_csv_counts(self, runner, tmp_path):
        # of the cap's 32 shifts of 62 lattice points, the first look, 32
        # shifts of 4, decides both gates
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_trials: 2000\nthresholds_db: [0]\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--out", str(tmp_path)], catch_exceptions=False)
        assert result.exit_code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        rows = read_rows(tmp_path / "compare.csv")
        counts = {r["n_trials"] for r in rows if r["engine"] == "mc"}
        assert report["n_trials"] == 128 and counts == {"128"}
        assert [g["decided"] for g in report["gates"]] == [True, True]

    def test_defaults_decide_every_gate(self, runner, tmp_path):
        # the default cap is 1e5 points; the fourth look, 1,024, decides every gate
        result = runner.invoke(cli.main, ["compare", "--out", str(tmp_path)], catch_exceptions=False)
        assert result.exit_code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert report["n_trials"] == 1024 and all(g["decided"] for g in report["gates"])

    def test_gate_undecided_at_the_cap_keeps_its_verdict(self, runner, tmp_path):
        # approx2 overshoots gamma_b at N = 2, alpha = 3 by more than its
        # margin, which 256 points cannot tell from their noise: the report
        # says so, and the gap's own verdict still fails the run
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_elements: 2\nalpha: 3\n")
        result = runner.invoke(cli.main, ["compare", "-c", str(cfg), "--trials", "256", "--out", str(tmp_path)])
        assert result.exit_code == cli.EXIT_GATE_FAILED
        report = json.loads((tmp_path / "compare_report.json").read_text())
        [approx2] = [g for g in report["gates"] if g["engine"] == "approx2"]
        assert report["n_trials"] == 256 and (approx2["decided"], approx2["passed"]) == (False, False)
        assert "[FAIL] gamma_b vs approx2 @ +5.0 dB: " in result.output

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
# scipy.special alone is about half of a cold start; the engine runs in one
# process, so nothing needs the 10 ms multiprocessing import; and the config
# hash takes the builtin sha256, so no command loads OpenSSL's libcrypto
# through hashlib's _hashlib, about 3.6 MB of peak memory
_WATCHED = ("numpy", "numpy.random", "scipy", "multiprocessing", "_hashlib")
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


def _unread_names(package: dict[str, str], tests: dict[str, str]) -> set[str]:
    """``file:name`` for each name that a module imports and never reads, and
    for each top-level helper of ``tests`` that no module of ``tests`` names.

    Both map a file to its source. A helper is a module-level function or
    class that pytest does not collect; a fixture is named by the parameters
    that request it.
    """
    trees = {file: ast.parse(source) for file, source in {**package, **tests}.items()}
    unread, named = set(), set()
    for file, tree in trees.items():
        nodes = list(ast.walk(tree))
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        imports = [node for node in nodes if isinstance(node, ast.Import)
                   or (isinstance(node, ast.ImportFrom) and node.module != "__future__")]
        unread.update(f"{file}:{name}" for node in imports for alias in node.names
                      if (name := alias.asname or alias.name.partition(".")[0]) not in read)
        if file in tests:
            named |= read | {alias.name for node in imports for alias in node.names}
            named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            named |= {node.arg for node in nodes if isinstance(node, ast.arg)}
    return unread | {f"{file}:{node.name}" for file in tests for node in trees[file].body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and not node.name.startswith(("test_", "Test")) and node.name not in named}


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
        (_COMMAND, [*_SWEEP, "coverage", "--with-mc", *_MC_TRIALS], 0, {"numpy"}),
        # positive control: the probe sees every package once it is loaded
        ("import hashlib, multiprocessing, numpy.random, scipy\n" + _COMMAND, [*_SWEEP, "e_r1"], 0, set(_WATCHED)),
    ], ids=["import-cli", "import-closed-forms", "help", "version", "config-error", "analytic",
            "sweep-coverage", "sweep-e_p_ris", "sweep-e_r1", "compare", "simulate", "hist-r1", "sweep-with-mc",
            "control"])
    def test_cold_start_loads_only_what_it_computes_with(self, tmp_path, monkeypatch, prelude, argv, returncode,
                                                          loaded):
        # a RISCOV_WORKERS left in the environment by an older release starts
        # no pool; the commands write to riscov_out/ under tmp_path
        monkeypatch.setenv("RISCOV_WORKERS", "2")
        out = _run_fresh(_loaded_probe(prelude), *argv, returncode=returncode, cwd=tmp_path)
        assert set(ast.literal_eval(out.splitlines()[-1])) == loaded

    @pytest.mark.parametrize("prelude, loaded", [
        ("", []),
        # positive control: the probe sees the engine once it is loaded
        ("import riscov.montecarlo\n", ["numpy", "riscov.montecarlo"]),
    ], ids=["compare", "control"])
    def test_compare_runs_the_closed_forms_before_loading_the_engine(self, tmp_path, prelude, loaded):
        # loaded before run_analytic, the engine raised compare's peak RSS on
        # perfbench/configs/mc-dense.yaml by 0.20 MB (median of 9 processes)
        probe = (
            "import sys\n"
            "from riscov import cli\n"
            + prelude
            + "run_analytic = cli.run_analytic\n"
            "def probed(cfg):\n"
            "    print(sorted(m for m in ('numpy', 'riscov.montecarlo') if m in sys.modules))\n"
            "    return run_analytic(cfg)\n"
            "cli.run_analytic = probed\n"
            + _COMMAND
        )
        out = _run_fresh(probe, "compare", "--trials", "2000", cwd=tmp_path)
        assert ast.literal_eval(out.splitlines()[0]) == loaded

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


def test_every_import_and_test_helper_is_read():
    # an edit that drops the last use of an import or of a test helper leaves
    # it behind; the table below holds the scan's controls
    package = {f"riscov/{path.name}": path.read_text() for path in Path(riscov.__file__).parent.glob("*.py")}
    tests = {f"tests/{path.name}": path.read_text() for path in Path(__file__).parent.glob("*.py")}
    assert _unread_names(package, tests) == set()


_HELPER = "def oracle():\n    return 1\n"


@pytest.mark.parametrize("package, tests, unread", [
    ({}, {"t.py": "import os\nfrom math import pi as half_turn\n\nx = pi\n"}, {"t.py:os", "t.py:half_turn"}),
    ({"p.py": "import json\n"}, {}, {"p.py:json"}),
    ({}, {"t.py": "import os.path\n\nsep = os.path.sep\n"}, set()),
    ({}, {"h.py": _HELPER}, {"h.py:oracle"}),
    # the package's own functions are the public surface, not helpers
    ({"p.py": _HELPER}, {}, set()),
    ({}, {"h.py": _HELPER, "t.py": "import h\n\n\ndef test_it():\n    assert h.oracle()\n"}, set()),
    ({}, {"h.py": _HELPER, "t.py": "from h import oracle as reference\n\n\ndef test_it():\n    assert reference()\n"},
     set()),
    ({}, {"conftest.py": "import pytest\n\n\n@pytest.fixture\ndef oracle():\n    return 1\n",
          "t.py": "def test_it(oracle):\n    pass\n"}, set()),
    ({}, {"t.py": "class TestIt:\n    def test_a(self):\n        pass\n\n\ndef test_b():\n    pass\n"}, set()),
], ids=["unread-import-and-alias", "unread-in-the-package", "read-through-its-root", "orphan-helper",
        "package-function", "helper-read-as-attribute", "helper-imported-by-name", "fixture-requested-by-parameter",
        "collected-tests"])
def test_scan_flags_only_unread_names(package, tests, unread):
    # positive and negative controls for the scan above: one that missed an
    # orphan would pass any tree, and one that flagged a fixture would fail it
    assert _unread_names(package, tests) == unread


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


def _edge_row(id, config, argv, *checks, exit_code=0, engaged=True):
    """A row of :meth:`TestEdgeConfigs.test_edge_config_succeeds`.

    ``config`` is the text of the file passed with ``-c``. Each
    ``check(out_dir, cfg)`` asserts what the row adds to the
    shared block, where ``cfg`` is the config the command ran.
    ``engaged=False`` says that no reflector engages at any point, so every
    simulated gamma_b value is nan.
    """
    return pytest.param(config, argv, exit_code, checks, engaged, id=id)


def _option(argv, name, default=None):
    """The value that follows ``name`` in ``argv``, or ``default``."""
    return argv[argv.index(name) + 1] if name in argv else default


def _values(out_dir, keep=lambda row: True):
    """The value cells of the rows that ``keep`` selects in the one CSV in ``out_dir``."""
    [path] = out_dir.glob("*.csv")
    return [row["value"] for row in read_rows(path) if keep(row)]


def _report(out_dir):
    """compare's report, parsed as strict JSON: a NaN or Infinity token fails."""
    text = (out_dir / "compare_report.json").read_text()
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-standard JSON constant {token}"))


def _values_near(expected, keep=lambda row: True, tol=0.0, rel=0.0):
    """A check: each value that ``keep`` selects is ``expected`` (called if callable) within ``tol`` or ``rel``."""
    def check(out_dir, cfg):
        target = expected() if callable(expected) else expected
        values = [float(value) for value in _values(out_dir, keep)]
        assert values and all(value == pytest.approx(target, rel=rel, abs=tol) for value in values), (values, target)
    return check


def _lines_as_at(changes, prefixes=("",)):
    """A check: the CSV lines that start with one of ``prefixes`` are, but for provenance, those of
    ``cfg.replace(**changes)``; compare's mc lines are those of simulate at the count it stopped at."""
    def lines(text):  # each line without its config_hash and seed cells
        return [line.rsplit(",", 2)[0] for line in text.splitlines()[1:] if line.startswith(prefixes)]

    def check(out_dir, cfg):
        [path] = out_dir.glob("*.csv")
        run = cli.run_analytic if path.stem == "analytic" else cli.run_simulate
        at = dict(changes)
        if path.stem == "compare":
            [points] = {row["n_trials"] for row in read_rows(path) if row["engine"] == "mc"}
            at["n_trials"] = int(points)
        assert lines(path.read_text()) == lines(cli.rows_to_csv(run(cfg.replace(**at)))) != []
    return check


def _approx1_at_overflowing_interference(pinned):
    """A check: approx1 is ``1 / (1 + p * I(T'))`` at ``T' = T * kappa**(-a/2)``, by mpmath's 2F1 at 40
    digits, and ``pinned``; ``T'`` and ``I(T')`` may lie beyond the float range."""
    def check(out_dir, cfg):
        [value] = _values(out_dir, lambda row: row["engine"] == "approx1")
        with mpmath.workdps(40):
            a = mpmath.mpf(cfg.alpha)
            scaled = cfg.thresholds_linear[0] * mpmath.exp(-a / 2 * analytic.log_reflector_ratio(cfg))
            i_scaled = 2 * scaled / (a - 2) * mpmath.hyp2f1(1, 1 - 2 / a, 2 - 2 / a, -scaled)
            expected = float(1 / (1 + cfg.retentions[1] * i_scaled))
        assert float(value) == pytest.approx(expected, rel=1e-9, abs=0)
        assert float(value) == pytest.approx(pinned, rel=1e-7, abs=0)
    return check


def _gamma_b_at_its_large_alpha_limit(out_dir, cfg):
    # at 2000 points it read 0.5163 +- 0.0029 against the limit's 0.5201 +-
    # 0.0007; it converges there: 0.52015 +- 6e-5 at 2**16 points, 0.52016 +- 2e-5 at 2**18
    limit, limit_half_width = gamma_b_large_alpha_limit(cfg)
    for row in read_rows(out_dir / "simulate.csv"):
        if row["metric"] == "gamma_b":
            assert abs(float(row["value"]) - limit) <= float(row["ci_half_width"]) + limit_half_width, (row, limit)


def _direct_gates_only(out_dir, cfg):
    assert [g["metric"] for g in _report(out_dir)["gates"]] == ["gamma_o", "gamma_a"]


def _gamma_b_gates_are_null(out_dir, cfg):
    # gamma_b has no weight, so its two gates are null and fail, though every metric counts every point
    gates = _report(out_dir)["gates"]
    assert [g["metric"] for g in gates if not g["passed"]] == ["gamma_b", "gamma_b"]
    assert all(g["mc"] is g["gap"] is g["mc_ci_half_width"] is None and math.isfinite(g["analytic"])
               for g in gates if g["metric"] == "gamma_b")
    assert {row["n_trials"] for row in read_rows(out_dir / "compare.csv") if row["engine"] == "mc"} == {"1984"}


def _selection_gains_where_every_reflection_covers(out_dir, cfg):
    # the estimator reads log q, so every reflected value is 1 with no
    # spread; selection adds to the direct path
    mc = {row["metric"]: row for row in read_rows(out_dir / "compare.csv")
          if row["engine"] == "mc" and row["T_db"] == "0"}
    assert (mc["gamma_b"]["value"], mc["gamma_b"]["ci_half_width"]) == ("1", "0")
    assert float(mc["gamma_s"]["value"]) > float(mc["gamma_a"]["value"])


def _every_coverage_above_0_has_a_width(out_dir, cfg):
    # the squares of residuals below about 1e-154 underflowed to 0, so
    # gamma_o at -5 dB, 7.7e-240, read a half-width of 0
    for row in read_rows(out_dir / "simulate.csv"):
        assert float(row["value"]) == 0.0 or float(row["ci_half_width"]) > 0.0, row


def _as_without_a_file(out_dir, cfg):
    # an empty file parses to None, which is read as a mapping with no keys
    plain = out_dir.parent / "plain"
    assert CliRunner().invoke(cli.main, ["analytic", "--out", str(plain)]).exit_code == 0
    assert (out_dir / "analytic.csv").read_bytes() == (plain / "analytic.csv").read_bytes()


def _rayleigh_r2_mean(out_dir, cfg):
    # the mean of a Rayleigh distance at intensity lam is 1 / (2 * sqrt(lam))
    rows = read_rows(out_dir / "hist_r2.csv")
    mean = sum((float(r["bin_left"]) + float(r["bin_right"])) / 2 * int(r["count"]) for r in rows) / cfg.n_trials
    assert mean == pytest.approx(0.5 / math.sqrt(cfg.lambda_ris * KM2_TO_M2), rel=0.05)


_REFLECTED = lambda row: row["engine"] in ("approx1", "approx2")  # noqa: E731
_SIMULATE = ["simulate", "--trials", "2000"]
_HIST = ["hist", "--trials", "2000", "--quantity"]
_E_R1 = ["sweep", "--axis", "lambda_ris", "--metric", "e_r1", "--grid"]
_DENSE_BASES = "lambda_bs: 1.7e+308\n"

_EDGE_CONFIGS = [
    _edge_row("empty-config-file", "", ["analytic"], _as_without_a_file),
    # T * rho**alpha underflows to 0 in the first two; approx1 aborted with "T must be positive"
    _edge_row("analytic-alpha5000", "alpha: 5000\nthresholds_db: [0]\n", ["analytic"]),
    _edge_row("analytic-subnormal-threshold", "thresholds_db: [-3200]\n", ["analytic"]),
    # an OverflowError (rho**alpha) or ZeroDivisionError (E[r1**-2] = 0)
    # traceback with exit 1, nan rows (rho = inf), exit 4 as pi*lambda_eff*eps**2
    # overflowed, or E[r1**-2] beyond the float range with exit 4
    *[_edge_row(f"analytic-floor-{case}", f"epsilon_floor: {floor}\n", ["analytic"]) for case, floor in (
        ("rho-overflow", "2.5e+3"), ("rho-inf", "3.0e+3"), ("moment-zero", "1.0e+4"),
        ("x-overflow", "1.0e+160"), ("moment-log", "1.0e-200"))],
    # mu**2 ended in a ZeroDivisionError or an OverflowError traceback with
    # exit 1; at alpha 2.01 mu**(-4/alpha) overflowed (exit 4) although kappa,
    # about 1e302, does not. approx1 and approx2 take their limit within 1e-9
    *[_edge_row(f"analytic-mu-{case}", text, ["analytic"], _values_near(limit, _REFLECTED, 1e-9))
      for case, text, limit in (("tiny", "mu: 1.0e-300\n", 1.0), ("huge", "mu: 1.0e+300\n", 0.0),
                                ("tiny-alpha2.01", "mu: 1.0e-300\nalpha: 2.01\n", 1.0))],
    # approx1 and approx2 wrote nan rows with exit 0 where kappa, about 1e-111
    # or 1e230, is a float: every converted intensity underflowed to 0 (0/0),
    # or the converted reflector intensity overflowed (inf/inf)
    _edge_row("analytic-all-underflow",
              "lambda_ris: 1.24e+38\nmu: 9.08e+296\np_s: 1.14e-261\nepsilon_floor: 1.47e-219\n", ["analytic"]),
    _edge_row("analytic-ris-overflow",
              "n_elements: 1\nm_elements: 1" + "0" * 66 + "\nmu: 4.74e-167\nlambda_ris: 5.63e+85\n", ["analytic"]),
    # the floored moment underflowed to 0 in SI units: approx1 and approx2 read 0 where kappa is about 1e576
    _edge_row("analytic-underflowing-moment", "lambda_bs: 3.0e-318\nlambda_ris: 1.0e+308\nepsilon_floor: 2.8e+162\n"
              "mu: 1.0e-308\nm_elements: 1" + "0" * 154 + "\n", ["analytic"], _values_near(1.0, _REFLECTED)),
    # log K = log mu - log G - (alpha/2) * log(pi * lambda_bs) overflows past
    # alpha ~ 4e307: at the defaults (kappa about 1.39) approx1 and approx2
    # read 0; with dense bases and a huge floor the moment underflows, and -inf + inf raised
    _edge_row("analytic-largest-alpha", "alpha: 1.0e+308\n", ["analytic"], _values_near(1.0, _REFLECTED)),
    _edge_row("analytic-largest-alpha-dense-bases-huge-floor", "alpha: 1.0e+308\nlambda_bs: 1.0e+8\n"
              "epsilon_floor: 1.0e+200\n", ["analytic"], _values_near(0.0, _REFLECTED)),
    # pi / (1 << bits) ended in an OverflowError traceback with exit 1
    *[_edge_row(f"analytic-phase-bits-{bits}", f"phase_bits: {bits}\n", ["analytic"],
                _lines_as_at({"phase_bits": "ideal"})) for bits in (1100, 1000000)],
    # M**2 leaves the float range: both exited 4 before the engines read log G.
    # Every reflected-path approximation is 1; compare passes at 20,000 trials
    *[_edge_row(f"{command}-huge-bank", "m_elements: 1" + "0" * 160 + "\nn_trials: 20000\n", [command],
                _values_near(1.0, _REFLECTED), *more)
      for command, *more in (("analytic",), ("compare", _selection_gains_where_every_reflection_covers))],
    # I(T) overflows to inf, zeroing the others; numpy's warning reached stderr.
    # approx1 reads I at T * kappa**(-a/2), about 8e292, where p * I is still
    # a float: 1.77e-304, where it read 0 before
    _edge_row("analytic-overflowing-interference", "alpha: 2.00000000001\nthresholds_db: [2970]\n", ["analytic"],
              _values_near(0.0, lambda row: row["engine"] != "approx1"),
              _approx1_at_overflowing_interference(1.7735432e-304)),
    # at alpha = 3 no threshold's I(T) overflows, but approx1's T * kappa**(-a/2), about
    # 1e464, does, and with it p * I(T'): the far form gives a subnormal coverage
    _edge_row("analytic-alpha3-overflowing-interference", "alpha: 3\nmu: 1.0e+168\nthresholds_db: [3000]\n",
              ["analytic"], _approx1_at_overflowing_interference(6.3654360e-310)),
    # I(T, 3) in closed form: at -3000 dB every coverage is 1, at 3000 dB below 1e-190
    *[_edge_row(f"{argv[0]}-alpha3-thresholds-3000dB", "alpha: 3\nthresholds_db: [-3000, 3000]\n", argv,
                _values_near(1.0, lambda row: row["T_db"] == "-3000"),
                _values_near(0.0, lambda row: row["T_db"] == "3000", 1e-190))
      for argv in (["analytic"], _SIMULATE)],
    # log q = alpha * L - log f1 overflows, and gamma_b was nan (exit 4); read
    # from log(q) / alpha it takes its alpha -> inf limit
    _edge_row("simulate-largest-alpha", "alpha: 1.7e+308\nn_trials: 20000\n", ["simulate"],
              _gamma_b_at_its_large_alpha_limit),
    # the fades overflowed in SI units (exit 4); in units of 1/mu the direct paths are the default's
    *[_edge_row(f"{command}-tiny-mu", "mu: 1.0e-320\nn_trials: 2000\n", [command],
                _lines_as_at({"mu": NetworkConfig().mu}, ("mc,gamma_o,", "mc,gamma_a,")))
      for command in ("simulate", "compare")],
    # in metres the serving distance's alpha-th power left the float range at
    # 1e-300 bases per km^2 (gamma_o read 1.0000 against 0.2138), and the
    # fades did at mu = 1e-320 (exit 4); both direct-path gates pass
    *[_edge_row(f"compare-20dB-{case}", text + "thresholds_db: [20.0]\n", ["compare", "--trials", "20000"],
                _direct_gates_only)
      for case, text in (("sparse-bases", "lambda_bs: 1.0e-300\n"), ("tiny-mu", "mu: 1.0e-320\n"))],
    # no reflector engages, so gamma_b is nan and the report carried bare NaN
    # tokens. The one row that exits 1: its two gamma_b gates fail
    _edge_row("compare-dense-bases", _DENSE_BASES + "lambda_ris: 1.0e-18\nn_trials: 2000\n", ["compare"],
              _gamma_b_gates_are_null, exit_code=cli.EXIT_GATE_FAILED, engaged=False),
    # configs outside the property tests' box. Near alpha = 2 the direct
    # paths underflow to 0 above -10 dB, where gamma_a is about 1e-109
    _edge_row("simulate-alpha-near-two", "alpha: 2.0000001\n", _SIMULATE,
              _values_near(0.0, lambda row: row["metric"] == "gamma_a", 1e-100), _every_coverage_above_0_has_a_width),
    _edge_row("simulate-thresholds-3000dB", "thresholds_db: [-3000, 3000]\n", _SIMULATE,
              _values_near(1.0, lambda row: row["T_db"] == "-3000"),
              _values_near(0.0, lambda row: row["T_db"] == "3000")),
    # every drop engages its reflector, or none does
    _edge_row("simulate-dense-reflectors-subnormal-bases", "lambda_ris: 1.7e+308\nlambda_bs: 5.0e-324\n", _SIMULATE,
              _values_near(1.0, lambda row: row["metric"] == "gamma_b")),
    _edge_row("simulate-dense-bases-subnormal-reflectors", _DENSE_BASES + "lambda_ris: 5.0e-324\n", _SIMULATE,
              engaged=False),
    # a retention of 1e-15 leaves no interferer, so every path covers
    _edge_row("simulate-n-elements-1e30", "n_elements: 1" + "0" * 30 + "\n", _SIMULATE, _values_near(1.0)),
    # both engines' direct paths take their alpha -> inf limit of 1
    _edge_row("sweep-with-mc-largest-alpha", "alpha: 1.7e+308\n",
              ["sweep", "--axis", "lambda_ris", "--grid", "1000", "--with-mc", "--trials", "2000"],
              _values_near(1.0, lambda row: row["metric"] in ("gamma_o", "gamma_a"))),
    _edge_row("hist-r1-alpha-1e308", "alpha: 1.0e+308\n", [*_HIST, "r1"]),
    # each the exact mean 0.5 / sqrt(lambda_eff) in metres. At sparse bases the
    # quadrature per m^2 warned twice, then exited 4; there rho = 100, as at 1
    # base per km^2, and E[r1] scales as the base spacing. Below rho = 8e-308 a
    # tail radius squared per m**2 left the float range, and at 1e-310 rho/pi is
    # subnormal; where rho itself does the sweep exited 4, in units of the spacing
    *[_edge_row(f"sweep-e_r1-{case}", f"lambda_bs: {bs}\n", [*_E_R1, grid],
                _values_near(0.5 * math.hypot(float(bs) ** -0.5, float(grid) ** -0.5) / math.sqrt(KM2_TO_M2),
                             rel=1e-5), *more)
      for case, bs, grid, *more in (
          ("sparse-bases", "1.0e-305", "1.0e-303", _values_near(lambda: 10**152.5 * cli.run_sweep(
              NetworkConfig(lambda_bs=1.0), "lambda_ris", [100.0], "e_r1")[0].value, rel=1e-9)),
          ("squares-overflow", "25.0", "1.0e-306"), ("subnormal-rho", "25.0", "1.0e-310"),
          ("infinite-rho", "1.0e-318", "1.0e-3"), ("vanishing-rho", "1.0e+300", "1e-300"),
          ("subnormal-ris", "1.7e+308", "5.0e-324"), ("subnormal-bs", "5.0e-324", "1.7e+308"))],
    # M**2 * beta * P_s / (2 * mu) overflowed to inf; as a sum of logs it is
    # 6.9e307 W at mu = 1e-308 (at 1e-320 it is the typed-exit row [power-tiny-mu])
    _edge_row("sweep-e_p_ris-tiny-mu", "mu: 1.0e-308\n", [*_SWEEP, "e_p_ris"],
              _values_near(lambda: 1e308 * analytic.mean_reflected_power(NetworkConfig(lambda_ris=1000.0)), rel=1e-9)),
    # log(p_s / 2) was a `math domain error` traceback; the power rounds to 0
    _edge_row("sweep-e_p_ris-smallest-p_s", "p_s: 5.0e-324\n", [*_SWEEP, "e_p_ris"], _values_near(0.0)),
    # the unread interferers' power overflowed, and numpy's warning reached stderr
    *[_edge_row(f"hist-near-field-{quantity}", _DENSE_BASES, [*_HIST, quantity]) for quantity in ("r1", "p_ris_dbw")],
    # at 3e-318 bases per km^2 r0**2 in metres overflowed (every r0 inf, an
    # empty histogram), then the overlay's r**2 did, and the r1 overlay's
    # intensity underflowed to 0 in its product. Other extreme densities join it
    *[_edge_row(f"hist-{quantity}-{case}", densities, [*_HIST, quantity])
      for case, densities in (
          ("bs-3e-318", "lambda_bs: 3.0e-318\n"), ("bs-1e-318", "lambda_bs: 1.0e-318\n"),
          ("bs-1e-305", "lambda_bs: 1.0e-305\n"), ("bs-1e-300", "lambda_bs: 1.0e-300\n"),
          ("bs-1.7e308", _DENSE_BASES), ("ris-1e-6", "lambda_ris: 1.0e-6\n"))
      for quantity in ("r0", "r1", "r2")],
    # the offset's variance lambda_bs / (2 * lambda_ris) was formed before its
    # root: at inf every r2 was inf (an empty histogram, exit 0), at 0 every
    # r2 was 0 and the overlay rejected the negative bin midpoints
    *[_edge_row(f"hist-r2-{case}", densities, [*_HIST, "r2"], _rayleigh_r2_mean)
      for case, densities in (("ratio-overflows", _DENSE_BASES + "lambda_ris: 1.0e-3\n"),
                              ("ratio-underflows", "lambda_bs: 3.0e-318\nlambda_ris: 1.7e+308\n"))],
    # the powers in watts overflow (M**2 or r1**-alpha), or underflow to 0
    # (numpy widened them to 60 bins over [-0.5, 0.5] W), or span only 0 to
    # 5e-324; half of the last p_s rounds to 0, whose log was a math domain error
    *[_edge_row(f"hist-p_ris_dbw-{case}", text, ["hist", "--trials", trials, "--quantity", "p_ris_dbw"])
      for case, text, trials in (
          ("huge-bank", f"m_elements: {10**160}\n", "2000"), ("huge-alpha", "alpha: 1.0e+300\n", "2000"),
          ("zero-watts", "lambda_bs: 3.0e-318\n", "2000"),
          ("subnormal-watts", "beta: 2.85e-202\nmu: 3.25e+79\np_s: 4.19e-44\n", "1000"),
          ("subnormal-p_s", "p_s: 5.0e-324\n", "1000"))],
]


class TestEdgeConfigs:
    @pytest.mark.parametrize("config, argv, exit_code, checks, engaged", _EDGE_CONFIGS)
    def test_edge_config_succeeds(self, runner, tmp_path, config, argv, exit_code, checks, engaged):
        # the success contract: the documented code (0, or 1 where a gate
        # fails) with an empty stderr and no warning, and numbers of the
        # command's shape; ``checks`` add what the row itself asserts
        path, out = tmp_path / "cfg.yaml", tmp_path / "out"
        path.write_text(config)
        cfg = load_config(path)
        cfg = cfg.replace(n_trials=int(_option(argv, "--trials", cfg.n_trials)))
        result, caught = _invoke(runner, [*argv, "-c", str(path), "--out", str(out)])
        assert result.exit_code == exit_code and result.stderr == "" and caught == [], result.output
        command, quantity, points = argv[0], _option(argv, "--quantity"), len(_option(argv, "--grid", "").split(","))
        if command == "hist":
            # --bins rows, each counting every trial, all cells finite, and a
            # density of unit mass; for a distance, an overlay of unit mass
            rows = read_rows(out / f"hist_{quantity}.csv")
            assert len(rows) == int(_option(argv, "--bins", 60))
            assert {row["n_samples"] for row in rows} == {str(cfg.n_trials)}
            columns = ("bin_left", "bin_right", "count", "density") + ("analytic_pdf",) * (quantity != "p_ris_dbw")
            cells = np.array([[float(row[k]) for k in columns] for row in rows])
            assert np.isfinite(cells).all()
            masses = (cells[:, 1] - cells[:, 0]) @ cells[:, 3:]
            assert masses[0] == pytest.approx(1.0, abs=1e-6) and masses[-1] == pytest.approx(1.0, abs=0.01)
        elif _option(argv, "--metric", "coverage") != "coverage":
            values = [float(value) for value in _values(out)]
            assert len(values) == points and all(math.isfinite(v) and v >= 0.0 for v in values)
        else:
            # len(GATES) analytic and len(METRICS) mc rows per threshold and
            # grid point, each a coverage in [0, 1], or nan with a nan half-width
            # where no reflector engages
            rows = read_rows(out / f"{command}.csv")
            groups = points * (1 if _option(argv, "--axis") == "T" else len(cfg.thresholds_db))
            sizes = collections.Counter((row["engine"] == "mc", row["T_db"], row["axis_value"]) for row in rows)
            with_mc = command in ("simulate", "compare") or "--with-mc" in argv
            for mc, size in ((False, len(cli.GATES) * (command != "simulate")),
                             (True, len(montecarlo.METRICS) * with_mc)):
                assert [n for (is_mc, *_), n in sizes.items() if is_mc == mc] == [size] * groups * (size > 0)
            for row in rows:
                nan = not engaged and row["engine"] == "mc" and row["metric"] == "gamma_b"
                if nan:
                    assert (row["value"], row["ci_half_width"]) == ("nan", "nan"), row
                else:
                    assert 0.0 <= float(row["value"]) <= 1.0, row
        if command == "compare":
            assert _report(out)["all_passed"] is (exit_code == 0)
        for check in checks:
            check(out, cfg)


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
    # one line per invalid field, in the order they are checked; no function
    # below the config re-checks the floor
    _exit_row("four-fields", "lambda_bs: -1.0\nalpha: 2.0\nn_elements: 0\nepsilon_floor: 0.0\n", ["analytic"], _CONFIG,
              ["config error: lambda_bs: must be a positive finite number, got -1.0",
               "config error: epsilon_floor: must be a positive finite number, got 0.0",
               "config error: alpha: must be a finite number > 2, got 2.0",
               "config error: n_elements: must be an integer >= 1, got 0"]),
    *[_exit_row(id, text, ["analytic"], _CONFIG, [f"config error: {message}"]) for id, text, message in (
        ("beta-above-one", "beta: 1.5\n", "beta: must be a finite number in (0, 1], got 1.5"),
        ("phase-bits-zero", "phase_bits: 0\n", "phase_bits: must be 'ideal' or an integer >= 1, got 0"),
        ("orientation-sideways", "orientation: sideways\n",
         "orientation: must be one of ('thinning', 'explicit'), got 'sideways'"),
        # a bool is an int to Python, yet no field reads true as 1; a
        # string, inf or nan is no number of the range either
        ("real-bool", "mu: true\n", "mu: must be a positive finite number, got True"),
        ("real-string", "p_s: '2'\n", "p_s: must be a positive finite number, got '2'"),
        ("real-inf", "lambda_ris: .inf\n", "lambda_ris: must be a positive finite number, got inf"),
        ("alpha-nan", "alpha: .nan\n", "alpha: must be a finite number > 2, got nan"),
        ("beta-zero", "beta: 0\n", "beta: must be a finite number in (0, 1], got 0"),
        ("n-elements-bool", "n_elements: true\n", "n_elements: must be an integer >= 1, got True"),
        ("m-elements-zero", "m_elements: 0\n", "m_elements: must be an integer >= 1, got 0"),
        ("n-trials-fractional", "n_trials: 2.5\n", "n_trials: must be an integer >= 1, got 2.5"),
        ("master-seed-negative", "master_seed: -1\n", "master_seed: must be a nonnegative integer, got -1"),
        ("master-seed-bool", "master_seed: true\n", "master_seed: must be a nonnegative integer, got True"),
        ("phase-bits-bool", "phase_bits: true\n", "phase_bits: must be 'ideal' or an integer >= 1, got True"),
        ("phase-bits-string", "phase_bits: fine\n", "phase_bits: must be 'ideal' or an integer >= 1, got 'fine'"))],
    # a file must hold a mapping of keys to values
    *[_exit_row(f"root-not-mapping-{kind}", text, ["analytic"], _CONFIG,
                [f"config error: config root must be a mapping, got {shown}"], name)
      for kind, name, text, shown in (("yaml", "cfg.yaml", "- 1\n- 2\n", "list"), ("json", "cfg.json", "4\n", "int"))],
    *[_exit_row(id, f"thresholds_db: {text}\n", ["analytic"], _CONFIG,
                [f"config error: thresholds_db: must {problem}"]) for id, text, problem in (
        # a bare string used to be split into characters: "10" ran at 1 dB and 0 dB
        ("string-thresholds", '"10"', "be a list of numbers, got '10'"),
        ("thresholds-bare-number", "5.0", "be a list of numbers, got 5.0"),
        ("thresholds-nan", "[0, .nan]", _RATIO + "[0, nan]"),
        # a repeat would collapse into one row of the simulation output; 5 and 5.0 are one threshold
        ("duplicate-thresholds", "[0, 5, 0]", "not repeat a value, got [0, 5, 0]"),
        ("duplicate-thresholds-int-float", "[5, 5.0]", "not repeat a value, got [5, 5.0]"))],
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
    # the second alpha won silently: the run went ahead at alpha 3 with exit 0.
    # A repeat is rejected even where it agrees with the first value, and in a nested mapping
    *[_exit_row(f"repeated-key-{kind}", text, ["analytic"], _CONFIG,
                [f"config error: cannot parse config file {{cfg}}: key {key!r} repeated in one mapping"], name)
      for kind, name, text, key in (
          ("yaml", "dup.yaml", "alpha: 4\nalpha: 3\n", "alpha"),
          ("json", "dup.json", '{"alpha": 4, "alpha": 3}', "alpha"),
          ("yaml-same-value", "dup.yaml", "alpha: 4\nthresholds_db: [5]\nalpha: 4\n", "alpha"),
          ("nested", "dup.yaml", "thresholds_db: {a: 1, a: 2}\n", "a"))],
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
    # Python refuses to parse an int of over 4300 digits: the parser's
    # ValueError escaped as a traceback. The interpreter words the message
    *[_exit_row(f"int-digits-{kind}", '{"lambda_bs": 1' + "0" * 5000 + "}\n", ["analytic"], _CONFIG,
                _one_line(r"config error: cannot parse config file \S+: "
                          r"Exceeds the limit \(\d+ digits\) for integer string conversion.*"), name)
      for kind, name in (("yaml", "cfg.yaml"), ("json", "cfg.json"))],
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
    # sorting an int or a None key beside a str raised TypeError: a traceback
    # with exit 1, the code of a failed gate
    *[_exit_row(f"unknown-{kind}-key", f"{key}: 2\nfoo: 3\n", ["analytic"], _CONFIG,
                [f"config error: unknown config key: {shown}", "config error: unknown config key: foo"])
      for kind, key, shown in (("int", "1", "1"), ("null", "null", "None"))],
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
    # the schema's minimum, which every command reads
    _exit_row("zero-trials", None, ["simulate", "--trials", "0"], _CONFIG,
              ["config error: n_trials: must be an integer >= 1, got 0"]),
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
    # a comparison with nan is false, so any(b <= a) let 2,nan,1 through to
    # the config check of its nan
    _exit_row("grid-nan-not-increasing", None, ["sweep", "--axis", "lambda_ris", "--grid", "2,nan,1"], _CONFIG,
              ["config error: grid: must be nonempty and strictly increasing"]),
    _exit_row("grid-not-numbers", None, ["sweep", "--axis", "lambda_ris", "--grid", "1,abc"], _CONFIG,
              ["config error: grid: could not parse '1,abc' as numbers"]),
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


def test_table_ids_are_unique():
    # pytest renames a repeated explicit id, so a reference to a row by its id could name two rows
    for table in (_TYPED_EXITS, _EDGE_CONFIGS):
        ids = [row.id for row in table]
        assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)


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
