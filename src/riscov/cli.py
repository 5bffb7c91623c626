"""Experiment orchestration: analytic curves, simulation runs, comparison gates.

Subcommands: ``analytic``, ``simulate``, ``compare``, ``sweep``, ``hist``.
Each command hands one :class:`riscov.config.NetworkConfig` to the engines;
its accessors do the dB-vs-linear and km^2-vs-m^2 conversions. One
decorator, ``_config_command``, declares the options every command shares,
builds that config from ``--config`` and the overrides (building it is what
checks it), and runs the command body under the typed exits below.

Exit codes: 0 success, 1 comparison gate failed, 2 config error,
4 pipeline error. Code 3 (formerly "simulation failure") is reserved.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

import click
import numpy as np

from . import analytic, channel, geometry, montecarlo
from .config import ORIENTATION_MODES, ConfigError, NetworkConfig, load_config
from .errors import RiscovError

CSV_HEADER = "engine,metric,T_db,axis_name,axis_value,value,ci_half_width,n_trials,config_hash,seed"

EXIT_GATE_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_PIPELINE_ERROR = 4

ANALYTIC_ENGINES = {
    "analytic_q2": "gamma_o",
    "analytic_q23": "gamma_a",
    "approx1": "gamma_b",
    "approx2": "gamma_b",
}

SWEEP_METRICS = ("coverage", "e_r1", "e_p_ris")

# a threshold this close (in dB) to `gamma_b_gate_t_db` gets the gamma_b gates
GATE_T_DB_ABS_TOL = 1e-9

SWEEP_AXES = {
    "lambda_ris": "lambda_ris_per_km2",
    "lambda_bs": "lambda_bs_per_km2",
    "N": "n_elements",
    "M": "m_elements",
    "T": "t_db",
}


@dataclass(frozen=True)
class ResultRow:
    """One (engine, metric, threshold) evaluation with provenance."""

    engine: str
    metric: str
    t_db: float | None
    axis_name: str
    axis_value: float | None
    value: float
    ci_half_width: float | None
    n_trials: int | None
    config_hash: str
    seed: int


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, ".10g")
    return str(x)


def _sort_key(row: ResultRow):
    return (
        row.engine,
        row.metric,
        row.t_db if row.t_db is not None else -math.inf,
        row.axis_name,
        row.axis_value if row.axis_value is not None else -math.inf,
    )


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in sorted(rows, key=_sort_key):
        lines.append(
            ",".join(
                [
                    r.engine,
                    r.metric,
                    _fmt(r.t_db),
                    r.axis_name,
                    _fmt(r.axis_value),
                    _fmt(r.value),
                    _fmt(r.ci_half_width),
                    _fmt(r.n_trials),
                    r.config_hash,
                    str(r.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def run_analytic(cfg: NetworkConfig, axis_name: str = "", axis_value=None) -> list[ResultRow]:
    """Evaluate every closed form at every configured threshold."""
    chash = cfg.config_hash()
    evaluators = {
        "analytic_q2": analytic.coverage_baseline,
        "analytic_q23": analytic.coverage_path_a,
        "approx1": analytic.coverage_path_b_approx1,
        "approx2": analytic.coverage_path_b_approx2,
    }
    thresholds = np.asarray(cfg.thresholds_linear, dtype=float)
    values = {engine: fn(cfg, thresholds) for engine, fn in evaluators.items()}
    return [
        ResultRow(
            engine=engine,
            metric=metric,
            t_db=float(t_db),
            axis_name=axis_name,
            axis_value=axis_value,
            value=float(values[engine][i]),
            ci_half_width=None,
            n_trials=None,
            config_hash=chash,
            seed=cfg.master_seed,
        )
        for i, t_db in enumerate(cfg.thresholds_db)
        for engine, metric in ANALYTIC_ENGINES.items()
    ]


def run_simulate(
    cfg: NetworkConfig,
    records: montecarlo.TrialRecords | None = None,
    axis_name: str = "",
    axis_value=None,
) -> tuple[list[ResultRow], montecarlo.TrialRecords]:
    """Simulate the configured run and reduce it to coverage rows."""
    if records is None:
        records = montecarlo.simulate(cfg)
    estimates = montecarlo.estimate_coverage(cfg, cfg.thresholds_linear, records=records)
    chash = cfg.config_hash()
    # estimates come metric by metric, each in threshold order; labelling by
    # position keeps thresholds apart that round to the same linear ratio
    rows = [
        ResultRow(
            engine="mc",
            metric=e.metric,
            t_db=float(t_db),
            axis_name=axis_name,
            axis_value=axis_value,
            value=e.probability,
            ci_half_width=e.ci_half_width,
            n_trials=e.n_trials,
            config_hash=chash,
            seed=cfg.master_seed,
        )
        for e, t_db in zip(estimates, cycle(cfg.thresholds_db))
    ]
    return rows, records


def build_comparison(
    cfg: NetworkConfig, analytic_rows: list[ResultRow], mc_rows: list[ResultRow]
) -> dict:
    """Join analytic and simulated curves and apply the configured gates.

    The reflected-path metric gets two gates: absolute agreement with the
    proportional-distance approximation and a one-sided margin against the
    dense-deployment lower bound.
    """
    if not analytic_rows or not mc_rows:
        raise RiscovError("missing engine outputs: need both analytic and mc rows")
    tol = cfg.compare_tolerances
    mc_by = {(r.metric, r.t_db): r for r in mc_rows}
    an_by = {(r.engine, r.t_db): r for r in analytic_rows}
    gates = []

    def add_gate(metric, t_db, engine, kind, tolerance):
        mc_row = mc_by.get((metric, t_db))
        an_row = an_by.get((engine, t_db))
        if mc_row is None or an_row is None:
            raise RiscovError(
                f"missing engine outputs for metric={metric} T={t_db} dB engine={engine}"
            )
        gap = float(mc_row.value) - float(an_row.value)
        if kind == "absolute":
            passed = abs(gap) <= tolerance
        else:  # one-sided lower bound: mc may undershoot by at most `tolerance`
            passed = gap >= -tolerance
        gates.append(
            {
                "metric": metric,
                "t_db": t_db,
                "engine": engine,
                "kind": kind,
                "analytic": float(an_row.value),
                "mc": float(mc_row.value),
                "mc_ci_half_width": float(mc_row.ci_half_width),
                "gap": gap,
                "tolerance": tolerance,
                "passed": bool(passed),
            }
        )

    for t_db in cfg.thresholds_db:
        t_db = float(t_db)
        add_gate("gamma_o", t_db, "analytic_q2", "absolute", tol.gamma_o)
        add_gate("gamma_a", t_db, "analytic_q23", "absolute", tol.gamma_a)
        # the reflected-path approximations are gated at their advertised
        # operating point only
        if math.isclose(t_db, float(tol.gamma_b_gate_t_db), abs_tol=GATE_T_DB_ABS_TOL):
            add_gate("gamma_b", t_db, "approx1", "absolute", tol.gamma_b_approx1)
            add_gate("gamma_b", t_db, "approx2", "lower_bound", tol.gamma_b_approx2_margin)

    return {
        "config_hash": cfg.config_hash(),
        "seed": cfg.master_seed,
        "n_trials": cfg.n_trials,
        "gates": gates,
        "all_passed": all(g["passed"] for g in gates),
    }


def run_sweep(
    cfg: NetworkConfig,
    axis: str,
    grid: list[float],
    metric: str = "coverage",
    with_mc: bool = False,
) -> list[ResultRow]:
    """Re-evaluate engines along one parameter axis."""
    if axis not in SWEEP_AXES:
        raise ConfigError([f"axis: must be one of {sorted(SWEEP_AXES)}, got {axis!r}"])
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(["grid: must be nonempty and strictly increasing"])
    if metric not in SWEEP_METRICS:
        raise ConfigError([f"metric: must be one of {SWEEP_METRICS}, got {metric!r}"])
    if axis == "T" and metric != "coverage":
        raise ConfigError(["metric: moment metrics do not depend on the threshold axis"])
    axis_name = SWEEP_AXES[axis]
    rows: list[ResultRow] = []
    for value in grid:
        if axis == "T":
            point_cfg = cfg.replace(thresholds_db=(float(value),))
        elif axis in ("N", "M"):
            # a fractional count reaches validation as a float and is rejected
            count = int(value) if float(value).is_integer() else value
            point_cfg = cfg.replace(**{"n_elements" if axis == "N" else "m_elements": count})
        else:
            point_cfg = cfg.replace(**{axis: float(value)})
        if metric == "coverage":
            rows.extend(run_analytic(point_cfg, axis_name, value))
            if with_mc:
                mc_rows, _ = run_simulate(point_cfg, axis_name=axis_name, axis_value=value)
                rows.extend(mc_rows)
        else:
            rows.append(_moment_row(point_cfg, metric, axis_name, value))
    return rows


def _moment_row(cfg: NetworkConfig, metric: str, axis_name: str, axis_value) -> ResultRow:
    if metric == "e_r1":
        value = geometry.expected_r1(cfg.lambda_bs_m2, cfg.lambda_ris_m2)
    else:
        value = channel.mean_reflected_power(cfg)
    return ResultRow(
        engine="analytic_moment",
        metric=metric,
        t_db=None,
        axis_name=axis_name,
        axis_value=axis_value,
        value=value,
        ci_half_width=None,
        n_trials=None,
        config_hash=cfg.config_hash(),
        seed=cfg.master_seed,
    )


def histogram_csv(cfg: NetworkConfig, hist: montecarlo.Histogram) -> str:
    """Histogram CSV with the analytic overlay where a closed form exists."""
    lam_b, lam_r = cfg.lambda_bs_m2, cfg.lambda_ris_m2
    overlay = {
        "r0": lambda x: geometry.pdf_r0(x, lam_b),
        "r2": lambda x: geometry.pdf_r2(x, lam_r),
        "r1": lambda x: geometry.pdf_r1_marginal(x, lam_b, lam_r) if x > 0 else 0.0,
    }.get(hist.quantity)
    chash = cfg.config_hash()
    lines = ["quantity,bin_left,bin_right,density,count,analytic_pdf,n_samples,config_hash,seed"]
    for left, right, dens, cnt in zip(
        hist.edges[:-1], hist.edges[1:], hist.density, hist.counts
    ):
        mid = 0.5 * (left + right)
        pdf = _fmt(float(overlay(mid))) if overlay is not None else ""
        lines.append(
            f"{hist.quantity},{_fmt(float(left))},{_fmt(float(right))},"
            f"{_fmt(float(dens))},{int(cnt)},{pdf},{hist.n_samples},{chash},{cfg.master_seed}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------

def _style(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR"):
        return text
    return click.style(text, fg="green" if ok else "red")


def _write(out_dir: str, name: str, text: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


_SHARED_OPTIONS = (
    click.option("--config", "-c", "config_path", type=click.Path(), default=None,
                 help="YAML or JSON config file; defaults fill missing keys."),
    click.option("--out", "out_dir", type=click.Path(), default="riscov_out",
                 help="Output directory for CSV/JSON artifacts."),
    click.option("--seed", "master_seed", type=int, default=None, help="Override master seed."),
    click.option("--trials", "n_trials", type=int, default=None, help="Override trial count."),
    click.option("--mode", "path_b_mode", type=click.Choice(["conditional", "unconditional"]),
                 default=None,
                 help="Engage the reflector only when closer than the base, or always."),
    click.option("--orientation", type=click.Choice(list(ORIENTATION_MODES)), default=None,
                 help="Interferer beam model: intensity thinning or explicit main lobes."),
)


def _config_command(fn):
    """Give a command the shared options and call it with the config they build.

    The command body runs as ``fn(cfg, out_dir, **its_own_options)`` inside
    :func:`_typed_exits`, so a bad config, option or input exits 2 and a
    failed computation exits 4.
    """
    @functools.wraps(fn)
    def command(config_path, master_seed, n_trials, path_b_mode, orientation, **kwargs):
        with _typed_exits():
            cfg = load_config(config_path) if config_path else NetworkConfig()
            changes = {"master_seed": master_seed, "n_trials": n_trials, "orientation": orientation}
            if path_b_mode is not None:
                changes["conditional_path_b"] = path_b_mode == "conditional"
            cfg = cfg.replace(**{k: v for k, v in changes.items() if v is not None})
            return fn(cfg, **kwargs)

    for option in _SHARED_OPTIONS:
        command = option(command)
    return command


@click.group()
@click.version_option(package_name="riscov")
def main():
    """Coverage analysis for reflector-assisted mmWave networks.

    Worker count for simulation comes from the RISCOV_WORKERS environment
    variable; results are independent of it.
    """


@main.command("analytic")
@_config_command
def analytic_cmd(cfg, out_dir):
    """Evaluate the closed-form coverage curves."""
    rows = run_analytic(cfg)
    path = _write(out_dir, "analytic.csv", rows_to_csv(rows))
    click.echo(f"wrote {path} ({len(rows)} rows)")


@main.command("simulate")
@_config_command
@click.option("--hist", "hist_quantities", multiple=True,
              type=click.Choice(list(montecarlo.HISTOGRAM_QUANTITIES)),
              help="Also emit a histogram CSV for this quantity (repeatable).")
def simulate_cmd(cfg, out_dir, hist_quantities):
    """Run the Monte-Carlo engine and emit empirical coverage curves."""
    rows, records = run_simulate(cfg)
    path = _write(out_dir, "simulate.csv", rows_to_csv(rows))
    click.echo(f"wrote {path} ({len(rows)} rows)")
    for quantity in hist_quantities:
        h = montecarlo.empirical_histogram(cfg, quantity, records=records)
        hpath = _write(out_dir, f"hist_{quantity}.csv", histogram_csv(cfg, h))
        click.echo(f"wrote {hpath}")


@main.command("compare")
@_config_command
def compare_cmd(cfg, out_dir):
    """Run both engines, join them, and gate the gaps; nonzero exit on failure."""
    analytic_rows = run_analytic(cfg)
    mc_rows, _ = run_simulate(cfg)
    report = build_comparison(cfg, analytic_rows, mc_rows)
    _write(out_dir, "compare.csv", rows_to_csv(analytic_rows + mc_rows))
    _write(out_dir, "compare_report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    for g in report["gates"]:
        status = "PASS" if g["passed"] else "FAIL"
        click.echo(
            _style(
                f"[{status}] {g['metric']} vs {g['engine']} @ {g['t_db']:+.1f} dB: "
                f"mc={g['mc']:.4f} analytic={g['analytic']:.4f} gap={g['gap']:+.4f} "
                f"tol={g['tolerance']}",
                g["passed"],
            )
        )
    click.echo(f"wrote {Path(out_dir) / 'compare_report.json'}")
    if not report["all_passed"]:
        sys.exit(EXIT_GATE_FAILED)


@main.command("sweep")
@_config_command
@click.option("--axis", required=True, type=click.Choice(list(SWEEP_AXES)))
@click.option("--grid", required=True, help="Comma-separated, strictly increasing values.")
@click.option("--metric", default="coverage", type=click.Choice(list(SWEEP_METRICS)))
@click.option("--with-mc", is_flag=True, default=False, help="Also simulate at every grid point.")
def sweep_cmd(cfg, out_dir, axis, grid, metric, with_mc):
    """Evaluate engines along one parameter axis."""
    try:
        grid_values = [float(v) for v in grid.split(",") if v.strip()]
    except ValueError:
        raise ConfigError([f"grid: could not parse {grid!r} as numbers"])
    rows = run_sweep(cfg, axis, grid_values, metric=metric, with_mc=with_mc)
    path = _write(out_dir, "sweep.csv", rows_to_csv(rows))
    click.echo(f"wrote {path} ({len(rows)} rows)")


@main.command("hist")
@_config_command
@click.option("--quantity", required=True, type=click.Choice(list(montecarlo.HISTOGRAM_QUANTITIES)))
@click.option("--bins", default=60, type=int)
def hist_cmd(cfg, out_dir, quantity, bins):
    """Emit a normalized histogram of one per-trial quantity."""
    if bins < 1:
        raise ConfigError([f"bins: must be at least 1, got {bins}"])
    h = montecarlo.empirical_histogram(cfg, quantity, bins=bins)
    path = _write(out_dir, f"hist_{quantity}.csv", histogram_csv(cfg, h))
    click.echo(f"wrote {path}")


@contextmanager
def _typed_exits():
    """Turn package errors into one stderr line and their documented exit code."""
    try:
        yield
    except ConfigError as exc:
        for err in exc.errors:
            click.echo(f"config error: {err}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except RiscovError as exc:
        click.echo(f"pipeline error: {exc}", err=True)
        sys.exit(EXIT_PIPELINE_ERROR)


if __name__ == "__main__":
    main()
