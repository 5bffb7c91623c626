"""Experiment orchestration: analytic curves, simulation runs, comparison gates.

Subcommands: ``analytic``, ``simulate``, ``compare``, ``sweep``, ``hist``.
Each command hands one :class:`riscov.config.NetworkConfig` to the engines,
which read its thresholds and its dimensionless groups; only the ``e_r1``
sweep reads a raw density. One decorator, ``_config_command``, declares the
options every command shares, builds that config from ``--config`` and the
overrides (building it is what checks it), and runs the command body under
the typed exits below. The shared options are ``--config``, ``--out``,
``--seed`` and ``--trials``.
The engines are imported by the functions that compute, so ``--help``,
``--version`` and a config error load none. numpy is the Monte-Carlo
engine's dependency: ``analytic`` and ``sweep`` evaluate closed forms with
``math`` alone, and only ``simulate``, ``compare``, ``hist`` and ``sweep
--with-mc`` load it.

One table, :data:`GATES`, pairs each closed form with the simulated metric
it predicts and with the gate that ``compare`` applies to their gap;
``analytic`` evaluates the closed forms in that table. The gates are fixed:
no config or option changes a tolerance or drops a gate. ``compare`` reads
the simulated estimates look by look (:func:`riscov.montecarlo.looks`) and
stops at the first look that decides every gate, so ``--trials`` is its
cap; its rows and report state the points it read. ``simulate``, ``sweep
--with-mc`` and ``hist`` evaluate their full count.

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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__
from .config import HISTOGRAM_BINS, HISTOGRAM_QUANTITIES, KM2_TO_M2, ConfigError, NetworkConfig, load_config
from .errors import RiscovError

if TYPE_CHECKING:
    import numpy as np

CSV_HEADER = "engine,metric,T_db,axis_name,axis_value,value,ci_half_width,n_trials,config_hash,seed"
HIST_HEADER = "quantity,bin_left,bin_right,density,count,analytic_pdf,n_samples,config_hash,seed"

EXIT_GATE_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_PIPELINE_ERROR = 4

SWEEP_METRICS = ("coverage", "e_r1", "e_p_ris")

# a threshold within max(this, 1e-9 * |t_db|) dB of a gate's `t_db` gets it (isclose's rel_tol): 5e-9 dB at 5 dB
GATE_T_DB_ABS_TOL = 1e-9


@dataclass(frozen=True)
class Gate:
    """One closed form, the simulated metric it predicts, and how the gap is gated.

    ``closed_form`` names a function of :mod:`riscov.analytic`, looked up at
    each call so that a patched module attribute is the one called. ``kind``
    is ``"absolute"`` (|mc - analytic| <= tolerance) or ``"lower_bound"`` (mc
    may undershoot the bound by at most the tolerance). ``t_db`` None gates
    every threshold; a number gates that threshold only.
    """

    engine: str
    closed_form: str
    metric: str
    kind: str
    tolerance: float
    t_db: float | None = None


# The gates of `compare`, in report order at each threshold. The reflected-path
# approximations are advertised for dense deployments at moderate thresholds,
# so they are gated at 5 dB only.
GATES = (
    Gate("analytic_q2", "coverage_baseline", "gamma_o", "absolute", 0.02),
    Gate("analytic_q23", "coverage_path_a", "gamma_a", "absolute", 0.02),
    Gate("approx1", "coverage_path_b_approx1", "gamma_b", "absolute", 0.05, t_db=5.0),
    Gate("approx2", "coverage_path_b_approx2", "gamma_b", "lower_bound", 0.03, t_db=5.0),
)

SWEEP_AXES = {
    "lambda_ris": "lambda_ris_per_km2",
    "lambda_bs": "lambda_bs_per_km2",
    "N": "n_elements",
    "M": "m_elements",
    "T": "t_db",
}


@dataclass(frozen=True)
class ResultRow:
    """One (engine, metric, threshold) evaluation with provenance, fields in CSV column order."""

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
        return format(x, ".10g")  # inf and nan too
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
    names = [f.name for f in fields(ResultRow)]
    lines = [",".join(_fmt(getattr(r, n)) for n in names) for r in sorted(rows, key=_sort_key)]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def _row_builder(cfg: NetworkConfig) -> functools.partial:
    """:class:`ResultRow` with ``cfg``'s provenance filled in, at no sweep position."""
    return functools.partial(
        ResultRow, axis_name="", axis_value=None, ci_half_width=None,
        n_trials=None, config_hash=cfg.config_hash(), seed=cfg.master_seed,
    )


def run_analytic(cfg: NetworkConfig) -> list[ResultRow]:
    """Evaluate every gated closed form at every configured threshold."""
    from . import analytic
    row = _row_builder(cfg)
    values = {g.engine: getattr(analytic, g.closed_form)(cfg) for g in GATES}
    return [
        row(engine=g.engine, metric=g.metric, t_db=float(t_db), value=float(values[g.engine][i]))
        for i, t_db in enumerate(cfg.thresholds_db)
        for g in GATES
    ]


def _mc_rows(cfg: NetworkConfig, points: int, estimates: dict) -> list[ResultRow]:
    """The coverage rows of :mod:`riscov.montecarlo` estimates from ``points`` lattice points."""
    row = functools.partial(_row_builder(cfg), engine="mc", n_trials=points)
    return [
        row(metric=metric, t_db=float(t_db), value=float(est.probability[j]),
            ci_half_width=float(est.ci_half_width[j]))
        for metric, est in estimates.items()
        for j, t_db in enumerate(cfg.thresholds_db)
    ]


def run_simulate(cfg: NetworkConfig) -> list[ResultRow]:
    """Simulate the configured run and reduce it to coverage rows."""
    from . import montecarlo
    *_, (points, estimates) = montecarlo.looks(cfg)
    return _mc_rows(cfg, points, estimates)


def run_compare(cfg: NetworkConfig) -> tuple[list[ResultRow], dict]:
    """``compare``'s rows and report: the simulated rows of the first look at which every gate is decided.

    The looks are :func:`riscov.montecarlo.looks`'; ``n_trials`` is the cap,
    and a gate still undecided at the last look keeps the verdict of its gap.
    """
    analytic_rows = run_analytic(cfg)
    from . import montecarlo  # after the closed forms: imported first, it raised the peak RSS by 0.2 MB
    for points, estimates in montecarlo.looks(cfg):
        mc_rows = _mc_rows(cfg, points, estimates)
        report = build_comparison(cfg, analytic_rows, mc_rows)
        if all(g["decided"] for g in report["gates"]):
            break
    return analytic_rows + mc_rows, report


def build_comparison(
    cfg: NetworkConfig, analytic_rows: list[ResultRow], mc_rows: list[ResultRow]
) -> dict:
    """Join analytic and simulated curves and apply the gates of :data:`GATES`.

    A gate's band is ``[-tol, tol]`` for an absolute gate and ``[-tol, inf)``
    for a lower bound. It passes where its gap lies in the band. It is
    decided where the gap's interval, the half-width widened from
    ``T_QUANTILE`` to ``LOOK_QUANTILE`` of :mod:`riscov.montecarlo`, lies
    wholly inside the band or wholly outside it.
    """
    from . import montecarlo  # loaded already by whatever made mc_rows
    widen = montecarlo.LOOK_QUANTILE / montecarlo.T_QUANTILE
    mc_by = {(r.metric, r.t_db): r for r in mc_rows}
    an_by = {(r.engine, r.t_db): r for r in analytic_rows}
    gates = []
    for t_db in map(float, cfg.thresholds_db):
        for g in GATES:
            if g.t_db is not None and not math.isclose(t_db, g.t_db, abs_tol=GATE_T_DB_ABS_TOL):
                continue
            mc_row = mc_by[(g.metric, t_db)]
            an_row = an_by[(g.engine, t_db)]
            gap = float(mc_row.value) - float(an_row.value)
            low, high = gap - widen * mc_row.ci_half_width, gap + widen * mc_row.ci_half_width
            bottom, top = -g.tolerance, g.tolerance if g.kind == "absolute" else math.inf  # the gate's band
            passed = bottom <= gap <= top
            decided = bottom <= low and high <= top or high < bottom or low > top
            gates.append(
                {
                    "metric": g.metric,
                    "t_db": t_db,
                    "engine": g.engine,
                    "kind": g.kind,
                    "analytic": float(an_row.value),
                    "mc": float(mc_row.value),
                    "mc_ci_half_width": float(mc_row.ci_half_width),
                    "gap": gap,
                    "tolerance": g.tolerance,
                    "passed": bool(passed),
                    "decided": bool(decided),
                }
            )
    return {
        "config_hash": cfg.config_hash(),
        "seed": cfg.master_seed,
        "n_trials": mc_rows[0].n_trials,  # the points evaluated, as in compare.csv
        "gates": gates,
        "all_passed": all(g["passed"] for g in gates),
    }


def _report_json(report: dict) -> str:
    """``report`` as strict JSON: a non-finite gate value is written as null."""
    gates = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in g.items()}
        for g in report["gates"]
    ]
    return json.dumps({**report, "gates": gates}, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run_sweep(
    cfg: NetworkConfig,
    axis: str,
    grid: list[float],
    metric: str = "coverage",
    with_mc: bool = False,
) -> list[ResultRow]:
    """Re-evaluate engines along one parameter axis.

    ``axis`` is a key of :data:`SWEEP_AXES` and ``metric`` one of
    :data:`SWEEP_METRICS`; the ``sweep`` command's choices enforce both.
    Each grid point's rows are those of its config, labelled with the axis.
    """
    if not grid or not all(a < b for a, b in zip(grid, grid[1:])):
        raise ConfigError(["grid: must be nonempty and strictly increasing"])
    if metric != "coverage" and (axis == "T" or with_mc):  # a moment has no threshold and is not simulated
        raise ConfigError([f"metric: {metric} is a moment: it takes neither --axis T nor --with-mc"])
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
            point_rows = run_analytic(point_cfg) + (run_simulate(point_cfg) if with_mc else [])
        else:
            point_rows = [_moment_row(point_cfg, metric)]
        rows.extend(replace(r, axis_name=axis_name, axis_value=value) for r in point_rows)
    return rows


def _moment_row(cfg: NetworkConfig, metric: str) -> ResultRow:
    from . import analytic, geometry
    if metric == "e_r1":  # in km at the densities per km^2, then in metres
        value = geometry.expected_r1(cfg.lambda_bs, cfg.lambda_ris) / math.sqrt(KM2_TO_M2)
    else:
        value = analytic.mean_reflected_power(cfg)
    return _row_builder(cfg)(engine="analytic_moment", metric=metric, t_db=None, value=value)


def histogram_csv(cfg: NetworkConfig, quantity: str, counts: np.ndarray, edges: np.ndarray,
                  overlay: np.ndarray | None) -> str:
    """Histogram CSV of unit mass: the rows of :func:`riscov.montecarlo.empirical_histogram`'s output.

    An overlay of ``None`` (``p_ris_dbw``) leaves the ``analytic_pdf`` cells empty.
    """
    total = int(counts.sum())
    density = counts / (total * (edges[1:] - edges[:-1]))
    pdfs = [None] * len(counts) if overlay is None else overlay.tolist()  # _fmt writes None as an empty cell
    provenance = f"{total},{cfg.config_hash()},{cfg.master_seed}"
    bins = zip(edges[:-1].tolist(), edges[1:].tolist(), density.tolist(), counts.tolist(), pdfs)
    lines = [",".join([quantity, *map(_fmt, cells), provenance]) for cells in bins]
    return "\n".join([HIST_HEADER, *lines]) + "\n"


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------

def _style(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR"):
        return text
    return click.style(text, fg="green" if ok else "red")


def _write(out_dir: str, texts: dict[str, str]) -> list[Path]:
    """Write each ``{name: text}`` into ``out_dir``, or none where ``--out`` cannot take them all.

    Every text is written to a temporary file in ``out_dir`` first, and each
    is moved into place only once all are written; a failed write removes
    the temporaries. A name held by a symlink is replaced, not written through.
    """
    paths = [Path(out_dir, name) for name in texts]
    temps = [Path(out_dir, f".{name}.{os.getpid()}.tmp") for name in texts]
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for path in paths:  # checked before any write, so none is left behind
            if path.is_dir() and not path.is_symlink():
                raise ConfigError([f"--out: cannot write {path}: it is a directory"])
        try:
            for temp, text in zip(temps, texts.values()):
                temp.write_text(text)
            for temp, path in zip(temps, paths):
                os.replace(temp, path)
        finally:
            for temp in temps:
                temp.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError([f"--out: cannot write {exc.filename or out_dir}: {exc.strerror}"])
    return paths


_SHARED_OPTIONS = (
    click.option("--config", "-c", "config_path", type=click.Path(), default=None,
                 help="YAML or JSON config file; defaults fill missing keys."),
    click.option("--out", "out_dir", type=click.Path(), default="riscov_out",
                 help="Output directory for CSV/JSON artifacts."),
    click.option("--seed", "master_seed", type=int, default=None, help="Override master seed."),
    click.option("--trials", "n_trials", type=int, default=None, help="Override trial count."),
)


def _config_command(fn):
    """Give a command the shared options and call it with the config they build.

    The command body runs as ``fn(cfg, out_dir, **its_own_options)`` inside
    :func:`_typed_exits`, so a bad config, option or input exits 2 and a
    failed computation exits 4.
    """
    @functools.wraps(fn)
    def command(config_path, master_seed, n_trials, **kwargs):
        with _typed_exits():
            cfg = load_config(config_path) if config_path else NetworkConfig()
            changes = {"master_seed": master_seed, "n_trials": n_trials}
            cfg = cfg.replace(**{k: v for k, v in changes.items() if v is not None})
            return fn(cfg, **kwargs)

    for option in _SHARED_OPTIONS:
        command = option(command)
    return command


@click.group()
@click.version_option(version=__version__, prog_name="riscov")
def main():
    """Coverage analysis for reflector-assisted mmWave networks."""


@main.command("analytic")
@_config_command
def analytic_cmd(cfg, out_dir):
    """Evaluate the closed-form coverage curves."""
    rows = run_analytic(cfg)
    [path] = _write(out_dir, {"analytic.csv": rows_to_csv(rows)})
    click.echo(f"wrote {path} ({len(rows)} rows)")


@main.command("simulate")
@_config_command
def simulate_cmd(cfg, out_dir):
    """Run the Monte-Carlo engine and emit empirical coverage curves."""
    rows = run_simulate(cfg)
    [path] = _write(out_dir, {"simulate.csv": rows_to_csv(rows)})
    click.echo(f"wrote {path} ({len(rows)} rows)")


@main.command("compare")
@_config_command
def compare_cmd(cfg, out_dir):
    """Run both engines, join them, and gate the gaps; nonzero exit on failure."""
    rows, report = run_compare(cfg)
    _, report_path = _write(out_dir, {"compare.csv": rows_to_csv(rows),
                                      "compare_report.json": _report_json(report)})
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
    click.echo(f"wrote {report_path}")
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
    [path] = _write(out_dir, {"sweep.csv": rows_to_csv(rows)})
    click.echo(f"wrote {path} ({len(rows)} rows)")


@main.command("hist")
@_config_command
@click.option("--quantity", required=True, type=click.Choice(list(HISTOGRAM_QUANTITIES)),
              help="r0, r1 or r2 in metres, or p_ris_dbw: the peak reflected power in dBW, 10*log10(P / 1 W).")
@click.option("--bins", default=HISTOGRAM_BINS, type=int)
def hist_cmd(cfg, out_dir, quantity, bins):
    """Emit a normalized histogram of one per-trial quantity."""
    from . import montecarlo
    histogram = montecarlo.empirical_histogram(cfg, quantity, bins)
    [path] = _write(out_dir, {f"hist_{quantity}.csv": histogram_csv(cfg, quantity, *histogram)})
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
