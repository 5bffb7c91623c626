"""Correctness checks on the files one riscov CLI command wrote.

Each check returns a list of problems; an empty list means the output is
correct. Analytic values must match the reference CSVs to ``ANALYTIC_ABS_TOL``;
Monte-Carlo outputs are checked for shape and finiteness, and ``compare``
must pass its own gates.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

ANALYTIC_ABS_TOL = 1e-6
MASS_TOL = 1e-8  # the CSV rounds densities and edges to 10 digits
MC_METRICS = 4  # gamma_o, gamma_a, gamma_b, gamma_s

KEY_FIELDS = ("engine", "metric", "T_db", "axis_name", "axis_value")


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _key(row: dict) -> tuple:
    return tuple(row[f] for f in KEY_FIELDS)


def _float(value: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def check_analytic_rows(rows: list[dict], reference_text: str) -> list[str]:
    """Every reference row present, with a finite value within the tolerance."""
    ref = {_key(r): _float(r["value"]) for r in _rows(reference_text)}
    got = {_key(r): _float(r["value"]) for r in rows}
    problems = []
    if set(got) != set(ref):
        problems.append(
            f"analytic rows differ from the reference: {len(set(ref) - set(got))} missing, "
            f"{len(set(got) - set(ref))} unexpected"
        )
    for key in sorted(set(got) & set(ref)):
        value, expected = got[key], ref[key]
        if not math.isfinite(value) or abs(value - expected) > ANALYTIC_ABS_TOL:
            problems.append(f"{','.join(key)}: value {value!r}, reference {expected!r}")
    return problems


def check_analytic_csv(text: str, reference_text: str) -> list[str]:
    return check_analytic_rows(_rows(text), reference_text)


def check_compare(out_dir: Path, reference_text: str) -> list[str]:
    rows = _rows((out_dir / "compare.csv").read_text())
    n_thresholds = len({r["T_db"] for r in _rows(reference_text)})
    report = json.loads((out_dir / "compare_report.json").read_text())
    problems = check_analytic_rows([r for r in rows if r["engine"] != "mc"], reference_text)
    mc = [r for r in rows if r["engine"] == "mc"]
    if len(mc) != MC_METRICS * n_thresholds:
        problems.append(f"compare: {len(mc)} mc rows, expected {MC_METRICS * n_thresholds}")
    for r in mc:
        p = _float(r["value"])
        if not 0.0 <= p <= 1.0 or not math.isfinite(_float(r["ci_half_width"])):
            problems.append(f"compare: bad mc row {_key(r)}: {r['value']} ± {r['ci_half_width']}")
    if report.get("all_passed") is not True:
        failed = [g for g in report.get("gates", []) if not g.get("passed")]
        problems.append(f"compare: {len(failed)} gates failed: {failed}")
    return problems


def check_hist(text: str, bins: int, n_trials: int) -> list[str]:
    rows = _rows(text)
    problems = []
    if len(rows) != bins:
        problems.append(f"hist: {len(rows)} rows, expected {bins}")
    mass = 0.0
    for r in rows:
        left, right = _float(r["bin_left"]), _float(r["bin_right"])
        density, pdf = _float(r["density"]), _float(r["analytic_pdf"])
        if not all(math.isfinite(v) for v in (left, right, density, pdf)) or right <= left:
            problems.append(f"hist: non-finite or empty bin {r}")
            continue
        mass += density * (right - left)
    if abs(mass - 1.0) > MASS_TOL:
        problems.append(f"hist: mass {mass!r}, expected 1")
    counts = sum(int(r["count"]) for r in rows)
    samples = {int(r["n_samples"]) for r in rows}
    if samples != {counts} or counts > n_trials or counts < 0.99 * n_trials:
        problems.append(f"hist: {counts} counted, n_samples {samples}, trials {n_trials}")
    return problems
