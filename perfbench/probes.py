"""Timing probes wrapped around riscov's public functions from outside the package.

A :class:`Tracer` looks each target up by name when it is installed, so a
function that a refactor deletes is reported as absent rather than failing the
run. Every module attribute bound to a target is replaced, which catches both
``module.func(...)`` calls and names imported with ``from module import func``.
Uninstalling puts the original objects back.

Self time is a probe's elapsed time minus the time spent in probes nested
inside it, so the self times of one command add up to at most its wall time.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time

PACKAGE = "riscov"
MODULES = ("config", "geometry", "channel", "analytic", "montecarlo", "cli")

# (metric prefix, module, functions whose times are summed under the prefix)
TARGETS = (
    ("config.load_config", "config", ("load_config",)),
    ("geometry.sample_ppp", "geometry", ("sample_ppp",)),
    ("geometry.nearest_point", "geometry", ("nearest_point",)),
    ("geometry.expected_inv_r1_squared", "geometry", ("expected_inv_r1_squared",)),
    ("geometry.expected_inv_r1_pow", "geometry", ("expected_inv_r1_pow",)),
    ("geometry.expected_r1", "geometry", ("expected_r1",)),
    ("geometry.pdf_r1_marginal", "geometry", ("pdf_r1_marginal",)),
    ("channel.reflection_gain", "channel", ("reflection_gain",)),
    ("channel.reflected_power_raw_moment", "channel", ("reflected_power_raw_moment",)),
    ("channel.mean_reflected_power", "channel", ("mean_reflected_power",)),
    ("analytic.interference_factor", "analytic", ("interference_factor",)),
    ("analytic.coverage", "analytic", (
        "coverage_baseline", "coverage_path_a",
        "coverage_path_b_approx1", "coverage_path_b_approx2",
    )),
    ("montecarlo.simulate", "montecarlo", ("simulate",)),
    ("montecarlo.drop_scenario", "montecarlo", ("drop_scenario",)),
    ("montecarlo.sir", "montecarlo", ("sir_baseline", "sir_path_a", "sir_path_b")),
    ("montecarlo.estimate_coverage", "montecarlo", ("estimate_coverage",)),
    ("montecarlo.empirical_histogram", "montecarlo", ("empirical_histogram",)),
    ("cli.run_analytic", "cli", ("run_analytic",)),
    ("cli.run_simulate", "cli", ("run_simulate",)),
    ("cli.run_sweep", "cli", ("run_sweep",)),
    ("cli.build_comparison", "cli", ("build_comparison",)),
    ("cli.rows_to_csv", "cli", ("rows_to_csv",)),
    ("cli.histogram_csv", "cli", ("histogram_csv",)),
)

COUNTERS = ("abs_tol_max", "trials", "points", "useful_points", "engaged", "inf_sir")


def empty_report() -> dict:
    return {
        "groups": {prefix: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for prefix, _, _ in TARGETS},
        "counters": dict.fromkeys(COUNTERS, 0.0),
        "absent": [],
    }


def merge_reports(reports) -> dict:
    """Sum the probe statistics of several commands (maximum for tolerances)."""
    out = empty_report()
    absent = set()
    for rep in reports:
        for prefix, st in rep["groups"].items():
            agg = out["groups"][prefix]
            for key in agg:
                agg[key] += st[key]
        for key, value in rep["counters"].items():
            if key == "abs_tol_max":
                out["counters"][key] = max(out["counters"][key], value)
            else:
                out["counters"][key] += value
        absent.update(rep["absent"])
    out["absent"] = sorted(absent)
    return out


class Tracer:
    """Installs the probes on entry and restores the originals on exit."""

    def __init__(self):
        self._report = empty_report()
        self._stack: list[float] = []  # child time accumulated per open probe
        self._patched: list[tuple[object, str, object]] = []

    # -- observers of returned values ----------------------------------------
    def _observe_interference(self, result):
        tol = getattr(result, "abs_tolerance", None)
        if tol is not None and math.isfinite(tol):
            c = self._report["counters"]
            c["abs_tol_max"] = max(c["abs_tol_max"], float(tol))

    def _observe_records(self, records):
        import numpy as np  # only a traced command process gets here

        try:
            trials = len(records)
        except TypeError:
            return
        c = self._report["counters"]
        c["trials"] += trials
        n_bs, n_ris = getattr(records, "n_bs", None), getattr(records, "n_ris", None)
        if n_bs is not None and n_ris is not None:
            c["points"] += float(np.sum(n_bs) + np.sum(n_ris))
            split = getattr(records, "n_interferers_split", np.zeros(trials))
            c["useful_points"] += float(trials + np.count_nonzero(n_ris) + np.sum(split))
        c["engaged"] += float(np.count_nonzero(getattr(records, "engaged", ())))
        for name in ("sir_o", "sir_a", "sir_b"):
            values = getattr(records, name, None)
            if values is not None:
                c["inf_sir"] += float(np.count_nonzero(np.isposinf(values)))

    # -- install / restore ----------------------------------------------------
    def _wrap(self, prefix: str, original, observe=None):
        stats = self._report["groups"][prefix]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def probe(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return probe

    def install(self) -> "Tracer":
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{name}"))
            except ModuleNotFoundError:
                pass  # its targets are reported absent below
        observers = {
            "analytic.interference_factor": self._observe_interference,
            "montecarlo.simulate": self._observe_records,
        }
        for prefix, module_name, names in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self._report["absent"].append(f"{module_name}.{name}")
                    continue
                probe = self._wrap(prefix, original, observers.get(prefix))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, probe)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def report(self) -> dict:
        return self._report
