"""Shared fixtures: the two expensive reference simulation runs.

Both runs, with their estimates at the configured thresholds and their
records, are reused across the unit tests and the acceptance suite so the
whole suite pays for each 1e5-trial estimate and draw exactly once.

Every ``@given`` test runs under one hypothesis profile: derandomized, so each
run draws the same examples, with no example database and no deadline.
"""
from __future__ import annotations

import functools
import time

import pytest
from hypothesis import settings

from riscov import montecarlo
from riscov.config import NetworkConfig

ACCEPT_SEED = 20260810

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


class TimedRun:
    """The estimates of ``cfg``'s run by metric, with the wall time of the
    estimating call, and its records, drawn on first use."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        t0 = time.perf_counter()
        self.estimates = montecarlo.run(cfg)
        self.duration_s = time.perf_counter() - t0

    @functools.cached_property
    def records(self) -> montecarlo.TrialRecords:
        return montecarlo.draw(self.cfg)


@pytest.fixture(scope="session")
def dense_run() -> TimedRun:
    """1e5 trials at the default dense-reflector operating point."""
    return TimedRun(NetworkConfig(n_trials=100_000, master_seed=ACCEPT_SEED))


@pytest.fixture(scope="session")
def sparse_run() -> TimedRun:
    """1e5 trials at the distance-distribution benchmark densities
    (1000 reflectors and 25 bases per km^2)."""
    return TimedRun(
        NetworkConfig(lambda_ris=1000.0, n_trials=100_000, master_seed=ACCEPT_SEED + 1)
    )
