"""End-to-end stochastic simulator and independent oracle for the closed forms.

One trial drops both point processes around a user at the origin, identifies
the serving base and the engaged reflector, applies beam thinning and fading,
and evaluates the per-path SIRs. One :class:`riscov.config.NetworkConfig`
describes a run, trial count, seed and model flags included. Every trial is a
pure function of ``(master_seed, trial_index)``; results are therefore
independent of chunking and of how many workers execute the chunks.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import channel, geometry
from .config import NetworkConfig
from .errors import EmptyScenarioError, ParameterError

WORKERS_ENV_VAR = "RISCOV_WORKERS"
CHUNK_TRIALS = 1024  # fixed chunking keeps merges identical for any worker count

METRICS = ("gamma_o", "gamma_a", "gamma_b", "gamma_s")
HISTOGRAM_QUANTITIES = ("r0", "r1", "r2", "p_ris")


@dataclass(frozen=True, eq=False)
class Fades:
    """Per-link exponential power gains of one trial."""

    g: np.ndarray  # one per base station; index of the serving base is g0
    f1: float      # base-to-reflector (effective, see shared_ris_fade)
    h: float       # reflector-to-user


@dataclass(frozen=True, eq=False)
class Scenario:
    """One realized drop; all downstream SIRs are deterministic given this."""

    bs_points: geometry.PointSet
    ris_points: geometry.PointSet
    serving_bs_index: int
    nearest_ris_index: int | None
    engaged_ris_index: int | None
    r0: float
    r2: float  # nan when the reflector process is empty
    r1: float  # nan when the reflector process is empty
    fades: Fades
    retained_single: np.ndarray  # interferers surviving single-beam thinning
    retained_split: np.ndarray   # interferers surviving split-beam thinning
    trial_index: int


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent substream for one trial, stable across chunking/workers."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index)))


def drop_scenario(cfg: NetworkConfig, trial_index: int) -> Scenario:
    """Sample one scenario: processes, associations, thinning, fades.

    The draw order (base count/radii/angles, reflector count/radii/angles,
    orientation draws, base fades, reflector-link fades, user-link fade) is
    part of the reproducibility contract.
    """
    rng = trial_rng(cfg.master_seed, trial_index)

    lam_bs = cfg.lambda_bs_m2
    lam_ris = cfg.lambda_ris_m2
    try:
        bs = geometry.sample_ppp_nonempty(lam_bs, geometry.window_radius(lam_bs), rng)
    except EmptyScenarioError as exc:
        raise EmptyScenarioError(f"trial {trial_index}: {exc}") from exc
    ris = geometry.sample_ppp(lam_ris, geometry.window_radius(lam_ris), rng)

    n_bs = len(bs)
    if cfg.orientation == "thinning":
        # independent thinning at exactly the analysis' retention probability
        u = rng.random(n_bs)
        single = u < 1.0 / math.sqrt(cfg.n_elements)
        split = u < math.sqrt(2.0 / cfg.n_elements)
    else:
        # explicit main lobes: retained iff the beam covers the user
        boresight = 2.0 * math.pi * rng.random(n_bs)
        to_user = np.arctan2(-bs.points[:, 1], -bs.points[:, 0])
        off = np.abs((boresight - to_user + math.pi) % (2.0 * math.pi) - math.pi)
        psi_single = channel.BeamModel(cfg.n_elements, channel.SINGLE_BEAM).beamwidth
        psi_split = channel.BeamModel(cfg.n_elements, channel.SPLIT_BEAM).beamwidth
        single = off <= psi_single / 2.0
        split = off <= psi_split / 2.0

    g = rng.exponential(1.0 / cfg.mu, n_bs)
    if cfg.shared_ris_fade:
        f1 = float(rng.exponential(1.0 / cfg.mu))
    else:
        # per-element amplitude fades, coherently combined
        f_m = rng.exponential(1.0 / cfg.mu, cfg.m_elements)
        f1 = float(np.sqrt(f_m).mean() ** 2)
    h = float(rng.exponential(1.0 / cfg.mu))

    serving, r0 = geometry.nearest_point(bs)
    single[serving] = False
    split[serving] = False

    if len(ris):
        nearest_ris, r2 = geometry.nearest_point(ris)
        d = bs.points[serving] - ris.points[nearest_ris]
        r1 = float(np.hypot(d[0], d[1]))
    else:
        nearest_ris, r2, r1 = None, math.nan, math.nan

    engaged = nearest_ris
    if engaged is not None and cfg.conditional_path_b and not (r2 < r0):
        engaged = None

    return Scenario(
        bs_points=bs,
        ris_points=ris,
        serving_bs_index=serving,
        nearest_ris_index=nearest_ris,
        engaged_ris_index=engaged,
        r0=r0,
        r2=r2,
        r1=r1,
        fades=Fades(g=g, f1=f1, h=h),
        retained_single=single,
        retained_split=split,
        trial_index=trial_index,
    )


# ---------------------------------------------------------------------------
# per-trial SIRs
# ---------------------------------------------------------------------------
#
# Transmit power never appears below: it cancels identically between signal
# and interference, so simulated SIRs are bit-identical under power rescaling.

def _interference(s: Scenario, mask: np.ndarray, alpha: float) -> float:
    radii = s.bs_points.radii()[mask]
    if radii.size == 0:
        return 0.0
    return float(np.sum(s.fades.g[mask] * radii**-alpha))

def sir_baseline(s: Scenario, alpha: float) -> float:
    """Single-beam SIR; +inf when no interferer survived thinning."""
    i_sum = _interference(s, s.retained_single, alpha)
    signal = s.fades.g[s.serving_bs_index] * s.r0**-alpha
    return signal / i_sum if i_sum > 0 else math.inf


def sir_path_a(s: Scenario, alpha: float) -> float:
    """Split-beam direct-path SIR over the wider retained interferer set."""
    i_sum = _interference(s, s.retained_split, alpha)
    signal = s.fades.g[s.serving_bs_index] * s.r0**-alpha
    return signal / i_sum if i_sum > 0 else math.inf


def sir_path_b(
    s: Scenario, alpha: float, reflection: channel.ReflectionModel
) -> float | None:
    """Reflected-path SIR, or None when no reflector is engaged."""
    if s.engaged_ris_index is None:
        return None
    gain = channel.reflection_gain(reflection, s.fades.f1, s.r1, alpha)
    i_sum = _interference(s, s.retained_split, alpha)
    signal = gain * s.fades.h * s.r2**-alpha
    return signal / i_sum if i_sum > 0 else math.inf


def sir_selection(
    s: Scenario, alpha: float, reflection: channel.ReflectionModel
) -> float:
    """Selection diversity: the stronger of the two paths."""
    a = sir_path_a(s, alpha)
    b = sir_path_b(s, alpha, reflection)
    return a if b is None else max(a, b)


# ---------------------------------------------------------------------------
# batch execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Column-wise per-trial outputs of a run, in trial order."""

    sir_o: np.ndarray
    sir_a: np.ndarray
    sir_b: np.ndarray          # nan where no engaged reflector
    reflect_gain: np.ndarray   # reflected power per unit per-beam power; nan w/o reflector
    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    engaged: np.ndarray        # bool
    n_bs: np.ndarray
    n_ris: np.ndarray
    n_interferers_single: np.ndarray
    n_interferers_split: np.ndarray

    def __len__(self) -> int:
        return len(self.sir_o)

    @property
    def sir_s(self) -> np.ndarray:
        return np.where(np.isnan(self.sir_b), self.sir_a, np.maximum(self.sir_a, self.sir_b))

    def metric_values(self, metric: str) -> np.ndarray:
        if metric == "gamma_o":
            return self.sir_o
        if metric == "gamma_a":
            return self.sir_a
        if metric == "gamma_b":
            return self.sir_b[self.engaged]
        if metric == "gamma_s":
            return self.sir_s
        raise ParameterError(f"unknown metric {metric!r}")


def _simulate_chunk(args) -> dict:
    cfg, start, stop = args
    reflection = cfg.reflection_model()
    n = stop - start
    cols = {
        name: np.empty(n)
        for name in ("sir_o", "sir_a", "sir_b", "reflect_gain", "r0", "r1", "r2")
    }
    engaged = np.empty(n, dtype=bool)
    n_bs = np.empty(n, dtype=np.int32)
    n_ris = np.empty(n, dtype=np.int32)
    n_int_single = np.empty(n, dtype=np.int32)
    n_int_split = np.empty(n, dtype=np.int32)
    for k in range(n):
        s = drop_scenario(cfg, start + k)
        cols["sir_o"][k] = sir_baseline(s, cfg.alpha)
        cols["sir_a"][k] = sir_path_a(s, cfg.alpha)
        b = sir_path_b(s, cfg.alpha, reflection)
        cols["sir_b"][k] = math.nan if b is None else b
        if s.nearest_ris_index is None:
            cols["reflect_gain"][k] = math.nan
        else:
            cols["reflect_gain"][k] = channel.reflection_gain(
                reflection, s.fades.f1, s.r1, cfg.alpha
            )
        cols["r0"][k] = s.r0
        cols["r1"][k] = s.r1
        cols["r2"][k] = s.r2
        engaged[k] = s.engaged_ris_index is not None
        n_bs[k] = len(s.bs_points)
        n_ris[k] = len(s.ris_points)
        n_int_single[k] = int(np.count_nonzero(s.retained_single))
        n_int_split[k] = int(np.count_nonzero(s.retained_split))
    cols["engaged"] = engaged
    cols["n_bs"] = n_bs
    cols["n_ris"] = n_ris
    cols["n_interferers_single"] = n_int_single
    cols["n_interferers_split"] = n_int_split
    return cols


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        print(f"warning: {WORKERS_ENV_VAR}={raw!r} is not an integer; using 1 worker",
              file=sys.stderr)
        return 1


def simulate(cfg: NetworkConfig) -> TrialRecords:
    """Run all trials; output independent of the worker count.

    Trials are split into fixed-size chunks; each chunk seeds its own trials
    from ``(master_seed, trial_index)``, so the merge (a concatenation in
    chunk order) is associative and scheduling-free.
    """
    cfg.require_valid()
    chunks = [
        (cfg, start, min(start + CHUNK_TRIALS, cfg.n_trials))
        for start in range(0, cfg.n_trials, CHUNK_TRIALS)
    ]
    workers = worker_count()
    if workers == 1 or len(chunks) == 1:
        results = [_simulate_chunk(c) for c in chunks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(workers, len(chunks))) as pool:
            results = list(pool.imap(_simulate_chunk, chunks, chunksize=1))
    merged = {
        key: np.concatenate([r[key] for r in results]) for key in results[0]
    }
    return TrialRecords(**merged)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageEstimate:
    """Empirical CCDF point with a 95% normal-approximation half-width."""

    threshold: float
    metric: str
    probability: float
    ci_half_width: float
    n_trials: int


def _binomial_ci(p: float, n: int) -> float:
    if n == 0:
        return math.nan
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


def estimate_coverage(
    cfg: NetworkConfig,
    thresholds,
    records: TrialRecords | None = None,
) -> list[CoverageEstimate]:
    """Empirical ``Pr[SIR > T]`` per metric and threshold.

    ``gamma_b`` conditions on an engaged reflector being present; the other
    metrics use every trial. Pass precomputed ``records`` to reuse a run.
    """
    if cfg.n_trials < 100:
        raise ParameterError("estimate_coverage needs at least 100 trials")
    if records is None:
        records = simulate(cfg)
    out = []
    for metric in METRICS:
        values = records.metric_values(metric)
        n = len(values)
        for t in thresholds:
            if t <= 0:
                raise ParameterError(f"thresholds must be positive linear ratios, got {t!r}")
            p = float(np.count_nonzero(values > t)) / n if n else math.nan
            out.append(
                CoverageEstimate(
                    threshold=float(t),
                    metric=metric,
                    probability=p,
                    ci_half_width=_binomial_ci(p, n),
                    n_trials=n,
                )
            )
    return out


@dataclass(frozen=True, eq=False)
class Histogram:
    """Normalized empirical density: ``sum(density * widths) == 1``."""

    quantity: str
    edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray
    n_samples: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def empirical_histogram(
    cfg: NetworkConfig,
    quantity: str,
    bins: int = 60,
    value_range: tuple[float, float] | None = None,
    records: TrialRecords | None = None,
) -> Histogram:
    """Histogram of a per-trial quantity, normalized to unit mass.

    Distances come from the raw drop (no engaged conditioning), matching the
    unconditional analytic laws; ``p_ris`` is the peak reflected power in
    watts at the configured transmit power.
    """
    if quantity not in HISTOGRAM_QUANTITIES:
        raise ParameterError(f"unknown histogram quantity {quantity!r}")
    if cfg.n_trials < 1000:
        raise ParameterError("empirical_histogram needs at least 1000 trials")
    if records is None:
        records = simulate(cfg)
    if quantity == "p_ris":
        values = 0.5 * cfg.p_s * records.reflect_gain
    else:
        values = getattr(records, quantity)
    values = values[np.isfinite(values)]
    if value_range is None:
        value_range = (float(values.min()), float(values.max()))
    counts, edges = np.histogram(values, bins=bins, range=value_range)
    widths = np.diff(edges)
    total = counts.sum()
    density = counts / (total * widths) if total else np.zeros_like(widths)
    return Histogram(
        quantity=quantity,
        edges=edges,
        density=density,
        counts=counts,
        n_samples=int(total),
    )
