"""Vectorized stochastic simulator and independent oracle for the closed forms.

One trial places the user at the origin, draws the serving base, the
interferers that survive beam thinning and the nearest reflector, applies
fading, and evaluates the per-path SIRs. One
:class:`riscov.config.NetworkConfig` describes a run, trial count, seed and
model flags included.

Sampling rests on two facts about a Poisson field of intensity ``lam`` seen
from the origin. Its ordered squared distances are Poisson arrivals,
``pi * lam * r_k**2 = Gamma_k`` with unit-rate gaps (Haenggi, "On distances
in uniformly random networks", IEEE T-IT 2005). And the position of its
nearest point is one isotropic Gaussian with variance ``1/(2*pi*lam)`` per
coordinate. Hence, per trial:

* the serving base sits at ``r0**2 = E / (pi * lambda_bs)`` with ``E`` a
  standard exponential, placed on the positive x-axis (the law is isotropic);
* the other bases form a Poisson field beyond ``r0``. Interferer beams point
  at random, so a base interferes iff its main lobe covers the user. Its
  off-boresight angle is uniform on ``[0, pi]`` and independent of its
  position, and the lobe half-width over ``pi`` is ``1/sqrt(N)`` (single
  beam) or ``sqrt(2/N)`` (split beam), capped at 1. So ``orientation:
  explicit`` and ``orientation: thinning`` are the same thinning, and the
  single-beam survivors are a nested sub-thinning of the split-beam ones with
  probability ``p_single / p_split``. Only the split-beam survivors are
  drawn: ``K = ceil(TRUNCATION_BASES * p_split)`` arrivals at
  ``r_k**2 = r0**2 + Gamma_k / (pi * lambda_bs * p_split)``, which covers the
  disc holding ``TRUNCATION_BASES`` base stations on average;
* the interference beyond the last arrival ``r_K`` enters as its conditional
  mean ``2*pi*lambda_bs*p*E[g] * r_K**(2-alpha) / (alpha-2)`` for each
  retention probability ``p``;
* the nearest reflector is one Gaussian draw; ``r2`` is its distance to the
  user and ``r1 = hypot(x - r0, y)`` its distance to the serving base.

Random streams (``riscov.config.STREAM_VERSION`` 2). Trials are cut into
chunks of ``CHUNK_TRIALS``; chunk ``c`` draws from one generator seeded by
``(master_seed, c)``, in this order: the serving-distance exponentials of
the chunk, its reflector positions (trial-major ``(n, 2)`` standard
normals), then for each block of at most ``BLOCK_TRIALS`` trials the arrival
gaps, the interferer fades and the sub-thinning uniforms (each a trial-major
``(block, K)`` array), and last the serving fades, the reflector-to-user
fades and the base-to-reflector fades of the chunk. With
``shared_ris_fade: false`` the last are ``M`` per trial, drawn in slices of
``FADE_SLICE`` values. Since the fades come last, the flag changes nothing
but the reflected path. Output depends on ``(master_seed, n_trials)`` and
the config, never on how many workers run the chunks.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import channel
from .config import ConfigError, NetworkConfig
from .errors import ParameterError

WORKERS_ENV_VAR = "RISCOV_WORKERS"
CHUNK_TRIALS = 1024  # fixed chunking keeps merges identical for any worker count
BLOCK_TRIALS = 128   # trials whose (trial, interferer) arrays are held at once
FADE_SLICE = 1 << 16  # per-element fades drawn at once with shared_ris_fade: false

# Expected base stations (before thinning) inside the disc whose interferers
# are drawn one by one; the rest of the plane enters as its mean.
TRUNCATION_BASES = 2000.0

METRICS = ("gamma_o", "gamma_a", "gamma_b", "gamma_s")
HISTOGRAM_QUANTITIES = ("r0", "r1", "r2", "p_ris")


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Column-wise per-trial outputs of a run, in trial order."""

    sir_o: np.ndarray
    sir_a: np.ndarray
    sir_b: np.ndarray          # nan where no engaged reflector
    reflect_gain: np.ndarray   # reflected power per unit per-beam power
    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r_far: np.ndarray          # radius of the last drawn interferer
    engaged: np.ndarray        # bool
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


def _interference_block(cfg, rng, r0_sq, loss, power):
    """Interference sums of one block; returns (single, split, r_far, n_single).

    ``loss`` and ``power`` are ``(block, K)`` scratch buffers, overwritten.
    """
    p_single, p_split = channel.retention_probabilities(cfg)
    lam, alpha, mean_fade = cfg.lambda_bs_m2, cfg.alpha, 1.0 / cfg.mu
    # squared radii of the split-beam survivors, then their path loss
    rng.standard_exponential(out=loss)
    np.cumsum(loss, axis=1, out=loss)
    loss *= 1.0 / (math.pi * lam * p_split)
    loss += r0_sq[:, None]
    r_far_sq = loss[:, -1].copy()
    np.power(loss, -0.5 * alpha, out=loss)
    rng.standard_exponential(out=power)
    power *= mean_fade
    power *= loss
    kept = rng.random(out=loss) < p_single / p_split
    split = power.sum(axis=1)
    # same summation tree as `split`, so single <= split holds exactly
    single = np.multiply(power, kept, out=loss).sum(axis=1)
    tail = 2.0 * math.pi * lam * mean_fade * r_far_sq ** (1.0 - 0.5 * alpha) / (alpha - 2.0)
    single += p_single * tail
    split += p_split * tail
    return single, split, np.sqrt(r_far_sq), np.count_nonzero(kept, axis=1)


def _coherent_fades(rng, cfg, n):
    """Effective base-to-reflector fades with per-element amplitudes: (mean sqrt f_m)**2."""
    m = cfg.m_elements
    sums = np.zeros(n)
    for start in range(0, n * m, FADE_SLICE):
        stop = min(start + FADE_SLICE, n * m)
        amplitude = np.sqrt(rng.exponential(1.0 / cfg.mu, stop - start))
        trial = np.arange(start, stop) // m
        first = start // m
        sums[first:trial[-1] + 1] += np.bincount(trial - first, weights=amplitude)
    return (sums / m) ** 2


def _simulate_chunk(args) -> dict:
    cfg, chunk_index, n = args
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, chunk_index)))
    alpha = cfg.alpha
    _, p_split = channel.retention_probabilities(cfg)
    n_arrivals = math.ceil(TRUNCATION_BASES * p_split)

    r0_sq = rng.standard_exponential(n) / (math.pi * cfg.lambda_bs_m2)
    ris_xy = rng.standard_normal((n, 2)) * math.sqrt(1.0 / (2.0 * math.pi * cfg.lambda_ris_m2))

    i_single, i_split, r_far = np.empty(n), np.empty(n), np.empty(n)
    n_single = np.empty(n, dtype=np.int32)
    buffers = np.empty((2, min(n, BLOCK_TRIALS), n_arrivals))
    for lo in range(0, n, BLOCK_TRIALS):
        hi = min(lo + BLOCK_TRIALS, n)
        i_single[lo:hi], i_split[lo:hi], r_far[lo:hi], n_single[lo:hi] = _interference_block(
            cfg, rng, r0_sq[lo:hi], *buffers[:, : hi - lo]
        )

    g0 = rng.exponential(1.0 / cfg.mu, n)
    h = rng.exponential(1.0 / cfg.mu, n)
    f1 = rng.exponential(1.0 / cfg.mu, n) if cfg.shared_ris_fade else _coherent_fades(rng, cfg, n)

    r0 = np.sqrt(r0_sq)
    r1 = np.hypot(ris_xy[:, 0] - r0, ris_xy[:, 1])
    r2 = np.hypot(ris_xy[:, 0], ris_xy[:, 1])
    engaged = r2 < r0 if cfg.conditional_path_b else np.ones(n, dtype=bool)
    signal = g0 * r0_sq ** (-0.5 * alpha)
    reflect_gain = channel.reflection_gain(cfg, f1, r1)
    sir_b = reflect_gain * h * r2 ** -alpha / i_split
    return {
        "sir_o": signal / i_single,
        "sir_a": signal / i_split,
        "sir_b": np.where(engaged, sir_b, math.nan),
        "reflect_gain": reflect_gain,
        "r0": r0,
        "r1": r1,
        "r2": r2,
        "r_far": r_far,
        "engaged": engaged,
        "n_interferers_single": n_single,
        "n_interferers_split": np.full(n, n_arrivals, dtype=np.int32),
    }


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

    Trials are split into fixed-size chunks; each chunk draws from its own
    stream keyed by ``(master_seed, chunk_index)``, so the merge (a
    concatenation in chunk order) is associative and scheduling-free.
    """
    channel.array_gain(cfg)  # an overflowing bank fails before any draw
    chunks = [
        (cfg, index, min(CHUNK_TRIALS, cfg.n_trials - start))
        for index, start in enumerate(range(0, cfg.n_trials, CHUNK_TRIALS))
    ]
    workers = worker_count()
    if workers == 1 or len(chunks) == 1:
        results = [_simulate_chunk(c) for c in chunks]
    else:
        with multiprocessing.Pool(processes=min(workers, len(chunks))) as pool:
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
        raise ConfigError(
            [f"n_trials: must be at least 100 to estimate coverage, got {cfg.n_trials}"]
        )
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
        raise ConfigError([f"n_trials: must be at least 1000 for a histogram, got {cfg.n_trials}"])
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
