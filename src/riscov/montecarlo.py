"""Vectorized stochastic simulator and independent oracle for the closed forms.

One trial places the user at the origin, draws the serving base, the nearest
interferers that survive beam thinning and the nearest reflector, and
records what coverage depends on given them. One
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
  probability ``p_single / p_split``. Only the first ``K = NEAR_ARRIVALS``
  split-beam survivors are drawn, at
  ``r_k**2 = r0**2 + Gamma_k / (pi * lambda_bs * p_split)``, each with a fade
  and a sub-thinning mark; their sums are the near-field interference;
* the nearest reflector is one Gaussian draw; ``r2`` is its distance to the
  user and ``r1 = hypot(x - r0, y)`` its distance to the serving base; the
  base-to-reflector fade ``f1`` fixes the reflected gain.

Coverage is estimated by conditional Monte Carlo (Asmussen & Glynn,
*Stochastic Simulation*, Springer 2007, ch. V). Beyond ``r_K`` the
interferers are a Poisson field of intensity ``lambda_bs * p``, independent
of everything drawn, and the desired link's fade is exponential. So, given a
trial's draws, ``Pr[SIR > T]`` is exact: with ``c = T * r0**alpha`` for the
direct paths and ``c = T * r2**alpha / reflect_gain`` for the reflected one,

    e(c) = exp(-mu * c * I_near - pi * lambda_bs * p * r_K**2 * I(c / r_K**alpha, alpha)),

where ``I`` is :func:`riscov.analytic.interference_factor`, so that the
second term is the log of the far field's Laplace functional (Andrews,
Baccelli & Ganti, IEEE TCOM 2011), and ``I_near`` and ``p`` are the
single-beam sum and retention for ``gamma_o`` and the split-beam ones
otherwise. Selection shares the interference of both paths and its two
fades are independent, so ``gamma_s`` is ``e_a + e_b - e(c_a + c_b)`` on
engaged trials and ``e_a`` elsewhere. An estimate is the mean of these
values and its 95% half-width 1.96 of their standard errors (population
variance over ``n``); since each value lies in ``[0, 1]``, that never
exceeds the binomial half-width of counting indicators at the same mean.

Random streams (``riscov.config.STREAM_VERSION`` 3). Trials are cut into
chunks of ``CHUNK_TRIALS``; chunk ``c`` draws from one generator seeded by
``(master_seed, c)``, in this order: the serving-distance exponentials of
the chunk, its reflector positions (trial-major ``(n, 2)`` standard
normals), then the arrival gaps, the interferer fades and the sub-thinning
uniforms (each a trial-major ``(n, K)`` array), and last the
base-to-reflector fades. Output depends on ``(master_seed, n_trials)`` and
the config, never on how many workers run the chunks.

Parallelism. One task draws one block of ``VALUE_BLOCK`` trials (eight
chunks; the last block may be partial) and reduces it to one float array of
shape ``(len(METRICS), len(thresholds), 3)``: the count, sum and sum of
squares of the conditional values of each metric at each threshold. The
tasks' arrays are added in block order, so the summation tree, and with it
every output byte, is the same for any worker count. ``RISCOV_WORKERS``
sets the pool size, capped at the block count: a run of at most
``VALUE_BLOCK`` trials never starts a pool.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import analytic, channel
from .config import ConfigError, NetworkConfig
from .errors import ParameterError

WORKERS_ENV_VAR = "RISCOV_WORKERS"
CHUNK_TRIALS = 1024  # fixed chunking keeps merges identical for any worker count

# Split-beam interferers drawn one by one per trial; the rest of the plane
# enters each conditional value exactly, through its Laplace functional.
NEAR_ARRIVALS = 16
VALUE_BLOCK = 8192  # trials per pool task, drawn and reduced together; whole chunks
_FLOAT_MAX = np.finfo(float).max

METRICS = ("gamma_o", "gamma_a", "gamma_b", "gamma_s")
HISTOGRAM_QUANTITIES = ("r0", "r1", "r2", "p_ris")


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Column-wise per-trial outputs of a run, in trial order."""

    near_single: np.ndarray    # single-beam interference of the drawn arrivals
    near_split: np.ndarray     # split-beam interference of the drawn arrivals
    r_k: np.ndarray            # radius of the last drawn arrival; the far field starts there
    reflect_gain: np.ndarray   # reflected power per unit per-beam power
    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    engaged: np.ndarray        # bool
    n_interferers_single: np.ndarray  # drawn arrivals that single-beam thinning keeps

    def __len__(self) -> int:
        return len(self.r0)

    @staticmethod
    def concatenate(parts) -> TrialRecords:
        """The trials of ``parts``, one after another."""
        return TrialRecords(**{
            f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(TrialRecords)
        })


def _simulate_chunk(cfg: NetworkConfig, chunk_index: int, n: int) -> TrialRecords:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, chunk_index)))
    p_single, p_split = channel.retention_probabilities(cfg)
    lam, alpha = cfg.lambda_bs_m2, cfg.alpha

    r0_sq = rng.standard_exponential(n) / (math.pi * lam)
    ris_xy = rng.standard_normal((n, 2)) * math.sqrt(1.0 / (2.0 * math.pi * cfg.lambda_ris_m2))

    # squared radii of the first K split-beam survivors, then their received power
    r_sq = np.cumsum(rng.standard_exponential((n, NEAR_ARRIVALS)), axis=1)
    r_sq *= 1.0 / (math.pi * lam * p_split)
    r_sq += r0_sq[:, None]
    power = rng.exponential(1.0 / cfg.mu, (n, NEAR_ARRIVALS))
    power *= r_sq ** (-0.5 * alpha)
    kept = rng.random((n, NEAR_ARRIVALS)) < p_single / p_split
    # same summation tree for both sums, so single <= split holds exactly
    near_split = power.sum(axis=1)
    near_single = np.where(kept, power, 0.0).sum(axis=1)

    f1 = rng.exponential(1.0 / cfg.mu, n)
    r0 = np.sqrt(r0_sq)
    r2 = np.hypot(ris_xy[:, 0], ris_xy[:, 1])
    r1 = np.hypot(ris_xy[:, 0] - r0, ris_xy[:, 1])
    return TrialRecords(
        near_single=near_single,
        near_split=near_split,
        r_k=np.sqrt(r_sq[:, -1]),
        reflect_gain=channel.reflection_gain(cfg, f1, r1),
        r0=r0,
        r1=r1,
        r2=r2,
        engaged=r2 < r0 if cfg.conditional_path_b else np.ones(n, dtype=bool),
        n_interferers_single=np.count_nonzero(kept, axis=1).astype(np.int32),
    )


def _run_block(task) -> tuple[TrialRecords, np.ndarray]:
    """One pool task: draw the block of trials from ``start``, then reduce it.

    Returns the block and ``sums``, where ``sums[i, j]`` is the count, sum and
    sum of squares of its conditional values of ``METRICS[i]`` at ``thresholds[j]``.
    """
    cfg, start, thresholds = task
    stop = min(start + VALUE_BLOCK, cfg.n_trials)
    block = TrialRecords.concatenate([
        _simulate_chunk(cfg, chunk_start // CHUNK_TRIALS, min(CHUNK_TRIALS, stop - chunk_start))
        for chunk_start in range(start, stop, CHUNK_TRIALS)
    ])
    sums = np.empty((len(METRICS), len(thresholds), 3))
    for j, t in enumerate(thresholds):
        by_metric = conditional_values(cfg, block, t)
        values = [by_metric[metric] for metric in METRICS]
        sums[:, j] = [(len(v), v.sum(), np.square(v).sum()) for v in values]
    return block, sums


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"warning: {WORKERS_ENV_VAR}={raw!r} is not a positive integer; using 1 worker",
              file=sys.stderr)
        return 1
    return workers


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageEstimate:
    """Mean of the per-trial conditional coverage values, with a 95% half-width.

    The half-width is ``1.96`` sample standard deviations of the values over
    ``sqrt(n_trials)``.
    """

    threshold: float
    metric: str
    probability: float
    ci_half_width: float
    n_trials: int


def conditional_values(cfg: NetworkConfig, records: TrialRecords, threshold: float) -> dict:
    """Per-trial ``Pr[SIR > threshold]`` given the trial's draws, for every metric.

    Maps each name of :data:`METRICS` to an array over all trials, except
    ``gamma_b``, whose values belong to the engaged trials only. The module
    docstring gives the formula.
    """
    p_single, p_split = channel.retention_probabilities(cfg)
    alpha = cfg.alpha
    area = math.pi * cfg.lambda_bs_m2 * records.r_k**2
    r_k_pow = records.r_k**alpha

    def far(c):
        return area * analytic.interference_factor(c / r_k_pow, alpha)

    def value(c, near, far_c, p):
        return np.exp(-(cfg.mu * near * c + p * far_c))

    with np.errstate(over="ignore", divide="ignore"):
        # c is capped at the float range, so an empty near field never meets c = inf
        c_a = np.minimum(threshold * records.r0**alpha, _FLOAT_MAX)
        c_b = np.minimum(threshold * records.r2**alpha / records.reflect_gain, _FLOAT_MAX)
        c_ab = np.minimum(c_a + c_b, _FLOAT_MAX)
        far_a = far(c_a)
        e_a = value(c_a, records.near_split, far_a, p_split)
        e_b = value(c_b, records.near_split, far(c_b), p_split)
        e_ab = value(c_ab, records.near_split, far(c_ab), p_split)
        e_o = value(c_a, records.near_single, far_a, p_single)
    engaged = records.engaged
    return {
        "gamma_o": e_o,
        "gamma_a": e_a,
        "gamma_b": e_b[engaged],
        "gamma_s": np.where(engaged, e_a + (e_b - e_ab), e_a),
    }


def _estimates(thresholds: tuple, block_sums: tuple) -> list[CoverageEstimate]:
    """Add the blocks' sum arrays in block order and turn them into estimates.

    Every estimate is computed at once, elementwise; a metric with no
    trials (``n = 0``) gets NaN for its probability and half-width.
    """
    n, total, squares = sum(block_sums).transpose(2, 0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = total / n
        # the variance of values in [0, 1] cannot be negative; rounding can make it so
        half_width = 1.96 * np.sqrt(np.maximum(squares / n - p * p, 0.0) / n)
    return [
        CoverageEstimate(
            threshold=t,
            metric=metric,
            probability=float(p[i, j]),
            ci_half_width=float(half_width[i, j]),
            n_trials=int(n[i, j]),
        )
        for i, metric in enumerate(METRICS)
        for j, t in enumerate(thresholds)
    ]


def run(cfg: NetworkConfig, thresholds=()) -> tuple[TrialRecords, list[CoverageEstimate]]:
    """All trials, and ``Pr[SIR > T]`` per metric and threshold, metric by metric.

    Each estimate averages :func:`conditional_values` over its trials:
    ``gamma_b`` conditions on an engaged reflector being present and the
    other metrics use every trial. Each block of ``VALUE_BLOCK`` trials is
    drawn and reduced to sums by the same task, so no array of values grows
    with the trial count and a pool parallelizes the estimator along with
    the draws. An estimate needs at least 100 trials; with no thresholds
    the run only draws them.
    """
    if len(thresholds) and cfg.n_trials < 100:
        raise ConfigError(
            [f"n_trials: must be at least 100 to estimate coverage, got {cfg.n_trials}"]
        )
    for t in thresholds:
        if t <= 0:
            raise ParameterError(f"thresholds must be positive linear ratios, got {t!r}")
    thresholds = tuple(float(t) for t in thresholds)
    channel.array_gain(cfg)  # an overflowing bank fails before any draw
    tasks = [(cfg, start, thresholds) for start in range(0, cfg.n_trials, VALUE_BLOCK)]
    workers = min(worker_count(), len(tasks))
    if workers == 1:
        results = [_run_block(task) for task in tasks]
    else:
        import multiprocessing  # only a pooled run pays for the import

        with multiprocessing.Pool(processes=workers) as pool:
            results = list(pool.imap(_run_block, tasks, chunksize=1))
    blocks, block_sums = zip(*results)
    return TrialRecords.concatenate(blocks), _estimates(thresholds, block_sums)


def empirical_histogram(
    cfg: NetworkConfig, records: TrialRecords, quantity: str, bins: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """``np.histogram``'s ``(counts, edges)`` of the finite values of a per-trial quantity.

    Distances come from the raw drop (no engaged conditioning), matching the
    unconditional analytic laws; ``p_ris`` is the peak reflected power in
    watts at the configured transmit power.
    """
    if quantity not in HISTOGRAM_QUANTITIES:
        raise ParameterError(f"unknown histogram quantity {quantity!r}")
    if cfg.n_trials < 1000:
        raise ConfigError([f"n_trials: must be at least 1000 for a histogram, got {cfg.n_trials}"])
    if quantity == "p_ris":
        values = 0.5 * cfg.p_s * records.reflect_gain
    else:
        values = getattr(records, quantity)
    return np.histogram(values[np.isfinite(values)], bins=bins)
