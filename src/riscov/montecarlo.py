"""Vectorized stochastic simulator and independent oracle for the closed forms.

This is the one module of the package that imports numpy: ``analytic`` and
``sweep`` evaluate their closed forms with ``math`` alone, and only the
commands that simulate (``simulate``, ``compare``, ``hist`` and ``sweep
--with-mc``) load numpy with this module.

One trial places the user at the origin, draws the serving base and the
nearest reflector, and records what coverage depends on given them: four
independent numbers, so a trial is a point ``u`` of the unit 4-cube. One
:class:`riscov.config.NetworkConfig` describes a run, its trial count, seed
and thresholds included: :func:`run` takes nothing else.

The nearest point of a Poisson field of intensity ``lam`` lies at ``pi * lam
* r**2 = E``, ``E`` a standard exponential (Haenggi, "On distances in
uniformly random networks", IEEE T-IT 2005), in a uniform direction
independent of ``E``. Distances are drawn in units of ``1/sqrt(pi *
lambda_bs)`` and fades in units of their mean ``1/mu``, each by inverting
its law at one coordinate of ``u``. Hence, per trial:

* the serving base sits at ``r0**2 = -log1p(-u0)``, placed on the positive
  x-axis (the law is isotropic);
* the nearest reflector lies at distance ``r2 = sqrt(-log1p(-u1) / rho)``
  from the user, ``rho = lambda_ris / lambda_bs``, at the angle ``theta = 2
  * pi * u2``, so ``r1 = hypot(r2 * cos(theta) - r0, r2 * sin(theta))`` is
  its distance to the serving base; ``f1 = -log1p(-u3)`` is the
  base-to-reflector fade. The reflector is engaged, and serves the
  reflected path, iff it is closer to the user than the serving base (``r2
  < r0``);
* no interferer is drawn. The other bases form a Poisson field beyond
  ``r0``, independent of the draws. Interferer beams point at random, so a
  base interferes iff its main lobe covers the user. Its off-boresight
  angle is uniform on ``[0, pi]`` and independent of its position, and the
  lobe half-width over ``pi`` is ``1/sqrt(N)`` (single beam) or
  ``sqrt(2/N)`` (split beam), capped at 1. So ``orientation: explicit`` and
  ``orientation: thinning`` are the same thinning, with the retention ``p``
  of :attr:`riscov.config.NetworkConfig.retentions`.

Coverage is estimated by conditional Monte Carlo (Asmussen & Glynn,
*Stochastic Simulation*, Springer 2007, ch. V). Given a trial's draws, the
interferers are a Poisson field of intensity ``lambda_bs * p`` beyond ``r0``
and every fade is exponential, so ``Pr[SIR > T]`` is exact, the field's
Laplace functional (Andrews, Baccelli & Ganti, IEEE TCOM 2011):

    e(x) = exp(-p * r0**2 * I(x, alpha)),

where ``I`` is :func:`riscov.analytic.interference_factor` and ``p`` is the
single-beam retention for ``gamma_o`` and the split-beam one otherwise. The
direct paths have ``x = T``, one ``I(T, alpha)`` per threshold. The reflected
path has ``x = T * q``, with ``q`` the direct link's mean power over the
reflected one's,

    log(q) / alpha = log(r1 * r2 / r0) + log(K) / alpha - log(f1) / alpha,

with ``log(K) / alpha`` from
:attr:`riscov.config.NetworkConfig.log_k_per_alpha`. ``K`` and ``rho`` are
the only places where the densities, ``mu`` and the bank enter, so
``gamma_o`` and ``gamma_a`` depend on the deployment through ``alpha`` and
``N`` alone. ``I`` is read from ``log(x) / alpha`` by
:func:`riscov.analytic.interference_factor_from_log` for the direct paths
and by its array form :func:`interference_factor_from_log`, which runs that
module's series arithmetic on arrays, for the reflected one. It stays
finite where ``q`` leaves the float range, as on half the trials at ``alpha
= 1000``: ``gamma_b`` takes its ``alpha -> inf`` limit there.
Selection shares the interference of both paths and its two fades are
independent, so ``gamma_s`` is ``e_a + e_b - e(T * (1 + q))`` on engaged
trials and ``e_a`` elsewhere. :func:`run` returns one :class:`Coverage` per
metric: at each threshold, the mean of these values, its 95% half-width 1.96
of their standard errors (population variance over ``n``) and ``n``; since
each value lies in ``[0, 1]``, the half-width never exceeds the binomial
half-width of counting indicators at the same mean.

Random streams (``riscov.config.STREAM_VERSION`` 9). Trials are cut into
blocks of ``VALUE_BLOCK``; block ``b`` draws the points of its trials,
trial-major, in one call to one generator seeded by ``(master_seed, b)``.
So a trial depends on the seed and its index alone, a run's first trials
are those of any longer run, and output depends on ``(master_seed,
n_trials)`` and the config alone.

Reduction. :func:`run` draws one block at a time (the last may be partial)
and reduces it to a float array of shape ``(len(METRICS),
len(thresholds_db), 3)``: the count, sum and sum of squares about the block
mean of the conditional values of each metric at each threshold. The
arrays are merged in block order, so memory does not grow with the trial
count. A block whose sums are not finite ends the run with
:class:`riscov.errors.NumericalError`.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytic
from .config import HISTOGRAM_QUANTITIES, ConfigError, NetworkConfig
from .errors import NumericalError, ParameterError

VALUE_BLOCK = 2048  # trials per generator, drawn and reduced together; few enough to keep the peak RSS low

METRICS = ("gamma_o", "gamma_a", "gamma_b", "gamma_s")


def interference_factor_from_log(log_t_per_alpha, alpha: float) -> np.ndarray:
    """:func:`riscov.analytic.interference_factor_from_log` elementwise, as an array; nan where the input is nan.

    The arithmetic is :mod:`riscov.analytic`'s own: its branch helpers take
    an array as they take a float, so an array call matches 0-d calls bit for
    bit. Only numpy's ``exp`` and ``expm1`` are this module's, and they may
    differ from ``math``'s in the last ulp, so a value may differ from the
    ``math`` form by a few ulp.
    """
    u = np.asarray(log_t_per_alpha, dtype=float)
    with np.errstate(over="ignore"):  # log T may overflow to +-inf, where e is 0
        e = np.exp(-np.abs(alpha * u))  # min(T, 1/T)
    w = e / (1.0 + e)
    low = u <= 0.0
    high = ~low
    value = np.empty_like(u)
    # each branch is evaluated on its own elements only, so an empty one costs nothing
    if low.any():
        value[low] = analytic._below_one(alpha, w[low])
    if high.any():
        with np.errstate(over="ignore"):  # near alpha = 2 a huge T overflows to inf, the limit
            head = np.expm1(analytic._log_leading(alpha) + 2.0 * u[high])
        value[high] = analytic._above_one(alpha, head, w[high])
    return value


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Column-wise per-trial outputs of a run, in trial order."""

    log_q_per_alpha: np.ndarray  # log(q) / alpha: q the direct link's mean power over the reflected one's
    f1: np.ndarray             # base-to-reflector fade, in units of 1/mu
    r0: np.ndarray             # r0, r1 and r2 in units of 1/sqrt(pi * lambda_bs)
    r1: np.ndarray
    r2: np.ndarray
    engaged: np.ndarray        # bool

    def __len__(self) -> int:
        return len(self.r0)


def _uniforms(cfg: NetworkConfig, start: int) -> np.ndarray:
    """The points of the block of trials from ``start``, one row each, from one generator call."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, start // VALUE_BLOCK)))
    return rng.random((min(VALUE_BLOCK, cfg.n_trials - start), 4))


def _trials(cfg: NetworkConfig, u: np.ndarray) -> TrialRecords:
    """The records of the trials at the points ``u``, one row each: the module docstring's inverse transforms."""
    r0_sq = -np.log1p(-u[:, 0])
    with np.errstate(over="ignore"):  # past a density ratio of about 1e616 the distance is inf
        r2 = np.sqrt(-np.log1p(-u[:, 1])) * np.exp(-0.5 * cfg.log_rho)
    theta = 2.0 * math.pi * u[:, 2]
    f1 = -np.log1p(-u[:, 3])
    r0 = np.sqrt(r0_sq)
    r1 = np.hypot(r2 * np.cos(theta) - r0, r2 * np.sin(theta))
    with np.errstate(all="ignore"):  # a distance of 0 or inf has an infinite log
        log_q_per_alpha = (np.log(r1) + np.log(r2) - 0.5 * np.log(r0_sq) + cfg.log_k_per_alpha
                           - np.log(f1) / cfg.alpha)
    return TrialRecords(log_q_per_alpha=log_q_per_alpha, f1=f1, r0=r0, r1=r1, r2=r2, engaged=r2 < r0)


def _block_sums(cfg: NetworkConfig, start: int, direct: list) -> np.ndarray:
    """The sum array (module docstring) of the block of trials from ``start``; ``direct`` as for :func:`_values`."""
    stop = min(start + VALUE_BLOCK, cfg.n_trials)
    sums = np.empty((len(METRICS), len(cfg.thresholds_db), 3))
    for j, by_metric in enumerate(_values(cfg, _trials(cfg, _uniforms(cfg, start)), direct)):
        for i, metric in enumerate(METRICS):
            values = by_metric[metric]
            total = values.sum()
            sums[i, j] = len(values), total, np.square(values - total / max(len(values), 1)).sum()
    if not np.isfinite(sums).all():
        raise NumericalError(f"trials {start}-{stop - 1}: a coverage value leaves the float range")
    return sums


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

class Coverage(NamedTuple):
    """One metric's estimates (module docstring), as arrays aligned with the thresholds."""

    probability: np.ndarray
    ci_half_width: np.ndarray
    n_trials: np.ndarray


def _direct_factor(cfg: NetworkConfig, threshold: float) -> tuple[float, float]:
    """``log(T) / alpha`` and the direct paths' ``I(T, alpha)``, the closed forms' own, for every trial."""
    log_t = math.log(threshold) / cfg.alpha
    return log_t, analytic.interference_factor_from_log(log_t, cfg.alpha)


def _values(cfg: NetworkConfig, records: TrialRecords, direct: list) -> Iterator[dict]:
    """Per-trial ``Pr[SIR > T]`` given the trial's records (module docstring), one dict per threshold.

    ``direct[j]`` is the :func:`_direct_factor` of the ``j``-th threshold, and
    the ``j``-th dict maps each name of :data:`METRICS` to an array over all
    trials, except ``gamma_b``, whose values belong to the engaged trials
    only. The dicts are yielded in turn, so that one threshold's values are
    alive at a time.
    """
    exposure_single, exposure_split = np.outer(cfg.retentions, -np.square(records.r0))  # -p * r0**2 for each p
    log_q, engaged = records.log_q_per_alpha, records.engaged
    with np.errstate(all="ignore"):  # alpha * |log q| may overflow; a log q of +-inf gives 0 or 1
        # log(1 + q) / alpha as the softplus max(log q, 0) + rest: np.logaddexp is far slower
        log_one_plus_q = np.maximum(log_q, 0.0) + np.log1p(np.exp(-cfg.alpha * np.abs(log_q))) / cfg.alpha
    for log_t, factor in direct:
        with np.errstate(all="ignore"):  # a log q of +-inf gives 0 or 1
            # e(T * q) and e(T * (1 + q)) from one call on both rows
            e_b, e_ab = np.exp(exposure_split * interference_factor_from_log(
                np.stack([log_t + log_q, log_t + log_one_plus_q]), cfg.alpha))
        e_a = np.exp(exposure_split * factor)
        yield {
            "gamma_o": np.exp(exposure_single * factor),
            "gamma_a": e_a,
            "gamma_b": e_b[engaged],
            "gamma_s": np.where(engaged, e_a + (e_b - e_ab), e_a),
        }


def _estimates(block_sums: list) -> dict[str, Coverage]:
    """Merge the blocks' sum arrays in block order and turn them into estimates.

    Two blocks merge by the pairwise update of Chan, Golub & LeVeque
    ("Algorithms for computing the sample variance", Am. Stat. 1983): their
    sums of squares about their means add, plus the squared gap between the
    means weighted by ``n_a * n_b / n``, so no digits cancel where ``p`` is
    near 1. Every estimate is computed at once, elementwise; a metric with no
    trials (``n = 0``) gets NaN for its probability and half-width.
    """
    n, total, squares = block_sums[0].transpose(2, 0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a block may hold no trial of gamma_b
        for n_b, total_b, squares_b in (sums.transpose(2, 0, 1) for sums in block_sums[1:]):
            gap = total_b / n_b - total / n
            squares = squares + squares_b + np.where(n * n_b > 0, gap * gap * (n * n_b / (n + n_b)), 0.0)
            n, total = n + n_b, total + total_b
        p = total / n
        half_width = 1.96 * np.sqrt(squares / n / n)
    return {m: Coverage(p[i], half_width[i], n[i].astype(int)) for i, m in enumerate(METRICS)}


def draw(cfg: NetworkConfig) -> TrialRecords:
    """Every trial's records: those :func:`run` reduces, block by block."""
    return _trials(cfg, np.concatenate([_uniforms(cfg, start) for start in range(0, cfg.n_trials, VALUE_BLOCK)]))


def run(cfg: NetworkConfig) -> dict[str, Coverage]:
    """``Pr[SIR > T]`` of the configured run: one :class:`Coverage` per name of :data:`METRICS`.

    Entry ``j`` of its arrays is the estimate at ``cfg.thresholds_linear[j]``,
    the mean of the conditional values of its trials: ``gamma_b``
    conditions on an engaged reflector and the other metrics use every trial.
    An estimate needs at least 100 trials.
    """
    if cfg.n_trials < 100:
        raise ConfigError(
            [f"n_trials: must be at least 100 to estimate coverage, got {cfg.n_trials}"]
        )
    direct = [_direct_factor(cfg, t) for t in cfg.thresholds_linear]
    return _estimates([_block_sums(cfg, start, direct) for start in range(0, cfg.n_trials, VALUE_BLOCK)])


def empirical_histogram(
    cfg: NetworkConfig, records: TrialRecords, quantity: str, bins: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """``np.histogram``'s ``(counts, edges)`` of a per-trial quantity, in metres or dBW.

    Distances come from the raw drop (no engaged conditioning), matching the
    unconditional analytic laws; ``p_ris_dbw`` is the peak reflected power
    ``10*log10(P / 1 W)`` at the configured transmit power, formed from logs,
    so it stays finite where the watts leave the float range. Raises
    :class:`NumericalError` when a value is not finite: a reflector farther
    than the float range in units of the base spacing (once ``lambda_bs /
    lambda_ris`` passes about 6e616), or a fade of exactly 0.
    """
    if quantity not in HISTOGRAM_QUANTITIES:
        raise ParameterError(f"unknown histogram quantity {quantity!r}")
    if cfg.n_trials < 1000:
        raise ConfigError([f"n_trials: must be at least 1000 for a histogram, got {cfg.n_trials}"])
    with np.errstate(all="ignore"):  # a value beyond the float range fails below
        if quantity == "p_ris_dbw":  # 0.5 * p_s * f1 * r1**-alpha / K, r1 in units of the base spacing
            # log(p_s) - log(2): half of a subnormal p_s may round to 0
            values = (math.log(cfg.p_s) - math.log(2.0) + np.log(records.f1)
                      - cfg.alpha * (np.log(records.r1) + cfg.log_k_per_alpha)) * (10.0 / math.log(10.0))
        else:
            values = getattr(records, quantity) * cfg.base_spacing_m
    if not np.isfinite(values).all():
        raise NumericalError(f"the {quantity} values exceed the float range")
    return np.histogram(values, bins=bins)
