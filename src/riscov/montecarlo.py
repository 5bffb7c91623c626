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
  base-to-reflector fade;
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

where ``I`` is :mod:`riscov.analytic`'s interference factor and ``p`` is the
single-beam retention for ``gamma_o`` and the split-beam one otherwise. The
direct paths have ``x = T``, one ``I(T, alpha)`` per threshold. The reflected
path has ``x = T * q``, with ``q`` the direct link's mean power over the
reflected one's,

    log(q) / alpha = log(r1 * r2 / r0) + log(K) / alpha - log(f1) / alpha,

with ``log(K) / alpha`` from
:attr:`riscov.config.NetworkConfig.log_k_per_alpha`. ``K`` and ``rho`` are
the only places where the densities, ``mu`` and the bank enter, so
``gamma_o`` and ``gamma_a`` depend on the deployment through ``alpha`` and
``N`` alone. ``I`` is read from ``log(x) / alpha``: for the direct paths
from :func:`riscov.analytic.direct_factors`, the closed forms' own table,
and for the reflected one by :func:`interference_factor_from_log`, which
runs that module's arithmetic on arrays. It stays finite where ``q``
leaves the float range, as on half the trials at ``alpha = 1000``:
``gamma_b`` takes its ``alpha -> inf`` limit there.
Selection shares the interference of both paths and its two fades are
independent, so ``gamma_s`` is ``e_a + g * (e_b - e(T * (1 + q)))``.

Engagement. The reflector is engaged, and serves the reflected path, iff it
is closer to the user than the serving base: given ``r0``, with probability
``g = -expm1(-rho * r0**2)``, which is smooth where the indicator ``r2 <
r0`` jumps. A lattice rule integrates a jump poorly, so :func:`run`
integrates the indicator out (Griewank, Kuo, Leovey & Sloan 2018,
"smoothing by preintegration"): it draws ``r2`` below ``r0`` and weights
``gamma_b``, the coverage given engagement, by ``g``. Every point counts in
every metric; ``gamma_b`` has no estimate only where every ``g`` is 0.

Points (``riscov.config.STREAM_VERSION`` 14). Each value is a bounded
function of the trial's point, so :func:`run` integrates it over the 4-cube
with a randomly shifted rank-1 lattice rule (Cranley & Patterson 1976;
L'Ecuyer & Lemieux, "Variance reduction via lattice rules", Management
Science 2000) rather than at independent points. Lattice point ``i`` is
``phi(i) * LATTICE mod 1``, ``phi`` the base-2 radical inverse, so the first
``2**m`` points of the sequence are the lattice of ``2**m`` points and any
prefix is a valid point set (an embedded rule: Hickernell, Hong, L'Ecuyer &
Lemieux 2000). :data:`SHIFTS` shifts ``Delta``, drawn from
``random.Random(master_seed)``, each move every point to ``y = x + Delta
mod 1``, and the tent transform ``1 - |2y - 1|`` (Hickernell 2002) folds it
back into the cube. All of this is integer arithmetic modulo ``2**53``,
where the tent's upper fold is ``2 - 2y`` less ``2**-53``, so each
coordinate is a multiple of ``2**-53`` in ``[0, 1)``. The points are taken
index by index, every shift of an index in turn. A run evaluates the first
``m = n_trials // SHIFTS`` lattice indices: ``SHIFTS * m`` points, never
more than ``n_trials``. Each shift's mean is an unbiased estimate, and the
shifts are independent, so the run's output depends on ``(master_seed,
n_trials)`` and the config alone. :func:`looks` also yields the estimates
after the first 4, 8, 16, ... and at most ``2**15`` indices (128 to
``2**20`` points), each prefix a whole lattice, and they are those of a run
of that many points; ``compare`` stops at the first of these looks that
decides every gate. :func:`draw`, which ``hist`` bins, maps the first
``n_trials`` of these points with :func:`_trials`.

Small fades. :func:`run` maps a point ``v`` to the trial at ``u = (v0, v1 *
g, v2, v3**2)``, and ``gamma_b`` and ``gamma_s``, which read the fade, weight
it by the Jacobian ``2 * v3``: at -10 dB and ``alpha = 3``, 90% of
``gamma_s``'s variance over independent points comes from fades ``f1``
below 1e-2, which ``v3**2`` reaches at ten times as many points.

Reduction. :func:`looks` walks the lattice indices in blocks, every shift
at once: 0-3, 4-7, 8-15, 16-31 and 32-63, then ``VALUE_BLOCK // SHIFTS`` at
a time, so that a block ends at each look. It sums per shift, for each
metric at each threshold, the weights and the values' weighted deviations
from a reference: the first block's weighted mean, which keeps the digits
in which the shift means differ where they agree to more digits than the
values, as near ``p = 1``. The sums add up in block order, so memory does
not grow with the point count; a block whose sums are not finite ends the
run with :class:`riscov.errors.NumericalError`. Each :class:`Coverage`
holds, per threshold, the ratio of the weighted values to the weights,
which stays in ``[0, 1]`` (for ``gamma_o`` and ``gamma_a`` the mean of the
shift means), and a 95% half-width: ``T_QUANTILE``, Student's t with
``SHIFTS - 1`` degrees of freedom, times the delta-method standard error of
that ratio over the shifts. Before they are squared, the per-shift
residuals of each metric at each threshold are scaled by the power of two of
their largest magnitude, and the root is scaled back. The scaling is exact,
so it changes only half-widths whose squares would underflow to 0, as at a
coverage of 1e-240.
"""
from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytic
from .config import HISTOGRAM_BINS, HISTOGRAM_QUANTITIES, ConfigError, NetworkConfig
from .errors import NumericalError

VALUE_BLOCK = 2048  # points drawn and reduced together; few enough to keep the peak RSS low
SHIFTS = 32  # random shifts of the lattice: independent estimates, whose spread gives the half-width
T_QUANTILE = 2.039513446396408  # Student's t at 0.975 with SHIFTS - 1 degrees of freedom
# looks() yields after 2**2 to 2**15 lattice indices per shift and at the last: at most 15 looks, over
# which the 5% outside a 95% interval is split evenly (Bonferroni)
LOOK_QUANTILE = 3.1800181020329155  # Student's t at 1 - 0.025 / 15 with SHIFTS - 1 degrees of freedom
_LAST_DOUBLING = 1 << 15  # lattice indices per shift at the last look before the cap: 2**20 points
# generating vector of the embedded lattice, for 2**7 to 2**15 points per
# shift; tests/lattice_search.py finds it and tests its figure of merit
LATTICE = (1, 3535, 10303, 6007)
_BITS = 53  # a coordinate is an integer over 2**_BITS
_MASK = (1 << _BITS) - 1
_INDICES = VALUE_BLOCK // SHIFTS  # lattice indices per block, a power of two

METRICS = ("gamma_o", "gamma_a", "gamma_b", "gamma_s")


def interference_factor_from_log(log_t_per_alpha, alpha: float) -> np.ndarray:
    """:func:`riscov.analytic.interference_factor_from_log` elementwise, as an array; nan where the input is nan.

    The arithmetic is :mod:`riscov.analytic`'s own, at ``alpha = 3`` and 4
    term for term: its series helpers take an array as they take a float, so
    an array call matches 0-d calls bit for bit. Only the numpy functions are
    this module's; they may differ from ``math``'s in the last ulp, and a
    value from the ``math`` form by a few ulp.
    """
    u = np.asarray(log_t_per_alpha, dtype=float)
    if alpha in (3.0, 4.0):
        with np.errstate(over="ignore"):  # where I lies beyond the float range, inf
            s = np.exp(2.0 * u)  # T**(2/alpha)
            if alpha == 4.0:
                return np.asarray(s * np.arctan(s))
            m = np.exp(-np.abs(u))  # min(r, 1/r), r = T**(1/3)
            g = np.log1p(3.0 * m / (1.0 - m + m * m)) / 6.0
            h = np.arctan2(analytic._SQRT3 * m, 2.0 - m) / analytic._SQRT3
            return np.asarray(2.0 * s * np.where(u <= 0.0, g + h, analytic._F_INF_3 - h + g))
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


def _radical_inverse(i: int) -> int:
    """The base-2 radical inverse of ``i < 2**53``, as an integer over ``2**53``: its bits reversed."""
    return int(f"{i:0{_BITS}b}"[::-1], 2)


_LOW_INVERSES = np.array([_radical_inverse(j) for j in range(_INDICES)], dtype=np.uint64)


def _shifts(cfg: NetworkConfig) -> np.ndarray:
    """The ``(SHIFTS, 4)`` shifts of the run, as integers over ``2**53``."""
    rng = random.Random(cfg.master_seed)
    return np.array([[rng.getrandbits(_BITS) for _ in LATTICE] for _ in range(SHIFTS)], dtype=np.uint64)


def _points(shifts: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The tent-transformed points at the lattice indices ``start`` to ``stop - 1``, index-major.

    Row ``k`` is index ``start + k // SHIFTS`` under shift ``k % SHIFTS``.
    The block holds at most ``_INDICES`` indices, and ``start`` is 0 or a
    multiple of a power of two at least their count, so their radical
    inverses are ``start``'s plus those of ``0`` to ``stop - start - 1``.
    Products wrap modulo ``2**64``, a multiple of ``2**53``.
    """
    inverses = _LOW_INVERSES[:stop - start] + _radical_inverse(start)
    lattice = (inverses[:, None] * np.array(LATTICE, dtype=np.uint64)) & _MASK
    doubled = ((lattice[:, None, :] + shifts) & _MASK) << 1
    # the tent 1 - |2y - 1|, as an integer: 2y below 1/2, 2 - 2y - 2**-53 from 1/2 on
    tent = np.minimum(doubled, (2 << _BITS) - 1 - doubled)
    return tent.reshape(-1, len(LATTICE)) * 2.0**-_BITS


def _trials(cfg: NetworkConfig, u: np.ndarray) -> TrialRecords:
    """The records of the trials at the points ``u``, one row each: the module docstring's inverse transforms."""
    r0_sq = -np.log1p(-u[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):  # past a density ratio of about 1e616 it is inf, or 0 * inf
        r2 = np.sqrt(-np.log1p(-u[:, 1])) * np.exp(-0.5 * cfg.log_rho)
    theta = 2.0 * math.pi * u[:, 2]
    f1 = -np.log1p(-u[:, 3])
    r0 = np.sqrt(r0_sq)
    r1 = np.hypot(r2 * np.cos(theta) - r0, r2 * np.sin(theta))
    with np.errstate(all="ignore"):  # a distance of 0 or inf has an infinite log
        log_q_per_alpha = (np.log(r1) + np.log(r2) - 0.5 * np.log(r0_sq) + cfg.log_k_per_alpha
                           - np.log(f1) / cfg.alpha)
    return TrialRecords(log_q_per_alpha=log_q_per_alpha, f1=f1, r0=r0, r1=r1, r2=r2)


def _blocks(per_shift: int) -> Iterator[tuple[int, int]]:
    """The ``(start, stop)`` lattice index ranges of a run of ``per_shift`` indices, in order.

    They are 0-3, 4-7, 8-15, 16-31 and 32-63, then ``_INDICES`` at a time,
    each cut at ``per_shift``: every block is a valid :func:`_points` range,
    and one ends at each power of two below ``per_shift``.
    """
    start, stop = 0, 4
    while start < per_shift:
        yield start, min(stop, per_shift)
        start, stop = stop, stop + min(stop, _INDICES)


def _block_sums(cfg: NetworkConfig, shifts: np.ndarray, start: int, stop: int, direct: tuple,
                reference: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The per-shift sums (module docstring) over the lattice indices ``start`` to ``stop - 1``, and the reference.

    The sums, shaped ``(2, len(METRICS), len(thresholds_db), SHIFTS)``, are
    the values' weighted deviations from ``reference`` and the weights.
    ``reference`` passed ``None`` becomes this block's weighted mean (0 where
    its weights sum to 0). ``direct`` is as for :func:`_values`.
    """
    u = _points(shifts, start, stop)
    weight = 2.0 * u[:, 3]  # the Jacobian of u3 = v**2
    u[:, 3] = np.square(u[:, 3])
    with np.errstate(divide="ignore", over="ignore"):  # rho * r0**2 from logs: 0 at r0 = 0 whatever rho
        engaged = -np.expm1(-np.exp(cfg.log_rho + np.log(-np.log1p(-u[:, 0]))))  # g = Pr[r2 < r0 | r0]
    u[:, 1] *= engaged  # r2 drawn from its law below r0
    records = _trials(cfg, u)
    # unit weights for gamma_o and gamma_a, which do not read the fade; gamma_b's over g's mean rho / (1 + rho)
    # (at least the least float), which keeps their squared sums in the float range and their ratio as it is
    weights = np.ones((len(METRICS), len(u)))
    weights[METRICS.index("gamma_b")] = engaged * weight / max(math.exp(cfg.log_r1_scale), math.ulp(0.0))
    weights[METRICS.index("gamma_s")] = weight
    sums = np.empty((2, len(METRICS), len(cfg.thresholds_db), SHIFTS))
    sums[1] = _by_shift(weights)[:, None]
    first = reference is None
    if first:
        reference = np.zeros(sums.shape[1:3])
    for j, by_metric in enumerate(_values(cfg, records, engaged, direct)):
        values = np.stack([by_metric[metric] for metric in METRICS])
        if first:
            total = weights.sum(axis=1)
            np.divide((weights * values).sum(axis=1), total, out=reference[:, j], where=total > 0.0)
        sums[0, :, j] = _by_shift(weights * (values - reference[:, j, None]))
    if not np.isfinite(sums).all():
        raise NumericalError(f"lattice points {start}-{stop - 1}: a coverage value leaves the float range")
    return sums, reference


def _by_shift(values: np.ndarray) -> np.ndarray:
    """The sums over each shift's points along the last axis of an index-major block's ``values``."""
    return values.reshape(*values.shape[:-1], -1, SHIFTS).sum(axis=-2)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

class Coverage(NamedTuple):
    """One metric's estimates (module docstring), as arrays aligned with the thresholds."""

    probability: np.ndarray
    ci_half_width: np.ndarray


def _values(cfg: NetworkConfig, records: TrialRecords, engaged: np.ndarray, direct: tuple) -> Iterator[dict]:
    """Per-trial ``Pr[SIR > T]`` given the trial's records (module docstring), one dict per threshold.

    ``engaged`` is each trial's probability of an engaged reflector (``g``,
    or the indicator ``r2 < r0`` given ``r2``), and ``gamma_b``'s value is
    given engagement. ``direct`` is :func:`riscov.analytic.direct_factors`'
    table; the ``j``-th dict, yielded in turn so that one threshold's values
    are alive at a time, maps each name of :data:`METRICS` to an array over
    all trials.
    """
    exposure_single, exposure_split = np.outer(cfg.retentions, -np.square(records.r0))  # -p * r0**2 for each p
    log_q = np.fmax(records.log_q_per_alpha, -np.inf)  # nan only where g or 2 * v3 is 0: q = 0, its r0 -> 0 limit
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
            "gamma_b": e_b,
            "gamma_s": e_a + engaged * (e_b - e_ab),
        }


def _estimates(sums: np.ndarray, reference: np.ndarray) -> dict[str, Coverage]:
    """The estimates (module docstring) from a whole run's per-shift sums and reference, as :func:`_block_sums`'.

    The sums hold deviations from the reference, so no digits cancel where
    the shift means agree to more digits than the values do, as near ``p =
    1``. A metric without weight (``gamma_b`` where every ``g`` is 0) gets NaN.
    """
    deviations, weights = sums
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 without weight
        offset = deviations.sum(axis=-1) / weights.sum(axis=-1)
        residuals = deviations - offset[..., None] * weights
        # np.max, not np.nanmax: a weightless row is all nan, and frexp gives it the exponent 0
        _, exponent = np.frexp(np.max(np.abs(residuals), axis=-1))
        spread = np.square(np.ldexp(residuals, -exponent[..., None])).sum(axis=-1) / (SHIFTS * (SHIFTS - 1))
        half_width = T_QUANTILE * np.ldexp(np.sqrt(spread), exponent) / weights.mean(axis=-1)
    p = reference + offset
    return {m: Coverage(p[i], half_width[i]) for i, m in enumerate(METRICS)}


def draw(cfg: NetworkConfig) -> TrialRecords:
    """The records of the first ``n_trials`` points of the shifted lattices (module docstring), for histograms."""
    shifts, per_shift = _shifts(cfg), -(-cfg.n_trials // SHIFTS)  # the whole indices that hold them
    return _trials(cfg, np.concatenate([_points(shifts, *block) for block in _blocks(per_shift)])[:cfg.n_trials])


def looks(cfg: NetworkConfig) -> Iterator[tuple[int, dict[str, Coverage]]]:
    """``(points, estimates)`` of the configured run after each doubling of its lattice indices, and at its end.

    The looks come after 4, 8, 16, ... and at most ``2**15`` indices per
    shift, each below ``n_trials // SHIFTS``, and last at that count: the
    last look's ``points``, ``SHIFTS * (n_trials // SHIFTS)``, never more
    than ``n_trials``, is the count of a run. The blocks of a run are a
    prefix of those of any longer one, so a look's estimates are those of
    :func:`run` with ``n_trials = points``, bit for bit. It needs
    ``n_trials`` of at least 100.
    """
    if cfg.n_trials < 100:
        raise ConfigError([f"n_trials: must be at least 100 to estimate coverage, got {cfg.n_trials}"])
    direct = analytic.direct_factors(cfg)
    shifts, per_shift = _shifts(cfg), cfg.n_trials // SHIFTS
    total = reference = None
    for start, stop in _blocks(per_shift):
        sums, reference = _block_sums(cfg, shifts, start, stop, direct, reference)
        total = sums if total is None else total + sums
        if stop == per_shift or (stop <= _LAST_DOUBLING and stop & (stop - 1) == 0):
            yield SHIFTS * stop, _estimates(total, reference)


def run(cfg: NetworkConfig) -> dict[str, Coverage]:
    """``Pr[SIR > T]`` of the configured run, the last of :func:`looks`: one :class:`Coverage` per name of :data:`METRICS`.

    Entry ``j`` of its arrays is the estimate at ``cfg.thresholds_linear[j]`` from all
    the last look's lattice points (module docstring); it needs ``n_trials`` of at least 100.
    """
    *_, (_, estimates) = looks(cfg)
    return estimates


def empirical_histogram(cfg: NetworkConfig, quantity: str, bins: int = HISTOGRAM_BINS) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``np.histogram``'s ``(counts, edges)`` of a per-trial quantity, in metres or dBW, and its analytic overlay.

    It bins :func:`draw`'s records, drawn once the checks pass: distances of
    the raw drop (no engaged conditioning), as in the unconditional analytic
    laws, and the peak reflected power ``p_ris_dbw``, ``10*log10(P / 1 W)`` at
    the configured transmit power, formed from logs to stay finite where the
    watts leave the float range. The overlay is each distance's Rayleigh
    density per metre at the bin middles, summed in logs; ``p_ris_dbw`` has
    none. Raises :class:`ConfigError` on an unknown ``quantity``, ``bins``
    outside 1 to ``n_trials`` or ``n_trials`` below 1000, and
    :class:`NumericalError` when a value is not finite: a reflector beyond the
    float range in base spacings (once ``lambda_bs / lambda_ris`` passes about
    6e616), a fade of exactly 0, or a ``p_ris_dbw`` whose dB value itself
    leaves the float range, as at ``alpha = 1e308``.
    """
    if quantity not in HISTOGRAM_QUANTITIES:
        raise ConfigError([f"quantity: must be one of {HISTOGRAM_QUANTITIES}, got {quantity!r}"])
    if not 1 <= bins <= cfg.n_trials:
        raise ConfigError([f"bins: must be from 1 to n_trials ({cfg.n_trials}), got {bins}"])
    if cfg.n_trials < 1000:
        raise ConfigError([f"n_trials: must be at least 1000 for a histogram, got {cfg.n_trials}"])
    records = draw(cfg)
    with np.errstate(all="ignore"):  # a value beyond the float range fails below
        if quantity == "p_ris_dbw":  # 0.5 * p_s * f1 * r1**-alpha / K, r1 in units of the base spacing
            values = (cfg.log_beam_power + np.log(records.f1)
                      - cfg.alpha * (np.log(records.r1) + cfg.log_k_per_alpha)) * (10.0 / math.log(10.0))
        else:
            values = getattr(records, quantity) * cfg.base_spacing_m
    if not np.isfinite(values).all():
        raise NumericalError(f"the {quantity} values exceed the float range")
    counts, edges = np.histogram(values, bins=bins)
    if quantity == "p_ris_dbw":
        return counts, edges, None
    # in base spacings pi * lambda * r**2 = exp(c) * r**2 is a unit exponential: the density per
    # metre is 2 * exp(c) * r * exp(-exp(c) * r**2) over the spacing, summed in logs
    log_scale = {"r0": 0.0, "r1": cfg.log_r1_scale, "r2": cfg.log_rho}[quantity]
    log_spacing = math.log(cfg.base_spacing_m)
    log_r = np.log(0.5 * (edges[:-1] + edges[1:])) - log_spacing  # the bin middles in base spacings
    return counts, edges, np.exp(math.log(2.0) + log_scale + log_r - np.exp(log_scale + 2.0 * log_r) - log_spacing)
