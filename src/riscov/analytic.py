"""Closed-form SIR coverage expressions and their interference factor.

Every coverage function is a function of one
:class:`riscov.config.NetworkConfig`, whose fields it does not re-check: it
evaluates the config's ``thresholds_linear`` and returns a tuple of floats
aligned with its ``thresholds_db``. Every value is a probability in [0, 1].

Every expression is exact and evaluated without quadrature. The interference
factor is ``I(T, a) = 2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)`` (Andrews, Baccelli
& Ganti, IEEE TCOM 2011); :func:`direct_factors` holds it, with ``u =
log(T)/a``, at each configured threshold: all four closed forms read that
table, and so do the engine's direct paths. The two reflected-path
approximations depend on the deployment only through one power-free ratio
``kappa``, which holds the floored moment ``E[r1**-2 ; r1 >= eps]`` of
:func:`riscov.geometry.log_expected_inv_r1_pow`. Both are evaluated from
``log(kappa)`` (:func:`log_reflector_ratio`), so they take their limits where
``kappa`` itself would leave the float range. approx1 is path-A coverage at
the scaled threshold ``T * kappa**(-a/2)``, read at ``u - log(kappa)/2``.

At ``a = 4``, the default, the factor is elementary: ``I(T, 4) =
sqrt(T) * atan(sqrt(T))``, which both kernels evaluate as ``r * atan(r)``
with ``r = exp(2u)``, ``u = log(T) / 4``. Every other ``a`` sums the series
below.

The hypergeometric function is summed here rather than imported from
``scipy.special``, whose import alone costs about half of a cold start. The
series has one implementation in the package: :func:`_horner` and the branch formulas
:func:`_below_one` and :func:`_above_one` use operators only, so they take a
float from this module and, elementwise, a numpy array from
:func:`riscov.montecarlo.interference_factor_from_log`, which supplies numpy's
``exp`` and ``expm1`` and splits the elements between the branches.

With ``b = 1 - 2/a``, the Pfaff transformation (DLMF 15.8.1) gives
``2F1(1, b; b+1; -t) = (1+t)**-1 * sum_n n!/(b+1)_n * w**n`` with
``w = t/(1+t)``; for ``t > 1`` the ``1/z`` transformation (DLMF 15.8.2)
first splits off ``(pi*b/sin(pi*b)) * t**-b`` and leaves the same series
with ``b`` replaced by ``1-b`` at ``w = 1/(1+t)``. Either way ``w <= 1/2``,
so 56 terms reach double precision; the one singularity lies at 1, so the
Chebyshev terms on ``[0, 1/2]`` shrink like ``(3 + sqrt(8))**-n``, and the
series is economized once per ``a`` (Trefethen, *Approximation Theory and
Approximation Practice*, SIAM 2013, ch. 8) to degree 24 in ``y = 4w - 1``,
summed by Horner's rule in ``y``. For ``t > 1`` the two parts tend to 1 as
``a -> inf``, so each is summed as its difference from 1, and ``I`` keeps its
relative accuracy where ``I(T, a) -> (2/a) * log(1 + T)``. Both branches read
``u = log(t) / a`` (:func:`interference_factor_from_log`): ``w`` is a logistic
function of ``a * u`` and ``t**(2/a)`` is ``exp(2u)``, so ``t`` itself may lie
beyond the float range. With ``u`` fixed, ``I`` tends to ``max(0, expm1(2u))``
as ``a -> inf``, and takes that limit. ``math`` raises where numpy returned an
infinity, so each limit is taken explicitly.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache

from . import geometry
from .config import NetworkConfig
from .errors import NumericalError


# Pfaff terms (the tail past them: under 2**-56 of the sum) and economized degree (under 2**-54 of the lead)
_PFAFF_TERMS, _SERIES_DEGREE = 56, 24


def _horner(coefficients: tuple[float, ...], w):
    """``w * sum_j coefficients[j] * y**j`` with ``y = 4w - 1``, by Horner's rule, for ``0 <= w <= 1/2``.

    The augmented steps rebind ``total`` for a float ``w`` and update it in
    place for an array, so each element of an array gets the float call's bits.
    """
    y = 4.0 * w - 1.0
    total = coefficients[-1] * y + coefficients[-2]
    for a in coefficients[-3::-1]:
        total *= y
        total += a
    total *= w
    return total


@lru_cache(maxsize=1)
def _chebyshev_tables() -> tuple[list[list[float]], list[list[float]]]:
    """The coefficients of ``w**n`` on ``T_i(y)``, and of ``T_i`` on ``y**j``: ``n < 56``, ``i, j <= 24``."""
    # w**n = 2**-n * cos(t/2)**(2n) with y = cos(t): T_i gets 2**(1-3n) * C(2n, n-i), half that at i = 0
    onto = [[math.ldexp(math.comb(2 * n, n - i), 1 - 3 * n - (i == 0)) if n >= i else 0.0
             for n in range(_PFAFF_TERMS)] for i in range(_SERIES_DEGREE + 1)]
    powers = [[1.0], [0.0, 1.0]]
    while len(powers) <= _SERIES_DEGREE:  # T_{i+1} = 2y * T_i - T_{i-1}
        powers.append([2.0 * a - b for a, b in zip([0.0, *powers[-1]], [*powers[-2], 0.0, 0.0])])
    return onto, powers


def _economize(ratios: list[float], scale: float) -> tuple[float, ...]:
    """``scale`` times the ``y**j`` coefficients of ``sum_n ratios[n] * w**n`` cut to Chebyshev degree 24."""
    onto, powers = _chebyshev_tables()
    chebyshev = [math.fsum(a * r for a, r in zip(row, ratios)) for row in onto]
    return tuple(scale * math.fsum(c * t[j] for c, t in zip(chebyshev[j:], powers[j:]))
                 for j in range(_SERIES_DEGREE + 1))


def _log_leading(alpha: float) -> float:
    """``log(I(T, alpha) / T**d)`` as ``T -> inf``: ``log(pi*d / sin(pi*d))``, ``d = 2/alpha``.

    A Taylor series in ``(pi*d)**2`` gives it where that square is below 0.01.
    """
    delta = 2.0 / alpha
    x2 = (math.pi * delta) ** 2
    if x2 < 0.01:
        return x2 * (1 / 6 + x2 * (1 / 180 + x2 * (1 / 2835 + x2 * (1 / 37800 + x2 / 467775))))
    # sin(pi*d) = sin(pi*(1-d)); the smaller argument avoids the cancellation near alpha = 2
    return math.log(math.pi * delta / math.sin(math.pi * min((alpha - 2.0) / alpha, delta)))


@lru_cache(maxsize=64)
def _series(alpha: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The :func:`_horner` coefficients of ``sum_{n <= 56} c_n * w**n`` for both branches at ``alpha``.

    ``c_n = n!/(b+1)_n`` for ``t <= 1`` and ``n!/(d+1)_n - 1`` beyond (``d = 2/alpha``, ``b = 1 - d``). Each
    ``r_n = c_n / c_1`` is economized, then scaled by ``c_1``; beyond, ``r_n = (n*r_{n-1} + 1 + d) / (n + d)``
    stays near 1, so no subnormal enters the fit at large ``alpha``.
    """
    delta = 2.0 / alpha
    b = (alpha - 2.0) / alpha  # 1 - delta without the cancellation near alpha = 2
    low, shortfall = [1.0], [1.0]
    for n in range(2, _PFAFF_TERMS + 1):
        low.append(low[-1] * n / (b + n))
        shortfall.append((n * shortfall[-1] + (1.0 + delta)) / (n + delta))
    return _economize(low, 1.0 / (1.0 + b)), _economize(shortfall, -delta / (1.0 + delta))


def direct_factors(cfg: NetworkConfig) -> tuple[tuple[float, float], ...]:
    """``(log(T) / a, I(T, a))`` at each configured threshold, in order: the direct paths' factors."""
    logs = [math.log(t) / cfg.alpha for t in cfg.thresholds_linear]
    return tuple((u, interference_factor_from_log(u, cfg.alpha)) for u in logs)


def interference_factor_from_log(log_t_per_alpha: float, alpha: float) -> float:
    """``I(T, alpha)`` from ``log(T) / alpha`` (module docstring); nan where that is nan."""
    u = log_t_per_alpha
    if alpha == 4.0:
        try:
            r = math.exp(2.0 * u)  # sqrt(T)
        except OverflowError:  # I lies beyond the float range
            return math.inf
        return r * math.atan(r)
    e = math.exp(-abs(alpha * u))  # min(T, 1/T); log T may overflow to +-inf, where e is 0
    w = e / (1.0 + e)
    if u <= 0.0:
        return _below_one(alpha, w)
    try:
        head = math.expm1(_log_leading(alpha) + 2.0 * u)
    except OverflowError:  # near alpha = 2 a huge T leaves the float range: inf is the limit
        head = math.inf
    return _above_one(alpha, head, w)


def _below_one(alpha: float, w):
    """``I(T, alpha)`` for ``T <= 1`` from ``w = T/(1+T)``, a float or an array (elementwise)."""
    return 2.0 / (alpha - 2.0) * w * (1.0 + _horner(_series(alpha)[0], w))


def _above_one(alpha: float, head, w):
    """``I(T, alpha)`` for ``T > 1`` from ``w = 1/(1+T)`` and ``head = expm1(_log_leading(alpha) + 2u)``."""
    # the prefactor 2/(a-2) = (1-b)/b turns the split-off pi*b/sin(pi*b) into pi*d/sin(pi*d);
    # both parts are near 1 at large alpha, so each is taken less 1, the first from its log
    return head - (1.0 - w) * _horner(_series(alpha)[1], w)


# ---------------------------------------------------------------------------
# baseline and path-A coverage
# ---------------------------------------------------------------------------

def _direct_coverage(cfg: NetworkConfig, retention: float) -> tuple[float, ...]:
    """``1 / (1 + p * I(T, a))`` at each configured threshold, for the retention ``p`` of the lobes."""
    return tuple(1.0 / (1.0 + retention * factor) for _, factor in direct_factors(cfg))


def coverage_baseline(cfg: NetworkConfig) -> tuple[float, ...]:
    """Single-beam coverage ``1 / (1 + p * I(T, a))``.

    ``p = 1/sqrt(N)`` is the single-beam retention of
    :attr:`riscov.config.NetworkConfig.retentions`, which never exceeds 1.
    """
    return _direct_coverage(cfg, cfg.retentions[0])


def coverage_path_a(cfg: NetworkConfig) -> tuple[float, ...]:
    """Split-beam direct-path coverage ``1 / (1 + p * I(T, a))``.

    ``p = min(1, sqrt(2/N))`` is the split-beam retention of
    :attr:`riscov.config.NetworkConfig.retentions`, so at ``N = 1`` this
    equals the baseline.
    """
    return _direct_coverage(cfg, cfg.retentions[1])


# ---------------------------------------------------------------------------
# path-B coverage (reflected path)
# ---------------------------------------------------------------------------

def log_reflector_ratio(cfg: NetworkConfig) -> float:
    """``log(kappa)``, kappa the reflectors' intensity over the bases' once both are mapped to unit power.

    A base sends ``p_s/2`` per beam and a reflector ``G * f1 * r1**-alpha``
    times that (``G`` the bank gain, ``f1`` an exponential fade), so ``p_s``
    cancels: ``kappa = (G/mu)**(2/alpha) * Gamma(1 + 2/alpha) * E[r1**-2 ; r1
    >= eps] * lambda_ris / lambda_bs``. With distances in units of the base
    spacing that is ``K**(-2/alpha) * Gamma(1 + 2/alpha) * rho * E[r1**-2 ;
    r1 >= eps~]``, in the groups of :class:`riscov.config.NetworkConfig`.
    Their logs are summed, since each factor can leave the float range.
    """
    return math.fsum((
        -2.0 * cfg.log_k_per_alpha, math.lgamma(1.0 + 2.0 / cfg.alpha), cfg.log_rho,
        geometry.log_expected_inv_r1_pow(2.0, cfg.log_r1_scale, cfg.log_floor),
    ))


def _reflected_coverage(log_kappa: float, x: float) -> float:
    """``kappa / (kappa + x)`` from ``log(kappa)``, as the logistic function of ``log(x / kappa)``, for ``x >= 0``.

    Its exponential is taken of a nonpositive argument only, so it cannot
    overflow, and values down to the smallest subnormal float survive. Where
    ``kappa`` and ``x`` both underflow to 0, no reflected power means 0.
    """
    y = (math.log(x) if x > 0 else -math.inf) - log_kappa
    if math.isnan(y):  # both infinite, or both 0
        y = math.inf
    e = math.exp(-abs(y))
    return e / (1.0 + e) if y > 0 else 1.0 / (1.0 + e)


def coverage_path_b_approx1(cfg: NetworkConfig) -> tuple[float, ...]:
    """Reflected-path coverage under the proportional-distance approximation.

    Treats the reflector distance as the fraction ``kappa**-0.5`` of the
    serving distance, which tightens as the reflector density grows. That is
    path-A coverage at the threshold ``T' = T * kappa**(-a/2)``: ``1 / (1 + p *
    I(T', a))`` with ``p`` the split-beam retention. Where ``p * I(T', a)``
    leaves the float range, ``I(T', a) = pi*d/sin(pi*d) * T**d / kappa - 1``
    (``d = 2/a``, ``T**d = exp(2u)`` from :func:`direct_factors`) to double
    precision, and the coverage is taken from ``log(kappa)``, so that a tiny
    value keeps its relative accuracy.
    """
    a, p = cfg.alpha, cfg.retentions[1]
    log_kappa = log_reflector_ratio(cfg)

    def at(u: float) -> float:
        # I(T') is read from log(T') / a = u - log(kappa) / 2, as a subnormal kappa**(-a/2) loses
        # digits and T' may leave the float range; the difference may overflow to its limit +-inf
        weighted = p * interference_factor_from_log(u - 0.5 * log_kappa, a)
        if math.isfinite(weighted):
            return 1.0 / (1.0 + weighted)
        return _reflected_coverage(log_kappa, p * (math.exp(_log_leading(a)) * math.exp(2.0 * u) - math.exp(log_kappa)))

    return tuple(at(u) for u, _ in direct_factors(cfg))


def coverage_path_b_approx2(cfg: NetworkConfig) -> tuple[float, ...]:
    """Reflected-path coverage for dense reflector deployments: ``kappa / (kappa + p * I(T, a))``.

    It is derived as a lower bound on ``gamma_b``, but it is not one: at 5 dB
    it lies above the simulated coverage at every configuration checked, by
    the gaps that README quotes below its table of ``compare``'s gates.
    """
    log_kappa, p = log_reflector_ratio(cfg), cfg.retentions[1]
    return tuple(_reflected_coverage(log_kappa, p * factor) for _, factor in direct_factors(cfg))


# ---------------------------------------------------------------------------
# reflection power
# ---------------------------------------------------------------------------

def mean_reflected_power(cfg: NetworkConfig) -> float:
    """Average peak reflected power ``M**2 beta P_s / (2 mu) * E[r1**-alpha ; r1 >= eps]`` in watts.

    The moment is taken with ``r1`` in units of the floor, which keeps the
    density's powers out of it: in units of the base spacing two terms of
    size ``(alpha/2) * log(pi * lambda_bs)`` would cancel. Raises
    :class:`NumericalError` when the power exceeds the float range (a tiny
    ``mu`` or floor, or a huge bank), stating its order of magnitude from its
    log, which is finite unless ``alpha`` nears the float maximum.
    """
    log_x = cfg.log_r1_scale + 2.0 * cfg.log_floor  # pi * lambda_eff * eps**2
    log_moment = geometry.log_expected_inv_r1_pow(cfg.alpha, log_x, 0.0)
    # log(p_s) - log(2): half of a subnormal p_s may round to 0
    log_power = (math.log(cfg.p_s) - math.log(2.0) + cfg.log_gain - math.log(cfg.mu)
                 + log_moment - cfg.alpha * math.log(cfg.epsilon_floor))
    if log_power > math.log(sys.float_info.max):  # math.exp would overflow, or log_power is inf
        raise NumericalError(f"mean reflected power exceeds the float range: about 1e{log_power / math.log(10):+.0f} W")
    return math.exp(log_power)
