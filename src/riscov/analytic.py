"""Closed-form SIR coverage expressions and their interference factor.

Every coverage function is a function of one
:class:`riscov.config.NetworkConfig`, whose fields it does not re-check: it
evaluates the config's ``thresholds_linear`` and returns a float array aligned
with its ``thresholds_db``, as :func:`riscov.montecarlo.run` does. Every value
is a probability in [0, 1].

Every expression is exact and evaluated without quadrature. The interference
factor is the Gauss hypergeometric form
``I(T, a) = 2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)``. The two reflected-path
approximations depend on the deployment only through one power-free ratio
``kappa``, which holds the floored moment ``E[r1**-2 ; r1 >= eps]`` of
:func:`riscov.geometry.log_expected_inv_r1_pow`. Both are evaluated from
``log(kappa)`` (:func:`log_reflector_ratio`), so they take their limits where
``kappa`` itself would leave the float range. approx1 is path-A coverage at
the scaled threshold ``T * kappa**(-a/2)``.

The hypergeometric function is summed here as a numpy series rather than
imported from ``scipy.special``, whose import alone costs about half of a
cold start. With ``b = 1 - 2/a``, the Pfaff transformation (DLMF 15.8.1)
gives ``2F1(1, b; b+1; -t) = (1+t)**-1 * sum_n n!/(b+1)_n * w**n`` with
``w = t/(1+t)``; for ``t > 1`` the ``1/z`` transformation (DLMF 15.8.2)
first splits off ``(pi*b/sin(pi*b)) * t**-b`` and leaves the same series
with ``b`` replaced by ``1-b`` at ``w = 1/(1+t)``. Either way ``w <= 1/2``,
so each term at most halves the last, and a fixed 56 terms, summed by
Horner's rule, reach double precision for every ``t``. For ``t > 1`` the two
parts tend to 1 as ``a -> inf``, so each is summed as its difference from 1,
and ``I`` keeps its relative accuracy where ``I(T, a) -> (2/a) * log(1 + T)``.
Both branches read ``u = log(t) / a`` (:func:`interference_factor_from_log`):
``w`` is a logistic function of ``a * u`` and ``t**(2/a)`` is ``exp(2u)``, so
``t`` itself may lie beyond the float range. With ``u`` fixed, ``I`` tends to
``max(0, expm1(2u))`` as ``a -> inf``, and takes that limit.
"""
from __future__ import annotations

import math

import numpy as np

from . import geometry
from .config import NetworkConfig
from .errors import NumericalError, ParameterError


# Terms of the series of `_horner`: each is at most w <= 1/2 times the one
# before, so the omitted tail stays below 2**-56 of the sum, under a quarter ulp.
_SERIES_DEGREE = 56
_TERMS = np.arange(1, _SERIES_DEGREE + 1)


def _horner(coefficients: np.ndarray, w):
    """``sum_{1 <= n <= 56} coefficients[n-1] * w**n`` by Horner's rule, for ``0 <= w <= 1/2``.

    A fixed degree gives each element of ``w`` the same steps whatever the
    other elements are, so an array call matches scalar calls exactly.
    """
    total = np.full(np.shape(w), coefficients[-1])
    for a in coefficients[-2::-1]:
        total *= w
        total += a
    total *= w
    return total


def _leading(alpha: float) -> float:
    """``pi*d / sin(pi*d)`` with ``d = 2/alpha``: ``I(T, alpha) / T**d`` as ``T -> inf``."""
    delta = 2.0 / alpha
    # sin(pi*d) = sin(pi*(1-d)); the smaller argument avoids the cancellation near alpha = 2
    return math.pi * delta / math.sin(math.pi * min((alpha - 2.0) / alpha, delta))


def interference_factor(T, alpha: float):
    """``T**(2/a) * int_{T**(-2/a)}^inf du / (1 + u**(a/2))`` in closed form.

    Equals ``2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)`` (Andrews, Baccelli & Ganti,
    IEEE TCOM 2011), which at ``alpha == 4`` is ``sqrt(T) * atan(sqrt(T))``;
    :func:`interference_factor_from_log` sums it from ``log(T) / alpha``. ``T``
    may be a scalar (float result) or an array (array result); ``T = 0`` gives
    0 and ``T = inf`` gives inf.
    """
    t = np.asarray(T, dtype=float)
    if not np.all(t >= 0):
        raise ParameterError(f"T must be nonnegative, got {T!r}")
    with np.errstate(divide="ignore"):  # log(0) is -inf, where I is 0
        value = interference_factor_from_log(np.log(t) / alpha, alpha)
    return float(value) if value.ndim == 0 else value


def interference_factor_from_log(log_t_per_alpha, alpha: float) -> np.ndarray:
    """``I(T, alpha)`` from ``log(T) / alpha`` (module docstring), as an array; nan where that is nan."""
    u = np.asarray(log_t_per_alpha, dtype=float)
    delta = 2.0 / alpha
    b = (alpha - 2.0) / alpha  # 1 - delta without the cancellation near alpha = 2
    with np.errstate(over="ignore"):  # log T may overflow to +-inf, where w is 0
        log_t = alpha * u
    low = u <= 0.0
    high = ~low
    value = np.empty_like(u)
    # each branch is evaluated on its own elements only, so an empty one costs nothing
    if low.any():
        t_low = np.exp(log_t[low])
        w = t_low / (1.0 + t_low)
        value[low] = 2.0 / (alpha - 2.0) * w * (1.0 + _horner(np.cumprod(_TERMS / (b + _TERMS)), w))
    if high.any():
        inverse = np.exp(-log_t[high])  # 1/T, which cannot overflow here
        w = inverse / (1.0 + inverse)
        x2 = (math.pi * delta) ** 2
        # the prefactor 2/(a-2) = (1-b)/b turns the split-off pi*b/sin(pi*b) into pi*d/sin(pi*d);
        # both parts are near 1 at large alpha, so each is taken less 1, the first from its log
        log_leading = (math.log(_leading(alpha)) if x2 >= 0.01 else
                       x2 * (1 / 6 + x2 * (1 / 180 + x2 * (1 / 2835 + x2 * (1 / 37800 + x2 / 467775)))))
        shortfall = np.expm1(-np.cumsum(np.log1p(delta / _TERMS)))  # n!/(d+1)_n - 1
        with np.errstate(over="ignore"):  # near alpha = 2 a huge T overflows to inf, the limit
            value[high] = np.expm1(log_leading + 2.0 * u[high]) - (1.0 - w) * _horner(shortfall, w)
    return value


# ---------------------------------------------------------------------------
# baseline and path-A coverage
# ---------------------------------------------------------------------------

def _direct_coverage(cfg: NetworkConfig, retention: float) -> np.ndarray:
    """``1 / (1 + p * I(T, a))`` at each configured threshold, for the retention ``p`` of the lobes."""
    return 1.0 / (1.0 + retention * interference_factor(np.array(cfg.thresholds_linear), cfg.alpha))


def coverage_baseline(cfg: NetworkConfig) -> np.ndarray:
    """Single-beam coverage ``1 / (1 + p * I(T, a))``.

    ``p = 1/sqrt(N)`` is the single-beam retention of
    :attr:`riscov.config.NetworkConfig.retentions`, which never exceeds 1.
    """
    return _direct_coverage(cfg, cfg.retentions[0])


def coverage_path_a(cfg: NetworkConfig) -> np.ndarray:
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


def _reflected_coverage(log_kappa: float, weighted_interference):
    """``kappa / (kappa + x)`` from ``log(kappa)``, as the logistic function of ``log(x / kappa)``.

    Its exponential is taken of a nonpositive argument only, so it cannot
    overflow, and values down to the smallest subnormal float survive. Where
    ``kappa`` and ``x`` both underflow to 0, no reflected power means 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(weighted_interference) - log_kappa
    y = np.where(np.isnan(y), math.inf, y)
    e = np.exp(-np.abs(y))
    return np.where(y > 0, e / (1.0 + e), 1.0 / (1.0 + e))


def coverage_path_b_approx1(cfg: NetworkConfig) -> np.ndarray:
    """Reflected-path coverage under the proportional-distance approximation.

    Treats the reflector distance as the fraction ``kappa**-0.5`` of the
    serving distance, which tightens as the reflector density grows. That is
    path-A coverage at the threshold ``T' = T * kappa**(-a/2)``: ``1 / (1 + p *
    I(T', a))`` with ``p`` the split-beam retention. Where ``p * I(T', a)``
    leaves the float range, ``I(T', a) = pi*d/sin(pi*d) * T**d / kappa - 1``
    (``d = 2/a``) to double precision, and the coverage is taken from
    ``log(kappa)``, so that a tiny value keeps its relative accuracy.
    """
    t, a, p = np.array(cfg.thresholds_linear), cfg.alpha, cfg.retentions[1]
    log_kappa = log_reflector_ratio(cfg)
    # T' is one exponential of a sum of logs, as a subnormal kappa**(-a/2) loses digits; it
    # may overflow or underflow; the far form may overflow, or read nan where it is unused
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = p * interference_factor(np.exp(np.log(t) - 0.5 * a * log_kappa), a)
        far = _reflected_coverage(log_kappa, p * (_leading(a) * t ** (2.0 / a) - np.exp(log_kappa)))
    return np.where(np.isfinite(weighted), 1.0 / (1.0 + weighted), far)


def coverage_path_b_approx2(cfg: NetworkConfig) -> np.ndarray:
    """Reflected-path coverage for dense reflector deployments: ``kappa / (kappa + p * I(T, a))``.

    It is derived as a lower bound on ``gamma_b``, but it is not one: at 5 dB
    and 2e4 simulated trials it lies above the simulated coverage at every
    configuration checked, by 0.021 at the defaults (inside the 0.03 margin of
    the ``approx2`` compare gate) and beyond that margin at small arrays:
    0.037 at ``N = 2, alpha = 3`` and 0.043 at ``N = 1`` (or 2), ``alpha = 4``.
    """
    t = np.array(cfg.thresholds_linear)
    return _reflected_coverage(log_reflector_ratio(cfg), cfg.retentions[1] * interference_factor(t, cfg.alpha))


# ---------------------------------------------------------------------------
# reflection power
# ---------------------------------------------------------------------------

def mean_reflected_power(cfg: NetworkConfig) -> float:
    """Average peak reflected power ``M**2 beta P_s / (2 mu) * E[r1**-alpha ; r1 >= eps]`` in watts.

    The moment is taken with ``r1`` in units of the floor, which keeps the
    density's powers out of it: in units of the base spacing two terms of
    size ``(alpha/2) * log(pi * lambda_bs)`` would cancel. Raises
    :class:`NumericalError` when the power exceeds the float range, as it
    can for a tiny ``mu``.
    """
    log_x = cfg.log_r1_scale + 2.0 * cfg.log_floor  # pi * lambda_eff * eps**2
    log_moment = geometry.log_expected_inv_r1_pow(cfg.alpha, log_x, 0.0)
    try:
        return math.exp(math.log(0.5 * cfg.p_s) + cfg.log_gain - math.log(cfg.mu)
                        + log_moment - cfg.alpha * math.log(cfg.epsilon_floor))
    except OverflowError:
        raise NumericalError(f"mean reflected power exceeds the float range (mu={cfg.mu:g})")
