"""Closed-form SIR coverage expressions and their interference factor.

Every coverage function reads the deployment from a
:class:`riscov.config.NetworkConfig`, whose fields it does not re-check, and
takes the threshold ``T`` as a positive linear power ratio (dB conversion
belongs to the config): a scalar gives a float, a numpy array gives an array
of the same shape. Every value is a probability in [0, 1].

Every expression is exact and evaluated without quadrature. The interference
factor is the Gauss hypergeometric form
``I(T, a) = 2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)``; the proportional-distance
variant with ratio ``rho`` is the same function at ``T * rho**a``, which
enters divided by ``rho**2`` (``interference_factor(T, a, rho)``). The two
reflected-path approximations depend on the deployment only through one
power-free ratio ``kappa``, which holds the floored moment ``E[r1**-2 ; r1 >=
eps]`` of :func:`riscov.geometry.expected_inv_r1_pow`. Both are evaluated
from ``log(kappa)`` (:func:`log_reflector_ratio`), so they take their limits
where ``kappa`` itself would leave the float range.

The hypergeometric function is summed here as a numpy series rather than
imported from ``scipy.special``, whose import alone costs about half of a
cold start. With ``b = 1 - 2/a``, the Pfaff transformation (DLMF 15.8.1)
gives ``2F1(1, b; b+1; -t) = (1+t)**-1 * sum_n n!/(b+1)_n * w**n`` with
``w = t/(1+t)``; for ``t > 1`` the ``1/z`` transformation (DLMF 15.8.2)
first splits off ``(pi*b/sin(pi*b)) * t**-b`` and leaves the same series
with ``b`` replaced by ``1-b`` at ``w = 1/(1+t)``. Either way ``w <= 1/2``,
so each term at most halves the last, and a fixed 56 terms, summed by
Horner's rule, reach double precision for every ``t``.
"""
from __future__ import annotations

import math

import numpy as np

from . import channel, geometry
from .config import NetworkConfig
from .errors import ParameterError


# Terms of `_pfaff_series`: each is at most w <= 1/2 times the one before, so
# the omitted tail stays below 2**-56 of the sum, under a quarter ulp.
_SERIES_DEGREE = 56


def _pfaff_series(c: float, w):
    """``sum_{n <= 56} n!/(c+1)_n * w**n`` by Horner's rule, for ``c > 0``, ``0 <= w <= 1/2``.

    A fixed degree gives each element of ``w`` the same steps whatever the
    other elements are, so an array call matches scalar calls exactly.
    """
    k = np.arange(1, _SERIES_DEGREE + 1)
    coefficients = np.cumprod(k / (c + k))
    total = np.full(np.shape(w), coefficients[-1])
    for a in coefficients[-2::-1]:
        total *= w
        total += a
    total *= w
    total += 1.0
    return total


def interference_factor(T, alpha: float, rho: float = 1.0):
    """``T**(2/a) * int_{T**(-2/a)}^inf du / (1 + u**(a/2))`` in closed form.

    Equals ``2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)`` (Andrews, Baccelli & Ganti,
    IEEE TCOM 2011), which at ``alpha == 4`` is ``sqrt(T) * atan(sqrt(T))``;
    the module docstring gives the series that sums it. ``T`` may be a scalar
    (float result) or an array (array result).

    A distance ratio ``rho`` returns ``I(T * rho**a, a) / rho**2``. Its
    leading term at large ``T * rho**a``, ``pi*d / sin(pi*d) * (T * rho**a)**d
    / rho**2`` with ``d = 2/a``, is evaluated as ``pi*d / sin(pi*d) * T**d``,
    so an infinite ``rho`` or a ``rho**a`` beyond the float range gives that
    limit. Below ``T * rho**a = 1``, where ``rho**2`` is not a normal float,
    the ratio ``w / rho**2`` of the series' prefactor is evaluated as ``T *
    rho**(a-2) / (1 + T * rho**a)``, so ``rho = 0`` gives the limit 0.
    """
    t_plain = np.asarray(T, dtype=float)
    if not np.all(t_plain >= 0):
        raise ParameterError(f"T must be nonnegative, got {T!r}")
    with np.errstate(over="ignore"):
        rho = np.float64(rho)
        rho_sq, t = rho**2, t_plain * rho**alpha
    delta = 2.0 / alpha
    b = (alpha - 2.0) / alpha  # 1 - delta without the cancellation near alpha = 2
    low = t <= 1.0
    high = ~low
    value = np.empty_like(t)
    # each branch is evaluated on its own elements only, so an empty one costs nothing
    if low.any():
        t_low = t[low]
        w = t_low / (1.0 + t_low)
        prefactor = 2.0 / (alpha - 2.0)
        if rho_sq >= np.finfo(float).tiny:
            value[low] = prefactor * w * _pfaff_series(b, w) / rho_sq
        else:
            w_over_rho_sq = t_plain[low] * rho ** (alpha - 2.0) / (1.0 + t_low)
            value[low] = prefactor * w_over_rho_sq * _pfaff_series(b, w)
    if high.any():
        w = 1.0 / (1.0 + t[high])
        # the prefactor 2/(a-2) = (1-b)/b times pi*b/sin(pi*b); sin(pi*b) = sin(pi*delta)
        reflection = math.pi * delta / math.sin(math.pi * min(b, delta))
        with np.errstate(over="ignore"):  # near alpha = 2 a huge T overflows to inf, the limit
            value[high] = (
                reflection * t_plain[high] ** delta - (1.0 - w) * _pfaff_series(delta, w) / rho_sq
            )
    return float(value) if value.ndim == 0 else value


def _thresholds(T):
    """``T`` as a float array, checked to be a positive power ratio."""
    t = np.asarray(T, dtype=float)
    if not np.all(t > 0):
        raise ParameterError(f"T must be positive, got {T!r}")
    return t


# ---------------------------------------------------------------------------
# baseline and path-A coverage
# ---------------------------------------------------------------------------

def coverage_baseline(cfg: NetworkConfig, T):
    """Single-beam coverage ``1 / (1 + I(T, a) / sqrt(N))``.

    The single-beam retention ``1/sqrt(N)`` never exceeds 1, so no cap
    applies; dividing by ``sqrt(N)`` rather than multiplying by the rounded
    retention keeps every value bit-identical to earlier releases.
    """
    i_factor = interference_factor(_thresholds(T), cfg.alpha)
    return 1.0 / (1.0 + i_factor / math.sqrt(cfg.n_elements))


def coverage_path_a(cfg: NetworkConfig, T):
    """Split-beam direct-path coverage ``1 / (1 + p * I(T, a))``.

    ``p = min(1, sqrt(2/N))`` is the split-beam retention of
    :func:`riscov.channel.retention_probabilities`, so at ``N = 1`` this
    equals the baseline.
    """
    _, retention = channel.retention_probabilities(cfg)
    return 1.0 / (1.0 + retention * interference_factor(_thresholds(T), cfg.alpha))


# ---------------------------------------------------------------------------
# path-B coverage (reflected path)
# ---------------------------------------------------------------------------

def log_reflector_ratio(cfg: NetworkConfig) -> float:
    """``log(kappa)``, kappa the reflectors' intensity over the bases' once both are mapped to unit power.

    A base sends ``p_s/2`` per beam and a reflector ``G * f1 * r1**-alpha``
    times that (``G`` from :func:`riscov.channel.array_gain`, ``f1`` an
    exponential fade), so ``p_s`` cancels: ``kappa = (G/mu)**(2/alpha) *
    Gamma(1 + 2/alpha) * E[r1**-2 ; r1 >= eps] * lambda_ris / lambda_bs``.
    The factors' logs are summed, since ``kappa``, ``G/mu`` or ``lambda_ris /
    lambda_bs`` can each leave the float range; ``-inf`` when ``G`` or the
    moment underflows to 0.
    """
    delta = 2.0 / cfg.alpha
    gain = channel.array_gain(cfg)
    inv_sq = geometry.expected_inv_r1_pow(
        2.0, cfg.lambda_bs_m2, cfg.lambda_ris_m2, cfg.epsilon_floor
    )
    if 0.0 in (gain, inv_sq):
        return -math.inf
    return math.fsum((
        delta * math.log(gain), -delta * math.log(cfg.mu), math.lgamma(1.0 + delta),
        math.log(inv_sq), math.log(cfg.lambda_ris), -math.log(cfg.lambda_bs),
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
    value = np.where(y > 0, e / (1.0 + e), 1.0 / (1.0 + e))
    return float(value) if value.ndim == 0 else value


def coverage_path_b_approx1(cfg: NetworkConfig, T):
    """Reflected-path coverage under the proportional-distance approximation.

    Treats the reflector distance as a fixed fraction ``rho = kappa**-0.5``
    of the serving distance, which tightens as the reflector density grows:
    ``kappa / (kappa + p * I(T, a, rho))`` with ``p`` the split-beam retention.
    """
    log_kappa = log_reflector_ratio(cfg)
    _, p_split = channel.retention_probabilities(cfg)
    # T**(2/a) * int rho**a / (rho**a + u**(a/2)) du over u >= T**(-2/a);
    # substituting u = rho**2 * v turns it into I(T * rho**a, a), which enters
    # divided by rho**2
    with np.errstate(over="ignore"):
        rho = np.exp(-0.5 * log_kappa)
    i_rho = interference_factor(_thresholds(T), cfg.alpha, rho)
    return _reflected_coverage(log_kappa, p_split * i_rho)


def coverage_path_b_approx2(cfg: NetworkConfig, T):
    """Reflected-path coverage for dense reflector deployments: ``kappa / (kappa + p * I(T, a))``.

    It is derived as a lower bound on ``gamma_b``, but it is not one: at 5 dB
    and 2e4 simulated trials it lies above the simulated coverage at every
    configuration checked, by 0.021 at the defaults (inside the 0.03 margin of
    the ``approx2`` compare gate) and beyond that margin at small arrays:
    0.037 at ``N = 2, alpha = 3`` and 0.043 at ``N = 1`` (or 2), ``alpha = 4``.
    """
    log_kappa = log_reflector_ratio(cfg)
    _, p_split = channel.retention_probabilities(cfg)
    return _reflected_coverage(log_kappa, p_split * interference_factor(_thresholds(T), cfg.alpha))
