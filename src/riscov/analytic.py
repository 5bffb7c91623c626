"""Closed-form SIR coverage expressions and their interference factor.

Every coverage function reads the deployment from a
:class:`riscov.config.NetworkConfig` and takes the threshold ``T`` as a
positive linear power ratio (dB conversion belongs to the config): a scalar
gives a float, a numpy array gives an array of the same shape. Every value
is a probability in [0, 1].

Every expression is exact and evaluated without quadrature. The interference
factor is the Gauss hypergeometric form
``I(T, a) = 2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)``; the proportional-distance
variant with ratio ``rho`` is the same function at ``T * rho**a``, which
enters divided by ``rho**2`` (``interference_factor(T, a, rho)``); and the
reflector intensity uses the floored moment ``E[r1**-2 ; r1 >= eps]`` from
:func:`riscov.geometry.expected_inv_r1_pow`.

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
from dataclasses import dataclass

import numpy as np

from . import channel
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
    limit. ``T * rho**a = 0`` gives the limit 0, which it can underflow to.
    """
    t_plain = np.asarray(T, dtype=float)
    if not np.all(t_plain >= 0):
        raise ParameterError(f"T must be nonnegative, got {T!r}")
    if not alpha > 2:
        raise ParameterError(f"alpha must exceed 2, got {alpha!r}")
    with np.errstate(over="ignore"):
        rho_sq, t = np.float64(rho) ** 2, t_plain * np.float64(rho) ** alpha
    delta = 2.0 / alpha
    b = (alpha - 2.0) / alpha  # 1 - delta without the cancellation near alpha = 2
    low = t <= 1.0
    high = ~low
    value = np.empty_like(t)
    # each branch is evaluated on its own elements only, so an empty one costs nothing
    if low.any():
        t_low = t[low]
        w = t_low / (1.0 + t_low)
        value[low] = 2.0 / (alpha - 2.0) * w * _pfaff_series(b, w) / rho_sq
    if high.any():
        w = 1.0 / (1.0 + t[high])
        # the prefactor 2/(a-2) = (1-b)/b times pi*b/sin(pi*b); sin(pi*b) = sin(pi*delta)
        reflection = math.pi * delta / math.sin(math.pi * min(b, delta))
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

@dataclass(frozen=True)
class PathBIntensities:
    """Converted intensities feeding the reflected-path approximations."""

    lambda_bs_tilde: float
    lambda_i_tilde: float
    lambda_ris_tilde: float
    rho: float


def path_b_intensities(cfg: NetworkConfig) -> PathBIntensities:
    lam_bs, lam_ris = cfg.lambda_bs_m2, cfg.lambda_ris_m2
    _, p_split = channel.retention_probabilities(cfg)
    half_power = 0.5 * cfg.p_s  # each of the two beams
    lam_bs_t = channel.power_density_convert(lam_bs, half_power, cfg.mu, cfg.alpha)
    lam_i_t = channel.power_density_convert(lam_bs * p_split, half_power, cfg.mu, cfg.alpha)
    # the reflector intensity embeds the inverse-square distance moment,
    # which is only finite because of the floor distance
    lam_ris_t = channel.reflected_power_raw_moment(cfg) * lam_ris
    return PathBIntensities(
        lambda_bs_tilde=lam_bs_t,
        lambda_i_tilde=lam_i_t,
        lambda_ris_tilde=lam_ris_t,
        # the moment underflows to 0 for a floor far above the typical r1
        rho=math.sqrt(lam_bs_t / lam_ris_t) if lam_ris_t > 0 else math.inf,
    )


def coverage_path_b_approx1(cfg: NetworkConfig, T):
    """Reflected-path coverage under the proportional-distance approximation.

    Treats the reflector distance as a fixed fraction ``rho`` of the serving
    distance, which tightens as the reflector density grows.
    """
    conv = path_b_intensities(cfg)
    # T**(2/a) * int rho**a / (rho**a + u**(a/2)) du over u >= T**(-2/a);
    # substituting u = rho**2 * v turns it into I(T * rho**a, a), which enters
    # divided by rho**2
    i_rho = interference_factor(_thresholds(T), cfg.alpha, conv.rho)
    return conv.lambda_ris_tilde / (conv.lambda_ris_tilde + conv.lambda_i_tilde * i_rho)


def coverage_path_b_approx2(cfg: NetworkConfig, T):
    """Reflected-path coverage for dense reflector deployments.

    It is derived as a lower bound on ``gamma_b``, but it is not one: at 5 dB
    and 2e4 simulated trials it lies above the simulated coverage at every
    configuration checked, by 0.021 at the defaults (inside the 0.03 margin of
    the ``approx2`` compare gate) and beyond that margin at small arrays:
    0.037 at ``N = 2, alpha = 3`` and 0.043 at ``N = 1`` (or 2), ``alpha = 4``.
    """
    conv = path_b_intensities(cfg)
    i_factor = interference_factor(_thresholds(T), cfg.alpha)
    return conv.lambda_ris_tilde / (
        conv.lambda_ris_tilde + conv.lambda_i_tilde * i_factor
    )
