"""Closed-form SIR coverage expressions and their interference factor.

Every coverage function reads the deployment from a
:class:`riscov.config.NetworkConfig` and takes the threshold ``T`` as a
linear power ratio (dB conversion belongs to the config): a scalar gives a
float, a numpy array gives an array of the same shape. Every value is a
probability in [0, 1].

Every expression is exact and evaluated without quadrature. The interference
factor is the Gauss hypergeometric form
``I(T, a) = 2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)``; the proportional-distance
variant with ratio ``rho`` is the same function at ``T * rho**a``; and the
reflector intensity uses the floored moment ``E[r1**-2 ; r1 >= eps]`` from
:func:`riscov.geometry.expected_inv_r1_pow`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import channel
from .config import NetworkConfig
from .errors import ParameterError


def interference_factor(T, alpha: float):
    """``T**(2/a) * int_{T**(-2/a)}^inf du / (1 + u**(a/2))`` in closed form.

    Equals ``2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)`` (Andrews, Baccelli & Ganti,
    IEEE TCOM 2011), which at ``alpha == 4`` is ``sqrt(T) * atan(sqrt(T))``.
    ``T`` may be a scalar (float result) or an array (array result).
    """
    t = np.asarray(T, dtype=float)
    if not np.all(t > 0):
        raise ParameterError(f"T must be positive, got {T!r}")
    if not alpha > 2:
        raise ParameterError(f"alpha must exceed 2, got {alpha!r}")
    delta = 2.0 / alpha
    value = 2.0 * t / (alpha - 2.0) * special.hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -t)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# baseline and path-A coverage
# ---------------------------------------------------------------------------

def coverage_baseline(cfg: NetworkConfig, T):
    """Single-beam coverage ``1 / (1 + I(T, a) / sqrt(N))``.

    The single-beam retention ``1/sqrt(N)`` never exceeds 1, so no cap
    applies; dividing by ``sqrt(N)`` rather than multiplying by the rounded
    retention keeps every value bit-identical to earlier releases.
    """
    i_factor = interference_factor(T, cfg.alpha)
    return 1.0 / (1.0 + i_factor / math.sqrt(cfg.n_elements))


def coverage_path_a(cfg: NetworkConfig, T):
    """Split-beam direct-path coverage ``1 / (1 + p * I(T, a))``.

    ``p = min(1, sqrt(2/N))`` is the split-beam retention of
    :class:`riscov.channel.BeamModel`, so at ``N = 1`` this equals the baseline.
    """
    retention = channel.BeamModel(cfg.n_elements, channel.SPLIT_BEAM).retention_probability
    return 1.0 / (1.0 + retention * interference_factor(T, cfg.alpha))


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
    beam = channel.BeamModel(cfg.n_elements, channel.SPLIT_BEAM)
    half_power = beam.per_beam_power(cfg.p_s)
    lam_bs_t = channel.power_density_convert(lam_bs, half_power, cfg.mu, cfg.alpha)
    lam_is = channel.interferer_intensity(lam_bs, beam)
    lam_i_t = channel.power_density_convert(lam_is, half_power, cfg.mu, cfg.alpha)
    # the reflector intensity embeds the inverse-square distance moment,
    # which is only finite because of the floor distance
    raw_moment = channel.reflected_power_raw_moment(
        lam_bs, lam_ris, cfg.reflection_model(), cfg.p_s, cfg.mu, cfg.alpha,
        cfg.epsilon_floor,
    )
    lam_ris_t = raw_moment * lam_ris
    return PathBIntensities(
        lambda_bs_tilde=lam_bs_t,
        lambda_i_tilde=lam_i_t,
        lambda_ris_tilde=lam_ris_t,
        rho=math.sqrt(lam_bs_t / lam_ris_t),
    )


def coverage_path_b_approx1(cfg: NetworkConfig, T):
    """Reflected-path coverage under the proportional-distance approximation.

    Treats the reflector distance as a fixed fraction ``rho`` of the serving
    distance, which tightens as the reflector density grows.
    """
    conv = path_b_intensities(cfg)
    # T**(2/a) * int rho**a / (rho**a + u**(a/2)) du over u >= T**(-2/a);
    # substituting u = rho**2 * v turns it into I(T * rho**a, a)
    i_rho = interference_factor(np.asarray(T, dtype=float) * conv.rho**cfg.alpha, cfg.alpha)
    denom = conv.lambda_ris_tilde + conv.lambda_i_tilde / conv.rho**2 * i_rho
    return conv.lambda_ris_tilde / denom


def coverage_path_b_approx2(cfg: NetworkConfig, T):
    """Lower-bound reflected-path coverage for dense reflector deployments."""
    conv = path_b_intensities(cfg)
    i_factor = interference_factor(T, cfg.alpha)
    return conv.lambda_ris_tilde / (
        conv.lambda_ris_tilde + conv.lambda_i_tilde * i_factor
    )
