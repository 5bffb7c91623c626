"""Fading, path loss, beam thinning and the passive reflection model.

The reflector bank's coherent power gain is ``M**2 * beta`` times the mean
efficiency of b-bit phase quantization, a closed ``sinc**2`` form; the test
suite keeps the element-by-element array factor that derives it.

Functions of the deployment read it from a
:class:`riscov.config.NetworkConfig`, which is valid by construction, so they
check none of its fields. Only raw numeric arguments (distances, powers,
intensities, a bare ``phase_bits``) are checked here.
"""
from __future__ import annotations

import math

import numpy as np

from . import geometry
from .config import NetworkConfig
from .errors import DomainError, NumericalError, ParameterError


def retention_probabilities(cfg: NetworkConfig) -> tuple[float, float]:
    """Fractions of interferers whose random single beam / split beam covers the user.

    The lobe half-width over ``pi`` is ``1/sqrt(N)`` (single beam) or
    ``sqrt(2/N)`` (split beam); a lobe wider than the full circle (the split
    beam at ``N = 1``) retains every base, hence the cap at 1.
    """
    return 1.0 / math.sqrt(cfg.n_elements), min(1.0, math.sqrt(2.0 / cfg.n_elements))


def path_loss(distance, alpha: float):
    """Large-scale attenuation ``distance**-alpha``; no near-field clamp."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise DomainError("path_loss requires a strictly positive distance")
    if alpha <= 2:
        raise ParameterError(f"alpha must exceed 2, got {alpha!r}")
    out = distance ** (-alpha)
    return out if out.ndim else float(out)


def power_density_convert(intensity: float, power: float, mu: float, alpha: float) -> float:
    """Swap (transmit power, intensity) for (unit power, scaled intensity).

    Returns the converted intensity ``(power/mu)**(2/alpha) * intensity``
    (mapping theorem).
    """
    for name, v in (("intensity", intensity), ("power", power), ("mu", mu), ("alpha", alpha)):
        if not np.isfinite(v) or v <= 0:
            raise ParameterError(f"{name} must be positive, got {v!r}")
    return (power / mu) ** (2.0 / alpha) * intensity


# ---------------------------------------------------------------------------
# phased-array reflection
# ---------------------------------------------------------------------------

IDEAL_PHASES = "ideal"


def quantization_efficiency(phase_bits) -> float:
    """Mean power efficiency of b-bit phase rounding relative to ideal phasing.

    Residuals are uniform on ``[-pi/2**b, pi/2**b)``, giving the classic
    ``sinc**2`` loss; kept independent of the element count so peak power
    retains its exact square-law scaling.
    """
    if phase_bits == IDEAL_PHASES:
        return 1.0
    if int(phase_bits) != phase_bits or phase_bits < 1:
        raise ParameterError(f"phase_bits must be 'ideal' or an integer >= 1, got {phase_bits!r}")
    half_step = math.ldexp(math.pi, -int(phase_bits))
    if half_step == 0.0:  # past 1076 bits it underflows; the efficiency is then 1
        return 1.0
    return (math.sin(half_step) / half_step) ** 2


def array_gain(cfg: NetworkConfig) -> float:
    """Coherent power gain of the reflector bank: ``M**2 * beta`` times the phase efficiency.

    Raises :class:`NumericalError` when it exceeds the float range; ``M`` is
    an unbounded integer, so this happens for any ``M`` beyond about 1e154.
    """
    eff = quantization_efficiency(cfg.phase_bits)
    try:
        gain = float(cfg.m_elements) ** 2 * cfg.beta * eff
    except OverflowError:
        gain = math.inf
    if not math.isfinite(gain):
        raise NumericalError(
            f"reflector gain M**2 * beta exceeds the float range (M={cfg.m_elements})"
        )
    return gain


def reflection_gain(cfg: NetworkConfig, fade_f1, r1):
    """Reflected power per unit of per-beam transmit power: ``M**2 * beta * f1 * r1**-alpha``.

    This is the power-free core of the reflection chain; the simulator uses it
    directly so transmit power never enters (and hence exactly cancels in) any
    simulated ratio. ``fade_f1`` and ``r1`` may be scalars or arrays.
    """
    if np.any(np.asarray(r1) <= 0):
        raise ParameterError(f"r1 must be positive, got {r1!r}")
    return array_gain(cfg) * fade_f1 * path_loss(r1, cfg.alpha)


def reflected_power_raw_moment(cfg: NetworkConfig) -> float:
    """``E[(P_reflected / mu)**(2/alpha)]`` entering the converted reflector intensity.

    Raises :class:`NumericalError` when it exceeds the float range, as it can
    for a tiny ``mu``; for a huge one it tends to its limit 0.
    """
    alpha = cfg.alpha
    # mu**2 itself would leave the float range long before the moment does
    try:
        prefactor = (array_gain(cfg) * cfg.p_s / 2.0) ** (2.0 / alpha) * cfg.mu ** (-4.0 / alpha)
    except OverflowError:
        prefactor = math.inf
    inv_sq = geometry.expected_inv_r1_pow(
        2.0, cfg.lambda_bs_m2, cfg.lambda_ris_m2, cfg.epsilon_floor
    )
    moment = float(prefactor * math.gamma(2.0 / alpha + 1.0) * inv_sq)
    if not math.isfinite(moment):
        raise NumericalError(f"reflected power moment exceeds the float range (mu={cfg.mu:g})")
    return moment


def mean_reflected_power(cfg: NetworkConfig) -> float:
    """Average peak reflected power ``M**2 beta P_s / (2 mu) * E[r1**-alpha]``.

    Raises :class:`NumericalError` when it exceeds the float range, as it can
    for a tiny ``mu``.
    """
    inv_alpha = geometry.expected_inv_r1_pow(
        cfg.alpha, cfg.lambda_bs_m2, cfg.lambda_ris_m2, cfg.epsilon_floor
    )
    power = array_gain(cfg) * cfg.p_s / (2.0 * cfg.mu) * inv_alpha
    if not math.isfinite(power):
        raise NumericalError(f"mean reflected power exceeds the float range (mu={cfg.mu:g})")
    return power
