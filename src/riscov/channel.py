"""Beam thinning and the passive reflection model.

The reflector bank's coherent power gain is ``M**2 * beta`` times the mean
efficiency of b-bit phase quantization, a closed ``sinc**2`` form; the test
suite keeps the element-by-element array factor that derives it.

Functions of the deployment read it from a
:class:`riscov.config.NetworkConfig`, which is valid by construction, so no
function here re-checks a config field.
"""
from __future__ import annotations

import math

from . import geometry
from .config import NetworkConfig
from .errors import NumericalError


def retention_probabilities(cfg: NetworkConfig) -> tuple[float, float]:
    """Fractions of interferers whose random single beam / split beam covers the user.

    The lobe half-width over ``pi`` is ``1/sqrt(N)`` (single beam) or
    ``sqrt(2/N)`` (split beam); a lobe wider than the full circle (the split
    beam at ``N = 1``) retains every base, hence the cap at 1.
    """
    return 1.0 / math.sqrt(cfg.n_elements), min(1.0, math.sqrt(2.0 / cfg.n_elements))


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
    half_step = math.ldexp(math.pi, -phase_bits)
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
