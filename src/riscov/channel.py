"""Fading, path loss, beam thinning and the passive reflection model.

The reflector bank's coherent power gain is ``M**2 * beta`` times the mean
efficiency of b-bit phase quantization, a closed ``sinc**2`` form; the test
suite keeps the element-by-element array factor that derives it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import geometry
from .errors import DomainError, NumericalError, ParameterError

SINGLE_BEAM = "single_beam"
SPLIT_BEAM = "split_beam"


@dataclass(frozen=True)
class BeamModel:
    """Planar-array beam: one full-power beam, or two half-power beams."""

    n_elements: int
    mode: str = SINGLE_BEAM

    def __post_init__(self):
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise ParameterError(f"n_elements must be a positive integer, got {self.n_elements!r}")
        if self.mode not in (SINGLE_BEAM, SPLIT_BEAM):
            raise ParameterError(f"unknown beam mode {self.mode!r}")

    @property
    def beamwidth(self) -> float:
        if self.mode == SINGLE_BEAM:
            return 2.0 * math.pi / math.sqrt(self.n_elements)
        return 2.0 * math.sqrt(2.0) * math.pi / math.sqrt(self.n_elements)

    @property
    def retention_probability(self) -> float:
        """Fraction of interferers whose random main lobe covers the user.

        The lobe half-width over ``pi`` is ``1/sqrt(N)`` (single beam) or
        ``sqrt(2/N)`` (split beam); a lobe wider than the full circle (the
        split beam at ``N = 1``) retains every base, hence the cap at 1.
        """
        if self.mode == SINGLE_BEAM:
            return 1.0 / math.sqrt(self.n_elements)
        return min(1.0, math.sqrt(2.0 / self.n_elements))

    def per_beam_power(self, p_s: float) -> float:
        return p_s if self.mode == SINGLE_BEAM else 0.5 * p_s


def interferer_intensity(lambda_bs: float, beam: BeamModel) -> float:
    """Effective interferer density after random-orientation thinning."""
    if not np.isfinite(lambda_bs) or lambda_bs <= 0:
        raise ParameterError(f"lambda_bs must be positive, got {lambda_bs!r}")
    return lambda_bs * beam.retention_probability


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


def _check_phase_bits(phase_bits) -> None:
    if phase_bits == IDEAL_PHASES:
        return
    if int(phase_bits) != phase_bits or phase_bits < 1:
        raise ParameterError(f"phase_bits must be 'ideal' or an integer >= 1, got {phase_bits!r}")


def quantization_efficiency(phase_bits) -> float:
    """Mean power efficiency of b-bit phase rounding relative to ideal phasing.

    Residuals are uniform on ``[-pi/2**b, pi/2**b)``, giving the classic
    ``sinc**2`` loss; kept independent of the element count so peak power
    retains its exact square-law scaling.
    """
    _check_phase_bits(phase_bits)
    if phase_bits == IDEAL_PHASES:
        return 1.0
    half_step = math.pi / (1 << int(phase_bits))
    return (math.sin(half_step) / half_step) ** 2


@dataclass(frozen=True)
class ReflectionModel:
    """Passive reflector bank: element count, attenuation, phase resolution."""

    m_elements: int
    beta_attenuation: float = 0.9
    phase_bits: int | str = IDEAL_PHASES

    def __post_init__(self):
        if int(self.m_elements) != self.m_elements or self.m_elements < 1:
            raise ParameterError(f"m_elements must be a positive integer, got {self.m_elements!r}")
        if not 0.0 < self.beta_attenuation <= 1.0:
            raise ParameterError(f"beta_attenuation must lie in (0, 1], got {self.beta_attenuation!r}")
        _check_phase_bits(self.phase_bits)


def array_gain(model: ReflectionModel) -> float:
    """Coherent power gain of the reflector bank: ``M**2 * beta`` times the phase efficiency.

    Raises :class:`NumericalError` when it exceeds the float range; ``M`` is
    an unbounded integer, so this happens for any ``M`` beyond about 1e154.
    """
    eff = quantization_efficiency(model.phase_bits)
    try:
        gain = float(model.m_elements) ** 2 * model.beta_attenuation * eff
    except OverflowError:
        gain = math.inf
    if not math.isfinite(gain):
        raise NumericalError(
            f"reflector gain M**2 * beta exceeds the float range (M={model.m_elements})"
        )
    return gain


def reflection_gain(model: ReflectionModel, fade_f1, r1, alpha: float):
    """Reflected power per unit of per-beam transmit power: ``M**2 * beta * f1 * r1**-alpha``.

    This is the power-free core of the reflection chain; the simulator uses it
    directly so transmit power never enters (and hence exactly cancels in) any
    simulated ratio. ``fade_f1`` and ``r1`` may be scalars or arrays.
    """
    if np.any(np.asarray(r1) <= 0):
        raise ParameterError(f"r1 must be positive, got {r1!r}")
    return array_gain(model) * fade_f1 * path_loss(r1, alpha)


def peak_reflection_power(
    model: ReflectionModel, p_s: float, fade_f1: float, r1: float, alpha: float
) -> float:
    """Peak power reflected toward the user by the engaged reflector bank."""
    return 0.5 * p_s * reflection_gain(model, fade_f1, r1, alpha)


def fade_fractional_moment(mu: float, alpha: float) -> float:
    """``E[f**(2/alpha)]`` for an exponential(mu) gain: ``mu**(-2/a) * Gamma(2/a + 1)``."""
    if mu <= 0 or alpha <= 0:
        raise ParameterError("mu and alpha must be positive")
    return float(mu ** (-2.0 / alpha) * special.gamma(2.0 / alpha + 1.0))


def reflected_power_raw_moment(
    lambda_bs: float,
    lambda_ris: float,
    model: ReflectionModel,
    p_s: float,
    mu: float,
    alpha: float,
    epsilon_floor: float = 1.0,
) -> float:
    """``E[(P_reflected / mu)**(2/alpha)]`` entering the converted reflector intensity."""
    if p_s <= 0 or mu <= 0:
        raise ParameterError("p_s and mu must be positive")
    if alpha <= 2:
        raise ParameterError(f"alpha must exceed 2, got {alpha!r}")
    prefactor = (array_gain(model) * p_s / (2.0 * mu**2)) ** (2.0 / alpha)
    inv_sq = geometry.expected_inv_r1_pow(2.0, lambda_bs, lambda_ris, epsilon_floor)
    return float(prefactor * special.gamma(2.0 / alpha + 1.0) * inv_sq)


def mean_reflected_power(
    lambda_bs: float,
    lambda_ris: float,
    model: ReflectionModel,
    p_s: float,
    mu: float,
    alpha: float,
    epsilon_floor: float = 1.0,
) -> float:
    """Average peak reflected power ``M**2 beta P_s / (2 mu) * E[r1**-alpha]``."""
    if p_s <= 0 or mu <= 0:
        raise ParameterError("p_s and mu must be positive")
    if alpha <= 2:
        raise ParameterError(f"alpha must exceed 2, got {alpha!r}")
    inv_alpha = geometry.expected_inv_r1_pow(alpha, lambda_bs, lambda_ris, epsilon_floor)
    return array_gain(model) * p_s / (2.0 * mu) * inv_alpha
