"""Closed-form SIR coverage expressions and their interference factor.

All thresholds are linear power ratios here; dB conversion belongs to the CLI
boundary. Every coverage function returns a probability in [0, 1].

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

from scipy import special

from . import channel
from .errors import ParameterError


@dataclass(frozen=True)
class CoverageQuery:
    """One evaluation point for the coverage closed forms (SI units, linear T)."""

    threshold: float
    alpha: float = 4.0
    n_elements: int = 16
    lambda_bs: float = 2.5e-5
    lambda_ris: float = 5e-2
    m_elements: int = 100
    beta: float = 0.9
    p_s: float = 2.0
    mu: float = 1.0
    epsilon_floor: float = 1.0
    phase_bits: int | str = channel.IDEAL_PHASES

    def __post_init__(self):
        if not self.threshold > 0:
            raise ParameterError(f"threshold must be positive, got {self.threshold!r}")
        if not self.alpha > 2:
            raise ParameterError(f"alpha must exceed 2, got {self.alpha!r}")
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise ParameterError(f"n_elements must be a positive integer, got {self.n_elements!r}")
        for name in ("lambda_bs", "lambda_ris", "p_s", "mu", "beta", "epsilon_floor"):
            v = getattr(self, name)
            if not v > 0:
                raise ParameterError(f"{name} must be positive, got {v!r}")

    def reflection_model(self) -> channel.ReflectionModel:
        return channel.ReflectionModel(
            m_elements=self.m_elements,
            beta_attenuation=self.beta,
            phase_bits=self.phase_bits,
        )


def interference_factor(T: float, alpha: float) -> float:
    """``T**(2/a) * int_{T**(-2/a)}^inf du / (1 + u**(a/2))`` in closed form.

    Equals ``2T/(a-2) * 2F1(1, 1-2/a; 2-2/a; -T)`` (Andrews, Baccelli & Ganti,
    IEEE TCOM 2011), which at ``alpha == 4`` is ``sqrt(T) * atan(sqrt(T))``.
    """
    if not T > 0:
        raise ParameterError(f"T must be positive, got {T!r}")
    if not alpha > 2:
        raise ParameterError(f"alpha must exceed 2, got {alpha!r}")
    delta = 2.0 / alpha
    return float(2.0 * T / (alpha - 2.0) * special.hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -T))


# ---------------------------------------------------------------------------
# baseline and path-A coverage
# ---------------------------------------------------------------------------

def coverage_baseline(q: CoverageQuery) -> float:
    """Single-beam coverage ``1 / (1 + I(T, a) / sqrt(N))``."""
    i_factor = interference_factor(q.threshold, q.alpha)
    return 1.0 / (1.0 + i_factor / math.sqrt(q.n_elements))


def coverage_path_a(q: CoverageQuery) -> float:
    """Split-beam direct-path coverage ``1 / (1 + sqrt(2/N) * I(T, a))``."""
    i_factor = interference_factor(q.threshold, q.alpha)
    return 1.0 / (1.0 + math.sqrt(2.0 / q.n_elements) * i_factor)


# ---------------------------------------------------------------------------
# path-B coverage (reflected path)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBIntensities:
    """Converted intensities feeding the reflected-path approximations.

    Carries the floor distance explicitly: the reflector intensity embeds the
    inverse-square distance moment, which is only finite because of it.
    """

    lambda_bs_tilde: float
    lambda_i_tilde: float
    lambda_ris_tilde: float
    rho: float
    epsilon_floor: float


def path_b_intensities(q: CoverageQuery) -> PathBIntensities:
    beam = channel.BeamModel(q.n_elements, channel.SPLIT_BEAM)
    half_power = beam.per_beam_power(q.p_s)
    lam_bs_t = channel.power_density_convert(q.lambda_bs, half_power, q.mu, q.alpha)
    lam_is = channel.interferer_intensity(q.lambda_bs, beam)
    lam_i_t = channel.power_density_convert(lam_is, half_power, q.mu, q.alpha)
    raw_moment = channel.reflected_power_raw_moment(
        q.lambda_bs, q.lambda_ris, q.reflection_model(), q.p_s, q.mu, q.alpha,
        q.epsilon_floor,
    )
    lam_ris_t = raw_moment * q.lambda_ris
    rho = math.sqrt(lam_bs_t.converted_intensity / lam_ris_t)
    return PathBIntensities(
        lambda_bs_tilde=lam_bs_t.converted_intensity,
        lambda_i_tilde=lam_i_t.converted_intensity,
        lambda_ris_tilde=lam_ris_t,
        rho=rho,
        epsilon_floor=q.epsilon_floor,
    )


def coverage_path_b_approx1(q: CoverageQuery) -> float:
    """Reflected-path coverage under the proportional-distance approximation.

    Treats the reflector distance as a fixed fraction ``rho`` of the serving
    distance, which tightens as the reflector density grows.
    """
    conv = path_b_intensities(q)
    # T**(2/a) * int rho**a / (rho**a + u**(a/2)) du over u >= T**(-2/a);
    # substituting u = rho**2 * v turns it into I(T * rho**a, a)
    i_rho = interference_factor(q.threshold * conv.rho**q.alpha, q.alpha)
    denom = conv.lambda_ris_tilde + conv.lambda_i_tilde / conv.rho**2 * i_rho
    return conv.lambda_ris_tilde / denom


def coverage_path_b_approx2(q: CoverageQuery) -> float:
    """Lower-bound reflected-path coverage for dense reflector deployments."""
    conv = path_b_intensities(q)
    i_factor = interference_factor(q.threshold, q.alpha)
    return conv.lambda_ris_tilde / (
        conv.lambda_ris_tilde + conv.lambda_i_tilde * i_factor
    )


def coverage_selection(q: CoverageQuery, approx: int = 2) -> float:
    """Independence combination of the two path coverages.

    There is no closed form for the max-of-two-paths SIR; this combines the
    per-path probabilities as if the paths were independent, so treat it as a
    labeled reference only. The simulator's empirical estimate is the ground
    truth.
    """
    if approx not in (1, 2):
        raise ParameterError(f"approx must be 1 or 2, got {approx!r}")
    cov_a = coverage_path_a(q)
    cov_b = coverage_path_b_approx1(q) if approx == 1 else coverage_path_b_approx2(q)
    return 1.0 - (1.0 - cov_a) * (1.0 - cov_b)
