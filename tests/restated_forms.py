"""Algebraic restatements of the coverage closed forms, used only by tests.

Each function rewrites a package closed form in un-simplified deployment
parameters, so identities such as power/density independence can be asserted
on the long form against the short one.
"""
from __future__ import annotations

import math

from riscov import analytic, channel, geometry


def coverage_baseline_general(q: analytic.CoverageQuery) -> float:
    """Pre-substitution baseline form with explicit converted intensities.

    Mathematically identical to :func:`riscov.analytic.coverage_baseline`.
    """
    beam = channel.BeamModel(q.n_elements, channel.SINGLE_BEAM)
    lam_bs_t = channel.power_density_convert(q.lambda_bs, q.p_s, q.mu, q.alpha)
    lam_i_t = channel.power_density_convert(
        channel.interferer_intensity(q.lambda_bs, beam), q.p_s, q.mu, q.alpha
    )
    i_factor = analytic.interference_factor(q.threshold, q.alpha)
    num = lam_bs_t.converted_intensity
    return num / (num + lam_i_t.converted_intensity * i_factor)


def coverage_path_b_restated(q: analytic.CoverageQuery) -> float:
    """Algebraic restatement of the lower bound in raw deployment parameters.

    Splits the bound into a reflector term ``lambda_ris * M**(4/a) * F1`` and
    an interference term ``sqrt(2/N) * lambda_bs * F2``; must agree with
    :func:`riscov.analytic.coverage_path_b_approx2` to floating-point accuracy.
    """
    eff = channel.quantization_efficiency(q.phase_bits)
    f1 = (
        (q.beta * eff / q.mu) ** (2.0 / q.alpha)
        * channel.fade_fractional_moment(1.0, q.alpha)
        * geometry.expected_inv_r1_pow(2.0, q.lambda_bs, q.lambda_ris, q.epsilon_floor)
    )
    f2 = analytic.interference_factor(q.threshold, q.alpha)
    signal = q.lambda_ris * q.m_elements ** (4.0 / q.alpha) * f1
    interference = math.sqrt(2.0 / q.n_elements) * q.lambda_bs * f2
    return signal / (signal + interference)
