"""Algebraic restatements of the coverage closed forms, used only by tests.

Each function rewrites a package closed form in un-simplified deployment
parameters, so identities such as power/density independence can be asserted
on the long form against the short one.
"""
from __future__ import annotations

import math

from oracle_helpers import expected_inv_r1_pow, fade_fractional_moment, interference_factor, power_density_convert
from riscov.config import KM2_TO_M2, NetworkConfig, quantization_efficiency


def coverage_baseline_general(cfg: NetworkConfig, T: float) -> float:
    """Pre-substitution baseline form with explicit converted intensities.

    Mathematically identical to :func:`riscov.analytic.coverage_baseline`.
    """
    p_single, _ = cfg.retentions
    lam_bs = cfg.lambda_bs * KM2_TO_M2
    lam_bs_t = power_density_convert(lam_bs, cfg.p_s, cfg.mu, cfg.alpha)
    lam_i_t = power_density_convert(lam_bs * p_single, cfg.p_s, cfg.mu, cfg.alpha)
    i_factor = interference_factor(T, cfg.alpha)
    return lam_bs_t / (lam_bs_t + lam_i_t * i_factor)


def coverage_path_b_restated(cfg: NetworkConfig, T: float) -> float:
    """Algebraic restatement of the lower bound in raw deployment parameters.

    Splits the bound into a reflector term ``lambda_ris * M**(4/a) * F1`` and
    an interference term ``sqrt(2/N) * lambda_bs * F2``; must agree with
    :func:`riscov.analytic.coverage_path_b_approx2` to floating-point accuracy.
    """
    lam_bs, lam_ris = cfg.lambda_bs * KM2_TO_M2, cfg.lambda_ris * KM2_TO_M2
    eff = quantization_efficiency(cfg.phase_bits)
    f1 = (
        (cfg.beta * eff / cfg.mu) ** (2.0 / cfg.alpha)
        * fade_fractional_moment(1.0, cfg.alpha)
        * expected_inv_r1_pow(2.0, lam_bs, lam_ris, cfg.epsilon_floor)
    )
    f2 = interference_factor(T, cfg.alpha)
    signal = lam_ris * cfg.m_elements ** (4.0 / cfg.alpha) * f1
    interference = math.sqrt(2.0 / cfg.n_elements) * lam_bs * f2
    return signal / (signal + interference)
