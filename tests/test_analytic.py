"""Closed-form coverage expressions and the interference kernel."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, optimize

from oracle_helpers import INTERFERENCE_ABS_TOL, interference_quadrature
from restated_forms import coverage_baseline_general, coverage_path_b_restated
from riscov import analytic, geometry
from riscov.config import ConfigError, NetworkConfig
from riscov.errors import ParameterError

LAM_BS = 2.5e-5
LAM_RIS = 5e-2


def closed_form_alpha4(T):
    return math.sqrt(T) * (math.pi / 2 - math.atan(T**-0.5))


def make_cfg(**kw) -> NetworkConfig:
    """The default deployment (densities LAM_BS, LAM_RIS); overrides in config units."""
    return NetworkConfig().replace(**kw)


class TestInterferenceFactor:
    @pytest.mark.parametrize("T", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_quadrature_matches_alpha4_closed_form(self, T):
        quad_value, _ = interference_quadrature(T, 4.0)
        assert abs(quad_value - closed_form_alpha4(T)) < 1e-9
        assert abs(analytic.interference_factor(T, 4.0) - closed_form_alpha4(T)) < 1e-12

    def test_hypergeometric_matches_quadrature_oracle(self):
        checked = 0
        for alpha in (2.5, 3.0, 3.5, 4.0, 5.0):
            for T in np.logspace(-2, 4, 19):
                quad_value, abs_err = interference_quadrature(T, alpha)
                if abs_err > INTERFERENCE_ABS_TOL:
                    continue  # the oracle itself did not converge here
                checked += 1
                assert abs(analytic.interference_factor(T, alpha) - quad_value) <= 1e-9
        assert checked >= 80

    def test_reference_values(self):
        assert analytic.interference_factor(1.0, 4.0) == pytest.approx(math.pi / 4, abs=1e-12)
        assert analytic.interference_factor(10.0, 4.0) == pytest.approx(
            math.sqrt(10) * math.atan(math.sqrt(10)), abs=1e-9
        )

    def test_vanishes_with_threshold(self):
        assert analytic.interference_factor(1e-8, 4.0) < 1e-4

    def test_array_threshold_matches_scalars(self):
        thresholds = np.logspace(-2, 4, 13)
        cfg = make_cfg(alpha=3.0)
        assert np.array_equal(
            analytic.interference_factor(thresholds, 3.0),
            [analytic.interference_factor(t, 3.0) for t in thresholds],
        )
        for fn in (
            analytic.coverage_baseline, analytic.coverage_path_a,
            analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2,
        ):
            values = fn(cfg, thresholds)
            assert values.shape == thresholds.shape
            assert np.array_equal(values, [fn(cfg, t) for t in thresholds])

    def test_general_alpha_against_direct_quadrature(self):
        # oracle: finite-range quadrature plus a two-term series tail,
        # a different decomposition than the implementation's stretch map
        big = 1e7
        for alpha in (2.5, 3.0, 3.7, 5.0):
            half = alpha / 2
            tail = big ** (1 - half) / (half - 1) - big ** (1 - alpha) / (alpha - 1)
            for T in (0.1, 1.0, 10.0):
                lower = T ** (-2 / alpha)
                edges = [lower] + [e for e in np.logspace(0, 7, 8) if e > lower]
                finite = sum(
                    integrate.quad(
                        lambda u: 1.0 / (1.0 + u**half), a, b,
                        epsabs=1e-14, epsrel=1e-12,
                    )[0]
                    for a, b in zip(edges[:-1], edges[1:])
                )
                got = analytic.interference_factor(T, alpha)
                assert got == pytest.approx(T ** (2 / alpha) * (finite + tail), rel=1e-8)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            analytic.interference_factor(0.0, 4.0)
        with pytest.raises(ParameterError):
            analytic.interference_factor(1.0, 2.0)


class TestBaselineCoverage:
    def test_reference_value(self):
        assert analytic.coverage_baseline(make_cfg(), 1.0) == pytest.approx(
            16 / (16 + math.pi), rel=1e-12
        )

    def test_large_array_limit(self):
        assert analytic.coverage_baseline(make_cfg(n_elements=10**12), 1.0) > 1 - 1e-5

    def test_power_density_independence(self):
        # the pre-substitution ratio must not move when the deployment scales
        base = make_cfg()
        scaled = make_cfg(lambda_bs=10 * base.lambda_bs, p_s=7 * 2.0)
        a = coverage_baseline_general(base, 2.0)
        b = coverage_baseline_general(scaled, 2.0)
        assert abs(a - b) <= 1e-12
        assert a == pytest.approx(analytic.coverage_baseline(base, 2.0), rel=1e-12)

    def test_double_quadrature_oracle(self):
        # integrate the serving-distance law against the interferer Laplace
        # exponent directly; the closed form collapses this integral
        cfg = make_cfg()
        for T in (0.25, 1.0, 8.0):
            lam_i = LAM_BS / math.sqrt(cfg.n_elements)
            lower = T ** (-2 / cfg.alpha)
            tail, _ = integrate.quad(
                lambda u: 1.0 / (1.0 + u ** (cfg.alpha / 2)), lower, np.inf,
                epsabs=1e-13, epsrel=1e-12,
            )
            def integrand(r):
                return geometry.pdf_r0(r, LAM_BS) * math.exp(
                    -math.pi * lam_i * r * r * T ** (2 / cfg.alpha) * tail
                )
            direct, _ = integrate.quad(integrand, 0, np.inf, epsabs=1e-12, epsrel=1e-10)
            assert abs(direct - analytic.coverage_baseline(cfg, T)) < 1e-6

    def test_monotone_in_threshold(self):
        thresholds = np.logspace(-2, 3, 30)
        vals = [analytic.coverage_baseline(make_cfg(), t) for t in thresholds]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestPathACoverage:
    def test_reference_value(self):
        assert analytic.coverage_path_a(make_cfg(), 1.0) == pytest.approx(
            1.0 / (1.0 + math.pi / 4 * math.sqrt(1 / 8)), rel=1e-12
        )

    def test_never_beats_baseline(self):
        for T in np.logspace(-2, 2, 9):
            for n in (4, 16, 64, 256):
                cfg = make_cfg(n_elements=n)
                assert analytic.coverage_path_a(cfg, T) <= analytic.coverage_baseline(cfg, T)

    def test_large_array_limit(self):
        assert analytic.coverage_path_a(make_cfg(n_elements=10**12), 1.0) > 1 - 1e-5

    def test_single_element_equals_baseline(self):
        # at N = 1 a split lobe covers the whole circle: every base interferes,
        # as under the single beam, so the two direct-path coverages coincide
        cfg = make_cfg(n_elements=1)
        T = np.logspace(-2, 2, 9)
        np.testing.assert_array_equal(
            analytic.coverage_path_a(cfg, T), analytic.coverage_baseline(cfg, T)
        )


class TestPathBCoverage:
    def test_rho_one_collapses_to_plain_factor(self):
        # the rho-weighted integral is the plain factor at T * rho**alpha;
        # at rho = 1 it is the plain factor itself
        for T in (0.1, 1.0, 10.0):
            for alpha in (3.0, 4.0):
                for rho in (1.0, 0.3, 2.0):
                    quad_value, _ = interference_quadrature(T, alpha, rho=rho)
                    assert analytic.interference_factor(T * rho**alpha, alpha) == pytest.approx(
                        quad_value, rel=1e-9
                    )

    def test_approx1_with_unit_rho_equals_approx2_form(self):
        # algebraic identity: at rho = 1 the approximations share one formula
        cfg, T = make_cfg(), 2.0
        conv = analytic.path_b_intensities(cfg)
        i_factor = analytic.interference_factor(T, cfg.alpha)
        i_rho1, _ = interference_quadrature(T, cfg.alpha, rho=1.0)
        rho1_value = conv.lambda_ris_tilde / (
            conv.lambda_ris_tilde + conv.lambda_i_tilde * i_rho1
        )
        assert rho1_value == pytest.approx(
            conv.lambda_ris_tilde / (conv.lambda_ris_tilde + conv.lambda_i_tilde * i_factor),
            rel=1e-12,
        )

    def test_approx1_monotone_in_ris_density(self):
        vals = [
            analytic.coverage_path_b_approx1(make_cfg(lambda_ris=lr), 10**0.5)
            for lr in (500.0, 1000.0, 1e4, 5e4)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= 1 for v in vals)

    def test_approx2_balance_point(self):
        # solve for the threshold where interference weight equals the
        # reflector weight; coverage must sit exactly at one half
        cfg = make_cfg()
        conv = analytic.path_b_intensities(cfg)
        target = conv.lambda_ris_tilde / conv.lambda_i_tilde

        def excess(log_t):
            return analytic.interference_factor(math.exp(log_t), cfg.alpha) - target

        log_t_star = optimize.brentq(excess, math.log(1e-6), math.log(1e12), xtol=1e-13)
        assert analytic.coverage_path_b_approx2(cfg, math.exp(log_t_star)) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_approx2_dense_ris_limit(self):
        assert analytic.coverage_path_b_approx2(make_cfg(lambda_ris=1e6), 10**0.5) > 0.99

    def test_restatement_is_identical(self):
        for T in (0.1, 0.5, 1.0, 10**0.5, 10.0):
            for lam_ris in (500.0, 1000.0, 5000.0, 1e4, 5e4):
                cfg = make_cfg(lambda_ris=lam_ris)
                a = analytic.coverage_path_b_approx2(cfg, T)
                b = coverage_path_b_restated(cfg, T)
                assert abs(a - b) <= 1e-9

    def test_restated_trends(self):
        by_ris = [
            analytic.coverage_path_b_approx2(make_cfg(lambda_ris=lr), 10**0.5)
            for lr in (500.0, 1000.0, 1e4, 5e4)
        ]
        assert all(a < b for a, b in zip(by_ris, by_ris[1:]))
        by_bs = [
            coverage_path_b_restated(make_cfg(lambda_bs=lb), 10**0.5)
            for lb in (10.0, 25.0, 100.0, 400.0)
        ]
        assert all(a >= b for a, b in zip(by_bs, by_bs[1:]))
        by_m = [
            coverage_path_b_restated(make_cfg(m_elements=m), 10**0.5)
            for m in (10, 100, 1000)
        ]
        assert all(a < b for a, b in zip(by_m, by_m[1:]))
        by_n = [
            analytic.coverage_path_b_approx2(make_cfg(n_elements=n), 10**0.5)
            for n in (4, 16, 64)
        ]
        assert all(a < b for a, b in zip(by_n, by_n[1:]))

    def test_reflector_count_limit(self):
        assert coverage_path_b_restated(make_cfg(m_elements=10**6), 10**0.5) > 0.999

    def test_monotone_in_threshold_and_bounded(self):
        for fn in (analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2):
            vals = [fn(make_cfg(), t) for t in np.logspace(-2, 4, 25)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_intensities_carry_floor_provenance(self):
        conv = analytic.path_b_intensities(make_cfg(epsilon_floor=2.5))
        # a larger floor discards more of E[r1**-2], so the reflector term shrinks
        assert conv.lambda_ris_tilde < analytic.path_b_intensities(make_cfg()).lambda_ris_tilde
        assert conv.rho == pytest.approx(
            math.sqrt(conv.lambda_bs_tilde / conv.lambda_ris_tilde), rel=1e-12
        )


class TestQueryValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ParameterError):
            analytic.coverage_baseline(make_cfg(), 0.0)
        with pytest.raises(ParameterError):
            analytic.coverage_path_b_approx2(make_cfg(), np.array([1.0, -1.0]))

    # an invalid config cannot reach a closed form: building it fails, even
    # through dataclasses.replace

    def test_rejects_alpha_at_two(self):
        with pytest.raises(ConfigError):
            analytic.coverage_baseline(dataclasses.replace(make_cfg(), alpha=2.0), 1.0)

    def test_rejects_fractional_elements(self):
        with pytest.raises(ConfigError):
            analytic.coverage_path_b_approx1(NetworkConfig(n_elements=2.5), 1.0)
