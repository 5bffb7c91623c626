"""Closed-form coverage expressions and the interference kernel."""
from __future__ import annotations

import dataclasses
import decimal
import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from oracle_helpers import (
    INTERFERENCE_ABS_TOL,
    interference_quadrature,
    pfaff_coefficients,
    pfaff_interference_factor_from_log,
    power_density_convert,
    rayleigh_pdf,
    reflected_power_raw_moment,
)
from restated_forms import coverage_baseline_general, coverage_path_b_restated
from riscov import analytic, geometry, montecarlo
from riscov.config import KM2_TO_M2, ConfigError, NetworkConfig
from riscov.errors import ParameterError

LAM_BS = 2.5e-5
LAM_RIS = 5e-2

# from the edge of the accepted range near 2 to the largest float
ALPHA_GRID = [2.00000000001, 2.05, 2.5, 3.0, 4.0, 7.5, 50.0, 1000.0, 1e9, 1e17, 1e150, 1.7e308]


def closed_form_alpha4(T):
    return math.sqrt(T) * (math.pi / 2 - math.atan(T**-0.5))


def make_cfg(**kw) -> NetworkConfig:
    """The default deployment (densities LAM_BS, LAM_RIS); overrides in config units."""
    return NetworkConfig().replace(**kw)


def to_db(T) -> list[float]:
    """Linear thresholds as the dB list a config takes."""
    return (10.0 * np.log10(np.atleast_1d(T))).tolist()


def kernel(T, alpha):
    """``I(T, alpha)`` by the Monte-Carlo engine's array kernel, the shape of ``T``."""
    with np.errstate(divide="ignore"):  # log(0) is -inf, where I is 0
        return montecarlo.interference_factor_from_log(np.log(np.asarray(T, dtype=float)) / alpha, alpha)


def scalar_factors(T, alpha) -> np.ndarray:
    """``I(T, alpha)`` by :func:`riscov.analytic.interference_factor` at each threshold, the shape of ``T``."""
    return np.reshape([analytic.interference_factor(float(t), alpha) for t in np.ravel(T)], np.shape(T))


def within_ulps(a: float, b: float, ulps: int) -> bool:
    """Whether two floats are equal (infinities included) or differ by at most ``ulps`` of the larger."""
    return a == b or abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def reflector_ratio(cfg: NetworkConfig) -> float:
    """``kappa`` itself, for configs where it is a float."""
    return math.exp(analytic.log_reflector_ratio(cfg))


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
        assert np.array_equal(kernel(thresholds, 3.0), [kernel(t, 3.0) for t in thresholds])
        # a closed form at every configured threshold matches it at each alone
        cfg = make_cfg(alpha=3.0, thresholds_db=np.linspace(-20.0, 40.0, 13).tolist())
        for fn in (
            analytic.coverage_baseline, analytic.coverage_path_a,
            analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2,
        ):
            values = fn(cfg)
            assert isinstance(values, tuple) and len(values) == 13
            alone = tuple(fn(cfg.replace(thresholds_db=(t_db,)))[0] for t_db in cfg.thresholds_db)
            assert values == alone

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    @pytest.mark.parametrize("thresholds", [
        np.linspace(0.0, 1.0, 9),
        np.logspace(0.01, 6, 9),
        np.array([[0.3, 7.0], [1.0, 1.0 + 2**-52]]),
        np.array(2.5),
    ], ids=["all-low", "all-high", "mixed", "0-d"])
    def test_each_branch_matches_scalars_bit_for_bit(self, thresholds, alpha):
        # the kernel's two series branches (T <= 1 and > 1) see only their
        # own elements, whichever branch the other elements take
        got = kernel(thresholds, alpha)
        assert np.shape(got) == thresholds.shape
        expected = [float(kernel(float(t), alpha)) for t in thresholds.flat]
        assert np.array_equal(np.ravel(got), expected)

    @pytest.mark.parametrize("alpha", [
        2.05, 2.00000000001, 2.5, 3.0, 4.0, 7.5, 50.0, 1000.0, 1e9, 1e17, 1e150, 1.7e308,
    ])
    def test_scalar_factor_matches_the_kernel_within_4_ulp(self, alpha):
        # the closed forms and the Monte-Carlo engine sum one series: analytic
        # with math, the engine with numpy, whose log1p, expm1, exp and log
        # may differ from math's in the last ulp
        log_t = np.concatenate([np.linspace(-800.0, 800.0, 161), [-np.inf, np.inf]])
        for u in log_t / alpha:
            assert within_ulps(analytic.interference_factor_from_log(u, alpha),
                               float(montecarlo.interference_factor_from_log(u, alpha)), 4), (u, alpha)
        thresholds = np.concatenate([[0.0, math.inf], np.logspace(-300, 300, 121)])
        for t, in_kernel in zip(thresholds, kernel(thresholds, alpha)):
            assert within_ulps(analytic.interference_factor(t, alpha), float(in_kernel), 4), (t, alpha)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_economized_factor_matches_the_56_term_series_within_8_ulp(self, alpha):
        # the plain 56-term sum in w is the reference; it carries a few ulp of
        # rounding of its own
        log_t = np.concatenate([np.linspace(-800.0, 800.0, 1601), [-np.inf, np.inf]])
        for u in log_t / alpha:
            assert within_ulps(analytic.interference_factor_from_log(u, alpha),
                               pfaff_interference_factor_from_log(u, alpha), 8), (u, alpha)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_chebyshev_tail_past_the_degree_is_below_double_precision(self, alpha):
        # each branch's 56-term series over its first term, on w in [0, 1/2]:
        # the Chebyshev terms the economization drops sum to under 2**-54 of
        # the leading one, and the fit keeps every term up to the degree
        degree = analytic._SERIES_DEGREE
        for coefficients, fitted in zip(pfaff_coefficients(alpha), analytic._series(alpha)):
            ratios = np.array(coefficients) / coefficients[0]
            chebyshev = np.polynomial.Polynomial(ratios).convert(
                domain=[0.0, 0.5], kind=np.polynomial.Chebyshev).coef
            assert np.abs(chebyshev[degree + 1:]).sum() < 2.0**-54 * abs(chebyshev[0]), alpha
            assert len(fitted) == degree + 1

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_horner_gives_a_float_and_its_array_elements_the_same_bits(self, alpha):
        # the closed forms pass floats and the engine arrays through one loop;
        # each element of any shape must take the float call's steps exactly
        w = np.concatenate([np.linspace(0.0, 0.5, 129), np.random.default_rng(7).uniform(0.0, 0.5, 128),
                            [5e-324, 1e-300, 2.0**-53]])
        bits = lambda x: np.asarray(x, dtype=float).view(np.uint64)
        for coefficients in analytic._series(alpha):
            floats = [analytic._horner(coefficients, x) for x in w.tolist()]
            assert all(type(f) is float for f in floats)
            assert np.array_equal(bits([analytic._horner(coefficients, np.array(x)) for x in w]), bits(floats))
            assert np.array_equal(bits(analytic._horner(coefficients, w)), bits(floats))
            pair = np.stack([w, w[::-1]])
            assert np.array_equal(bits(analytic._horner(coefficients, pair)), bits([floats, floats[::-1]]))

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

    @pytest.mark.parametrize("factors", [scalar_factors, kernel], ids=["analytic", "kernel"])
    @pytest.mark.parametrize("alpha", [2.05, 2.2, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 10.0])
    def test_series_matches_scipy_hyp2f1(self, alpha, factors):
        # both branches of the series (T <= 1 and T > 1) across 24 decades
        thresholds = np.logspace(-12, 12, 97)
        delta = 2.0 / alpha
        oracle = 2.0 * thresholds / (alpha - 2.0) * special.hyp2f1(
            1.0, 1.0 - delta, 2.0 - delta, -thresholds
        )
        got = factors(thresholds, alpha)
        assert np.max(np.abs(got / oracle - 1.0)) <= 1e-13

    def test_limits(self):
        # approx1's scaled threshold T * kappa**(-a/2) can underflow to 0 or overflow to inf
        assert analytic.interference_factor(0.0, 4.0) == 0.0
        assert analytic.interference_factor(math.inf, 3.0) == math.inf
        values = kernel(np.array([0.0, 1.0, math.inf]), 4.0)
        assert values[0] == 0.0
        assert values[1] == pytest.approx(math.pi / 4, rel=1e-15)
        assert values[2] == math.inf
        # within about 1e-11 of alpha = 2, pi*d/sin(pi*d) is about 2e11, so that
        # term leaves the float range at T near 1e297; inf is its limit, reached
        # without an OverflowError or a RuntimeWarning
        assert analytic.interference_factor(1e297, 2.00000000001) == math.inf
        assert kernel(1e297, 2.00000000001) == math.inf

    @pytest.mark.parametrize("factors", [scalar_factors, kernel], ids=["analytic", "kernel"])
    @pytest.mark.parametrize("alpha", [1e15, 1e17])
    def test_large_alpha_takes_its_limit(self, alpha, factors):
        # I(T, a) = (2/a) * log(1 + T) * (1 + O(2/a)) as a -> inf. The T > 1
        # branch differenced two terms near 1, and at a = 1e17 gave
        # I(2) = I(10) = 0 beside I(0.5) = 8.1e-18
        thresholds = np.array([0.5, 2.0, 10.0, 1e6])
        got = factors(thresholds, alpha)
        np.testing.assert_allclose(got, 2.0 / alpha * np.log1p(thresholds), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("factors", [scalar_factors, kernel], ids=["analytic", "kernel"])
    @pytest.mark.parametrize("alpha", [100.0, 1e4, 1e9, 1e17])
    def test_increasing_in_the_threshold_at_large_alpha(self, alpha, factors):
        thresholds = np.logspace(-3, 3, 61)
        assert np.all(np.diff(factors(thresholds, alpha)) > 0)

    def test_preconditions(self):
        for bad in (-1e-300, -1.0, math.nan):
            with pytest.raises(ParameterError, match="T must be nonnegative"):
                analytic.interference_factor(bad, 4.0)


class TestBaselineCoverage:
    def test_reference_value(self):
        assert analytic.coverage_baseline(make_cfg(thresholds_db=(0.0,)))[0] == pytest.approx(
            16 / (16 + math.pi), rel=1e-12
        )

    def test_large_array_limit(self):
        assert analytic.coverage_baseline(make_cfg(n_elements=10**12, thresholds_db=(0.0,)))[0] > 1 - 1e-5

    def test_weights_the_factor_by_the_single_beam_retention(self):
        # the engine thins by the rounded retention 1/sqrt(N); at N = 12 that
        # differs in the last bit at 15 and 20 dB from dividing by sqrt(N)
        cfg = make_cfg(n_elements=12)
        p_single, _ = cfg.retentions
        expected = tuple(1.0 / (1.0 + p_single * analytic.interference_factor(t, cfg.alpha))
                         for t in cfg.thresholds_linear)
        assert analytic.coverage_baseline(cfg) == expected
        alone = tuple(analytic.coverage_baseline(cfg.replace(thresholds_db=(t,)))[0] for t in cfg.thresholds_db)
        assert alone == expected

    def test_power_density_independence(self):
        # the pre-substitution ratio must not move when the deployment scales
        base = make_cfg()
        scaled = make_cfg(lambda_bs=10 * base.lambda_bs, p_s=7 * 2.0)
        a = coverage_baseline_general(base, 2.0)
        b = coverage_baseline_general(scaled, 2.0)
        assert abs(a - b) <= 1e-12
        at_two = base.replace(thresholds_db=to_db(2.0))
        assert a == pytest.approx(analytic.coverage_baseline(at_two)[0], rel=1e-12)

    def test_double_quadrature_oracle(self):
        # integrate the serving-distance law against the interferer Laplace
        # exponent directly; the closed form collapses this integral
        cfg = make_cfg(thresholds_db=to_db([0.25, 1.0, 8.0]))
        for T, closed in zip(cfg.thresholds_linear, analytic.coverage_baseline(cfg)):
            lam_i = LAM_BS / math.sqrt(cfg.n_elements)
            lower = T ** (-2 / cfg.alpha)
            tail, _ = integrate.quad(
                lambda u: 1.0 / (1.0 + u ** (cfg.alpha / 2)), lower, np.inf,
                epsabs=1e-13, epsrel=1e-12,
            )
            def integrand(r):
                return rayleigh_pdf(r, LAM_BS) * math.exp(
                    -math.pi * lam_i * r * r * T ** (2 / cfg.alpha) * tail
                )
            direct, _ = integrate.quad(integrand, 0, np.inf, epsabs=1e-12, epsrel=1e-10)
            assert abs(direct - closed) < 1e-6

    def test_monotone_in_threshold(self):
        vals = analytic.coverage_baseline(make_cfg(thresholds_db=np.linspace(-20.0, 30.0, 30).tolist()))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestPathACoverage:
    def test_reference_value(self):
        assert analytic.coverage_path_a(make_cfg(thresholds_db=(0.0,)))[0] == pytest.approx(
            1.0 / (1.0 + math.pi / 4 * math.sqrt(1 / 8)), rel=1e-12
        )

    def test_never_beats_baseline(self):
        for n in (4, 16, 64, 256):
            cfg = make_cfg(n_elements=n, thresholds_db=np.linspace(-20.0, 20.0, 9).tolist())
            # as arrays: a tuple's <= is lexicographic
            assert np.all(np.asarray(analytic.coverage_path_a(cfg)) <= np.asarray(analytic.coverage_baseline(cfg)))

    def test_large_array_limit(self):
        assert analytic.coverage_path_a(make_cfg(n_elements=10**12, thresholds_db=(0.0,)))[0] > 1 - 1e-5

    def test_single_element_equals_baseline(self):
        # at N = 1 a split lobe covers the whole circle: every base interferes,
        # as under the single beam, so the two direct-path coverages coincide
        cfg = make_cfg(n_elements=1, thresholds_db=np.linspace(-20.0, 20.0, 9).tolist())
        np.testing.assert_array_equal(analytic.coverage_path_a(cfg), analytic.coverage_baseline(cfg))


class TestPathBCoverage:
    @staticmethod
    def approx1_oracle(cfg: NetworkConfig, kappa: float, T: float) -> float:
        """``kappa / (kappa + p * I_rho)``, ``I_rho`` by quadrature at ``rho = kappa**-0.5``.

        ``I_rho`` is ``T**(2/a) * int rho**a / (rho**a + u**(a/2)) du`` over ``u >=
        T**(-2/a)``, divided by ``rho**2``. The quadrature's own error must move
        the coverage by less than ``1e-10`` of its value.
        """
        rho = kappa**-0.5
        quad_value, abs_err = interference_quadrature(T, cfg.alpha, rho=rho)
        assert abs_err <= 1e-10 * (1.0 + quad_value)
        _, p_split = cfg.retentions
        return kappa / (kappa + p_split * quad_value / rho**2)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0])
    def test_approx1_matches_the_distance_ratio_integral(self, monkeypatch, alpha):
        # approx1 is path-A coverage at T * kappa**(-a/2); the oracle integrates
        # the proportional-distance form with the reflector at rho = kappa**-0.5
        # times the serving distance, for kappa from 1e-6 to 1e6
        cfg = make_cfg(alpha=alpha, thresholds_db=(-10.0, 0.0, 5.0, 20.0))
        for kappa in np.logspace(-6, 6, 7):
            monkeypatch.setattr(analytic, "log_reflector_ratio", lambda _, k=kappa: math.log(k))
            expected = [self.approx1_oracle(cfg, kappa, t) for t in cfg.thresholds_linear]
            np.testing.assert_allclose(
                analytic.coverage_path_b_approx1(cfg), expected, rtol=1e-9, atol=0
            )

    @pytest.mark.parametrize("alpha, kappa, t_db", [
        (50.0, 1e-6, 2000.0), (1000.0, 0.5, 1600.0), (1000.0, 0.5, 3000.0),
    ])
    def test_approx1_far_branch_matches_the_distance_ratio_integral(
        self, monkeypatch, alpha, kappa, t_db
    ):
        # T * kappa**(-a/2) overflows, so p * I(T * kappa**(-a/2)) is inf and
        # approx1 takes its far form, while rho**a stays a float for the oracle
        cfg = make_cfg(alpha=alpha, thresholds_db=(t_db,))
        (T,) = cfg.thresholds_linear
        assert math.log(T) - alpha / 2 * math.log(kappa) > math.log(np.finfo(float).max)
        monkeypatch.setattr(analytic, "log_reflector_ratio", lambda _: math.log(kappa))
        assert analytic.coverage_path_b_approx1(cfg)[0] == pytest.approx(
            self.approx1_oracle(cfg, kappa, T), rel=1e-9, abs=0
        )

    def test_approx1_where_the_threshold_scale_is_subnormal(self):
        # kappa**(-a/2) is 4.0e-312 here, and T * kappa**(-a/2) kept only its
        # digits: approx1 read 6.0e-13 relative off. The oracle sums
        # 2F1(1, b; b + 1; -x) = b * sum((-x)**n / (b + n)), b = 1 - 2/a, in
        # 60-digit decimals at the same log(kappa)
        cfg = make_cfg(alpha=2.00000000001, mu=1e-300, n_elements=256, lambda_ris=1e12,
                       thresholds_db=(3080.0,))
        (t,) = cfg.thresholds_linear
        log_kappa = analytic.log_reflector_ratio(cfg)
        assert 0.0 < math.exp(-0.5 * cfg.alpha * log_kappa) < np.finfo(float).tiny
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            a = decimal.Decimal(cfg.alpha)
            x = decimal.Decimal(t) * (-a / 2 * decimal.Decimal(log_kappa)).exp()
            b = 1 - 2 / a
            series = sum(b * (-x) ** n / (b + n) for n in range(40))  # x is 4e-4
            i_factor = 2 * x / (a - 2) * series
            expected = float(1 / (1 + decimal.Decimal(cfg.retentions[1]) * i_factor))
        assert analytic.coverage_path_b_approx1(cfg)[0] == pytest.approx(expected, rel=1e-13, abs=0)

    def test_approx1_with_unit_rho_equals_approx2_form(self):
        # algebraic identity: at rho = 1 the approximations share one formula
        cfg, T = make_cfg(), 2.0
        kappa = reflector_ratio(cfg)
        _, p_split = cfg.retentions
        i_factor = analytic.interference_factor(T, cfg.alpha)
        i_rho1, _ = interference_quadrature(T, cfg.alpha, rho=1.0)
        assert kappa / (kappa + p_split * i_rho1) == pytest.approx(
            kappa / (kappa + p_split * i_factor), rel=1e-12
        )

    @pytest.mark.parametrize("floor", [2200.0, 2500.0, 3000.0, 1e4])
    def test_approx1_takes_its_limit_for_a_vanishing_reflector_term(self, floor):
        # floors this far above the typical r1 drive kappa toward 0 and
        # rho**2 toward inf; approx1 used to raise OverflowError (rho**a),
        # return nan (rho = inf) or raise ZeroDivisionError (moment 0)
        cfg = make_cfg(epsilon_floor=floor, thresholds_db=(-10.0, 5.0, 20.0))
        kappa = reflector_ratio(cfg)
        _, p_split = cfg.retentions
        limit = kappa / (kappa + p_split * math.pi / 2 * np.sqrt(cfg.thresholds_linear))
        got = analytic.coverage_path_b_approx1(cfg)
        np.testing.assert_allclose(got, limit, rtol=1e-12, atol=0)
        assert np.all(np.asarray(got) <= np.asarray(analytic.coverage_path_b_approx2(cfg)))

    def test_approx1_monotone_in_ris_density(self):
        vals = [
            analytic.coverage_path_b_approx1(make_cfg(lambda_ris=lr, thresholds_db=(5.0,)))[0]
            for lr in (500.0, 1000.0, 1e4, 5e4)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= 1 for v in vals)

    def test_approx2_balance_point(self):
        # solve for the threshold where interference weight equals the
        # reflector weight; coverage must sit exactly at one half
        cfg = make_cfg()
        target = reflector_ratio(cfg) / cfg.retentions[1]

        def excess(log_t):
            return analytic.interference_factor(math.exp(log_t), cfg.alpha) - target

        log_t_star = optimize.brentq(excess, math.log(1e-6), math.log(1e12), xtol=1e-13)
        at_balance = cfg.replace(thresholds_db=(10.0 * log_t_star / math.log(10.0),))
        assert analytic.coverage_path_b_approx2(at_balance)[0] == pytest.approx(0.5, abs=1e-9)

    def test_approx2_dense_ris_limit(self):
        assert analytic.coverage_path_b_approx2(make_cfg(lambda_ris=1e6, thresholds_db=(5.0,)))[0] > 0.99

    def test_restatement_is_identical(self):
        for lam_ris in (500.0, 1000.0, 5000.0, 1e4, 5e4):
            cfg = make_cfg(lambda_ris=lam_ris, thresholds_db=to_db([0.1, 0.5, 1.0, 10**0.5, 10.0]))
            for a, T in zip(analytic.coverage_path_b_approx2(cfg), cfg.thresholds_linear):
                b = coverage_path_b_restated(cfg, T)
                assert abs(a - b) <= 1e-9

    def test_restated_trends(self):
        by_ris = [
            analytic.coverage_path_b_approx2(make_cfg(lambda_ris=lr, thresholds_db=(5.0,)))[0]
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
            analytic.coverage_path_b_approx2(make_cfg(n_elements=n, thresholds_db=(5.0,)))[0]
            for n in (4, 16, 64)
        ]
        assert all(a < b for a, b in zip(by_n, by_n[1:]))

    def test_reflector_count_limit(self):
        assert coverage_path_b_restated(make_cfg(m_elements=10**6), 10**0.5) > 0.999

    def test_monotone_in_threshold_and_bounded(self):
        cfg = make_cfg(thresholds_db=np.linspace(-20.0, 40.0, 25).tolist())
        for fn in (analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2):
            vals = fn(cfg)
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_intensities_carry_floor_provenance(self):
        cfg = make_cfg(epsilon_floor=2.5, thresholds_db=to_db(2.0))
        kappa = reflector_ratio(cfg)
        # a larger floor discards more of E[r1**-2], so the reflector term shrinks
        assert kappa < reflector_ratio(make_cfg())
        # approx1's distance ratio is rho = kappa**-0.5
        assert analytic.coverage_path_b_approx1(cfg)[0] == pytest.approx(
            self.approx1_oracle(cfg, kappa, cfg.thresholds_linear[0]), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("changes", [
        {}, {"p_s": 1e-3, "mu": 7.0}, {"alpha": 2.5, "lambda_ris": 800.0},
        {"alpha": 3.0, "m_elements": 12, "beta": 0.3, "phase_bits": 2, "epsilon_floor": 0.2},
    ])
    def test_kappa_is_the_ratio_of_converted_intensities(self, changes):
        # the reflector intensity E[(P/mu)**(2/a)] * lambda_ris over the bases'
        # (p_s / (2 mu))**(2/a) * lambda_bs, in which p_s cancels
        cfg = make_cfg(**changes)
        lam_ris_t = reflected_power_raw_moment(cfg) * cfg.lambda_ris * KM2_TO_M2
        lam_bs_t = power_density_convert(cfg.lambda_bs * KM2_TO_M2, cfg.p_s / 2.0, cfg.mu, cfg.alpha)
        assert reflector_ratio(cfg) == pytest.approx(lam_ris_t / lam_bs_t, rel=1e-12)

    @pytest.mark.parametrize("changes, limit", [
        ({"mu": 1e-300, "alpha": 2.01, "m_elements": 10**150}, 1.0),
        ({"mu": 1e300, "alpha": 2.01, "beta": 1e-300, "lambda_ris": 1e-300}, 0.0),
    ], ids=["kappa-1e597", "kappa-1e-1197"])
    def test_kappa_beyond_float_range_takes_the_limit(self, changes, limit):
        # p * I(T) stays within a few powers of ten of 1 at these thresholds,
        # so both approximations equal their limit to double precision
        cfg = make_cfg(**changes, thresholds_db=(-10.0, 0.0, 20.0))
        assert abs(analytic.log_reflector_ratio(cfg)) > 1300
        for fn in (analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2):
            np.testing.assert_array_equal(fn(cfg), limit)

    def test_kappa_survives_an_underflowing_moment(self):
        # lambda_eff per m^2 is subnormal here, so the moment in SI units
        # underflowed to 0 and approx1 and approx2 read 0 where kappa is about
        # 1e576; in units of the base spacing pi * lambda_eff * eps**2 is 74.
        # Oracle: kappa's factors' logs in SI units, each density per m^2 as a log
        cfg = make_cfg(lambda_bs=3.0e-318, lambda_ris=1.0e308, epsilon_floor=2.8e162,
                       mu=1.0e-308, m_elements=10**154)
        log_pi_lam_eff = math.log(math.pi) + math.log(3.0e-318) + math.log(1e-6)  # lambda_ris >> lambda_bs
        log_x = log_pi_lam_eff + 2.0 * math.log(2.8e162)
        log_moment = log_pi_lam_eff + math.log(special.exp1(math.exp(log_x)))
        log_gain_over_mu = 2.0 * math.log(1e154) + math.log(0.9) - math.log(1e-308)
        expected = (0.5 * log_gain_over_mu + math.lgamma(1.5) + log_moment
                    + math.log(1.0e308) - math.log(3.0e-318))
        assert analytic.log_reflector_ratio(cfg) == pytest.approx(expected, rel=1e-12)
        for fn in (analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2):
            np.testing.assert_array_equal(fn(cfg), 1.0)

    def test_kappa_is_finite_at_the_largest_alpha(self):
        # log K holds (alpha/2) * log(pi * lambda_bs), which overflows past
        # alpha ~ 4e307 and made kappa 0 where it is about 1.39.
        # Oracle: kappa in SI units, where (G/mu)**(2/alpha) and Gamma(1 + 2/alpha) are 1
        cfg = make_cfg(alpha=1e308)
        pi_lam_eff = math.pi * 1e-6 * cfg.lambda_bs * cfg.lambda_ris / (cfg.lambda_bs + cfg.lambda_ris)
        kappa = pi_lam_eff * special.exp1(pi_lam_eff * cfg.epsilon_floor**2) * cfg.lambda_ris / cfg.lambda_bs
        assert analytic.log_reflector_ratio(cfg) == pytest.approx(math.log(kappa), rel=1e-12)
        for fn in (analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2):
            np.testing.assert_allclose(fn(cfg), 1.0, rtol=1e-15)

    def test_no_reflected_power_gives_zero_not_nan(self):
        # the moment (at a 1e200 m floor) and p * I(T) (at -3200 dB and alpha
        # 1e6) both underflow to 0; approx2 used to write that 0/0 as nan
        cfg = make_cfg(alpha=1e6, epsilon_floor=1e200, thresholds_db=(-3200.0, 0.0))
        assert analytic.log_reflector_ratio(cfg) == -math.inf
        T = np.asarray(cfg.thresholds_linear)
        assert analytic.interference_factor(T[0], cfg.alpha) == 0.0
        for fn in (analytic.coverage_path_b_approx1, analytic.coverage_path_b_approx2):
            np.testing.assert_array_equal(fn(cfg), 0.0)

    @pytest.mark.parametrize("changes", [
        {"beta": 1e-300, "m_elements": 1, "mu": 1e30, "alpha": 1000.0},
        {"m_elements": 20000, "mu": 1e-300},
        {"lambda_ris": 1e300, "lambda_bs": 1e-300},
    ], ids=["gain-over-mu-underflows", "gain-over-mu-overflows", "density-ratio-overflows"])
    def test_kappa_where_a_quotient_leaves_the_float_range(self, changes):
        # G/mu (1e-330 or 3.6e308) or lambda_ris/lambda_bs (1e600) leaves the
        # float range while kappa (about 0.3, 2e154 and 2e299) does not;
        # forming the quotient first gave kappa 0 (both approximations read
        # 0.0) or an exit 4
        cfg = make_cfg(**changes)
        lam_ris_t = reflected_power_raw_moment(cfg) * cfg.lambda_ris * KM2_TO_M2
        lam_bs_t = power_density_convert(cfg.lambda_bs * KM2_TO_M2, cfg.p_s / 2.0, cfg.mu, cfg.alpha)
        kappa = lam_ris_t / lam_bs_t
        assert reflector_ratio(cfg) == pytest.approx(kappa, rel=1e-12)
        _, p_split = cfg.retentions
        T = cfg.thresholds_linear
        i_factor = np.array([analytic.interference_factor(t, cfg.alpha) for t in T])
        expected = [self.approx1_oracle(cfg, kappa, t) for t in T]
        np.testing.assert_allclose(
            analytic.coverage_path_b_approx1(cfg), expected, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            analytic.coverage_path_b_approx2(cfg), kappa / (kappa + p_split * i_factor),
            rtol=1e-12, atol=0,
        )


class TestQueryValidation:
    # an invalid config cannot reach a closed form: building it fails, even
    # through dataclasses.replace

    def test_rejects_alpha_at_two(self):
        with pytest.raises(ConfigError):
            analytic.coverage_baseline(dataclasses.replace(make_cfg(), alpha=2.0))

    def test_rejects_fractional_elements(self):
        with pytest.raises(ConfigError):
            analytic.coverage_path_b_approx1(NetworkConfig(n_elements=2.5))


# the reflection-power deployment: 25 bases and 1000 reflectors per km^2
SPARSE_LAM_RIS = 1e-3


def sparse_deployment(**kw) -> NetworkConfig:
    """A config at LAM_BS and SPARSE_LAM_RIS, which configs take per km^2; overrides in config units."""
    return NetworkConfig(**{"lambda_bs": 25.0, "lambda_ris": 1000.0, **kw})


class TestMeanReflectedPower:
    def test_reference_power_trends(self):
        # increasing in reflector density, decreasing as base density drops
        args = dict(m_elements=100, beta=1.0, p_s=2.0, mu=1.0, alpha=4.0, epsilon_floor=1.0)
        by_ris = [
            analytic.mean_reflected_power(sparse_deployment(lambda_ris=lr, **args))
            for lr in (500.0, 1000.0, 4000.0)
        ]
        assert all(a < b for a, b in zip(by_ris, by_ris[1:]))
        by_bs = [
            analytic.mean_reflected_power(sparse_deployment(lambda_bs=lb, **args))
            for lb in (10.0, 25.0, 100.0)
        ]
        assert all(a < b for a, b in zip(by_bs, by_bs[1:]))

    def test_doubling_elements_quadruples(self):
        args = dict(beta=1.0, p_s=2.0, mu=1.0, alpha=4.0, epsilon_floor=1.0)
        ratio = analytic.mean_reflected_power(sparse_deployment(m_elements=100, **args)) / \
            analytic.mean_reflected_power(sparse_deployment(m_elements=50, **args))
        assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_matches_importance_sampled_average(self):
        # oracle: average peak reflected power over scenario draws with the
        # identical floor; the inverse-distance part needs importance
        # sampling (rare near-coincident geometries dominate the moment)
        from oracle_helpers import floored_inv_pow_is_oracle
        p_s, mu, alpha, eps = 2.0, 1.0, 4.0, 1.0
        value = analytic.mean_reflected_power(
            sparse_deployment(m_elements=100, beta=1.0, p_s=p_s, mu=mu, alpha=alpha, epsilon_floor=eps)
        )
        inv_moment = floored_inv_pow_is_oracle(alpha, LAM_BS, SPARSE_LAM_RIS, eps, seed=19)
        oracle = 100**2 * 1.0 * (p_s / 2) * (1.0 / mu) * inv_moment
        assert abs(value - oracle) / oracle < 0.05
