"""Geometry: the reference engine's PPP sampler on its window, the
nearest-neighbor and r1 distance laws, and the r1 moments.

``expected_r1`` and the floored inverse moments are checked against
deterministic quadrature, and each one's errors: ``expected_r1`` rejects an
intensity that is not a positive finite float, and a sum or continued
fraction that misses its tolerance raises. The fall of E[r1] in either
density is acceptance criterion 12.

Each fact behind the floored inverse moments has one route: the Rayleigh law
of r1, integrated against ``r**-p`` at rel 1e-9 for every power from 2 to
200; the Rice marginal, as a density at rel 1e-8 and as Fubini moments at
p = 2 and 4; and the raw joint law of (r0, r2, angle), nested at p = 2
through the exact angle antiderivative. No sampler estimates a moment.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import reference_engine
from oracle_helpers import expected_inv_r1_pow, expected_r1_nested, prob_ris_closer, rayleigh_pdf
from riscov import geometry
from riscov.errors import NumericalError, ParameterError

LAM_BS = 2.5e-5   # 25 per km^2
LAM_RIS = 1e-3    # 1000 per km^2
LAM_EFF = LAM_BS * LAM_RIS / (LAM_BS + LAM_RIS)  # the Rayleigh intensity of r1


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSamplePPP:
    def test_mean_count_matches_poisson_intensity(self):
        # oracle: E[count] = lam * pi * R^2
        lam, radius, draws = 25e-6, 2000.0, 10_000
        expected = lam * math.pi * radius**2
        rng = np.random.default_rng(123)
        counts = [len(reference_engine.sample_ppp(lam, radius, rng)) for _ in range(draws)]
        se = math.sqrt(expected / draws)
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_same_seed_same_points(self):
        a = reference_engine.sample_ppp(1e-4, 500.0, np.random.default_rng(42))
        b = reference_engine.sample_ppp(1e-4, 500.0, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_points_inside_window(self):
        points = reference_engine.sample_ppp(1e-3, 300.0, np.random.default_rng(1))
        assert np.all(np.hypot(*points.T) <= 300.0)

    def test_uniform_positions(self):
        # radius^2 of a uniform disc point is uniform on [0, R^2]
        rng = np.random.default_rng(5)
        points = reference_engine.sample_ppp(1.0, 200.0, rng)
        assert len(points) > 50_000
        stat = stats.kstest(np.hypot(*points.T) ** 2 / 200.0**2, "uniform").statistic
        assert stat < 0.02

    def test_empty_draw_is_a_zero_by_two_array(self):
        # the expected count is about 3e-12: no point, and still two columns
        points = reference_engine.sample_ppp(1e-12, 1.0, np.random.default_rng(0))
        assert points.shape == (0, 2)


class TestNearest:
    @pytest.mark.parametrize("lam", [LAM_BS, LAM_RIS])
    def test_nearest_cdf_matches_void_probability(self, lam):
        # oracle: CDF of the nearest distance is 1 - exp(-lam*pi*r^2)
        rng = np.random.default_rng(314)
        radius = reference_engine.window_radius(lam)
        samples = [
            np.hypot(*reference_engine.sample_ppp(lam, radius, rng).T).min()
            for _ in range(10_000)
        ]
        stat = stats.kstest(
            samples, lambda r: 1.0 - np.exp(-lam * math.pi * np.asarray(r) ** 2)
        ).statistic
        assert stat < 0.02


# ---------------------------------------------------------------------------
# nearest-neighbor densities: the oracle's Rayleigh law, which the quadrature
# oracles and the histogram tests read
# ---------------------------------------------------------------------------

# the three Rayleigh laws, with the pinned mean or mode in metres where one
# is stated
RAYLEIGH_LAWS = pytest.mark.parametrize("lam,mean,mode", [
    (LAM_BS, 100.0, None),
    (LAM_RIS, None, 12.6157),
    (LAM_EFF, None, None),
], ids=["r0", "r2", "r1"])


class TestNearestNeighborDensities:
    @RAYLEIGH_LAWS
    def test_unit_mass(self, lam, mean, mode):
        mass, _ = integrate.quad(lambda r: rayleigh_pdf(r, lam), 0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-9)

    @RAYLEIGH_LAWS
    def test_mean(self, lam, mean, mode):
        # 1/(2 sqrt(lam)) by quadrature
        first, _ = integrate.quad(lambda r: r * rayleigh_pdf(r, lam), 0, np.inf)
        assert first == pytest.approx(0.5 / math.sqrt(lam), rel=1e-9)
        if mean is not None:
            assert first == pytest.approx(mean, rel=1e-9)

    @RAYLEIGH_LAWS
    def test_mode(self, lam, mean, mode):
        # 1/sqrt(2 pi lam) tops its neighbors
        peak = 1.0 / math.sqrt(2 * math.pi * lam)
        assert rayleigh_pdf(peak * 0.999, lam) < rayleigh_pdf(peak, lam) > rayleigh_pdf(peak * 1.001, lam)
        if mode is not None:
            assert peak == pytest.approx(mode, abs=5e-4)

    @RAYLEIGH_LAWS
    def test_vanishes_at_zero(self, lam, mean, mode):
        assert rayleigh_pdf(0.0, lam) == 0.0

    def test_prob_ris_closer_closed_form_and_oracles(self):
        closed = prob_ris_closer(LAM_RIS, LAM_BS)
        assert closed == pytest.approx(1000.0 / 1025.0, rel=1e-12)
        # quadrature oracle: integrate Pr(r2 < r) against the r0 law
        quad_val, _ = integrate.quad(
            lambda r: (1 - math.exp(-math.pi * LAM_RIS * r * r)) * rayleigh_pdf(r, LAM_BS),
            0, np.inf,
        )
        assert quad_val == pytest.approx(closed, abs=1e-9)


# ---------------------------------------------------------------------------
# r1: marginal law and moments
# ---------------------------------------------------------------------------

class TestR1Marginal:
    def test_matches_bessel_route(self):
        # independent closed-form route: Rice mixture over the serving distance
        from oracle_helpers import bessel_marginal
        for lam_ris in (LAM_RIS, 5e-2):
            for r1 in (5.0, 30.0, 80.0, 120.0, 200.0):
                val = rayleigh_pdf(r1, LAM_BS * lam_ris / (LAM_BS + lam_ris))
                assert val == pytest.approx(bessel_marginal(r1, LAM_BS, lam_ris), rel=1e-8)


class TestExpectedR1:
    def test_monotone_in_ris_density(self):
        assert geometry.expected_r1(LAM_BS, 1e-3) > geometry.expected_r1(LAM_BS, 2e-3)

    @pytest.mark.parametrize("lam_bs_km2,lam_ris_km2", [
        (1e5, 1.0), (1e6, 0.1), (1e-3, 1e-3), (1e6, 1e-3), (1e-3, 1e6),
        (0.1, 1e6), (1.0, 1e5), (25.0, 25.0), (25.0, 1000.0), (25.0, 5e4),
        (10.0, 500.0), (1000.0, 1000.0), (100.0, 16000.0),
    ])
    def test_matches_nested_quadrature(self, lam_bs_km2, lam_ris_km2):
        # the same truncated integral by adaptive quadrature at epsrel 1e-12,
        # over density ratios from 1e-9 to 1e9
        lam_bs, lam_ris = lam_bs_km2 * 1e-6, lam_ris_km2 * 1e-6
        oracle, abs_err = expected_r1_nested(lam_bs, lam_ris)
        assert abs_err < 1e-12 * oracle
        assert geometry.expected_r1(lam_bs, lam_ris) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("rho", [1e-300, 1e-9, 1.0, 20.0, 40.0, 160.0, 2000.0, 1e9, 1e300])
    def test_truncation_is_the_pinned_tail_share(self, rho):
        # the value is the exact mean less the tails beyond the 1 - TAIL_MASS
        # quantiles: 5.34e-6 of it at extreme density ratios, 6.24e-6 at rho 1
        lam_bs, lam_ris = 1 / math.pi, rho / math.pi
        exact = 0.5 / math.sqrt(lam_bs * lam_ris / (lam_bs + lam_ris))
        assert 5.3e-6 <= (exact - geometry.expected_r1(lam_bs, lam_ris)) / exact <= 6.3e-6

    @pytest.mark.parametrize("lam_bs,lam_ris", [
        (1e-318, LAM_RIS), (1 / math.pi, 5e-324), (5e-324, 1 / math.pi),
        (1 / math.pi, 1e-310), (1e-310, 1 / math.pi), (1 / math.pi, 1.7e308), (1.7e308, 1 / math.pi),
    ])
    def test_sparse_bases_give_the_exact_mean(self, lam_bs, lam_ris):
        # at 1e-318 per m**2 the tail radius squared leaves the float range,
        # and a density ratio may overflow or underflow; the tail sums read
        # only each density's share of the two
        exact = 0.5 * math.hypot(lam_bs**-0.5, lam_ris**-0.5)
        assert geometry.expected_r1(lam_bs, lam_ris) == pytest.approx(exact, rel=1e-5)

    def test_rule_disagreement_raises(self, monkeypatch):
        # the tail sums of steps h and 2h agree to about 4e-11 of the value
        # here, which a tolerance below that cannot accept
        value = geometry.expected_r1(LAM_BS, LAM_RIS)
        monkeypatch.setattr(geometry, "_R1_REL_TOL", 1e-12)
        with pytest.raises(NumericalError, match="did not converge") as info:
            geometry.expected_r1(LAM_BS, LAM_RIS)
        gap = float(str(info.value).rpartition(" differ by ")[2])
        assert 1e-12 * value < gap < 1e-9 * value

    @pytest.mark.parametrize("lam_bs,lam_ris", [
        (0.0, LAM_RIS), (math.nan, LAM_RIS), (LAM_BS, -LAM_RIS), (LAM_BS, math.inf),
    ], ids=["bs-zero", "bs-nan", "ris-negative", "ris-inf"])
    def test_rejects_an_intensity_that_is_not_positive_finite(self, lam_bs, lam_ris):
        # the package's one ParameterError, a ValueError too; the benchmark's
        # probe test passes a negative intensity and expects it
        with pytest.raises(ParameterError) as info:
            geometry.expected_r1(lam_bs, lam_ris)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == f"intensities must be positive finite floats, got {lam_bs!r}, {lam_ris!r}"


class TestInverseMoments:
    def test_increasing_in_ris_density(self):
        grid = [5e-4, 1e-3, 1e-2, 5e-2]
        vals = [expected_inv_r1_pow(2.0, LAM_BS, lr, 1.0) for lr in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("power", [2.0, 4.0])
    def test_against_marginal_fubini_route(self, power):
        # deterministic cross-check: integrate r^-p against the closed-form
        # (Rice mixture) marginal instead of nesting over (r0, r2)
        from oracle_helpers import floored_inv_pow_bessel
        analytic = expected_inv_r1_pow(power, LAM_BS, LAM_RIS, 1.0)
        route = floored_inv_pow_bessel(power, LAM_BS, LAM_RIS, 1.0)
        assert analytic == pytest.approx(route, rel=1e-3)

    def test_closed_form_matches_nested_quadrature(self):
        # the raw joint law at p = 2, through the exact angle antiderivative;
        # the oracle truncates both radii at the 1 - 1e-6 quantile, which
        # bounds the agreement to about that size
        from oracle_helpers import floored_inv_sq_nested
        route, abs_err = floored_inv_sq_nested(LAM_BS, LAM_RIS, 1.0)
        assert abs_err < 1e-6 * route
        closed = expected_inv_r1_pow(2.0, LAM_BS, LAM_RIS, 1.0)
        assert closed == pytest.approx(route, rel=1e-5)

    @pytest.mark.parametrize("power", [2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 200.0])
    def test_closed_form_matches_rayleigh_quadrature(self, power):
        # r1 is Rayleigh at lambda_eff: integrate r**-p against that density
        # directly, in s = r / eps; large powers must not overflow
        lam = LAM_BS * LAM_RIS / (LAM_BS + LAM_RIS)
        eps = 0.5
        x = math.pi * lam * eps**2
        def f(s):
            return s ** (1 - power) * math.exp(-x * s * s)

        near, _ = integrate.quad(f, 1.0, 2.0, epsabs=0.0, epsrel=1e-12)
        far, _ = integrate.quad(f, 2.0, np.inf, epsabs=1e-12 * near, epsrel=1e-12, limit=200)
        expected = 2 * math.pi * lam * eps ** (2 - power) * (near + far)
        got = expected_inv_r1_pow(power, LAM_BS, LAM_RIS, eps)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("base", [0.0, 1e-9, 1e-4, 0.5, 0.999])
    def test_scaled_upper_gamma_matches_scipy(self, base):
        # both branches (series below x = 1, continued fraction above); the
        # base near 0 is alpha near 4, where Gamma(s) - 1/s would cancel
        for x in np.logspace(-10, math.log10(300.0), 61):
            if base == 0.0:
                oracle = special.exp1(x)
            else:
                oracle = x**-base * special.gamma(base) * special.gammaincc(base, x)
            got = math.exp(geometry._log_scaled_upper_gamma(base, math.log(x)))
            assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.5, -2.5, -10.0, -49.0, -64.5, -1000.0])
    @pytest.mark.parametrize("x", [1e-300, 1e-4, 0.37, 1.0, 60.0, 700.0])
    def test_scaled_upper_gamma_below_zero_matches_quadrature(self, a, x):
        # x**-a * Gamma(a, x) = exp(-x) * int_0^inf (1 + w)**(a-1) * exp(-x*w) dw.
        # Stepping down from a + n scaled rounding errors by x / |a + k| per
        # step, so at x = 60 the value for a = -49 was off by a factor of 1e9
        integral, _ = integrate.quad(
            lambda w: (1.0 + w) ** (a - 1.0) * math.exp(-x * w), 0.0, np.inf,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        got = math.exp(geometry._log_scaled_upper_gamma(a, math.log(x)))
        assert got == pytest.approx(math.exp(-x) * integral, rel=1e-12, abs=0)

    def test_fraction_short_of_its_terms_raises(self, monkeypatch):
        # at a = 0.5 and x = 1 Legendre's fraction takes 84 terms; cut to 10,
        # it stops short of double precision and says so rather than return
        # a value that missed its tolerance
        assert math.isfinite(geometry.log_expected_inv_r1_pow(1.0, 0.0, 0.0))
        monkeypatch.setattr(geometry, "_FRACTION_MAX_TERMS", 10)
        with pytest.raises(NumericalError) as info:
            geometry.log_expected_inv_r1_pow(1.0, 0.0, 0.0)
        assert str(info.value) == "Gamma(0.5, 1.0) continued fraction did not converge"

    def test_underflowed_argument_takes_its_limit(self):
        # pi*lambda_eff*eps**2 rounds to 0 for a tiny floor; x**-a * Gamma(a, x)
        # tends to -1/a for a < 0
        scale = math.pi * LAM_BS * LAM_RIS / (LAM_BS + LAM_RIS)
        got = expected_inv_r1_pow(2.5, LAM_BS, LAM_RIS, 1e-160)
        assert got == pytest.approx(4.0 * scale * 1e80, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-160, 1e-200, 1e-300])
    def test_inverse_square_survives_underflowed_argument(self, eps):
        # E1(x) = -gamma - log(x) + O(x) stays finite where x = pi*lambda_eff*eps**2
        # underflows; the moment used to be reported as beyond the float range
        scale = math.pi * LAM_BS * LAM_RIS / (LAM_BS + LAM_RIS)
        expected = scale * (-np.euler_gamma - math.log(scale) - 2.0 * math.log(eps))
        got = expected_inv_r1_pow(2.0, LAM_BS, LAM_RIS, eps)
        assert got == pytest.approx(expected, rel=1e-12)
