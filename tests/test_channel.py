"""Channel model: fading, thinning, power conversion, array reflection."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oracle_helpers import (
    array_factor_from_phases,
    fade_fractional_moment,
    peak_reflection_power,
)
from riscov import channel, geometry
from riscov.config import ConfigError, NetworkConfig
from riscov.errors import DomainError, ParameterError

LAM_BS = 2.5e-5
LAM_RIS = 1e-3


def deployment(**kw) -> NetworkConfig:
    """A config at LAM_BS and LAM_RIS, which configs take per km^2; overrides in config units."""
    return NetworkConfig(**{"lambda_bs": 25.0, "lambda_ris": 1000.0, **kw})


@dataclass(frozen=True)
class FadingModel:
    """Exponential small-scale power gain with mean ``1 / rate_mu``."""

    rate_mu: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.rate_mu) or self.rate_mu <= 0:
            raise ParameterError(f"rate_mu must be positive, got {self.rate_mu!r}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate_mu


def sample_fade(model: FadingModel, rng: np.random.Generator, size=None):
    """Exponential gain draw(s); deterministic given the stream."""
    return rng.exponential(scale=model.mean, size=size)


class TestFading:
    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            FadingModel(rate_mu=0.0)

    @pytest.mark.parametrize("mu,mean", [(1.0, 1.0), (2.0, 0.5)])
    def test_sample_mean(self, mu, mean):
        rng = np.random.default_rng(8)
        draws = sample_fade(FadingModel(mu), rng, size=1_000_000)
        assert abs(draws.mean() - mean) < 0.01

    def test_cdf_identity_at_mean(self):
        # Pr(g <= 1/mu) = 1 - 1/e for an exponential
        rng = np.random.default_rng(9)
        mu = 3.0
        draws = sample_fade(FadingModel(mu), rng, size=200_000)
        assert abs(np.mean(draws <= 1.0 / mu) - (1 - math.exp(-1))) < 0.01


class TestPathLoss:
    def test_unit_distance(self):
        assert channel.path_loss(1.0, 4.0) == 1.0

    def test_decade(self):
        assert channel.path_loss(10.0, 4.0) == pytest.approx(1e-4, rel=1e-12)

    def test_doubling_at_alpha4(self):
        d = 37.0
        assert channel.path_loss(2 * d, 4.0) == pytest.approx(channel.path_loss(d, 4.0) / 16)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            channel.path_loss(0.0, 4.0)
        with pytest.raises(DomainError):
            channel.path_loss(-1.0, 4.0)
        with pytest.raises(ParameterError):
            channel.path_loss(1.0, 2.0)


class TestBeamThinning:
    def test_single_beam_n16(self):
        single, _ = channel.retention_probabilities(NetworkConfig(n_elements=16))
        assert single == pytest.approx(1 / 4)

    def test_split_beam_n16(self):
        _, split = channel.retention_probabilities(NetworkConfig(n_elements=16))
        assert split == pytest.approx(0.3535533906, rel=1e-9)

    def test_isotropic_limit(self):
        single, _ = channel.retention_probabilities(NetworkConfig(n_elements=1))
        assert single == pytest.approx(1.0)

    def test_split_beam_retention_capped_at_one(self):
        def split(n):
            return channel.retention_probabilities(NetworkConfig(n_elements=n))[1]

        assert split(1) == 1.0
        assert split(2) == 1.0
        assert split(3) == math.sqrt(2 / 3)


class TestPowerDensityConversion:
    def test_unit_power_identity(self):
        assert channel.power_density_convert(LAM_BS, 1.0, 1.0, 4.0) == LAM_BS

    def test_sixteenfold_power_at_alpha4(self):
        conv = channel.power_density_convert(LAM_BS, 16.0, 1.0, 4.0)
        assert conv == pytest.approx(4 * LAM_BS, rel=1e-12)

    def test_invariant_field(self):
        # the fade rate normalizes the power before the 2/alpha scaling
        conv = channel.power_density_convert(3e-4, 5.0, 2.0, 3.5)
        assert conv == pytest.approx((5.0 / 2.0) ** (2 / 3.5) * 3e-4, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.floats(0.1, 50.0), q=st.floats(0.1, 50.0),
        alpha=st.floats(2.1, 6.0),
    )
    def test_composition(self, p, q, alpha):
        one = channel.power_density_convert(LAM_BS, p * q, 1.0, alpha)
        two = channel.power_density_convert(
            channel.power_density_convert(LAM_BS, p, 1.0, alpha), q, 1.0, alpha,
        )
        assert two == pytest.approx(one, rel=1e-9)

    def test_distributional_equivalence(self):
        # strongest received power under (P, lam) vs (1, P^{2/a} lam):
        # nearest-distance draws are exact via the void probability
        alpha, power, n = 4.0, 7.0, 10_000
        lam_t = power ** (2 / alpha) * LAM_BS
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(22)
        d_orig = rng_a.rayleigh(1.0 / math.sqrt(2 * math.pi * LAM_BS), n)
        d_conv = rng_b.rayleigh(1.0 / math.sqrt(2 * math.pi * lam_t), n)
        best_orig = power * d_orig**-alpha
        best_conv = d_conv**-alpha
        assert stats.ks_2samp(best_orig, best_conv).pvalue > 0.01


def _brute_force_efficiency(m, bits, n_draws, seed):
    """Mean quantized coherent-power efficiency over uniform target phases."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_draws):
        phases = rng.uniform(0.0, 2 * math.pi, m)
        gain = array_factor_from_phases(phases, bits)
        total += abs(gain) ** 2 / m**2
    return total / n_draws


class TestArrayFactor:
    @pytest.mark.parametrize("m", [1, 10, 100])
    def test_ideal_power_gain_is_exact_square(self, m):
        rng = np.random.default_rng(4)
        phases = rng.uniform(0, 2 * math.pi, m)
        gain = array_factor_from_phases(phases, channel.IDEAL_PHASES)
        assert abs(gain) ** 2 == float(m) ** 2

    def test_single_element_any_quantization(self):
        for bits in (1, 2, 8, channel.IDEAL_PHASES):
            gain = array_factor_from_phases([1.2345], bits)
            assert abs(gain) == pytest.approx(1.0)

    def test_one_bit_efficiency_matches_brute_force(self):
        eff = _brute_force_efficiency(100, 1, 10_000, seed=5)
        assert abs(eff - (2 / math.pi) ** 2) < 0.01
        assert abs(channel.quantization_efficiency(1) - (2 / math.pi) ** 2) < 1e-12

    def test_efficiency_monotone_in_bits(self):
        # common-random-numbers comparison across depths
        effs = [_brute_force_efficiency(64, b, 2_000, seed=6) for b in (1, 2, 3, 4, 5, 6)]
        assert all(a < b for a, b in zip(effs, effs[1:]))
        model_effs = [channel.quantization_efficiency(b) for b in (1, 2, 3, 4, 5, 6)]
        assert all(a < b for a, b in zip(model_effs, model_effs[1:]))
        assert channel.quantization_efficiency(channel.IDEAL_PHASES) == 1.0
        for emp, mod in zip(effs, model_effs):
            assert abs(emp - mod) < 0.02

    def test_bad_bits(self):
        with pytest.raises(ParameterError):
            channel.quantization_efficiency(0)
        with pytest.raises(ConfigError):
            NetworkConfig(m_elements=16, phase_bits=0)


class TestPeakReflectionPower:
    def test_reference_value(self):
        cfg = NetworkConfig(m_elements=100, beta=0.9, p_s=2.0, alpha=4.0)
        power = peak_reflection_power(cfg, fade_f1=1.0, r1=10.0)
        assert power == pytest.approx(0.9, rel=1e-12)

    def test_unit_configuration(self):
        cfg = NetworkConfig(m_elements=1, beta=1.0, p_s=2.0, alpha=4.0)
        assert peak_reflection_power(cfg, 1.0, 1.0) == pytest.approx(1.0)

    def test_doubling_elements_quadruples(self):
        small = NetworkConfig(m_elements=50, p_s=2.0, alpha=4.0)
        large = NetworkConfig(m_elements=100, p_s=2.0, alpha=4.0)
        ratio = peak_reflection_power(large, 0.7, 20.0) / peak_reflection_power(small, 0.7, 20.0)
        assert ratio == pytest.approx(4.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        f1=st.floats(1e-3, 20.0), beta=st.floats(0.05, 1.0),
        scale=st.floats(0.5, 4.0), r1=st.floats(0.5, 200.0),
    )
    def test_linearity_and_homogeneity(self, f1, beta, scale, r1):
        cfg = NetworkConfig(m_elements=10, beta=beta, p_s=2.0, alpha=4.0)
        base = peak_reflection_power(cfg, f1, r1)
        assert peak_reflection_power(cfg, scale * f1, r1) == pytest.approx(
            scale * base, rel=1e-9
        )
        assert peak_reflection_power(cfg, f1, scale * r1) == pytest.approx(
            scale**-4.0 * base, rel=1e-9
        )
        half = NetworkConfig(m_elements=10, beta=beta / 2, p_s=2.0, alpha=4.0)
        assert peak_reflection_power(half, f1, r1) == pytest.approx(
            base / 2, rel=1e-9
        )


class TestFadeMoment:
    def test_alpha2_reduces_to_mean(self):
        assert fade_fractional_moment(1.0, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert fade_fractional_moment(2.0, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_alpha4_is_gamma_three_halves(self):
        assert fade_fractional_moment(1.0, 4.0) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-12
        )

    def test_alpha4_against_sampling(self):
        rng = np.random.default_rng(13)
        draws = rng.exponential(1.0, 1_000_000)
        assert abs(np.sqrt(draws).mean() - fade_fractional_moment(1.0, 4.0)) < 0.005


class TestRawMoment:
    def test_increasing_in_ris_density(self):
        grid = [500.0, 1000.0, 1e4, 5e4]
        vals = [
            channel.reflected_power_raw_moment(
                deployment(lambda_ris=lr, m_elements=100, beta=0.9, p_s=2.0, mu=1.0, alpha=4.0,
                           epsilon_floor=1.0)
            )
            for lr in grid
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_composes_prefactor_and_moment(self):
        cfg = deployment(m_elements=100, beta=0.9, p_s=2.0, mu=1.0, alpha=4.0, epsilon_floor=1.0)
        val = channel.reflected_power_raw_moment(cfg)
        expected = (
            math.sqrt(100**2 * 0.9 * 2.0 / 2.0)
            * fade_fractional_moment(1.0, 4.0)
            * geometry.expected_inv_r1_pow(2.0, LAM_BS, LAM_RIS, 1.0)
        )
        assert val == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_raw_moment(self):
        # oracle: E[(P_RIS/mu)^{2/a}] from scenario draws with the same floor
        p_s, mu, alpha, eps = 2.0, 1.0, 4.0, 1.0
        analytic = channel.reflected_power_raw_moment(
            deployment(m_elements=100, beta=0.9, p_s=p_s, mu=mu, alpha=alpha, epsilon_floor=eps)
        )
        rng = np.random.default_rng(17)
        total, n_pairs, n_angles, batch = 0.0, 100_000, 256, 5_000
        done = 0
        while done < n_pairs:
            m = min(batch, n_pairs - done)
            r0 = rng.rayleigh(1.0 / math.sqrt(2 * math.pi * LAM_BS), m)[:, None]
            r2 = rng.rayleigh(1.0 / math.sqrt(2 * math.pi * LAM_RIS), m)[:, None]
            f1 = rng.exponential(1.0 / mu, m)[:, None]
            phi = rng.uniform(0, math.pi, (m, n_angles))
            r1 = np.sqrt(r0**2 + r2**2 - 2 * r0 * r2 * np.cos(phi))
            p_ris = 100**2 * 0.9 * (p_s / 2) * f1 * r1**-alpha
            total += float(np.sum(np.where(r1 >= eps, (p_ris / mu) ** (2 / alpha), 0.0))) / n_angles
            done += m
        oracle = total / n_pairs
        assert abs(analytic - oracle) / oracle < 0.05


class TestMeanReflectedPower:
    def test_reference_power_trends(self):
        # increasing in reflector density, decreasing as base density drops
        args = dict(m_elements=100, beta=1.0, p_s=2.0, mu=1.0, alpha=4.0, epsilon_floor=1.0)
        by_ris = [
            channel.mean_reflected_power(deployment(lambda_ris=lr, **args))
            for lr in (500.0, 1000.0, 4000.0)
        ]
        assert all(a < b for a, b in zip(by_ris, by_ris[1:]))
        by_bs = [
            channel.mean_reflected_power(deployment(lambda_bs=lb, **args))
            for lb in (10.0, 25.0, 100.0)
        ]
        assert all(a < b for a, b in zip(by_bs, by_bs[1:]))

    def test_doubling_elements_quadruples(self):
        args = dict(beta=1.0, p_s=2.0, mu=1.0, alpha=4.0, epsilon_floor=1.0)
        ratio = channel.mean_reflected_power(deployment(m_elements=100, **args)) / \
            channel.mean_reflected_power(deployment(m_elements=50, **args))
        assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_matches_importance_sampled_average(self):
        # oracle: average peak reflected power over scenario draws with the
        # identical floor; the inverse-distance part needs importance
        # sampling (rare near-coincident geometries dominate the moment)
        from oracle_helpers import floored_inv_pow_is_oracle
        p_s, mu, alpha, eps = 2.0, 1.0, 4.0, 1.0
        analytic = channel.mean_reflected_power(
            deployment(m_elements=100, beta=1.0, p_s=p_s, mu=mu, alpha=alpha, epsilon_floor=eps)
        )
        inv_moment = floored_inv_pow_is_oracle(alpha, LAM_BS, LAM_RIS, eps, seed=19)
        oracle = 100**2 * 1.0 * (p_s / 2) * (1.0 / mu) * inv_moment
        assert abs(analytic - oracle) / oracle < 0.05
