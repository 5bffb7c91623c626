"""Channel model oracles: path loss, the power-density conversion's algebra,
peak reflection power, the fade moment's alpha = 2 limit and the raw moment
of the reflected power.

The conversion's distributional equivalence and the fade moment at alpha = 4
are acceptance criteria 7 and 8. The beam retentions and the
phase-quantization efficiency are tested with :mod:`riscov.config`, the mean
reflected power with :mod:`riscov.analytic`.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_helpers import (
    expected_inv_r1_pow,
    fade_fractional_moment,
    peak_reflection_power,
    power_density_convert,
    reflected_power_raw_moment,
    reflection_gain,
)
from riscov.config import NetworkConfig

LAM_BS = 2.5e-5
LAM_RIS = 1e-3


def deployment(**kw) -> NetworkConfig:
    """A config at LAM_BS and LAM_RIS, which configs take per km^2; overrides in config units."""
    return NetworkConfig(**{"lambda_bs": 25.0, "lambda_ris": 1000.0, **kw})


class TestPathLoss:
    # with a unit bank gain and a unit fade, the reflection gain is the path loss r1**-alpha
    UNIT_BANK = NetworkConfig(m_elements=1, beta=1.0, alpha=4.0)

    def path_loss(self, r1):
        return reflection_gain(self.UNIT_BANK, 1.0, r1)

    def test_unit_distance(self):
        assert self.path_loss(1.0) == 1.0

    def test_decade(self):
        assert self.path_loss(10.0) == pytest.approx(1e-4, rel=1e-12)

    def test_doubling_at_alpha4(self):
        d = 37.0
        assert self.path_loss(2 * d) == pytest.approx(self.path_loss(d) / 16)

    def test_domain_errors(self):
        # r1 is drawn, not configured, so reflection_gain still checks it
        for r1 in (0.0, -1.0, np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match="^r1 must be positive, got "):
                self.path_loss(r1)


class TestPowerDensityConversion:
    def test_unit_power_identity(self):
        assert power_density_convert(LAM_BS, 1.0, 1.0, 4.0) == LAM_BS

    def test_sixteenfold_power_at_alpha4(self):
        conv = power_density_convert(LAM_BS, 16.0, 1.0, 4.0)
        assert conv == pytest.approx(4 * LAM_BS, rel=1e-12)

    def test_invariant_field(self):
        # the fade rate normalizes the power before the 2/alpha scaling
        conv = power_density_convert(3e-4, 5.0, 2.0, 3.5)
        assert conv == pytest.approx((5.0 / 2.0) ** (2 / 3.5) * 3e-4, rel=1e-12)

    @settings(max_examples=50)
    @given(
        p=st.floats(0.1, 50.0), q=st.floats(0.1, 50.0),
        alpha=st.floats(2.1, 6.0),
    )
    def test_composition(self, p, q, alpha):
        one = power_density_convert(LAM_BS, p * q, 1.0, alpha)
        two = power_density_convert(
            power_density_convert(LAM_BS, p, 1.0, alpha), q, 1.0, alpha,
        )
        assert two == pytest.approx(one, rel=1e-9)


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

    @settings(max_examples=50)
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


class TestRawMoment:
    def test_increasing_in_ris_density(self):
        grid = [500.0, 1000.0, 1e4, 5e4]
        vals = [
            reflected_power_raw_moment(
                deployment(lambda_ris=lr, m_elements=100, beta=0.9, p_s=2.0, mu=1.0, alpha=4.0,
                           epsilon_floor=1.0)
            )
            for lr in grid
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_composes_prefactor_and_moment(self):
        cfg = deployment(m_elements=100, beta=0.9, p_s=2.0, mu=1.0, alpha=4.0, epsilon_floor=1.0)
        val = reflected_power_raw_moment(cfg)
        expected = (
            math.sqrt(100**2 * 0.9 * 2.0 / 2.0)
            * fade_fractional_moment(1.0, 4.0)
            * expected_inv_r1_pow(2.0, LAM_BS, LAM_RIS, 1.0)
        )
        assert val == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_raw_moment(self):
        # oracle: E[(P_RIS/mu)^{2/a}] from scenario draws with the same floor
        p_s, mu, alpha, eps = 2.0, 1.0, 4.0, 1.0
        analytic = reflected_power_raw_moment(
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
