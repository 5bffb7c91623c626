"""Coverage reads the deployment only through its dimensionless groups.

With ``alpha``, ``N`` and the thresholds fixed, every coverage number depends
on the deployment through three groups of :class:`riscov.config.NetworkConfig`
only: the density ratio ``rho = lambda_ris / lambda_bs``, ``K = mu / (G * (pi
* lambda_bs)**(alpha/2))`` with ``G = M**2 * beta`` times the phase efficiency,
and the floor ``eps * sqrt(pi * lambda_bs)``. Scaling both densities by
``k``, ``mu`` by ``k**(alpha/2)`` and ``eps`` by ``k**(-1/2)`` keeps all three,
and so does trading ``M`` against ``beta`` at a fixed ``M**2 * beta``. Under
each such change every Monte-Carlo estimate and every closed form must stay
the same, up to the rounding of the groups' logs.
"""
from __future__ import annotations

import numpy as np
import pytest

from riscov import analytic, cli, montecarlo
from riscov.config import NetworkConfig

REL_TOL = 1e-12


def scaled(cfg: NetworkConfig, k: float) -> NetworkConfig:
    return cfg.replace(
        lambda_bs=cfg.lambda_bs * k, lambda_ris=cfg.lambda_ris * k,
        mu=cfg.mu * k ** (cfg.alpha / 2.0), epsilon_floor=cfg.epsilon_floor * k**-0.5,
    )


def every_number(cfg: NetworkConfig) -> np.ndarray:
    """Each estimate's probability, half-width and trial count, then each gated closed form."""
    estimates = list(montecarlo.run(cfg).values())
    thresholds = np.asarray(cfg.thresholds_linear)
    closed = [getattr(analytic, g.closed_form)(cfg, thresholds) for g in cli.GATES]
    return np.concatenate([np.ravel(estimates), np.ravel(closed)])


BASES = {
    "alpha-4": NetworkConfig(n_trials=20_000),
    "alpha-3": NetworkConfig(n_trials=20_000, alpha=3.0, n_elements=64, lambda_ris=1000.0),
}

CHANGES = {
    "k-1e-3": lambda cfg: scaled(cfg, 1e-3),
    "k-10": lambda cfg: scaled(cfg, 10.0),
    "k-1e6": lambda cfg: scaled(cfg, 1e6),
    "M-300": lambda cfg: cfg.replace(m_elements=3 * cfg.m_elements, beta=cfg.beta / 9.0),
    "M-1000": lambda cfg: cfg.replace(m_elements=10 * cfg.m_elements, beta=cfg.beta / 100.0),
}


@pytest.fixture(scope="module")
def base_numbers() -> dict:
    return {name: every_number(cfg) for name, cfg in BASES.items()}


@pytest.mark.parametrize("change", list(CHANGES))
@pytest.mark.parametrize("base", list(BASES))
def test_group_preserving_changes_keep_every_number(base_numbers, base, change):
    cfg = CHANGES[change](BASES[base])
    original = BASES[base]
    assert cfg != original
    for group in ("log_rho", "log_k_per_alpha", "log_floor"):
        assert getattr(cfg, group) == pytest.approx(getattr(original, group), rel=1e-13, abs=1e-13)
    np.testing.assert_allclose(every_number(cfg), base_numbers[base], rtol=REL_TOL, atol=0)
