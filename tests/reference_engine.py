"""Brute-force reference simulator that the lattice engine is checked against.

It samples the same model one trial at a time: both Poisson fields are
dropped as point arrays on a disc around the user at the origin (about
``WINDOW_TARGET_POINTS`` expected points each, so a field is empty with
probability e**-2000), every base gets a thinning uniform and a fade, the
nearest base serves, and the SIRs are evaluated per trial. Transmit power
cancels and never appears. Interference from beyond the window is dropped:
about 2% of the mean at alpha = 3, more as alpha nears 2.

Trial ``k`` of a run is a pure function of ``(master_seed, k)``.
"""
from __future__ import annotations

import math

import numpy as np

from oracle_helpers import reflection_gain
from riscov.config import KM2_TO_M2, NetworkConfig

# Expected point count of a sampling window.
WINDOW_TARGET_POINTS = 2000.0


def window_radius(intensity: float) -> float:
    """Radius of the disc that holds ``WINDOW_TARGET_POINTS`` expected points of the given intensity."""
    return math.sqrt(WINDOW_TARGET_POINTS / (math.pi * intensity))


def sample_ppp(intensity: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """The ``(n, 2)`` points of a homogeneous PPP on the disc of the given radius.

    The count is Poisson with mean ``intensity * pi * radius**2``; a point's
    radius is the disc's times the root of a uniform, its angle uniform.
    """
    n = int(rng.poisson(intensity * math.pi * radius**2))
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def drop(cfg: NetworkConfig, k: int):
    """Trial ``k``'s ``(bs, ris, marks, fades)``.

    ``bs`` and ``ris`` are the base and reflector positions; ``marks`` are the
    single- and split-beam retention marks of every base, each base kept at
    the analysis' probability by one uniform; ``fades`` are ``(g, f1, h)``,
    one ``g`` per base. Draw order: base count, radii and angles; reflector
    count, radii and angles; the thinning uniforms; ``g``, ``f1`` and ``h``.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, k)))
    bs, ris = (sample_ppp(lam * KM2_TO_M2, window_radius(lam * KM2_TO_M2), rng)
               for lam in (cfg.lambda_bs, cfg.lambda_ris))
    u = rng.random(len(bs))
    marks = (u < 1.0 / math.sqrt(cfg.n_elements), u < math.sqrt(2.0 / cfg.n_elements))
    g = rng.exponential(1.0 / cfg.mu, len(bs))
    f1 = float(rng.exponential(1.0 / cfg.mu))
    h = float(rng.exponential(1.0 / cfg.mu))
    return bs, ris, marks, (g, f1, h)


def sirs(cfg: NetworkConfig, bs, ris, marks, fades) -> tuple[float, float, float]:
    """One drop's ``(sir_o, sir_a, sir_b)``; ``ris`` must not be empty.

    The nearest base serves and is no interferer; ``sir_o`` sums the
    single-beam marks' interference and ``sir_a`` and ``sir_b`` the
    split-beam marks'. The nearest reflector is engaged iff it is closer to
    the user than the serving base; ``sir_b`` is nan unless it is, and a
    drop with no interferer gives inf.
    """
    g, f1, h = fades
    radii = np.hypot(bs[:, 0], bs[:, 1])
    serving = int(np.argmin(radii))
    r0 = float(radii[serving])
    kept = [m & (np.arange(len(bs)) != serving) for m in marks]
    i_o, i_a = (float(np.sum(g[m] * radii[m] ** -cfg.alpha)) for m in kept)
    signal = g[serving] * r0**-cfg.alpha
    sir_o, sir_a = (signal / i if i > 0 else math.inf for i in (i_o, i_a))
    ris_radii = np.hypot(ris[:, 0], ris[:, 1])
    nearest = int(np.argmin(ris_radii))
    r2 = float(ris_radii[nearest])
    if not r2 < r0:
        return sir_o, sir_a, math.nan
    r1 = float(np.hypot(*(bs[serving] - ris[nearest])))
    signal_b = reflection_gain(cfg, f1, r1) * h * r2**-cfg.alpha
    return sir_o, sir_a, signal_b / i_a if i_a > 0 else math.inf


def reference_sirs(cfg: NetworkConfig) -> dict[str, np.ndarray]:
    """Per-trial ``sir_o``, ``sir_a`` and ``sir_b`` (nan when not engaged) of a run."""
    columns = np.array([sirs(cfg, *drop(cfg, k)) for k in range(cfg.n_trials)]).T.copy()
    return dict(zip(("sir_o", "sir_a", "sir_b"), columns))
