"""Scalar, windowed reference simulator that the vectorized engine is checked against.

It samples the same model by brute force, one trial at a time: both Poisson
fields are dropped as point sets on a finite disc around the user at the
origin (about ``WINDOW_TARGET_POINTS`` expected points each), the serving
base and the nearest reflector are found by ``argmin``, every base gets an
explicit thinning mark and fade, and the SIRs are evaluated per trial.
Interference from beyond the window is dropped: about 2% of the mean at
alpha = 3, more as alpha nears 2.

Every trial is a pure function of ``(master_seed, trial_index)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oracle_helpers import reflection_gain
from riscov.config import KM2_TO_M2, NetworkConfig

# Expected point count of a sampling window.
WINDOW_TARGET_POINTS = 2000.0

MAX_EMPTY_REDRAWS = 100


class EmptyScenarioError(RuntimeError):
    """A point process realization came up empty after the bounded retry budget."""


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def window_radius(intensity: float) -> float:
    """Sampling disc radius for a process of the given intensity.

    The larger of 10x the mean nearest-neighbor distance ``1/(2*sqrt(lam))``
    and the radius giving an expected ``WINDOW_TARGET_POINTS`` points.
    """
    _check_positive(intensity=intensity)
    by_mean_distance = 10.0 * 0.5 / math.sqrt(intensity)
    by_point_count = math.sqrt(WINDOW_TARGET_POINTS / (math.pi * intensity))
    return max(by_mean_distance, by_point_count)


@dataclass(frozen=True, eq=False)
class PointSet:
    """One realization of a planar point process on a disc around the origin.

    ``points`` is an (n, 2) float array; every point lies within
    ``window_radius`` of the origin. Origin distances are precomputed once.
    """

    points: np.ndarray
    intensity: float
    window_radius: float

    def __post_init__(self):
        _check_positive(intensity=self.intensity, window_radius=self.window_radius)
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        object.__setattr__(self, "_origin_radii", radii)
        # 1 ulp of slack for points sampled exactly on the rim
        if len(pts) and radii.max() > self.window_radius * (1 + 1e-12):
            raise ValueError("point outside the sampling window")

    def __len__(self) -> int:
        return len(self.points)

    def radii(self, origin=None) -> np.ndarray:
        if origin is None:
            return self._origin_radii
        d = self.points - np.asarray(origin, dtype=float)
        return np.hypot(d[:, 0], d[:, 1])


def sample_ppp(intensity: float, window_radius: float, rng: np.random.Generator) -> PointSet:
    """Draw a homogeneous PPP on the disc of the given radius.

    The count is Poisson with mean ``intensity * pi * radius**2`` and the
    positions are uniform on the disc; fully determined by ``rng``'s state.
    """
    _check_positive(intensity=intensity, window_radius=window_radius)
    mean_count = intensity * math.pi * window_radius**2
    n = int(rng.poisson(mean_count))
    # uniform on the disc: radius via sqrt of a uniform, independent angle
    r = window_radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    pts = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return PointSet(points=pts, intensity=intensity, window_radius=window_radius)


def sample_ppp_nonempty(
    intensity: float,
    window_radius: float,
    rng: np.random.Generator,
    max_redraws: int = MAX_EMPTY_REDRAWS,
) -> PointSet:
    """Like :func:`sample_ppp` but redraws (bounded) on an empty realization."""
    for _ in range(max_redraws + 1):
        ps = sample_ppp(intensity, window_radius, rng)
        if len(ps):
            return ps
    raise EmptyScenarioError(
        f"point process still empty after {max_redraws} redraws "
        f"(intensity={intensity}, window_radius={window_radius}); enlarge the window"
    )


def nearest_point(point_set: PointSet, origin=None) -> tuple[int, float]:
    """Index and distance of the point closest to ``origin`` (default: UE at 0).

    Exact ties (measure zero) break toward the lowest insertion index, which
    is what ``argmin`` does.
    """
    if not len(point_set):
        raise EmptyScenarioError("nearest_point on an empty point set")
    radii = point_set.radii(origin)
    idx = int(np.argmin(radii))
    return idx, float(radii[idx])


def nearest_distance(point_set: PointSet, origin=None) -> float:
    return nearest_point(point_set, origin)[1]


# ---------------------------------------------------------------------------
# one drop
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Fades:
    """Per-link exponential power gains of one trial."""

    g: np.ndarray  # one per base station; index of the serving base is g0
    f1: float      # base-to-reflector
    h: float       # reflector-to-user


@dataclass(frozen=True, eq=False)
class Scenario:
    """One realized drop; all downstream SIRs are deterministic given this."""

    bs_points: PointSet
    ris_points: PointSet
    serving_bs_index: int
    nearest_ris_index: int | None
    engaged_ris_index: int | None
    r0: float
    r2: float  # nan when the reflector process is empty
    r1: float  # nan when the reflector process is empty
    fades: Fades
    retained_single: np.ndarray  # interferers surviving single-beam thinning
    retained_split: np.ndarray   # interferers surviving split-beam thinning
    trial_index: int


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent substream for one trial, stable across chunking/workers."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index)))


def drop_scenario(cfg: NetworkConfig, trial_index: int, lobes: str = "thinning") -> Scenario:
    """Sample one scenario: processes, associations, thinning, fades.

    ``lobes`` is ``"thinning"`` (each interferer kept at the retention
    probability) or ``"explicit"`` (each interferer's main lobe drawn). Draw
    order: base count/radii/angles, reflector count/radii/angles, lobe draws,
    base fades, reflector-link fades, user-link fade.
    """
    rng = trial_rng(cfg.master_seed, trial_index)

    lam_bs = cfg.lambda_bs * KM2_TO_M2
    lam_ris = cfg.lambda_ris * KM2_TO_M2
    try:
        bs = sample_ppp_nonempty(lam_bs, window_radius(lam_bs), rng)
    except EmptyScenarioError as exc:
        raise EmptyScenarioError(f"trial {trial_index}: {exc}") from exc
    ris = sample_ppp(lam_ris, window_radius(lam_ris), rng)

    n_bs = len(bs)
    if lobes == "thinning":
        # independent thinning at exactly the analysis' retention probability
        u = rng.random(n_bs)
        single = u < 1.0 / math.sqrt(cfg.n_elements)
        split = u < math.sqrt(2.0 / cfg.n_elements)
    elif lobes == "explicit":
        # explicit main lobes: retained iff the beam covers the user
        boresight = 2.0 * math.pi * rng.random(n_bs)
        to_user = np.arctan2(-bs.points[:, 1], -bs.points[:, 0])
        off = np.abs((boresight - to_user + math.pi) % (2.0 * math.pi) - math.pi)
        psi_single = 2.0 * math.pi / math.sqrt(cfg.n_elements)
        psi_split = 2.0 * math.sqrt(2.0) * math.pi / math.sqrt(cfg.n_elements)
        single = off <= psi_single / 2.0
        split = off <= psi_split / 2.0
    else:
        raise ValueError(f"lobes must be 'thinning' or 'explicit', got {lobes!r}")

    g = rng.exponential(1.0 / cfg.mu, n_bs)
    f1 = float(rng.exponential(1.0 / cfg.mu))
    h = float(rng.exponential(1.0 / cfg.mu))

    return Scenario(bs_points=bs, ris_points=ris, fades=Fades(g=g, f1=f1, h=h), trial_index=trial_index,
                    **associate(bs, ris, single, split))


def associate(bs: PointSet, ris: PointSet, single: np.ndarray, split: np.ndarray) -> dict:
    """The :class:`Scenario` fields that association sets, given both point sets and the retention marks.

    The user is served by the nearest base; ``r1`` is the distance from that
    base to the nearest reflector, which is engaged iff it is closer to the
    user than the base (``r2 < r0``). The serving base is cleared from copies
    of both retained sets. With no reflector, ``r2`` and ``r1`` are nan.
    """
    serving, r0 = nearest_point(bs)
    single, split = np.array(single, dtype=bool), np.array(split, dtype=bool)
    single[serving] = split[serving] = False
    if len(ris):
        nearest_ris, r2 = nearest_point(ris)
        d = bs.points[serving] - ris.points[nearest_ris]
        r1 = float(np.hypot(d[0], d[1]))
        engaged = nearest_ris if r2 < r0 else None
    else:
        nearest_ris, r2, r1, engaged = None, math.nan, math.nan, None
    return dict(serving_bs_index=serving, nearest_ris_index=nearest_ris, engaged_ris_index=engaged,
                r0=r0, r2=r2, r1=r1, retained_single=single, retained_split=split)


# ---------------------------------------------------------------------------
# per-trial SIRs (transmit power cancels and never appears)
# ---------------------------------------------------------------------------

def _interference(s: Scenario, mask: np.ndarray, alpha: float) -> float:
    radii = s.bs_points.radii()[mask]
    if radii.size == 0:
        return 0.0
    return float(np.sum(s.fades.g[mask] * radii**-alpha))


def sir_baseline(s: Scenario, alpha: float) -> float:
    """Single-beam SIR; +inf when no interferer survived thinning."""
    i_sum = _interference(s, s.retained_single, alpha)
    signal = s.fades.g[s.serving_bs_index] * s.r0**-alpha
    return signal / i_sum if i_sum > 0 else math.inf


def sir_path_a(s: Scenario, alpha: float) -> float:
    """Split-beam direct-path SIR over the wider retained interferer set."""
    i_sum = _interference(s, s.retained_split, alpha)
    signal = s.fades.g[s.serving_bs_index] * s.r0**-alpha
    return signal / i_sum if i_sum > 0 else math.inf


def sir_path_b(s: Scenario, cfg: NetworkConfig) -> float | None:
    """Reflected-path SIR at the config's reflector bank, or None when no reflector is engaged."""
    if s.engaged_ris_index is None:
        return None
    gain = reflection_gain(cfg, s.fades.f1, s.r1)
    i_sum = _interference(s, s.retained_split, cfg.alpha)
    signal = gain * s.fades.h * s.r2**-cfg.alpha
    return signal / i_sum if i_sum > 0 else math.inf


def sir_selection(s: Scenario, cfg: NetworkConfig) -> float:
    """Selection diversity: the stronger of the two paths."""
    a = sir_path_a(s, cfg.alpha)
    b = sir_path_b(s, cfg)
    return a if b is None else max(a, b)


def reference_sirs(cfg: NetworkConfig) -> dict[str, np.ndarray]:
    """Per-trial ``sir_o``, ``sir_a`` and ``sir_b`` (nan when not engaged) of a run."""
    out = {name: np.empty(cfg.n_trials) for name in ("sir_o", "sir_a", "sir_b")}
    for k in range(cfg.n_trials):
        s = drop_scenario(cfg, k)
        out["sir_o"][k] = sir_baseline(s, cfg.alpha)
        out["sir_a"][k] = sir_path_a(s, cfg.alpha)
        b = sir_path_b(s, cfg)
        out["sir_b"][k] = math.nan if b is None else b
    return out
