"""Analytic distance distributions of the Poisson network model.

Everything here is expressed in SI units (meters, points per square meter).
The nearest-neighbor distance of a homogeneous PPP of intensity ``lam`` is
Rayleigh-distributed with density ``2*pi*lam*r*exp(-pi*lam*r**2)``; the
distributions of the serving-link distance, the reflector-link distance and
the base-to-reflector distance are all built from that single fact plus the
law of cosines.

The nearest base and the nearest reflector sit at independent isotropic
Gaussian positions with variances ``1/(2*pi*lambda_bs)`` and
``1/(2*pi*lambda_ris)``, so their separation ``r1`` is exactly Rayleigh with
intensity ``lambda_eff = lambda_bs * lambda_ris / (lambda_bs + lambda_ris)``.
Hence the unconditional ``r1`` density is that Rayleigh density, and the
floored moments are ``E[r1**-p ; r1 >= eps] = (pi*lambda_eff)**(p/2) *
Gamma(1 - p/2, pi*lambda_eff*eps**2)``. Two quantities are still integrated
numerically: the ``r1`` law restricted to realizations with the reflector
closer than the base (not Gaussian), and ``expected_r1``, kept as a
truncated quadrature so its output matches earlier releases (the exact value
is ``0.5 / sqrt(lambda_eff)``). Both load SciPy's integrators on first use:
``scipy.integrate`` drags in ``scipy.optimize`` and costs about 0.4 s to
import, which no other code path needs to pay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import (
    DomainError,
    NumericalError,
    ParameterError,
    SingularPointError,
)

# Mass discarded when truncating a semi-infinite Rayleigh-weighted integral:
# the outer integration limit is the 1 - TAIL_MASS quantile.
TAIL_MASS = 1e-6


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not np.isfinite(value) or value <= 0:
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")


def rayleigh_tail_radius(intensity: float, tail: float = TAIL_MASS) -> float:
    """Radius below which a nearest-neighbor distance falls with prob. 1 - tail."""
    _check_positive(intensity=intensity)
    return math.sqrt(-math.log(tail) / (math.pi * intensity))


# ---------------------------------------------------------------------------
# closed-form nearest-neighbor densities
# ---------------------------------------------------------------------------

def _rayleigh_pdf(r, intensity: float):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("distance must be nonnegative")
    out = 2.0 * math.pi * intensity * r * np.exp(-math.pi * intensity * r**2)
    return out if out.ndim else float(out)


def _rayleigh_cdf(r, intensity: float):
    r = np.asarray(r, dtype=float)
    out = 1.0 - np.exp(-math.pi * intensity * np.clip(r, 0.0, None) ** 2)
    return out if out.ndim else float(out)


def pdf_r0(r, lambda_bs: float):
    """Density of the distance to the nearest base station."""
    _check_positive(lambda_bs=lambda_bs)
    return _rayleigh_pdf(r, lambda_bs)


def pdf_r2(r, lambda_ris: float):
    """Density of the distance to the nearest reflector."""
    _check_positive(lambda_ris=lambda_ris)
    return _rayleigh_pdf(r, lambda_ris)


def pdf_r2_given_closer(r, lambda_ris: float, lambda_bs: float):
    """Density of the nearest-reflector distance given it beats the nearest base.

    Equals the nearest-neighbor law of the superposed process, intensity
    ``lambda_ris + lambda_bs``; for ``lambda_ris >> lambda_bs`` it collapses
    onto :func:`pdf_r2`.
    """
    _check_positive(lambda_ris=lambda_ris, lambda_bs=lambda_bs)
    return _rayleigh_pdf(r, lambda_ris + lambda_bs)


def prob_ris_closer(lambda_ris: float, lambda_bs: float) -> float:
    """Probability that the nearest reflector is closer than the nearest base."""
    _check_positive(lambda_ris=lambda_ris, lambda_bs=lambda_bs)
    return lambda_ris / (lambda_ris + lambda_bs)


# ---------------------------------------------------------------------------
# base-to-reflector distance r1
# ---------------------------------------------------------------------------
#
# With the serving base at distance r0 and the reflector at distance r2 from
# the origin, the angle between them is uniform, so the side r1 follows the
# arccos law below, supported on [|r0 - r2|, r0 + r2] with inverse-square-root
# singularities at both endpoints.

def _r1_support(r0: float, r2: float) -> tuple[float, float]:
    return abs(r0 - r2), r0 + r2


def _r1_intensity(lambda_bs: float, lambda_ris: float) -> float:
    """Rayleigh intensity of the unconditional base-to-reflector distance."""
    return lambda_bs * lambda_ris / (lambda_bs + lambda_ris)


def pdf_r1_conditional(r1: float, r0: float, r2: float) -> float:
    """Density of the base-to-reflector distance for fixed ``r0`` and ``r2``."""
    _check_positive(r0=r0, r2=r2)
    lo, hi = _r1_support(r0, r2)
    if r1 < lo or r1 > hi:
        raise DomainError(f"r1={r1} outside the support [{lo}, {hi}]")
    cos_term = (r0**2 + r2**2 - r1**2) / (2.0 * r0 * r2)
    sin_sq = 1.0 - cos_term**2
    if sin_sq <= 0.0:
        raise SingularPointError(
            f"r1={r1} sits on a support endpoint; use an open quadrature rule"
        )
    return r1 / (math.pi * r0 * r2 * math.sqrt(sin_sq))


# Composite Gauss-Legendre rule with panels refined geometrically toward one
# endpoint; used for inner angle integrals whose integrand peaks there.
_PANEL_RATIOS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.6, 1.0)


@lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _refined_panel_nodes(a: float, b: float, order: int = 32):
    """Nodes/weights covering [a, b] with panels clustered toward ``a``."""
    x, w = _gauss_nodes(order)
    edges = a + (b - a) * np.asarray(_PANEL_RATIOS)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w[None, :]).ravel()
    return nodes, weights


def _pdf_r1_given_r0(r1: float, r0: float, lambda_ris: float, psi_max: float = math.pi) -> float:
    """Reflector-position integral of ``pdf_r1_conditional * pdf_r2``.

    Parametrized by the triangle angle at the base station, which turns the
    singular-endpoint r2 integral into a smooth one on [0, psi_max]:
    ``r2(psi)**2 = r0**2 + r1**2 - 2*r0*r1*cos(psi)``.
    """
    psi, w = _refined_panel_nodes(0.0, psi_max)
    r2_sq = r0**2 + r1**2 - 2.0 * r0 * r1 * np.cos(psi)
    vals = 2.0 * lambda_ris * r1 * np.exp(-math.pi * lambda_ris * r2_sq)
    return float(np.dot(w, vals))


def pdf_r1_marginal(
    r1: float,
    lambda_bs: float,
    lambda_ris: float,
    mode: str = "unconditional",
    epsrel: float = 1e-8,
) -> float:
    """Marginal density of the base-to-reflector distance.

    ``mode='unconditional'`` is the exact Rayleigh density at
    ``lambda_eff`` (see the module docstring). ``mode='engaged'`` restricts to
    realizations with the reflector closer than the base (``r2 < r0``),
    renormalizes, and integrates the conditional law numerically.
    """
    _check_positive(lambda_bs=lambda_bs, lambda_ris=lambda_ris)
    if r1 <= 0:
        raise ParameterError(f"r1 must be positive, got {r1!r}")
    if mode not in ("unconditional", "engaged"):
        raise ParameterError(f"unknown mode {mode!r}")

    if mode == "unconditional":
        return _rayleigh_pdf(r1, _r1_intensity(lambda_bs, lambda_ris))

    from scipy import integrate  # deferred, see the module docstring

    def outer(r0):
        # r2 < r0 caps the base-station angle at arccos(r1 / (2 r0))
        c = r1 / (2.0 * r0)
        if c >= 1.0:
            return 0.0
        psi_max = math.acos(c)
        return pdf_r0(r0, lambda_bs) * _pdf_r1_given_r0(r1, r0, lambda_ris, psi_max)

    value, abserr = integrate.quad(
        outer, 0.0, rayleigh_tail_radius(lambda_bs), epsabs=1e-14, epsrel=epsrel, limit=200
    )
    if value > 0 and abserr > max(1e-12, 1e-4 * value):
        raise NumericalError(
            f"pdf_r1_marginal quadrature did not converge at r1={r1}",
            achieved_tolerance=abserr,
        )
    return value / prob_ris_closer(lambda_ris, lambda_bs)


def _conditional_mean_r1(r0, r2):
    """Mean of r1 for fixed (r0, r2): complete elliptic reduction of the angle integral."""
    s = r0 + r2
    m = 4.0 * r0 * r2 / s**2
    return (2.0 * s / math.pi) * special.ellipe(m)


@lru_cache(maxsize=256)
def expected_r1(lambda_bs: float, lambda_ris: float, rel_tol: float = 1e-3) -> float:
    """Mean base-to-reflector distance, by nested quadrature."""
    from scipy import integrate  # deferred, see the module docstring

    _check_positive(lambda_bs=lambda_bs, lambda_ris=lambda_ris)
    r0_max = rayleigh_tail_radius(lambda_bs)
    r2_max = rayleigh_tail_radius(lambda_ris)

    def inner(r2, r0):
        return pdf_r2(r2, lambda_ris) * _conditional_mean_r1(r0, r2)

    def outer(r0):
        val, _ = integrate.quad(
            inner, 0.0, r2_max, args=(r0,), epsabs=1e-13, epsrel=1e-9, limit=100
        )
        return pdf_r0(r0, lambda_bs) * val

    # outer tolerance stays coarser than the inner one: the integrand carries
    # the inner quadrature's noise floor
    value, abserr = integrate.quad(outer, 0.0, r0_max, epsabs=1e-12, epsrel=1e-6, limit=200)
    if value <= 0 or abserr > rel_tol * value:
        raise NumericalError(
            "expected_r1 quadrature did not converge", achieved_tolerance=abserr
        )
    return float(value)


def _scaled_upper_gamma(a: float, x: float) -> float:
    """``x**-a * Gamma(a, x)`` for real ``a < 1`` and ``x > 0``.

    SciPy's regularized form only covers ``a > 0``; below that the recurrence
    ``Gamma(a, x) = (Gamma(a + 1, x) - x**a * exp(-x)) / a`` steps down from
    ``a + n`` in ``[0, 1)``, starting at ``Gamma(0, x) = E1(x)`` for integer
    ``a``. Carrying the factor ``x**-a`` keeps every step finite however
    negative ``a`` is.
    """
    steps = max(0, math.ceil(-a))
    base = a + steps
    if base == 0:
        h = float(special.exp1(x))
    else:
        h = float(x**-base * special.gamma(base) * special.gammaincc(base, x))
    for k in range(steps - 1, -1, -1):
        h = (x * h - math.exp(-x)) / (a + k)
    return h


def expected_inv_r1_pow(
    power: float, lambda_bs: float, lambda_ris: float, epsilon_floor: float = 1.0
) -> float:
    """``E[r1**-power]`` with contributions below the floor distance discarded.

    The floor keeps the moment finite for ``power >= 2``: without it the
    near-coincidence of the base and the reflector makes the integral diverge.
    """
    _check_positive(
        power=power, lambda_bs=lambda_bs, lambda_ris=lambda_ris,
        epsilon_floor=epsilon_floor,
    )
    # (pi*lambda_eff)**(p/2) * Gamma(1 - p/2, x) with x = pi*lambda_eff*eps**2
    scale = math.pi * _r1_intensity(lambda_bs, lambda_ris)
    try:
        value = scale * epsilon_floor ** (2.0 - power) * _scaled_upper_gamma(
            1.0 - 0.5 * power, scale * epsilon_floor**2
        )
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(
            f"E[r1**-{power:g}] with floor {epsilon_floor:g} m exceeds the float range"
        )
    return value


# ---------------------------------------------------------------------------
# distance-law façade
# ---------------------------------------------------------------------------

_LAW_KINDS = ("r0", "r2", "r2_given_closer", "r1_conditional", "r1_marginal")


@dataclass(frozen=True)
class DistanceLaw:
    """Uniform handle over the five analytic distance distributions.

    ``params`` carries the densities (per m^2) and, for the conditional law,
    the fixed distances. Unlike the scalar evaluators, ``pdf`` zero-extends
    outside the support so it can be applied to whole grids.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise ParameterError(f"unknown distance-law kind {self.kind!r}")

    def support(self) -> tuple[float, float]:
        if self.kind == "r1_conditional":
            return _r1_support(self.params["r0"], self.params["r2"])
        return 0.0, math.inf

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        p = self.params
        if self.kind == "r0":
            out = np.where(r >= 0, _rayleigh_pdf(np.clip(r, 0, None), p["lambda_bs"]), 0.0)
        elif self.kind == "r2":
            out = np.where(r >= 0, _rayleigh_pdf(np.clip(r, 0, None), p["lambda_ris"]), 0.0)
        elif self.kind == "r2_given_closer":
            lam = p["lambda_ris"] + p["lambda_bs"]
            out = np.where(r >= 0, _rayleigh_pdf(np.clip(r, 0, None), lam), 0.0)
        elif self.kind == "r1_conditional":
            r0, r2 = p["r0"], p["r2"]
            lo, hi = _r1_support(r0, r2)
            cos_term = (r0**2 + r2**2 - r**2) / (2.0 * r0 * r2)
            sin_sq = 1.0 - cos_term**2
            inside = (r > lo) & (r < hi) & (sin_sq > 0)
            out = np.zeros_like(r)
            out[inside] = r[inside] / (math.pi * r0 * r2 * np.sqrt(sin_sq[inside]))
        else:  # r1_marginal
            mode = p.get("mode", "unconditional")
            out = np.array([
                pdf_r1_marginal(x, p["lambda_bs"], p["lambda_ris"], mode=mode)
                if x > 0 else 0.0
                for x in r
            ])
        return float(out[0]) if scalar else out

    def cdf(self, r):
        if self.kind == "r0":
            return _rayleigh_cdf(r, self.params["lambda_bs"])
        if self.kind == "r2":
            return _rayleigh_cdf(r, self.params["lambda_ris"])
        if self.kind == "r2_given_closer":
            return _rayleigh_cdf(r, self.params["lambda_ris"] + self.params["lambda_bs"])
        raise NotImplementedError(f"no closed-form CDF for kind {self.kind!r}")

    def mean(self) -> float:
        if self.kind == "r0":
            return 0.5 / math.sqrt(self.params["lambda_bs"])
        if self.kind == "r2":
            return 0.5 / math.sqrt(self.params["lambda_ris"])
        if self.kind == "r2_given_closer":
            return 0.5 / math.sqrt(self.params["lambda_ris"] + self.params["lambda_bs"])
        if self.kind == "r1_marginal":
            return expected_r1(self.params["lambda_bs"], self.params["lambda_ris"])
        raise NotImplementedError(f"no mean shortcut for kind {self.kind!r}")
