"""Analytic distance distributions of the Poisson network model.

Distances and intensities are in any one unit of length, the densities per
its square: the engines and the ``e_r1`` sweep use the base spacing
``1/sqrt(pi*lambda_bs)``, the ``hist`` overlay kilometres.
Intensities and floors come from config fields, valid by construction, so
no function here re-checks them. The nearest-neighbor distance of a homogeneous
PPP of intensity ``lam`` is Rayleigh-distributed with density
``2*pi*lam*r*exp(-pi*lam*r**2)``; the distributions of the serving-link
distance, the reflector-link distance and the base-to-reflector distance are
all built from that single fact plus the law of cosines.

The nearest base and the nearest reflector sit at independent isotropic
Gaussian positions with variances ``1/(2*pi*lambda_bs)`` and
``1/(2*pi*lambda_ris)``, so their separation ``r1`` is exactly Rayleigh with
intensity ``lambda_eff = lambda_bs * lambda_ris / (lambda_bs + lambda_ris)``.
Hence the ``r1`` density is that Rayleigh density, and the floored moments
are ``E[r1**-p ; r1 >= eps] = (pi*lambda_eff)**(p/2) * Gamma(1 - p/2,
pi*lambda_eff*eps**2)``, whose log :func:`log_expected_inv_r1_pow` sums.

One quadrature is left: ``expected_r1``, kept as the truncated double
integral over ``r0 <= rayleigh_tail_radius(lambda_bs)`` and ``r2 <=
rayleigh_tail_radius(lambda_ris)`` so its output matches earlier releases
(the exact value is ``0.5 / sqrt(lambda_eff)``). It is one tensor-product
Gauss-Legendre rule, summed with ``math`` alone, whose nodes Newton's method
finds on the three-term recurrence of the Legendre polynomials, as in
Numerical Recipes' ``gauleg``. Each panel's nodes go through the map
``u -> (3u - u**3) / 2``, whose derivative vanishes at both ends, so a weak
singularity at a panel end costs little. The ``r2`` range splits at ``r2 =
r0``, where ``E(m)`` has its ``(1 - m) * log(1 - m)`` kink at ``m = 1``, and
the ``r0`` range splits at the end of the ``r2`` range when that lies inside
it. The complete elliptic integral ``E(m)`` is the arithmetic-geometric mean
of DLMF 19.8.6. No code in the package imports scipy, and this module
imports no numpy: numpy is the Monte-Carlo engine's dependency.

The upper incomplete gamma function is therefore summed here with ``math``
alone. At ``x >= 1``, Legendre's continued fraction
``Gamma(s, x) = exp(-x) * x**s / (x + 1 - s - 1*(1-s) / (x + 3 - s - ...))``
(DLMF 8.9.2), evaluated by the modified Lentz method; below 1, for ``s`` in
``[0, 1)``, ``Gamma(s, x) = Gamma(s, 1) + int_x^1 t**(s-1) * exp(-t) dt``,
whose integral is the exponential series integrated term by term (as in DLMF
8.7.3). Every term stays finite as ``s -> 0``, where the sum is ``E1(x)``,
so the case ``alpha -> 4`` needs no ``Gamma(s) - 1/s`` cancellation.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain

from .errors import NumericalError, ParameterError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPSILON = sys.float_info.epsilon

# Mass discarded when truncating a semi-infinite Rayleigh-weighted integral:
# the outer integration limit is the 1 - TAIL_MASS quantile.
TAIL_MASS = 1e-6


def rayleigh_tail_radius(intensity: float) -> float:
    """Radius below which a nearest-neighbor distance falls with prob. 1 - TAIL_MASS."""
    return math.sqrt(-math.log(TAIL_MASS) / (math.pi * intensity))


# ---------------------------------------------------------------------------
# closed-form nearest-neighbor density
# ---------------------------------------------------------------------------

def rayleigh_pdf(r: float, intensity: float) -> float:
    """Density of the distance to the nearest point of a Poisson field of ``intensity``.

    The serving distance ``r0`` follows it at ``lambda_bs``, the reflector
    distance ``r2`` at ``lambda_ris``, and the base-to-reflector distance
    ``r1`` at ``lambda_eff`` (see the module docstring).
    """
    if r < 0:
        raise ParameterError("distance must be nonnegative")
    # intensity * r first: r**2 overflows and pi * intensity rounds at a subnormal intensity
    return 2.0 * math.pi * (intensity * r) * math.exp(-math.pi * (intensity * r) * r)


# ---------------------------------------------------------------------------
# base-to-reflector distance r1
# ---------------------------------------------------------------------------

def _ellipe(m: float) -> float:
    """Complete elliptic integral of the second kind ``E(m)`` on ``[0, 1]``.

    By the arithmetic-geometric mean (DLMF 19.8.6): with ``a0 = 1``,
    ``b0 = sqrt(1 - m)`` and ``c_n = (a_{n-1} - b_{n-1}) / 2``,
    ``E(m) = pi / (2 * M(1, b0)) * (1 - sum_{n>=0} 2**(n-1) * c_n**2)``,
    where ``c_0**2 = m``. At ``m = 1`` that product is ``inf * 0``, so the
    limit ``E(1) = 1`` is set directly.
    """
    if m >= 1.0:
        return 1.0
    a, b = 1.0, math.sqrt(1.0 - m)
    total = 0.5 * m
    weight = 0.5
    while True:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        weight *= 2.0
        total += weight * c * c
        if not c > _EPSILON * a:  # a NaN m also ends the loop
            break
    return 0.5 * math.pi / a * (1.0 - total)


# Orders of the two rules whose agreement is the convergence check of
# expected_r1, and the relative gap it accepts; the finer one gives the value.
_R1_RULE_ORDERS = (24, 32)
_R1_REL_TOL = 1e-3
_NEWTON_MAX_STEPS = 100


def _legendre(order: int, x: float) -> tuple[float, float]:
    """``P_order(x)`` and its derivative, by Bonnet's recurrence, for ``|x| < 1``."""
    p_prev, p = 1.0, x
    for k in range(2, order + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _graded_gauss_legendre(order: int) -> tuple[tuple[float, float], ...]:
    """Gauss-Legendre ``(node, weight)`` pairs on ``[-1, 1]`` after ``u -> (3u - u**3) / 2``.

    Each node is the root of ``P_order`` that Newton's method reaches from
    ``cos(pi * (i + 3/4) / (order + 1/2))``; its weight is ``2 / ((1 - x**2) *
    P_order'(x)**2)`` at the root found.
    """
    rule = []
    for i in range(order):
        x = math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(_NEWTON_MAX_STEPS):
            p, slope = _legendre(order, x)
            step = p / slope
            x -= step
            if abs(step) <= _EPSILON:
                break
        else:
            raise NumericalError(f"Gauss-Legendre node {i} of order {order} did not converge")
        _, slope = _legendre(order, x)
        w = 2.0 / ((1.0 - x * x) * slope * slope)
        rule.append((0.5 * (3.0 * x - x**3), 1.5 * (1.0 - x * x) * w))
    return tuple(rule)


def _panel_rule(lo: float, hi: float, order: int):
    """Graded ``(node, weight)`` pairs on the panel ``[lo, hi]``."""
    half = 0.5 * (hi - lo)
    return ((lo + half * (1.0 + t), half * w) for t, w in _graded_gauss_legendre(order))


def _expected_r1_rule(
    lambda_bs: float, lambda_ris: float, r0_edges: list[float], r2_max: float, order: int
) -> float:
    """The truncated ``E[r1]`` integral by the tensor-product graded rule of one order."""
    total = 0.0
    for r0_lo, r0_hi in zip(r0_edges, r0_edges[1:]):
        for r0, w0 in _panel_rule(r0_lo, r0_hi, order):
            kink = min(r0, r2_max)
            inner = 0.0
            for r2, w2 in chain(_panel_rule(0.0, kink, order), _panel_rule(kink, r2_max, order)):
                s = r0 + r2
                mean_r1 = (2.0 / math.pi) * s * _ellipe(4.0 * r0 * r2 / s**2)
                inner += w2 * rayleigh_pdf(r2, lambda_ris) * mean_r1
            total += w0 * rayleigh_pdf(r0, lambda_bs) * inner
    return total


@lru_cache(maxsize=256)
def expected_r1(lambda_bs: float, lambda_ris: float) -> float:
    """Mean base-to-reflector distance, by a Gauss-Legendre rule over ``(r0, r2)``.

    For fixed ``(r0, r2)`` and a uniform angle between them, the mean of
    ``r1`` from the law of cosines is ``(2s/pi) * E(4*r0*r2/s**2)`` with
    ``s = r0 + r2``; the module docstring describes the rule that averages it
    over both Rayleigh densities. Raises :class:`NumericalError` when its
    squared distances overflow or when the rules of the two orders in
    ``_R1_RULE_ORDERS`` differ by more than ``_R1_REL_TOL`` times the value.
    """
    if not all(math.isfinite(lam) and lam > 0 for lam in (lambda_bs, lambda_ris)):
        raise ParameterError(f"intensities must be positive finite floats, got {lambda_bs!r}, {lambda_ris!r}")
    r0_max = rayleigh_tail_radius(lambda_bs)
    r2_max = rayleigh_tail_radius(lambda_ris)
    if (r0_max + r2_max) * (r0_max + r2_max) == math.inf:  # the rule squares r0 + r2
        raise NumericalError("expected_r1: the distances exceed the float range when squared")
    # past r0 = r2_max the r2 range no longer reaches the kink at r2 = r0
    r0_edges = [0.0, r2_max, r0_max] if r2_max < r0_max else [0.0, r0_max]
    coarse, value = (
        _expected_r1_rule(lambda_bs, lambda_ris, r0_edges, r2_max, order)
        for order in _R1_RULE_ORDERS
    )
    error = abs(value - coarse)
    if not (value > 0 and error <= _R1_REL_TOL * value):  # NaN fails too
        raise NumericalError(f"expected_r1 quadrature did not converge: its two rules differ by {error:.3g}")
    return value


_FRACTION_MAX_TERMS = 500
_MAX_RECURRENCE_STEPS = 64


def _upper_gamma_fraction(s: float, x: float) -> float:
    """``exp(x) * x**-s * Gamma(s, x)`` by Legendre's continued fraction.

    Modified Lentz evaluation for ``s < 1`` and ``x >= 1``, where it takes
    under 100 terms, or for ``s < -64`` and any ``x > 0``, where the ``i``-th
    term shrinks like ``i / |s|`` and at most 15 are needed.
    """
    b = x + 1.0 - s
    c = math.inf
    d = 1.0 / b
    h = d
    for i in range(1, _FRACTION_MAX_TERMS):
        a_i = -i * (i - s)
        b += 2.0
        d = 1.0 / (a_i * d + b)
        c = b + a_i / c
        step = d * c
        h *= step
        if abs(step - 1.0) <= _EPSILON:
            return h
    raise NumericalError(f"Gamma({s!r}, {x!r}) continued fraction did not converge")


def _log_scaled_upper_gamma(a: float, log_x: float) -> float:
    """``log(x**-a * Gamma(a, x))`` for real ``a < 1`` at ``x = exp(log_x)``.

    At ``x >= 1``, or past ``_MAX_RECURRENCE_STEPS`` steps below 0, the
    continued fraction is evaluated at ``a`` itself, so a huge ``alpha``
    costs no more than a small one, and its factor ``exp(-x)`` enters as
    ``-x``, which does not underflow. Otherwise the base ``s = a + n`` in
    ``[0, 1)`` is summed as in the module docstring; then the recurrence
    ``Gamma(a, x) = (Gamma(a + 1, x) - x**a * exp(-x)) / a`` steps down to
    ``a``, which scales rounding errors by ``x / |a + k|`` at each step and
    so is kept to ``x < 1``. Carrying the factor ``x**-a`` keeps every step
    finite however negative ``a`` is. The series reads ``log x`` alone, so
    at ``a = 0`` the value ``E1(x)`` stays finite where ``x`` underflows to 0.
    """
    if log_x > _LOG_FLOAT_MAX:  # x overflows: the log is -x to double precision
        return -math.inf
    x = math.exp(log_x)
    if x == 0.0 and a < 0:  # the limit x -> 0
        return -math.log(-a)
    steps = max(0, math.ceil(-a))
    if x >= 1.0 or steps > _MAX_RECURRENCE_STEPS:
        return math.log(_upper_gamma_fraction(a, x)) - x
    base = a + steps
    # int_x^1 t**(s-1) exp(-t) dt = sum_n (-1)**n/n! * (1 - x**(s+n)) / (s+n)
    total = -log_x if base == 0 else -math.expm1(base * log_x) / base
    coef, n = 1.0, 0
    while True:
        n += 1
        coef /= -n
        term = -coef * math.expm1((base + n) * log_x) / (base + n)
        total += term
        if abs(term) <= 0.5 * _EPSILON * total:
            break
    h = math.exp(-base * log_x) * (math.exp(-1.0) * _upper_gamma_fraction(base, 1.0) + total)
    for k in range(steps - 1, -1, -1):
        h = (x * h - math.exp(-x)) / (a + k)
    return math.log(h)


def log_expected_inv_r1_pow(power: float, log_scale: float, log_floor: float) -> float:
    """``log E[r1**-power ; r1 >= floor]``, with ``pi * lambda_eff = exp(log_scale)``.

    ``log_scale`` and the floor ``exp(log_floor)`` take one unit of length,
    any unit: the base spacing
    (:attr:`riscov.config.NetworkConfig.log_r1_scale`), metres, or the floor
    itself. The floor keeps the moment finite for ``power >= 2``: without it
    the near-coincidence of the base and the reflector makes the integral
    diverge. Only logs are summed, so the moment may leave the float range
    while its log does not.
    """
    # (pi*lambda_eff)**(p/2) * Gamma(1 - p/2, x) with x = pi*lambda_eff*floor**2
    return (log_scale + (2.0 - power) * log_floor
            + _log_scaled_upper_gamma(1.0 - 0.5 * power, log_scale + 2.0 * log_floor))
