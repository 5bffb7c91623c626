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
Hence the ``r1`` density is that Rayleigh density, and the floored moments
are ``E[r1**-p ; r1 >= eps] = (pi*lambda_eff)**(p/2) * Gamma(1 - p/2,
pi*lambda_eff*eps**2)``. One quadrature is left: ``expected_r1``, kept as a
truncated quadrature so its output matches earlier releases (the exact value
is ``0.5 / sqrt(lambda_eff)``). It is the only code that loads scipy
(``scipy.integrate`` and ``scipy.special.ellipe``), on first use: the two
cost about 0.65 s to import, which no other code path needs to pay.

The upper incomplete gamma function is therefore summed here with ``math``
alone. For ``s`` in ``[0, 1)``: at ``x >= 1``, Legendre's continued fraction
``Gamma(s, x) = exp(-x) * x**s / (x + 1 - s - 1*(1-s) / (x + 3 - s - ...))``
(DLMF 8.9.2), evaluated by the modified Lentz method; below 1,
``Gamma(s, x) = Gamma(s, 1) + int_x^1 t**(s-1) * exp(-t) dt``, whose
integral is the exponential series integrated term by term (as in DLMF
8.7.3). Every term stays finite as ``s -> 0``, where the sum is ``E1(x)``,
so the case ``alpha -> 4`` needs no ``Gamma(s) - 1/s`` cancellation.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError, ParameterError

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


def pdf_r0(r, lambda_bs: float):
    """Density of the distance to the nearest base station."""
    _check_positive(lambda_bs=lambda_bs)
    return _rayleigh_pdf(r, lambda_bs)


def pdf_r2(r, lambda_ris: float):
    """Density of the distance to the nearest reflector."""
    _check_positive(lambda_ris=lambda_ris)
    return _rayleigh_pdf(r, lambda_ris)


# ---------------------------------------------------------------------------
# base-to-reflector distance r1
# ---------------------------------------------------------------------------

def _r1_intensity(lambda_bs: float, lambda_ris: float) -> float:
    """Rayleigh intensity of the base-to-reflector distance."""
    return lambda_bs * lambda_ris / (lambda_bs + lambda_ris)


def pdf_r1_marginal(r1: float, lambda_bs: float, lambda_ris: float) -> float:
    """Marginal density of the base-to-reflector distance.

    The exact Rayleigh density at ``lambda_eff`` (see the module docstring).
    """
    _check_positive(lambda_bs=lambda_bs, lambda_ris=lambda_ris)
    if r1 <= 0:
        raise ParameterError(f"r1 must be positive, got {r1!r}")
    return _rayleigh_pdf(r1, _r1_intensity(lambda_bs, lambda_ris))


@lru_cache(maxsize=256)
def expected_r1(lambda_bs: float, lambda_ris: float, rel_tol: float = 1e-3) -> float:
    """Mean base-to-reflector distance, by nested quadrature.

    For fixed ``(r0, r2)`` and a uniform angle between them, the mean of
    ``r1`` from the law of cosines is a complete elliptic integral.
    """
    from scipy import integrate  # deferred, see the module docstring
    from scipy.special import ellipe

    _check_positive(lambda_bs=lambda_bs, lambda_ris=lambda_ris)
    r0_max = rayleigh_tail_radius(lambda_bs)
    r2_max = rayleigh_tail_radius(lambda_ris)

    def inner(r2, r0):
        s = r0 + r2
        mean_r1 = (2.0 * s / math.pi) * ellipe(4.0 * r0 * r2 / s**2)
        return pdf_r2(r2, lambda_ris) * mean_r1

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


_FRACTION_MAX_TERMS = 500


def _upper_gamma_fraction(s: float, x: float) -> float:
    """``exp(x) * x**-s * Gamma(s, x)`` by Legendre's continued fraction.

    Modified Lentz evaluation for ``s`` in ``[0, 1)`` and ``x >= 1``, where
    it takes under 90 terms.
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
        if abs(step - 1.0) <= np.finfo(float).eps:
            return h
    raise NumericalError(f"Gamma({s!r}, {x!r}) continued fraction did not converge")


def _scaled_upper_gamma(a: float, x: float) -> float:
    """``x**-a * Gamma(a, x)`` for real ``a < 1`` and ``x >= 0``.

    The base ``s = a + n`` in ``[0, 1)`` is summed as in the module
    docstring; then the recurrence ``Gamma(a, x) = (Gamma(a + 1, x) - x**a *
    exp(-x)) / a`` steps down to ``a``. Carrying the factor ``x**-a`` keeps
    every step finite however negative ``a`` is.
    """
    if x == 0.0:  # pi*lambda_eff*eps**2 underflowed: the limit x -> 0
        return -1.0 / a if a < 0 else math.inf
    steps = max(0, math.ceil(-a))
    base = a + steps
    if x >= 1.0:
        h = math.exp(-x) * _upper_gamma_fraction(base, x)
    else:
        # int_x^1 t**(s-1) exp(-t) dt = sum_n (-1)**n/n! * (1 - x**(s+n)) / (s+n)
        log_x = math.log(x)
        total = -log_x if base == 0 else -math.expm1(base * log_x) / base
        coef, n = 1.0, 0
        while True:
            n += 1
            coef /= -n
            term = -coef * math.expm1((base + n) * log_x) / (base + n)
            total += term
            if abs(term) <= 0.5 * np.finfo(float).eps * total:
                break
        h = math.exp(-base * log_x) * (math.exp(-1.0) * _upper_gamma_fraction(base, 1.0) + total)
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
