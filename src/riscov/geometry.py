"""Moments of the base-to-reflector distance of the Poisson network model.

Distances and intensities are in any one unit of length, the densities per
its square: the engines use the base spacing ``1/sqrt(pi*lambda_bs)``, the
``e_r1`` sweep kilometres. :func:`expected_r1` raises
:class:`ParameterError` on an intensity that is not a positive finite float;
:func:`log_expected_inv_r1_pow` reads logs of config fields, valid by
construction, and checks nothing. No density function is left here. The
nearest-neighbor distance of a homogeneous PPP of intensity ``lam`` is
Rayleigh-distributed with density ``2*pi*lam*r*exp(-pi*lam*r**2)``, which
:func:`riscov.montecarlo.empirical_histogram` draws as the ``hist``
overlay; the distributions of the serving-link distance, the reflector-link
distance and the base-to-reflector distance are all built from that single
fact plus the law of cosines.

The nearest base and the nearest reflector sit at independent isotropic
Gaussian positions with variances ``v_bs = 1/(2*pi*lambda_bs)`` and ``v_ris
= 1/(2*pi*lambda_ris)``, so their separation ``r1`` is exactly Rayleigh with
intensity ``lambda_eff = lambda_bs * lambda_ris / (lambda_bs + lambda_ris)``.
Hence the ``r1`` density is that Rayleigh density, and the floored moments
are ``E[r1**-p ; r1 >= eps] = (pi*lambda_eff)**(p/2) * Gamma(1 - p/2,
pi*lambda_eff*eps**2)``, whose log :func:`log_expected_inv_r1_pow` sums.

``expected_r1`` keeps the mean of ``r1`` with ``r0`` and ``r2`` truncated
at their ``1 - TAIL_MASS`` quantiles ``R0`` and ``R2``, as earlier releases
did: the exact mean ``E = 0.5 / sqrt(lambda_eff)`` less the tails ``E[r1 ;
r0 > R0]`` and ``E[r1 ; r2 > R2]``. The truncated integral adds back their
overlap, about ``4e-12 * E``; that is dropped, so the value sits this far
below it. Write ``r1 = (2*sqrt(pi))**-1 * int_0^inf (1 - exp(-s*r1**2)) * s**-1.5 ds``,
average ``exp(-s*r1**2)`` over the untruncated position in closed form, and
use that ``r0**2 / (2*v_bs)`` is a unit exponential beyond ``L =
-log(TAIL_MASS)``. With ``t = 2*s*(v_bs + v_ris)`` and ``lambda_bs``'s share
``w = lambda_bs / (lambda_bs + lambda_ris)``, the ``r0`` tail is ``E *
TAIL_MASS / pi * H(w, 1 - w)``, where ``H(w, w') = int_0^inf -expm1(-(L*k +
log1p(t))) * t**-1.5 dt`` with ``k = t*w' / (1 + t*w)``; the ``r2`` tail
swaps the shares. ``H`` runs from ``H(1, 0) = pi`` to ``H(0, 1)``
near 13.6, so no density pair leaves the float range.
No code in the package imports scipy, and this module imports no numpy:
numpy is the Monte-Carlo engine's dependency.

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

from .errors import NumericalError, ParameterError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPSILON = sys.float_info.epsilon

# Mass of each link distance's tail that expected_r1 leaves out: it keeps
# r0 and r2 below their 1 - TAIL_MASS quantiles. The benchmark's e_r1
# reference (perfbench/reference/closed-form/sweep-e_r1.csv) pins the value.
TAIL_MASS = 1e-6


# ---------------------------------------------------------------------------
# base-to-reflector distance r1
# ---------------------------------------------------------------------------

# Step and half-width, in x = log t, of expected_r1's trapezoid sum, and the
# relative gap between its sums of step h and 2h that it accepts.
_R1_LOG_STEP = 0.5
_R1_LOG_SPAN = 64.0
_R1_REL_TOL = 1e-9


def expected_r1(lambda_bs: float, lambda_ris: float) -> float:
    """Mean base-to-reflector distance, truncated as in the module docstring.

    The two tails' ``H`` integrand is analytic in ``x``, bends within ``[-3,
    0]`` and falls like ``exp(-|x|/2)``, so its trapezoid sum converges
    geometrically and ``|x| <= _R1_LOG_SPAN`` leaves out under 1e-13 of it.
    Raises :class:`ParameterError` on an intensity that is not a positive
    finite float, and :class:`NumericalError` when the sums of step ``h`` and
    ``2h`` over the same nodes differ by more than ``_R1_REL_TOL`` times the value.
    """
    if not all(math.isfinite(lam) and lam > 0 for lam in (lambda_bs, lambda_ris)):
        raise ParameterError(f"intensities must be positive finite floats, got {lambda_bs!r}, {lambda_ris!r}")
    exact = 0.5 * math.hypot(lambda_bs**-0.5, lambda_ris**-0.5)
    # each density's share of the two: a ratio may overflow or underflow, but gives no NaN
    shares = (1.0 / (1.0 + lambda_ris / lambda_bs), 1.0 / (1.0 + lambda_bs / lambda_ris))
    log_inv_mass = -math.log(TAIL_MASS)
    sums = [0.0, 0.0]  # over the even and the odd nodes
    n = round(_R1_LOG_SPAN / _R1_LOG_STEP)
    for i in range(-n, n + 1):
        t = math.exp(i * _R1_LOG_STEP)
        for w, w_other in (shares, shares[::-1]):
            k = t * w_other / (1.0 + t * w)
            exponent = log_inv_mass * k + math.log1p(t)  # (1 + k) * (1 + t*w) = 1 + t: the shares sum to 1
            sums[i % 2] -= math.expm1(-exponent) / math.sqrt(t)
    scale = exact * TAIL_MASS / math.pi * _R1_LOG_STEP
    value = exact - scale * (sums[0] + sums[1])
    gap = scale * abs(sums[1] - sums[0])
    if not (value > 0 and gap <= _R1_REL_TOL * value):  # NaN fails too
        raise NumericalError(f"expected_r1 tail sums did not converge: steps h and 2h differ by {gap:.3g}")
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
