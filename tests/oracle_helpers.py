"""Test-local oracles, implemented independently of the package internals.

Everything here works straight from the raw model facts: nearest-neighbor
distances are Rayleigh draws, the angle between the serving base and the
nearest reflector is uniform, and the base-to-reflector distance follows by
the law of cosines. The package evaluates the same quantities in closed form
(a hypergeometric interference factor, an exactly Rayleigh ``r1``); the
quadrature routes below integrate the defining integrals instead. Likewise
the reflector bank's phase-quantization loss is a closed form in the package
and an element-by-element array factor here. The last section keeps model
identities (peak reflected power, the fractional fade moment, the engaged
probability) that only tests evaluate.
"""
from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from riscov import channel

# Mass discarded when truncating a semi-infinite Rayleigh-weighted integral:
# the outer integration limit is the 1 - TAIL_MASS quantile.
TAIL_MASS = 1e-6

# Requested absolute accuracy of the interference quadrature; a result whose
# achieved error exceeds it counts as not converged.
INTERFERENCE_ABS_TOL = 1e-9


def rayleigh_pdf(r, lam):
    return 2 * math.pi * lam * r * np.exp(-math.pi * lam * r * r)


def bessel_marginal(r1, lam_bs, lam_ris):
    """Closed-form route to the base-to-reflector marginal density.

    Marginalizing the reflector position first gives a Rice density in r1
    given the serving distance; only the outer average stays numerical.
    """
    def outer(r0):
        z = 2 * math.pi * lam_ris * r0 * r1
        inner = (
            2 * math.pi * lam_ris * r1
            * math.exp(-math.pi * lam_ris * (r0 - r1) ** 2)
            * special.i0e(z)
        )
        return rayleigh_pdf(r0, lam_bs) * inner

    r0_max = math.sqrt(-math.log(1e-9) / (math.pi * lam_bs))
    # for dense reflectors the mass sits on a narrow ridge at r0 = r1 that
    # adaptive sampling can step over entirely; pin a breakpoint there
    ridge = [r1] if r1 < r0_max else None
    val, _ = integrate.quad(
        outer, 0, r0_max, points=ridge, epsabs=1e-14, epsrel=1e-10, limit=300
    )
    return val


def floored_inv_pow_bessel(power, lam_bs, lam_ris, eps):
    """Deterministic route to ``E[r1**-power ; r1 >= eps]`` via the marginal."""
    val, _ = integrate.quad(
        lambda r: r**-power * bessel_marginal(r, lam_bs, lam_ris),
        eps, 1500.0, points=[2 * eps, 5 * eps, 50.0, 300.0], limit=300,
    )
    return val


def floored_inv_pow_is_oracle(
    power, lam_bs, lam_ris, eps, seed, n_pairs=200_000, n_angles=128
):
    """Importance-sampled Monte-Carlo estimate of ``E[r1**-power ; r1 >= eps]``.

    The moment is dominated by rare near-coincident geometries (both radii
    small and nearly equal), so plain sampling is hopeless at usable sizes.
    The proposal mixes the true Rayleigh laws (which bounds every weight by
    4) with a uniform component over the small-radius region and a band
    around the diagonal.
    """
    rng = np.random.default_rng(seed)
    sig0 = 1 / math.sqrt(2 * math.pi * lam_bs)
    sig2 = 1 / math.sqrt(2 * math.pi * lam_ris)
    cap0 = 12 * sig2 + 20 * eps
    band = 6 * eps
    total, done, batch = 0.0, 0, 5_000
    while done < n_pairs:
        m = min(batch, n_pairs - done)
        pick0 = rng.random(m) < 0.5
        r0 = np.where(pick0, rng.rayleigh(sig0, m), rng.uniform(0, cap0, m))
        q0 = 0.5 * rayleigh_pdf(r0, lam_bs) + 0.5 * (r0 < cap0) / cap0
        lo = np.maximum(0.0, r0 - band)
        hi = r0 + band
        pick2 = rng.random(m) < 0.5
        r2 = np.where(pick2, rng.rayleigh(sig2, m), rng.uniform(lo, hi))
        q2 = 0.5 * rayleigh_pdf(r2, lam_ris) + 0.5 * ((r2 >= lo) & (r2 <= hi)) / (hi - lo)
        w = rayleigh_pdf(r0, lam_bs) * rayleigh_pdf(r2, lam_ris) / (q0 * q2)
        phi = rng.uniform(0, math.pi, (m, n_angles))
        r1 = np.sqrt(
            r0[:, None] ** 2 + r2[:, None] ** 2 - 2 * (r0 * r2)[:, None] * np.cos(phi)
        )
        a = np.where(r1 >= eps, r1**-power, 0.0).mean(axis=1)
        total += float(np.sum(w * a))
        done += m
    return total / n_pairs


# ---------------------------------------------------------------------------
# interference factor by quadrature
# ---------------------------------------------------------------------------

def interference_quadrature(T, alpha, rho=1.0):
    """``T**(2/a) * int_{T**(-2/a)}^inf rho**a / (rho**a + u**(a/2)) du``.

    Maps the semi-infinite range through ``u = lower + t / (1 - t)``; the
    integrand decays like ``u**(-a/2)``, so the transform leaves at worst an
    integrable endpoint weight at ``t = 1``. Returns ``(value, abs_error)``;
    callers treat ``abs_error > INTERFERENCE_ABS_TOL`` as not converged.
    """
    lower = T ** (-2.0 / alpha)
    rho_a = rho**alpha

    def transformed(t):
        u = lower + t / (1.0 - t)
        return rho_a / (rho_a + u ** (0.5 * alpha)) / (1.0 - t) ** 2

    # for alpha < 4 the stretched integrand keeps an integrable endpoint
    # weight; ask for more than needed, silence QUADPACK's advisory, and let
    # the returned error decide whether the result is usable
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        raw, abserr = integrate.quad(
            transformed, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=300
        )
    scale = T ** (2.0 / alpha)
    return scale * raw, scale * abserr


# ---------------------------------------------------------------------------
# floored inverse moments of r1 by nested quadrature over (r0, r2)
# ---------------------------------------------------------------------------

# Composite Gauss-Legendre rule with panels refined geometrically toward one
# endpoint; used for inner angle integrals whose integrand peaks there.
_PANEL_RATIOS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.6, 1.0)


@lru_cache(maxsize=None)
def _gauss_nodes(order):
    return np.polynomial.legendre.leggauss(order)


def _refined_panel_nodes(a, b, order=32):
    """Nodes/weights covering [a, b] with panels clustered toward ``a``."""
    x, w = _gauss_nodes(order)
    edges = a + (b - a) * np.asarray(_PANEL_RATIOS)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w[None, :]).ravel()
    return nodes, weights


def conditional_inv_sq_moment(r0, r2, eps):
    """``E[r1**-2 * 1{r1 >= eps} | r0, r2]`` via the exact angle antiderivative.

    The angle integral ``(1/pi) * int d(phi) / (A - B cos(phi))`` from the
    capped angle to pi, with ``A = r0**2 + r2**2`` and ``B = 2 r0 r2``.
    """
    lo, hi = abs(r0 - r2), r0 + r2
    r_low = max(lo, eps)
    if r_low >= hi:
        return 0.0
    A = r0 * r0 + r2 * r2
    B = 2.0 * r0 * r2
    if r_low <= lo:
        # no cap: closed form 1 / |r0^2 - r2^2|
        return 1.0 / abs(r0 - r2) / (r0 + r2)
    cos_cap = (A - r_low * r_low) / B
    phi_lo = math.acos(max(-1.0, min(1.0, cos_cap)))
    t = math.tan(0.5 * phi_lo)
    if t <= 0.0:
        return 1.0 / abs(r0 - r2) / (r0 + r2)
    D = (r0 - r2) ** 2
    S = (r0 + r2) ** 2
    z = math.sqrt(D / S) / t
    if z < 1e-8:
        # arctan(z) ~ z; removable 0/0 at r0 == r2
        return 2.0 / (math.pi * S * t)
    return 2.0 * math.atan(z) / (math.pi * math.sqrt(D * S))


def conditional_inv_pow_moment(r0, r2, power, eps):
    """``E[r1**-power * 1{r1 >= eps} | r0, r2]`` by the angle-refined panel rule."""
    lo, hi = abs(r0 - r2), r0 + r2
    r_low = max(lo, eps)
    if r_low >= hi:
        return 0.0
    A = r0 * r0 + r2 * r2
    B = 2.0 * r0 * r2
    if r_low <= lo:
        phi_lo = 0.0
    else:
        cos_cap = (A - r_low * r_low) / B
        phi_lo = math.acos(max(-1.0, min(1.0, cos_cap)))
    phi, w = _refined_panel_nodes(phi_lo, math.pi)
    vals = (A - B * np.cos(phi)) ** (-0.5 * power)
    return float(np.dot(w, vals)) / math.pi


def floored_inv_pow_nested(power, lam_bs, lam_ris, eps):
    """``E[r1**-power ; r1 >= eps]`` by outer (r0, r2) quadrature.

    The inner angle average is the exact antiderivative for ``power == 2`` and
    the panel rule otherwise. Returns ``(value, abs_error)``.
    """
    if power == 2.0:
        def inner_moment(r0, r2):
            return conditional_inv_sq_moment(r0, r2, eps)
    else:
        def inner_moment(r0, r2):
            return conditional_inv_pow_moment(r0, r2, power, eps)

    r0_max = math.sqrt(-math.log(TAIL_MASS) / (math.pi * lam_bs))
    r2_max = math.sqrt(-math.log(TAIL_MASS) / (math.pi * lam_ris))

    def inner(r2, r0):
        return rayleigh_pdf(r2, lam_ris) * inner_moment(r0, r2)

    def outer(r0):
        # the integrand ridges along |r0 - r2| ~ eps; flag those breakpoints
        pts = [p for p in (r0 - eps, r0, r0 + eps) if 0.0 < p < r2_max]
        val, _ = integrate.quad(
            inner, 0.0, r2_max, args=(r0,),
            points=pts or None, epsabs=1e-14, epsrel=1e-7, limit=200,
        )
        return rayleigh_pdf(r0, lam_bs) * val

    return integrate.quad(outer, 0.0, r0_max, epsabs=1e-14, epsrel=1e-7, limit=200)


def quantize_phases(phases, phase_bits):
    """Round each phase to the nearest multiple of ``2*pi / 2**bits`` on [0, 2pi)."""
    phases = np.asarray(phases, dtype=float)
    if phase_bits == "ideal":
        return phases
    step = 2.0 * math.pi / (1 << int(phase_bits))
    return np.mod(np.round(phases / step) * step, 2.0 * math.pi)


def array_factor_from_phases(target_phases, phase_bits="ideal") -> complex:
    """Coherent sum of a reflector bank after compensating each element's phase.

    With ideal compensation every residual vanishes, so the amplitude is
    exactly the element count; with b-bit compensation the rounding residuals
    survive in the sum. Averaging its squared magnitude over uniform target
    phases derives :func:`riscov.channel.quantization_efficiency`.
    """
    target_phases = np.asarray(target_phases, dtype=float)
    if phase_bits == "ideal":
        return complex(target_phases.size, 0.0)
    residual = quantize_phases(target_phases, phase_bits) - target_phases
    return complex(np.sum(np.exp(1j * residual)))


# ---------------------------------------------------------------------------
# model identities that no command needs
# ---------------------------------------------------------------------------

def peak_reflection_power(cfg, fade_f1, r1):
    """Peak power reflected toward the user by the engaged reflector bank."""
    return 0.5 * cfg.p_s * channel.reflection_gain(cfg, fade_f1, r1)


def fade_fractional_moment(mu, alpha):
    """``E[f**(2/alpha)]`` for an exponential(mu) gain: ``mu**(-2/a) * Gamma(2/a + 1)``."""
    return float(mu ** (-2.0 / alpha) * special.gamma(2.0 / alpha + 1.0))


def prob_ris_closer(lambda_ris, lambda_bs):
    """Probability that the nearest reflector is closer than the nearest base."""
    return lambda_ris / (lambda_ris + lambda_bs)
