"""Test-local oracles, implemented independently of the package internals.

Everything here works straight from the raw model facts: nearest-neighbor
distances are Rayleigh draws, the angle between the serving base and the
nearest reflector is uniform, and the base-to-reflector distance follows by
the law of cosines. The package evaluates the same quantities in closed form
(a hypergeometric interference factor, an exactly Rayleigh ``r1``, and
``E[r1]`` as its exact mean less two one-dimensional tail sums); the
quadrature routes below integrate the defining integrals instead. Likewise
the reflector bank's phase-quantization loss is a closed form in the package
and an element-by-element array factor here. The last section keeps model
identities (the reflection gain, peak reflected power, the fractional fade
moment, the engaged probability, the interference factor at one threshold)
that only tests evaluate, and the engine's per-trial values at one
threshold, which only tests read.

The r1 moments keep one route per fact:

- the raw joint law (r0, r2, angle): :func:`floored_inv_sq_nested`, the
  floored inverse-square moment nested over (r0, r2) through the exact angle
  antiderivative :func:`conditional_inv_sq_moment`;
- the Rice marginal: :func:`bessel_marginal`, and its Fubini moment
  :func:`floored_inv_pow_bessel`;
- the Rayleigh law of r1 itself: :func:`rayleigh_pdf`, which
  ``test_geometry.py`` integrates against ``r**-p`` at every power it checks;
- the truncated mean: :func:`expected_r1_nested`.

The mean reflected power and :func:`reflected_power_raw_moment` are then
checked as exact compositions of a prefactor and :func:`expected_inv_r1_pow`,
not sampled.
"""
from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from riscov import analytic, geometry, montecarlo
from riscov.config import KM2_TO_M2

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


# ---------------------------------------------------------------------------
# interference factor by quadrature
# ---------------------------------------------------------------------------

def interference_quadrature(T, alpha, rho=1.0):
    """``T**(2/a) * int_{T**(-2/a)}^inf rho**a / (rho**a + u**(a/2)) du``.

    The integrand is close to 1 below its knee ``u = rho**2`` and decays like
    ``(rho**2 / u)**(a/2)`` above it. So the range is split at the knee (when
    the lower limit lies below it), and the semi-infinite piece is integrated
    in ``u / start``, which puts its decay on the unit scale whatever ``rho``
    is. The integrand is evaluated through the log of ``u**(a/2) / rho**a``,
    so no power leaves the float range at a large ``a`` or ``rho``. Returns
    ``(value, abs_error)``; callers treat ``abs_error > INTERFERENCE_ABS_TOL``
    as not converged.
    """
    lower = T ** (-2.0 / alpha)
    log_rho_sq = 2.0 * math.log(rho)

    def integrand(u):
        x = 0.5 * alpha * (math.log(u) - log_rho_sq)
        e = math.exp(-abs(x))
        return e / (1.0 + e) if x > 0 else 1.0 / (1.0 + e)

    start = max(lower, rho**2)
    # for alpha < 4 the tail keeps an integrable endpoint weight after
    # QUADPACK's own map of the infinite range; ask for more than needed,
    # silence its advisory, and let the returned error decide whether the
    # result is usable
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, head_err = (
            integrate.quad(integrand, lower, start, epsabs=1e-13, epsrel=1e-12, limit=300)
            if lower < start else (0.0, 0.0)
        )
        tail, tail_err = integrate.quad(
            lambda v: integrand(start * v), 1.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300
        )
    scale = T ** (2.0 / alpha)
    return scale * (head + start * tail), scale * (head_err + start * tail_err)


# ---------------------------------------------------------------------------
# interference factor by the 56-term Pfaff series
# ---------------------------------------------------------------------------

PFAFF_TERMS = 56


@lru_cache(maxsize=None)
def pfaff_coefficients(alpha):
    """``n!/(b+1)_n`` and ``n!/(d+1)_n - 1`` for ``n = 1 .. 56``, ``d = 2/alpha`` and ``b = 1 - d``.

    Each term of the series is at most ``w <= 1/2`` times the one before, so
    56 terms reach double precision; the second from the log of its product.
    """
    delta = 2.0 / alpha
    b = (alpha - 2.0) / alpha
    low, shortfall = [], []
    ratio, log_ratio = 1.0, 0.0
    for n in range(1, PFAFF_TERMS + 1):
        ratio *= n / (b + n)
        log_ratio += math.log1p(delta / n)
        low.append(ratio)
        shortfall.append(math.expm1(-log_ratio))
    return tuple(low), tuple(shortfall)


def _power_sum(coefficients, w):
    """``sum_{1 <= n <= 56} coefficients[n-1] * w**n`` by Horner's rule in ``w``."""
    total = coefficients[-1]
    for a in coefficients[-2::-1]:
        total = total * w + a
    return total * w


def pfaff_interference_factor_from_log(u, alpha):
    """``I(T, alpha)`` from ``u = log(T) / alpha`` by the plain 56-term Pfaff series in ``w``.

    The branches are those of :func:`riscov.analytic.interference_factor_from_log`
    (DLMF 15.8.1 for ``T <= 1``, 15.8.2 beyond), and the split-off term is
    its ``_log_leading``; only the series is summed here term by term.
    """
    low, shortfall = pfaff_coefficients(alpha)
    log_t = alpha * u
    if u <= 0.0:
        t = math.exp(log_t)
        w = t / (1.0 + t)
        return 2.0 / (alpha - 2.0) * w * (1.0 + _power_sum(low, w))
    inverse = math.exp(-log_t)
    w = inverse / (1.0 + inverse)
    try:
        head = math.expm1(analytic._log_leading(alpha) + 2.0 * u)
    except OverflowError:
        head = math.inf
    return head - (1.0 - w) * _power_sum(shortfall, w)


# ---------------------------------------------------------------------------
# floored inverse-square moment of r1 by nested quadrature over (r0, r2)
# ---------------------------------------------------------------------------

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


def floored_inv_sq_nested(lam_bs, lam_ris, eps):
    """``E[r1**-2 ; r1 >= eps]`` by outer (r0, r2) quadrature of the raw joint law.

    The inner angle average is :func:`conditional_inv_sq_moment`'s exact
    antiderivative. Returns ``(value, abs_error)``.
    """
    r0_max = math.sqrt(-math.log(TAIL_MASS) / (math.pi * lam_bs))
    r2_max = math.sqrt(-math.log(TAIL_MASS) / (math.pi * lam_ris))

    def inner(r2, r0):
        return rayleigh_pdf(r2, lam_ris) * conditional_inv_sq_moment(r0, r2, eps)

    def outer(r0):
        # the integrand ridges along |r0 - r2| ~ eps; flag those breakpoints
        pts = [p for p in (r0 - eps, r0, r0 + eps) if 0.0 < p < r2_max]
        val, _ = integrate.quad(
            inner, 0.0, r2_max, args=(r0,),
            points=pts or None, epsabs=1e-14, epsrel=1e-7, limit=200,
        )
        return rayleigh_pdf(r0, lam_bs) * val

    return integrate.quad(outer, 0.0, r0_max, epsabs=1e-14, epsrel=1e-7, limit=200)


# ---------------------------------------------------------------------------
# mean base-to-reflector distance by nested quadrature over (r0, r2)
# ---------------------------------------------------------------------------

def expected_r1_nested(lam_bs, lam_ris):
    """The truncated ``E[r1]`` double integral by nested adaptive quadrature.

    The same integral as :func:`riscov.geometry.expected_r1`: both radii run
    to their 1 - TAIL_MASS quantiles, and the angle average of ``r1`` is
    ``(2s/pi) * E(4*r0*r2/s**2)`` with ``s = r0 + r2``. Breakpoints sit at the
    kink ``r2 = r0`` of the inner integrand and at ``r0 = r2_max``, where the
    outer one changes form. Returns ``(value, abs_error)``.
    """
    r0_max = math.sqrt(-math.log(TAIL_MASS) / (math.pi * lam_bs))
    r2_max = math.sqrt(-math.log(TAIL_MASS) / (math.pi * lam_ris))

    def inner(r2, r0):
        s = r0 + r2
        return rayleigh_pdf(r2, lam_ris) * (2.0 * s / math.pi) * special.ellipe(4.0 * r0 * r2 / s**2)

    def outer(r0):
        val, _ = integrate.quad(
            inner, 0.0, r2_max, args=(r0,), points=[r0] if r0 < r2_max else None,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return rayleigh_pdf(r0, lam_bs) * val

    return integrate.quad(
        outer, 0.0, r0_max, points=[r2_max] if r2_max < r0_max else None,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )


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
    phases derives :func:`riscov.config.quantization_efficiency`.
    """
    target_phases = np.asarray(target_phases, dtype=float)
    if phase_bits == "ideal":
        return complex(target_phases.size, 0.0)
    residual = quantize_phases(target_phases, phase_bits) - target_phases
    return complex(np.sum(np.exp(1j * residual)))


# ---------------------------------------------------------------------------
# model identities that no command needs
# ---------------------------------------------------------------------------

def interference_factor(T, alpha):
    """``I(T, alpha)`` by the package's kernel at a threshold ``T >= 0``: 0 at ``T = 0`` and inf at ``T = inf``."""
    return analytic.interference_factor_from_log((math.log(T) if T > 0 else -math.inf) / alpha, alpha)


def expected_inv_r1_pow(power, lam_bs, lam_ris, eps=1.0):
    """``E[r1**-power ; r1 >= eps]`` in SI units: the package's log, taken in metres.

    Inf or 0 where the moment leaves the float range.
    """
    log_scale = math.log(math.pi * lam_bs * lam_ris / (lam_bs + lam_ris))
    with np.errstate(over="ignore"):
        return float(np.exp(geometry.log_expected_inv_r1_pow(power, log_scale, math.log(eps))))


def power_density_convert(intensity, power, mu, alpha):
    """Swap (transmit power, intensity) for (unit power, scaled intensity).

    Returns the converted intensity ``(power/mu)**(2/alpha) * intensity``
    (mapping theorem).
    """
    return (power / mu) ** (2.0 / alpha) * intensity


def reflected_power_raw_moment(cfg):
    """``E[(P_reflected / mu)**(2/alpha)]``, which maps ``lambda_ris`` to unit power.

    Divided by the bases' factor ``(p_s / (2 mu))**(2/alpha)``, it is
    ``kappa = exp(riscov.analytic.log_reflector_ratio(cfg))`` times ``lambda_bs /
    lambda_ris``.
    """
    alpha = cfg.alpha
    gain = math.exp(cfg.log_gain)
    prefactor = (gain * cfg.p_s / 2.0) ** (2.0 / alpha) * cfg.mu ** (-4.0 / alpha)
    inv_sq = expected_inv_r1_pow(
        2.0, cfg.lambda_bs * KM2_TO_M2, cfg.lambda_ris * KM2_TO_M2, cfg.epsilon_floor
    )
    return prefactor * math.gamma(2.0 / alpha + 1.0) * inv_sq


def reflection_gain(cfg, fade_f1, r1):
    """Reflected power per unit of per-beam transmit power: ``M**2 * beta * f1 * r1**-alpha``.

    ``fade_f1`` and ``r1`` are in SI units and may be scalars or arrays; the
    vectorized engine forms only this gain's ratio to the direct link's.
    """
    r1 = np.asarray(r1, dtype=float)
    if np.any(r1 <= 0):
        raise ValueError(f"r1 must be positive, got {r1!r}")
    return math.exp(cfg.log_gain) * fade_f1 * r1 ** -cfg.alpha


def peak_reflection_power(cfg, fade_f1, r1):
    """Peak power reflected toward the user by the engaged reflector bank."""
    return 0.5 * cfg.p_s * reflection_gain(cfg, fade_f1, r1)


def fade_fractional_moment(mu, alpha):
    """``E[f**(2/alpha)]`` for an exponential(mu) gain: ``mu**(-2/a) * Gamma(2/a + 1)``."""
    return float(mu ** (-2.0 / alpha) * special.gamma(2.0 / alpha + 1.0))


def prob_ris_closer(lambda_ris, lambda_bs):
    """Probability that the nearest reflector is closer than the nearest base."""
    return lambda_ris / (lambda_ris + lambda_bs)


def _engaged_drops(cfg, n_samples, seed):
    """Squared ``r0``, ``r1``, ``r2`` and the fade of independent drops, kept where the reflector engages.

    ``r0`` and ``r2`` are Rayleigh, the angle between them is uniform, and
    ``r1`` follows by the law of cosines; the base-to-reflector fade is a
    standard exponential.
    """
    rng = np.random.default_rng(seed)
    r0_sq = rng.standard_exponential(n_samples)
    r2_sq = rng.standard_exponential(n_samples) * math.exp(-cfg.log_rho)
    angle = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    f1 = rng.standard_exponential(n_samples)
    engaged = r2_sq < r0_sq
    r0_sq, r2_sq, angle, f1 = r0_sq[engaged], r2_sq[engaged], angle[engaged], f1[engaged]
    r1_sq = r0_sq + r2_sq - 2.0 * np.sqrt(r0_sq * r2_sq) * np.cos(angle)
    return r0_sq, r1_sq, r2_sq, f1


def _mean_and_half_width(values):
    return float(values.mean()), 1.96 * float(values.std()) / math.sqrt(len(values))


def gamma_b_large_alpha_limit(cfg, n_samples=1_000_000, seed=0):
    """The ``alpha -> inf`` limit of ``gamma_b``, sampled: ``(mean, 95% half-width)``.

    In units of the base spacing, ``q = K * (r1 * r2 / r0)**alpha / f1``, so
    ``log(T * q) = alpha * L + O(1)`` with ``L = log(r1 * r2 * K**(1/alpha) /
    r0)``, and the interference factor ``I(T * q, alpha)`` tends to ``max(0,
    exp(2L) - 1)`` whatever ``T`` and ``f1``. So ``gamma_b`` tends to
    ``E[exp(-p * r0**2 * max(0, (r1 * r2 * K**(1/alpha) / r0)**2 - 1)) | r2 <
    r0]``, ``p`` the split-beam retention, with ``K**(1/alpha)`` from
    ``cfg.log_k_per_alpha``, on the drops of :func:`_engaged_drops`.
    """
    r0_sq, r1_sq, r2_sq, _ = _engaged_drops(cfg, n_samples, seed)
    excess = np.expm1(np.log(r1_sq) + np.log(r2_sq) - np.log(r0_sq) + 2.0 * cfg.log_k_per_alpha)
    return _mean_and_half_width(np.exp(-cfg.retentions[1] * r0_sq * np.maximum(excess, 0.0)))


def gamma_b_sampled(cfg, threshold, n_samples=1_000_000, seed=0):
    """``gamma_b`` at ``threshold`` from independent drops, sampled: ``(mean, 95% half-width)``.

    The conditional value is ``exp(-p * r0**2 * I(T * q, alpha))`` with
    ``log(T * q) / alpha = log(T) / alpha + log(r1 * r2 / r0) + log(K) /
    alpha - log(f1) / alpha``, on the drops of :func:`_engaged_drops`; with
    the same seed they are :func:`gamma_b_large_alpha_limit`'s, so the two
    differ by the finite-``alpha`` term alone, up to little noise.
    """
    r0_sq, r1_sq, r2_sq, f1 = _engaged_drops(cfg, n_samples, seed)
    log_tq = (math.log(threshold) / cfg.alpha + 0.5 * (np.log(r1_sq) + np.log(r2_sq) - np.log(r0_sq))
              + cfg.log_k_per_alpha - np.log(f1) / cfg.alpha)
    factor = montecarlo.interference_factor_from_log(log_tq, cfg.alpha)
    return _mean_and_half_width(np.exp(-cfg.retentions[1] * r0_sq * factor))


# ---------------------------------------------------------------------------
# the engine's per-trial values, which only tests read
# ---------------------------------------------------------------------------

def conditional_values(cfg, records, threshold, engaged=None):
    """The engine's per-trial ``Pr[SIR > threshold]`` given ``records``, for every metric.

    Maps each name of ``montecarlo.METRICS`` to an array over all trials:
    the values that ``montecarlo.run`` reduces, not an independent oracle.
    ``engaged`` is each trial's probability of an engaged reflector, as
    ``montecarlo._values`` takes it; by default it is the indicator ``r2 <
    r0``, and then ``gamma_b``'s values are those of the engaged trials only.
    ``threshold`` is one of ``cfg.thresholds_linear``: the engine reads its
    entry of ``analytic.direct_factors(cfg)``, as ``montecarlo.run`` does.
    """
    indicator = engaged is None
    if indicator:
        engaged = records.r2 < records.r0
    direct = analytic.direct_factors(cfg)[cfg.thresholds_linear.index(threshold)]
    (values,) = montecarlo._values(cfg, records, engaged, (direct,))
    return {**values, "gamma_b": values["gamma_b"][engaged]} if indicator else values


def lattice_records(cfg):
    """The trials of ``montecarlo.run``'s lattice points, shift-major: ``(records, weight, engaged, per_shift)``.

    Each lattice point ``v`` is mapped to the trial at ``(v0, v1 * g, v2,
    v3**2)`` with ``g = Pr[r2 < r0 | r0] = 1 - exp(-rho * r0**2)``, so that
    the reflector lies inside ``r0``; ``weight`` is ``2 * v3``, the fade
    coordinate's Jacobian, and ``engaged`` is ``g``.
    """
    shifts, per_shift = montecarlo._shifts(cfg), cfg.n_trials // montecarlo.SHIFTS
    u = np.concatenate([montecarlo._points(shifts, *block) for block in montecarlo._blocks(per_shift)])
    u = u.reshape(per_shift, montecarlo.SHIFTS, 4).transpose(1, 0, 2).reshape(-1, 4)
    weight = 2.0 * u[:, 3]
    u[:, 3] = u[:, 3] ** 2
    engaged = -np.expm1(math.exp(cfg.log_rho) * np.log1p(-u[:, 0]))
    u[:, 1] = u[:, 1] * engaged
    return montecarlo._trials(cfg, u), weight, engaged, per_shift


def lattice_estimates(cfg, threshold):
    """``montecarlo.run``'s estimates at one threshold, recomputed from all of its points at once.

    Maps each metric to ``(p, half_width)``. ``gamma_o`` and ``gamma_a``
    are the mean of the shift means, with Student's t times their standard
    error; ``gamma_b`` (weighted by ``g`` times the Jacobian) and
    ``gamma_s`` (by the Jacobian) are the ratio of the weighted values to
    the weights, with the delta-method half-width. Every sum is
    ``math.fsum``'s, of deviations from the weighted mean, so the half-width
    keeps its digits where the shift means agree to more digits than the
    values.
    """
    records, weight, engaged, per_shift = lattice_records(cfg)
    values = conditional_values(cfg, records, threshold, engaged)
    shifts = montecarlo.SHIFTS
    ones = np.ones(len(records.r0))
    out = {}
    for metric, w in (("gamma_o", ones), ("gamma_a", ones), ("gamma_b", engaged * weight), ("gamma_s", weight)):
        x = values[metric]
        weights = [math.fsum(row) for row in w.reshape(shifts, per_shift)]
        if not any(weights):  # every g underflows to 0
            out[metric] = (math.nan, math.nan)
            continue
        mean = math.fsum(w * x) / math.fsum(weights)
        deviations = [math.fsum(row) for row in (w * (x - mean)).reshape(shifts, per_shift)]
        offset = math.fsum(deviations) / math.fsum(weights)
        spread = math.fsum((d - offset * v) ** 2 for d, v in zip(deviations, weights)) / (shifts * (shifts - 1))
        half_width = montecarlo.T_QUANTILE * math.sqrt(spread) / (math.fsum(weights) / shifts)
        out[metric] = (mean + offset, half_width)
    return out
