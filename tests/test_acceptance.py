"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. The two heavyweight reference simulations (1e5 trials each) are
shared session fixtures.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from oracle_helpers import (
    array_factor_from_phases,
    conditional_values,
    fade_fractional_moment,
    interference_quadrature,
    prob_ris_closer,
    rayleigh_pdf,
)
from restated_forms import coverage_baseline_general
from riscov import analytic, cli, geometry, montecarlo
from riscov.config import KM2_TO_M2, NetworkConfig

TOL = {
    "baseline_gap": 0.02,
    "hist_l1": 0.05,
    "engaged": 0.005,
    "ks_pvalue": 0.01,
    "fade_moment_rel": 0.005,
    "one_bit": 0.01,
    "approx1_gap": 0.05,
    "approx2_margin": 0.03,
}

T5DB = 10**0.5


def report(cid: int, description: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid:2d}: {description} {detail}")
    assert ok, f"criterion {cid}: {description} {detail}"


def coverage_by(timed_run):
    """The run's coverage probabilities by ``(metric, threshold)``, at its configured thresholds."""
    return {
        (metric, t): p
        for metric, est in timed_run.estimates.items()
        for t, p in zip(timed_run.cfg.thresholds_linear, est.probability)
    }


def make_cfg(**kw) -> NetworkConfig:
    """The default deployment; overrides in config units (per km^2)."""
    return NetworkConfig().replace(**kw)


def test_c01_interference_factor_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for T in (0.01, 0.1, 1.0, 10.0, 100.0):
        closed = math.sqrt(T) * (math.pi / 2 - math.atan(T**-0.5))
        got, _ = interference_quadrature(T, 4.0)
        worst = max(worst, abs(got - closed))
        assert abs(analytic.interference_factor(T, 4.0) - closed) < 1e-9
    elapsed = time.perf_counter() - t0
    report(
        1, "interference factor matches the alpha=4 arctangent form",
        worst < 1e-9 and elapsed < 1.0,
        f"(max dev {worst:.2e}, {elapsed*1e3:.0f} ms)",
    )


def test_c02_baseline_analytic_vs_simulation(dense_run):
    cfg = dense_run.cfg
    cov = coverage_by(dense_run)
    gaps = [
        abs(cov[("gamma_o", t_lin)] - exact)
        for t_lin, exact in zip(cfg.thresholds_linear, analytic.coverage_baseline(cfg))
    ]
    # the 0 dB point also pins the classic reference value
    zero_db = cov[("gamma_o", 1.0)]
    assert abs(zero_db - 16 / (16 + math.pi)) <= 0.005
    ok = max(gaps) <= TOL["baseline_gap"] and dense_run.duration_s < 120.0
    report(
        2, "baseline coverage: simulation within 0.02 of the closed form",
        ok, f"(max gap {max(gaps):.4f} over 7 thresholds, run {dense_run.duration_s:.0f}s)",
    )


def test_c03_power_density_independence():
    base = make_cfg()
    scaled = make_cfg(lambda_bs=250.0, p_s=14.0)
    analytic_dev = abs(
        coverage_baseline_general(base, 2.0) - coverage_baseline_general(scaled, 2.0)
    )
    cfg_a = NetworkConfig(n_trials=1000, master_seed=404, p_s=2.0)
    cfg_b = NetworkConfig(n_trials=1000, master_seed=404, p_s=14.0)
    rec_a = montecarlo.draw(cfg_a)
    rec_b = montecarlo.draw(cfg_b)
    values_a = [conditional_values(cfg_a, rec_a, t) for t in cfg_a.thresholds_linear]
    values_b = [conditional_values(cfg_b, rec_b, t) for t in cfg_b.thresholds_linear]
    bit_identical = all(
        np.array_equal(a[m], b[m])
        for a, b in zip(values_a, values_b)
        for m in montecarlo.METRICS
    )
    report(
        3, "coverage is independent of transmit power and base density",
        analytic_dev <= 1e-12 and bit_identical,
        f"(analytic dev {analytic_dev:.1e}, per-realization coverage values "
        f"bit-identical: {bit_identical})",
    )


def test_c04_path_a_ordering(dense_run):
    thresholds_db = np.linspace(-20.0, 20.0, 9).tolist()
    grid = [make_cfg(n_elements=n, thresholds_db=thresholds_db) for n in (4, 16, 64, 256)]
    # as arrays: a tuple's <= is lexicographic
    grid_ok = all(
        np.all(np.asarray(analytic.coverage_path_a(c)) <= np.asarray(analytic.coverage_baseline(c))) for c in grid
    )
    cfg = dense_run.cfg
    cov = coverage_by(dense_run)
    mc_ok = all(
        cov[("gamma_a", t)] <= cov[("gamma_o", t)]
        for t in cfg.thresholds_linear
    )
    # the per-trial conditional coverage values, at every threshold
    realization_ok = all(
        np.all(values["gamma_a"] <= values["gamma_o"])
        for values in (
            conditional_values(cfg, dense_run.records, t)
            for t in cfg.thresholds_linear
        )
    )
    report(
        4, "split-beam direct path never beats the single-beam baseline",
        grid_ok and mc_ok and realization_ok,
        f"(analytic grid: {grid_ok}, coupled MC: {mc_ok}, per-realization: {realization_ok})",
    )


def test_c05_r1_marginal_reproduction(sparse_run):
    cfg = sparse_run.cfg
    counts, edges, _ = montecarlo.empirical_histogram(cfg, sparse_run.records, "r1", bins=50)
    density = counts / (counts.sum() * np.diff(edges))
    lam_eff = KM2_TO_M2 * cfg.lambda_bs * cfg.lambda_ris / (cfg.lambda_bs + cfg.lambda_ris)
    l1 = 0.0
    for left, right, dens in zip(edges[:-1], edges[1:], density):
        mid = 0.5 * (left + right)
        vals = [rayleigh_pdf(x, lam_eff) for x in (left, mid, right)]
        simpson_avg = (vals[0] + 4 * vals[1] + vals[2]) / 6.0
        l1 += abs(dens - simpson_avg) * (right - left)
    report(
        5, "base-to-reflector distance histogram matches the analytic marginal",
        l1 <= TOL["hist_l1"], f"(L1 distance {l1:.4f} at 1e5 trials)",
    )


def test_c06_engaged_probability(sparse_run):
    cfg = sparse_run.cfg
    expected = prob_ris_closer(cfg.lambda_ris * KM2_TO_M2, cfg.lambda_bs * KM2_TO_M2)
    records = sparse_run.records
    empirical = float(np.mean(records.r2 < records.r0))
    gap = abs(empirical - expected)
    report(
        6, "engaged-reflector probability matches the density ratio",
        gap <= TOL["engaged"],
        f"(empirical {empirical:.5f} vs {expected:.5f}, gap {gap:.5f})",
    )


def test_c07_power_density_conversion_ks():
    alpha, power, lam, n = 4.0, 7.0, 2.5e-5, 10_000
    lam_converted = power ** (2 / alpha) * lam
    rng_a = np.random.default_rng(511)
    rng_b = np.random.default_rng(512)
    best_orig = power * rng_a.rayleigh(1 / math.sqrt(2 * math.pi * lam), n) ** -alpha
    best_conv = rng_b.rayleigh(1 / math.sqrt(2 * math.pi * lam_converted), n) ** -alpha
    p_value = float(stats.ks_2samp(best_orig, best_conv).pvalue)
    report(
        7, "power-density conversion preserves the strongest received power",
        p_value > TOL["ks_pvalue"], f"(KS p-value {p_value:.3f} on 1e4 paired draws)",
    )


def test_c08_fade_fractional_moment():
    rng = np.random.default_rng(88)
    draws = rng.exponential(1.0, 1_000_000)
    empirical = float(np.sqrt(draws).mean())
    target = math.sqrt(math.pi) / 2
    rel = abs(empirical - target) / target
    assert fade_fractional_moment(1.0, 4.0) == pytest.approx(target, rel=1e-12)
    report(
        8, "half-power fade moment matches Gamma(3/2)",
        rel <= TOL["fade_moment_rel"], f"(relative dev {rel:.2e} over 1e6 draws)",
    )


def test_c09_array_factor():
    exact = all(
        abs(array_factor_from_phases(
            np.random.default_rng(m).uniform(0, 2 * math.pi, m), "ideal")) ** 2
        == float(m) ** 2
        for m in (1, 10, 100)
    )
    rng = np.random.default_rng(90)
    total = 0.0
    n_draws = 10_000
    for _ in range(n_draws):
        phases = rng.uniform(0, 2 * math.pi, 100)
        total += abs(array_factor_from_phases(phases, 1)) ** 2 / 100**2
    one_bit = total / n_draws
    gap = abs(one_bit - (2 / math.pi) ** 2)
    report(
        9, "ideal phasing gives the exact square-law gain; 1-bit loss matches",
        exact and gap <= TOL["one_bit"],
        f"(1-bit efficiency {one_bit:.4f} vs {(2/math.pi)**2:.4f})",
    )


def test_c10_approx1_high_density_agreement(dense_run):
    cov = coverage_by(dense_run)
    mc = cov[("gamma_b", T5DB)]
    (a1,) = analytic.coverage_path_b_approx1(dense_run.cfg.replace(thresholds_db=(5.0,)))
    gap = abs(a1 - mc)
    report(
        10, "proportional-distance approximation agrees with simulation",
        gap <= TOL["approx1_gap"],
        f"(analytic {a1:.4f} vs MC {mc:.4f}, gap {gap:.4f} at 5 dB)",
    )


def test_c11_approx2_lower_bound_direction(dense_run):
    cov = coverage_by(dense_run)
    mc = cov[("gamma_b", T5DB)]
    (a2,) = analytic.coverage_path_b_approx2(dense_run.cfg.replace(thresholds_db=(5.0,)))
    margin = mc - (a2 - TOL["approx2_margin"])
    report(
        11, "simulation does not undershoot the dense-deployment bound",
        margin >= 0.0, f"(MC {mc:.4f} vs bound {a2:.4f} - 0.03, margin {margin:+.4f})",
    )


def _gamma_b_estimate(lambda_ris_km2, lambda_bs_km2, seed):
    """``gamma_b`` at 5 dB, as a ``Coverage`` of scalars."""
    cfg = NetworkConfig(
        lambda_ris=lambda_ris_km2, lambda_bs=lambda_bs_km2,
        n_trials=20_000, master_seed=seed, thresholds_db=(5.0,),
    )
    return montecarlo.Coverage._make(array[0] for array in montecarlo.run(cfg)["gamma_b"])


def test_c12_trend_suite():
    # reflected-path coverage vs reflector density (rising curve)
    ris_grid = [500.0, 1000.0, 10_000.0, 50_000.0]
    ris_curve = [_gamma_b_estimate(lr, 25.0, seed=1200 + i) for i, lr in enumerate(ris_grid)]
    ris_pairwise = all(
        b.probability >= a.probability - (a.ci_half_width + b.ci_half_width)
        for a, b in zip(ris_curve, ris_curve[1:])
    )
    ris_span = (
        ris_curve[-1].probability - ris_curve[0].probability
        > ris_curve[-1].ci_half_width + ris_curve[0].ci_half_width
    )

    # reflected-path coverage vs base density (falling curve)
    bs_grid = [25.0, 100.0, 400.0, 1600.0]
    bs_curve = [_gamma_b_estimate(20_000.0, lb, seed=1300 + i) for i, lb in enumerate(bs_grid)]
    bs_pairwise = all(
        b.probability <= a.probability + (a.ci_half_width + b.ci_half_width)
        for a, b in zip(bs_curve, bs_curve[1:])
    )
    bs_span = (
        bs_curve[0].probability - bs_curve[-1].probability
        > bs_curve[0].ci_half_width + bs_curve[-1].ci_half_width
    )

    # mean base-to-reflector distance falls in either density
    lam_ris_grid = [2.5e-4, 1e-3, 4e-3, 1.6e-2]
    lam_bs_grid = [1e-5, 2.5e-5, 1e-4, 4e-4]
    er1 = {
        (lb, lr): geometry.expected_r1(lb, lr)
        for lb in lam_bs_grid for lr in lam_ris_grid
    }
    er1_ok = all(
        er1[(lb, a)] > er1[(lb, b)]
        for lb in lam_bs_grid for a, b in zip(lam_ris_grid, lam_ris_grid[1:])
    ) and all(
        er1[(a, lr)] > er1[(b, lr)]
        for lr in lam_ris_grid for a, b in zip(lam_bs_grid, lam_bs_grid[1:])
    )

    # mean reflected power rises in either density (unit-attenuation bank)
    bank = dict(m_elements=100, beta=1.0, p_s=2.0, mu=1.0, alpha=4.0, epsilon_floor=1.0)
    pr_ris = [
        analytic.mean_reflected_power(NetworkConfig(lambda_bs=25.0, lambda_ris=lr, **bank))
        for lr in (500.0, 2000.0, 8000.0)
    ]
    pr_bs = [
        analytic.mean_reflected_power(NetworkConfig(lambda_bs=lb, lambda_ris=1000.0, **bank))
        for lb in (10.0, 40.0, 160.0)
    ]
    power_ok = all(a < b for a, b in zip(pr_ris, pr_ris[1:])) and all(
        a < b for a, b in zip(pr_bs, pr_bs[1:])
    )

    ok = ris_pairwise and ris_span and bs_pairwise and bs_span and er1_ok and power_ok
    report(
        12, "density trends: coverage, mean distance and reflected power",
        ok,
        f"(gamma_b vs ris {['%.3f' % e.probability for e in ris_curve]}, "
        f"vs bs {['%.3f' % e.probability for e in bs_curve]}, "
        f"E[r1] monotone: {er1_ok}, E[P] monotone: {power_ok})",
    )


def test_c13_asymptotics():
    (big_bank,) = analytic.coverage_path_b_approx2(make_cfg(m_elements=10**6, thresholds_db=(5.0,)))
    (dense_ris,) = analytic.coverage_path_b_approx2(make_cfg(lambda_ris=1e6, thresholds_db=(5.0,)))
    (huge_array,) = analytic.coverage_baseline(make_cfg(n_elements=10**12, thresholds_db=(0.0,)))
    ok = big_bank > 0.99 and dense_ris > 0.99 and huge_array > 1 - 1e-5
    report(
        13, "saturation limits: giant reflector banks, dense reflectors, huge arrays",
        ok,
        f"(M=1e6: {big_bank:.5f}, lam_ris=1: {dense_ris:.5f}, N=1e12: {huge_array:.8f})",
    )


def test_c14_compare_pipeline_determinism(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cfg.yaml"
    # ten blocks of 64 lattice points under each of 32 shifts, the last one partial
    cfg.write_text("n_trials: 20000\nmaster_seed: 321\n")
    outputs = {}
    for sub in ("first", "second"):
        result = runner.invoke(
            cli.main,
            ["compare", "-c", str(cfg), "--out", str(tmp_path / sub)],
            catch_exceptions=False,
        )
        outputs[sub] = (
            result.exit_code,
            (tmp_path / sub / "compare.csv").read_bytes(),
            (tmp_path / sub / "compare_report.json").read_bytes(),
        )
    same_csv = outputs["first"][1] == outputs["second"][1]
    same_report = outputs["first"][2] == outputs["second"][2]
    same_exit = outputs["first"][0] == outputs["second"][0]
    report(
        14, "compare pipeline is byte-identical across two runs of one seed",
        same_csv and same_report and same_exit,
        f"(csv identical: {same_csv}, report identical: {same_report}, exit {outputs['first'][0]})",
    )
