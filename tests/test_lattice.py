"""The lattice rule of the Monte-Carlo engine: its generating vector, its points and its half-widths."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from scipy import stats

import lattice_search
from riscov import analytic, cli, montecarlo
from riscov.config import NetworkConfig


class TestGeneratingVector:
    def test_search_yields_the_stored_vector(self):
        assert lattice_search.search(len(montecarlo.LATTICE), 7, 15) == montecarlo.LATTICE

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_fast_criterion_matches_direct_sums(self, m):
        # every candidate for a third component, by FFT and summed point by point
        size = lattice_search._Size(m)
        for z in (1, 3):
            size.add(z)
        fast = size.squared_errors(m)
        candidates = lattice_search._powers_of_five(m)
        direct = [lattice_search.squared_error((1, 3, int(z)), m) for z in candidates]
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", range(7, 16))
    def test_figure_of_merit_at_each_power_of_two(self, m):
        # embedding costs little: at every size the stored vector's worst-case
        # error is within 1.5 times that of the vector searched for that size
        # alone (measured: 1.01 to 1.29, the most at 2**10), and it falls
        # with the point count about as 1/N
        error = math.sqrt(lattice_search.squared_error(montecarlo.LATTICE, m))
        plain = math.sqrt(lattice_search.squared_error(lattice_search.plain_search(len(montecarlo.LATTICE), m), m))
        assert error <= 1.5 * plain
        assert error < math.sqrt(lattice_search.squared_error(montecarlo.LATTICE, m - 1)) * 0.75

    def test_t_quantile(self):
        assert montecarlo.T_QUANTILE == pytest.approx(stats.t.ppf(0.975, montecarlo.SHIFTS - 1), rel=1e-14)

    def test_look_quantile(self):
        # the 2.5% in each tail split over a run's 15 looks at most
        assert montecarlo.LOOK_QUANTILE == pytest.approx(stats.t.ppf(1 - 0.025 / 15, montecarlo.SHIFTS - 1),
                                                         rel=1e-14)


def tent_lattice_point(i: int, shift: tuple) -> list:
    """Point ``i`` of one shift, from the definitions in exact rational arithmetic."""
    bits = 53
    inverse = int(f"{i:0{bits}b}"[::-1], 2)  # the radical inverse, over 2**53
    point = []
    for z, delta in zip(montecarlo.LATTICE, shift):
        y = (inverse * z + delta) % (1 << bits)
        tent = 2 * y if 2 * y < (1 << bits) else (2 << bits) - 1 - 2 * y
        point.append(tent / 2**bits)
    return point


class TestPoints:
    def test_points_are_the_shifted_tent_transformed_lattice(self):
        cfg = NetworkConfig(master_seed=9)
        shifts = montecarlo._shifts(cfg)
        rng = random.Random(9)
        assert shifts.tolist() == [[rng.getrandbits(53) for _ in range(4)] for _ in range(montecarlo.SHIFTS)]
        block = montecarlo._INDICES
        for start, stop in ((0, block), (3 * block, 3 * block + 5)):
            points = montecarlo._points(shifts, start, stop).reshape(stop - start, montecarlo.SHIFTS, 4)
            for s in (0, 17, montecarlo.SHIFTS - 1):
                for i in (start, stop - 1):
                    assert points[i - start, s].tolist() == tent_lattice_point(i, tuple(shifts[s].tolist()))

    def test_points_lie_in_the_half_open_cube(self):
        # a shift of 0 and of 1 - 2**-53 put coordinates on both folds of the tent
        shifts = np.array([[0] * 4, [(1 << 53) - 1] * 4, [1 << 52] * 4], dtype=np.uint64)
        u = montecarlo._points(shifts, 0, montecarlo._INDICES)
        assert u.min() == 0.0 and u.max() < 1.0

    def test_points_at_the_origin_give_finite_sums(self):
        # with every shift 0, lattice index 0 is the point u = 0 under each
        # shift: r0 = r1 = r2 = 0 and a fade of 0, where log q is nan, yet
        # Pr[engaged | r0] and the fade's Jacobian are 0 there
        cfg = NetworkConfig()
        shifts = np.zeros((montecarlo.SHIFTS, len(montecarlo.LATTICE)), dtype=np.uint64)
        assert not montecarlo._points(shifts, 0, 1).any()
        direct = analytic.direct_factors(cfg)
        sums, reference = montecarlo._block_sums(cfg, shifts, 0, montecarlo._INDICES, direct, None)
        assert np.isfinite(sums).all() and np.isfinite(reference).all()

    @pytest.mark.parametrize("m", [1, 6, 11])
    def test_each_power_of_two_prefix_is_a_lattice(self, m):
        # in radical-inverse order the first 2**m points are {k * z / 2**m mod 1}
        prefix = sorted(tuple(int(f"{i:053b}"[::-1], 2) * z % (1 << 53) for z in montecarlo.LATTICE)
                        for i in range(1 << m))
        lattice = sorted(tuple((k * z % (1 << m)) << (53 - m) for z in montecarlo.LATTICE) for k in range(1 << m))
        assert prefix == lattice

    def test_point_count_never_exceeds_the_trial_count(self, monkeypatch):
        # the points that a run maps to trials, counted as they are mapped,
        # and the count its last look states
        mapped = []
        trials = montecarlo._trials
        monkeypatch.setattr(montecarlo, "_trials", lambda cfg, u: mapped.append(len(u)) or trials(cfg, u))
        for n_trials in (100, 131, 40_000, 40_031):
            mapped.clear()
            *_, (points, _) = montecarlo.looks(NetworkConfig(n_trials=n_trials, thresholds_db=(0.0,)))
            assert sum(mapped) == points == montecarlo.SHIFTS * (n_trials // montecarlo.SHIFTS)


class TestCoverageHonesty:
    def test_direct_path_intervals_cover_the_exact_values(self):
        # gamma_o and gamma_a have exact closed forms, so they are noise-free
        # references for the 95% intervals: over 200 seeds of a 3,200-point
        # run, at the seven default thresholds, the intervals must cover them
        # at close to the nominal rate. Seed count and bounds were fixed
        # before the first run
        seeds = range(200)
        base = NetworkConfig(n_trials=3200)
        exact = {"gamma_o": np.array(analytic.coverage_baseline(base)),
                 "gamma_a": np.array(analytic.coverage_path_a(base))}
        covered = {metric: np.zeros(len(base.thresholds_db)) for metric in exact}
        for seed in seeds:
            estimates = montecarlo.run(base.replace(master_seed=seed))
            for metric, value in exact.items():
                p, half_width = estimates[metric]
                covered[metric] += np.abs(p - value) <= half_width
        rates = np.array(list(covered.values())) / len(seeds)
        assert 0.90 <= rates.mean() <= 0.99, rates
        assert rates.min() >= 0.85, rates

    def test_reflected_path_intervals_cover_a_long_run(self):
        # gamma_b and gamma_s have no exact closed form; the reference is a
        # fixed-seed 2**20-point run, whose half-width is at most 1/20 of the
        # tested one. Over 100 seeds of a 3,200-point run, at three configs
        # and the seven default thresholds, the intervals must cover it at
        # close to the nominal rate. Configs, seed count and bounds were fixed
        # before the first run
        seeds = range(100)
        rates = []
        for change in ({}, {"lambda_ris": 1000.0}, {"n_elements": 1}):
            reference = montecarlo.run(NetworkConfig(n_trials=1 << 20, master_seed=10**6, **change))
            base = NetworkConfig(n_trials=3200, **change)
            covered = {metric: np.zeros(len(base.thresholds_db)) for metric in ("gamma_b", "gamma_s")}
            for seed in seeds:
                estimates = montecarlo.run(base.replace(master_seed=seed))
                for metric in covered:
                    p, half_width = estimates[metric]
                    value, reference_half_width = reference[metric]
                    assert np.all(reference_half_width <= half_width / 20), (change, metric, seed)
                    covered[metric] += np.abs(p - value) <= half_width
            rates.extend(covered.values())
        rates = np.array(rates) / len(seeds)
        assert 0.90 <= rates.mean() <= 0.99, rates
        assert rates.min() >= 0.85, rates


def _verdicts(report: dict) -> dict:
    return {(g["engine"], g["t_db"]): g["passed"] for g in report["gates"]}


class TestEarlyVerdicts:
    def test_early_verdicts_match_a_long_run(self):
        # compare stops at the first look where every gate is decided; over
        # 20 seeds at the default cap its verdicts must equal those of one
        # fixed-seed 2**18-point run, failures included. The configs are the
        # defaults, lambda_ris = 1000 and 1e4, alpha = 3 with N = 2, N = 1,
        # alpha = 2.5 and alpha = 1000, and lambda_ris = 10**4.5, where the
        # approx1 gap at 2**12 points lies 1.71 half-widths from its
        # tolerance (the scan that CHANGES.md records). Configs, seeds and
        # the bound, equality, were fixed before the first run
        changes = ({}, {"lambda_ris": 1000.0}, {"lambda_ris": 1e4}, {"alpha": 3.0, "n_elements": 2},
                   {"n_elements": 1}, {"alpha": 2.5}, {"alpha": 1000.0}, {"lambda_ris": 31622.776602})
        for change in changes:
            long_run = NetworkConfig(n_trials=1 << 18, master_seed=10**6, **change)
            expected = _verdicts(cli.build_comparison(long_run, cli.run_analytic(long_run),
                                                      cli.run_simulate(long_run)))
            for seed in range(20):
                _, report = cli.run_compare(NetworkConfig(master_seed=seed, **change))
                assert _verdicts(report) == expected, (change, seed, report["n_trials"])
