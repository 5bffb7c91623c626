"""Simulator: the vectorized engine, its conditional estimator, the reference engine's
per-trial SIRs, determinism."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import reference_engine as ref
from riscov import analytic, channel, cli, montecarlo
from riscov.config import ConfigError, NetworkConfig
from riscov.errors import NumericalError, ParameterError


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(montecarlo.TrialRecords))


def small_cfg(**cfg_kw) -> NetworkConfig:
    defaults = dict(n_trials=2000, master_seed=77)
    defaults.update(cfg_kw)
    return NetworkConfig(**defaults)


def hand_scenario(
    bs_xy,
    ris_xy,
    g,
    f1=1.0,
    h=1.0,
    retained_single=None,
    retained_split=None,
):
    """Assemble a fully specified reference-engine scenario for closed-form SIR checks."""
    bs = ref.PointSet(np.asarray(bs_xy, dtype=float), 1e-4, 1e5)
    ris = ref.PointSet(np.asarray(ris_xy, dtype=float).reshape(-1, 2), 1e-4, 1e5)
    serving, r0 = ref.nearest_point(bs)
    if len(ris):
        nearest_ris, r2 = ref.nearest_point(ris)
        d = bs.points[serving] - ris.points[nearest_ris]
        r1 = float(np.hypot(d[0], d[1]))
        engaged = nearest_ris if r2 < r0 else None
    else:
        nearest_ris, r2, r1, engaged = None, math.nan, math.nan, None
    n = len(bs)
    single = np.ones(n, bool) if retained_single is None else np.asarray(retained_single, bool)
    split = np.ones(n, bool) if retained_split is None else np.asarray(retained_split, bool)
    single = single.copy()
    split = split.copy()
    single[serving] = False
    split[serving] = False
    return ref.Scenario(
        bs_points=bs,
        ris_points=ris,
        serving_bs_index=serving,
        nearest_ris_index=nearest_ris,
        engaged_ris_index=engaged,
        r0=r0,
        r2=r2,
        r1=r1,
        fades=ref.Fades(g=np.asarray(g, dtype=float), f1=f1, h=h),
        retained_single=single,
        retained_split=split,
        trial_index=0,
    )


def thinning_rate(cfg, rec, counts) -> float:
    """Interferers per base station in the drawn annulus ``r0 < r <= r_k``.

    The drawn interferers are a thinned Poisson field of intensity
    ``lambda_bs * p`` on that annulus, so the ratio estimates ``p``.
    """
    area = math.pi * float(np.sum(rec.r_k**2 - rec.r0**2))
    return float(counts.sum()) / (cfg.lambda_bs_m2 * area)


def assert_value_orderings(cfg, rec, thresholds):
    """Per trial and threshold: e_a <= e_o, and e_s >= max(e_a, e_b) where engaged.

    The split beam keeps a superset of the single beam's interferers and the
    selection takes the better of two paths; both orderings are exact in the
    per-trial conditional values, not only in their means.
    """
    for t in thresholds:
        values = montecarlo.conditional_values(cfg, rec, t)
        e_o, e_a, e_b, e_s = (values[m] for m in montecarlo.METRICS)
        for v in (e_o, e_a, e_b, e_s):
            assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(e_a <= e_o), t
        assert np.all(e_s >= e_a), t
        assert np.all(e_s[rec.engaged] >= e_b), t
        assert np.array_equal(e_s[~rec.engaged], e_a[~rec.engaged])


class TestDropScenario:
    def test_same_seed_and_trial_is_byte_identical(self):
        cfg = small_cfg()
        a = montecarlo.run(cfg)[0]
        b = montecarlo.run(cfg)[0]
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)

    def test_different_trials_differ(self):
        rec = montecarlo.run(small_cfg())[0]
        # neighbours within a chunk, and the first trials of two chunks
        assert rec.r0[0] != rec.r0[1]
        assert rec.r0[0] != rec.r0[montecarlo.CHUNK_TRIALS]

    def test_structure_invariants(self):
        cfg = small_cfg()
        rec = montecarlo.run(cfg)[0]
        assert np.all(rec.r0 > 0) and np.all(rec.r_k > rec.r0)
        # single-beam survivors are a subset of split-beam survivors
        assert np.all(rec.n_interferers_single <= montecarlo.NEAR_ARRIVALS)
        assert np.all((0.0 < rec.near_single) | (rec.n_interferers_single == 0))
        assert np.all(rec.near_single <= rec.near_split)
        assert_value_orderings(cfg, rec, cfg.thresholds_linear)
        lo, hi = np.abs(rec.r0 - rec.r2), rec.r0 + rec.r2
        assert np.all((lo - 1e-9 <= rec.r1) & (rec.r1 <= hi + 1e-9))
        if cfg.conditional_path_b:
            assert np.all(rec.r2[rec.engaged] < rec.r0[rec.engaged])

    def test_single_beam_retention_fraction(self):
        # thinning keeps 1/sqrt(N) of the non-serving bases
        cfg = small_cfg(n_trials=10_000, n_elements=16)
        rec = montecarlo.run(cfg)[0]
        fraction = thinning_rate(cfg, rec, rec.n_interferers_single)
        assert abs(fraction - 0.25) < 0.01
        split_fraction = thinning_rate(cfg, rec, np.full(len(rec), montecarlo.NEAR_ARRIVALS))
        assert abs(split_fraction - math.sqrt(2 / 16)) < 0.01

    def test_explicit_orientation_matches_thinning_rate(self):
        cfg = NetworkConfig(n_trials=3000, master_seed=5, orientation="explicit")
        rec = montecarlo.run(cfg)[0]
        fraction = thinning_rate(cfg, rec, rec.n_interferers_single)
        assert abs(fraction - 0.25) < 0.01

    def test_engaged_fraction_tracks_density_ratio(self):
        rec = montecarlo.run(small_cfg(n_trials=10_000, lambda_ris=100.0))[0]
        expected = 100.0 / 125.0
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(rec.engaged.mean() - expected) < 4 * se

    def test_unconditional_mode_always_engages(self):
        rec = montecarlo.run(
            NetworkConfig(n_trials=500, master_seed=9, conditional_path_b=False)
        )[0]
        assert rec.engaged.all()


class TestReferenceDrop:
    """The windowed reference engine's drops, which the cross-checks rely on."""

    def test_same_seed_and_trial_is_byte_identical(self):
        cfg = small_cfg()
        a = ref.drop_scenario(cfg, 5)
        b = ref.drop_scenario(cfg, 5)
        assert np.array_equal(a.bs_points.points, b.bs_points.points)
        assert np.array_equal(a.ris_points.points, b.ris_points.points)
        assert np.array_equal(a.fades.g, b.fades.g)
        assert np.array_equal(a.retained_single, b.retained_single)
        assert np.array_equal(a.retained_split, b.retained_split)
        assert (a.r0, a.r1, a.r2, a.fades.f1, a.fades.h) == (
            b.r0, b.r1, b.r2, b.fades.f1, b.fades.h
        )

    def test_different_trials_differ(self):
        cfg = small_cfg()
        assert ref.drop_scenario(cfg, 0).r0 != ref.drop_scenario(cfg, 1).r0

    def test_structure_invariants(self):
        cfg = small_cfg()
        for idx in range(20):
            s = ref.drop_scenario(cfg, idx)
            radii = s.bs_points.radii()
            assert s.r0 == radii.min()
            assert not s.retained_single[s.serving_bs_index]
            assert not s.retained_split[s.serving_bs_index]
            # single-beam survivors are a subset of split-beam survivors
            assert not np.any(s.retained_single & ~s.retained_split)
            if s.nearest_ris_index is not None:
                lo, hi = abs(s.r0 - s.r2), s.r0 + s.r2
                assert lo - 1e-9 <= s.r1 <= hi + 1e-9
            if cfg.conditional_path_b and s.engaged_ris_index is not None:
                assert s.r2 < s.r0


class TestPerTrialSirs:
    def test_baseline_single_interferer(self):
        # equal fades, interferer twice as far, fourth-power law: SIR = 16
        s = hand_scenario(
            bs_xy=[[10.0, 0.0], [20.0, 0.0]],
            ris_xy=np.empty((0, 2)),
            g=[1.0, 1.0],
        )
        assert ref.sir_baseline(s, 4.0) == pytest.approx(16.0, rel=1e-12)

    def test_empty_interferer_set_is_covered_sentinel(self):
        s = hand_scenario(
            bs_xy=[[10.0, 0.0], [20.0, 0.0]],
            ris_xy=np.empty((0, 2)),
            g=[1.0, 1.0],
            retained_single=[False, False],
        )
        sir = ref.sir_baseline(s, 4.0)
        assert math.isinf(sir) and sir > 1e6

    def test_path_a_never_beats_baseline_when_coupled(self, dense_run):
        rec = dense_run.records
        assert np.all(rec.near_single <= rec.near_split)
        assert_value_orderings(dense_run.cfg, rec, dense_run.cfg.thresholds_linear)

    def test_path_b_unit_configuration(self):
        # r1 = r2 = 1 with unit link gains and a unit-strength interference
        # sum: SIR reduces to M^2 * beta. The reflector sits where the unit
        # circles around the user and around the serving base intersect; the
        # interferer must lie beyond the serving base, so its fade compensates
        # its path loss (g = d^alpha).
        ris_x = math.sqrt(1.0 - 0.5625)
        s = hand_scenario(
            bs_xy=[[0.0, 1.5], [2.0, 0.0]],
            ris_xy=[[ris_x, 0.75]],
            g=[1.0, 16.0],
        )
        assert (s.r0, s.r2) == (1.5, 1.0)
        assert s.r1 == pytest.approx(1.0, rel=1e-12)
        assert s.engaged_ris_index == 0
        unit = NetworkConfig(m_elements=1, beta=1.0, alpha=4.0)
        assert ref.sir_path_b(s, unit) == pytest.approx(1.0, rel=1e-9)
        bank = NetworkConfig(m_elements=20, beta=0.5, alpha=4.0)
        assert ref.sir_path_b(s, bank) == pytest.approx(200.0, rel=1e-9)

    def test_path_b_element_scaling(self):
        s = hand_scenario(
            bs_xy=[[30.0, 0.0], [55.0, 12.0]],
            ris_xy=[[2.0, 3.0]],
            g=[0.7, 1.3],
            f1=0.9,
            h=1.8,
        )
        small = ref.sir_path_b(s, NetworkConfig(m_elements=10, beta=0.9, alpha=4.0))
        large = ref.sir_path_b(s, NetworkConfig(m_elements=100, beta=0.9, alpha=4.0))
        assert large == pytest.approx(100.0 * small, rel=1e-12)

    def test_path_b_absent_without_engaged_reflector(self):
        s = hand_scenario(
            bs_xy=[[5.0, 0.0], [9.0, 2.0]],
            ris_xy=[[0.0, 50.0]],  # farther than the serving base
            g=[1.0, 1.0],
        )
        assert s.engaged_ris_index is None
        cfg = NetworkConfig(m_elements=10, beta=0.9, alpha=4.0)
        assert ref.sir_path_b(s, cfg) is None
        assert ref.sir_selection(s, cfg) == ref.sir_path_a(s, 4.0)

    def test_selection_takes_maximum(self):
        s = hand_scenario(
            bs_xy=[[30.0, 0.0], [55.0, 12.0]],
            ris_xy=[[2.0, 3.0]],
            g=[0.7, 1.3],
            f1=0.9,
            h=1.8,
        )
        cfg = NetworkConfig(m_elements=100, beta=0.9, alpha=4.0)
        a = ref.sir_path_a(s, 4.0)
        b = ref.sir_path_b(s, cfg)
        assert ref.sir_selection(s, cfg) == max(a, b)


class TestTransmitPowerInvariance:
    def test_records_bit_identical_under_power_rescale(self):
        cfg_a, cfg_b = small_cfg(n_trials=1000, p_s=2.0), small_cfg(n_trials=1000, p_s=14.0)
        rec_a, rec_b = montecarlo.run(cfg_a)[0], montecarlo.run(cfg_b)[0]
        for field in RECORD_FIELDS:
            assert np.array_equal(getattr(rec_a, field), getattr(rec_b, field))
        for t in cfg_a.thresholds_linear:
            values_a = montecarlo.conditional_values(cfg_a, rec_a, t)
            values_b = montecarlo.conditional_values(cfg_b, rec_b, t)
            for metric in montecarlo.METRICS:
                assert np.array_equal(values_a[metric], values_b[metric])


class TestEstimateCoverage:
    def test_tiny_threshold_gives_certain_coverage(self):
        # a conditional value is exp(-x) with x > 0, so it reaches 1 only
        # where x underflows
        _, ests = montecarlo.run(small_cfg(n_trials=500), [1e-12, 1e-300])
        for e in ests:
            assert 1.0 - e.probability < 1e-9
            assert e.probability == 1.0 or e.threshold == 1e-12

    def test_huge_threshold_gives_no_coverage(self):
        # T * r0**alpha leaves the float range; it is capped, so a trial whose
        # drawn single-beam field is empty does not turn 0 * inf into nan
        cfg = small_cfg(n_trials=500)
        rec, ests = montecarlo.run(cfg, [1e300])
        assert all(e.probability == 0.0 and e.ci_half_width == 0.0 for e in ests)
        empty = dataclasses.replace(rec, near_single=np.zeros(len(rec)))
        assert not np.any(montecarlo.conditional_values(cfg, empty, 1e300)["gamma_o"])

    def test_requires_minimum_trials(self):
        with pytest.raises(ConfigError):
            montecarlo.run(small_cfg(n_trials=50), [1.0])
        # the minimum is the estimator's: a run without thresholds only draws
        records, estimates = montecarlo.run(small_cfg(n_trials=50))
        assert len(records) == 50 and estimates == []

    def test_requires_positive_threshold(self):
        with pytest.raises(ParameterError):
            montecarlo.run(small_cfg(n_trials=200), [0.0])

    def test_worker_count_does_not_change_estimates(self, monkeypatch, pool_tasks):
        # three blocks, the last one partial
        cfg = small_cfg(n_trials=20000)
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "1")
        _, one = montecarlo.run(cfg, [0.5, 1.0, 2.0])
        assert pool_tasks == []
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "3")
        _, three = montecarlo.run(cfg, [0.5, 1.0, 2.0])
        assert pool_tasks == [(3, 3)]
        assert one == three

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_pooled_estimates_match_estimates_from_records(self, monkeypatch, pool_tasks, workers):
        cfg = small_cfg(n_trials=20000)
        thresholds = [0.1, 1.0, 10.0]
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, workers)
        records, estimates = montecarlo.run(cfg, thresholds)
        # the blocks' merged sums against the values of the whole run at once
        for e in estimates:
            values = montecarlo.conditional_values(cfg, records, e.threshold)[e.metric]
            assert e.n_trials == len(values)
            assert e.probability == pytest.approx(float(np.mean(values)), rel=1e-12)
            assert e.ci_half_width == pytest.approx(
                1.96 * float(np.std(values)) / math.sqrt(len(values)), rel=1e-9
            )
        # thresholds change no draw
        draws_only, no_estimates = montecarlo.run(cfg)
        assert no_estimates == []
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(records, name), getattr(draws_only, name))
        assert pool_tasks == ([] if workers == "1" else [(3, 3)] * 2)

    def test_pool_is_capped_at_the_block_count(self, monkeypatch, pool_tasks):
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "8")
        montecarlo.run(small_cfg(n_trials=montecarlo.VALUE_BLOCK))
        assert pool_tasks == []
        montecarlo.run(small_cfg(n_trials=montecarlo.VALUE_BLOCK + 1))
        assert pool_tasks == [(2, 2)]

    def test_malformed_worker_count_warns(self, monkeypatch, capsys):
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "four")
        assert montecarlo.worker_count() == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert montecarlo.WORKERS_ENV_VAR in err and "four" in err
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "3")
        assert montecarlo.worker_count() == 3
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_nonpositive_worker_count_warns(self, monkeypatch, capsys, raw):
        # these once fell back to one worker without a word
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, raw)
        assert montecarlo.worker_count() == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert montecarlo.WORKERS_ENV_VAR in err and repr(raw) in err

    def test_gamma_b_conditions_on_engagement(self):
        cfg = small_cfg(n_trials=2000, lambda_ris=100.0)
        rec, ests = montecarlo.run(cfg, [1.0])
        by_metric = {e.metric: e for e in ests}
        assert by_metric["gamma_b"].n_trials == int(rec.engaged.sum())
        assert by_metric["gamma_o"].n_trials == len(rec)

    def test_ci_formula(self):
        # the mean of the per-trial values and 1.96 of their standard errors
        cfg = small_cfg(n_trials=1000)
        rec, (est, *_) = montecarlo.run(cfg, [1.0])
        values = montecarlo.conditional_values(cfg, rec, 1.0)["gamma_o"]
        n = est.n_trials
        assert est.probability == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert est.ci_half_width == pytest.approx(1.96 * float(np.std(values)) / math.sqrt(n))

    def test_never_noisier_than_counting(self):
        # values in [0, 1] have a variance of at most p * (1 - p), the variance
        # of the indicators they average
        cfg = NetworkConfig(n_trials=10_000)
        _, ests = montecarlo.run(cfg, cfg.thresholds_linear)
        assert len(ests) == len(montecarlo.METRICS) * len(cfg.thresholds_db)
        for e in ests:
            assert e.ci_half_width <= _ci(e.probability, e.n_trials), e

    def test_coverage_nonincreasing_in_threshold(self):
        thresholds = [0.1, 0.5, 1.0, 5.0, 20.0]
        _, ests = montecarlo.run(small_cfg(n_trials=3000), thresholds)
        for metric in montecarlo.METRICS:
            vals = [e.probability for e in ests if e.metric == metric]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_selection_dominates_paths_with_matched_denominators(self):
        # unconditional mode keeps every trial in every metric, making the
        # pointwise-max dominance exact at the coverage level
        cfg = NetworkConfig(n_trials=2000, master_seed=31, conditional_path_b=False)
        _, ests = montecarlo.run(cfg, [0.5, 1.0, 5.0])
        by = {(e.metric, e.threshold): e.probability for e in ests}
        for t in (0.5, 1.0, 5.0):
            assert by[("gamma_s", t)] >= max(by[("gamma_a", t)], by[("gamma_b", t)])


class TestConditionalValues:
    def test_far_field_matches_its_laplace_functional_by_quadrature(self):
        # two hand-built trials, the second without an engaged reflector; the
        # far field's factor is exp(-2*pi*lambda*p * int_{r_K}^inf r dr / (1 + r**a / c))
        cfg = NetworkConfig(alpha=3.0, mu=2.0)
        rec = montecarlo.TrialRecords(
            near_single=np.array([2e-9, 0.0]),
            near_split=np.array([5e-9, 4e-9]),
            r_k=np.array([400.0, 500.0]),
            reflect_gain=np.array([3e-4, 1e-3]),
            r0=np.array([80.0, 60.0]),
            r1=np.array([79.0, 100.0]),
            r2=np.array([3.0, 70.0]),
            engaged=np.array([True, False]),
            n_interferers_single=np.array([5, 0]),
        )
        p_single, p_split = channel.retention_probabilities(cfg)

        def oracle(k, c, near, p):
            tail, _ = integrate.quad(
                lambda r: r / (1.0 + r**cfg.alpha / c), rec.r_k[k], np.inf,
                epsabs=0.0, epsrel=1e-12, limit=200,
            )
            return math.exp(-cfg.mu * c * near - 2.0 * math.pi * cfg.lambda_bs_m2 * p * tail)

        T = 3.0
        values = montecarlo.conditional_values(cfg, rec, T)
        for k in range(2):
            c_a = T * rec.r0[k] ** cfg.alpha
            e_a = oracle(k, c_a, rec.near_split[k], p_split)
            assert values["gamma_o"][k] == pytest.approx(
                oracle(k, c_a, rec.near_single[k], p_single), rel=1e-10
            )
            assert values["gamma_a"][k] == pytest.approx(e_a, rel=1e-10)
        c_a, c_b = T * 80.0**3, T * 3.0**3 / 3e-4
        e_a, e_b = oracle(0, c_a, 5e-9, p_split), oracle(0, c_b, 5e-9, p_split)
        e_s = e_a + e_b - oracle(0, c_a + c_b, 5e-9, p_split)
        assert 0.05 < e_a < e_b < e_s < 0.999  # no term is trivially 0 or 1
        assert values["gamma_b"] == pytest.approx([e_b], rel=1e-10)
        assert values["gamma_s"] == pytest.approx([e_s, values["gamma_a"][1]], rel=1e-10)


class TestHistograms:
    def test_mass_sums_to_one(self, sparse_run):
        cfg = sparse_run.cfg
        counts, edges = montecarlo.empirical_histogram(cfg, sparse_run.records, "r1")
        assert int(counts.sum()) == np.count_nonzero(np.isfinite(sparse_run.records.r1))
        # the CSV normalizes the counts to a density of unit mass; its ten
        # significant digits bound the rounding of the sum well below 1e-9
        lines = cli.histogram_csv(cfg, "r1", counts, edges).splitlines()[1:]
        rows = [line.split(",") for line in lines]
        mass = sum(float(r[3]) * (float(r[2]) - float(r[1])) for r in rows)
        assert len(rows) == 60 and mass == pytest.approx(1.0, abs=1e-9)

    def test_r0_histogram_matches_analytic_law(self, sparse_run):
        cfg = sparse_run.cfg
        counts, edges = montecarlo.empirical_histogram(cfg, sparse_run.records, "r0", bins=50)
        # Rayleigh CDF 1 - exp(-pi * lambda_bs * r**2) differenced over each bin
        cdf = 1.0 - np.exp(-math.pi * cfg.lambda_bs_m2 * edges**2)
        masses = np.diff(cdf)
        emp = counts / counts.sum()
        assert float(np.abs(emp - masses).sum()) < 0.05

    def test_p_ris_scales_with_transmit_power(self):
        cfg = small_cfg(n_trials=1500)
        rec, _ = montecarlo.run(cfg)
        _, edges = montecarlo.empirical_histogram(cfg, rec, "p_ris")
        finite = rec.reflect_gain[np.isfinite(rec.reflect_gain)]
        assert edges[-1] == pytest.approx(float(finite.max()) * cfg.p_s / 2)

    def test_unknown_quantity_rejected(self, sparse_run):
        with pytest.raises(ParameterError):
            montecarlo.empirical_histogram(sparse_run.cfg, sparse_run.records, "r9")

    def test_requires_enough_trials(self):
        cfg = small_cfg(n_trials=10)
        with pytest.raises(ConfigError):
            montecarlo.empirical_histogram(cfg, montecarlo.run(cfg)[0], "r0")


class TestRunConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            montecarlo.run(NetworkConfig(n_trials=0))

    def test_huge_reflector_bank_fails_before_drawing(self):
        cfg = NetworkConfig(n_trials=10, m_elements=10**160)
        with pytest.raises(NumericalError, match="reflector gain"):
            montecarlo.run(cfg)


def _ci(p: float, n: int) -> float:
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


class TestEngineAgreement:
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5])
    def test_low_alpha_direct_path_gates(self, alpha):
        # the compare gates of both direct paths, at the default densities;
        # the far-field tail term is what keeps alpha = 2.5 within them
        cfg = NetworkConfig(alpha=alpha, n_trials=40_000, master_seed=3)
        mc_rows = cli.run_simulate(cfg)
        report = cli.build_comparison(cfg, cli.run_analytic(cfg), mc_rows)
        gates = [g for g in report["gates"] if g["metric"] in ("gamma_o", "gamma_a")]
        assert len(gates) == 2 * len(cfg.thresholds_db)
        failed = [(g["metric"], g["t_db"], round(g["gap"], 4)) for g in gates if not g["passed"]]
        assert not failed

    def test_single_element_split_beam_gates(self):
        # N = 1: the split-beam retention sqrt(2/N) exceeds 1 and is capped, in
        # the closed forms exactly as in the simulator
        cfg = NetworkConfig(n_elements=1, n_trials=20_000, master_seed=3)
        mc_rows = cli.run_simulate(cfg)
        report = cli.build_comparison(cfg, cli.run_analytic(cfg), mc_rows)
        gates = [g for g in report["gates"] if g["metric"] == "gamma_a"]
        assert len(gates) == len(cfg.thresholds_db)
        failed = [(g["t_db"], round(g["gap"], 4)) for g in gates if not g["passed"]]
        assert not failed

    @pytest.mark.parametrize("n_elements, alpha", [(2, 3.0), (1, 4.0)])
    def test_approx2_lies_above_simulated_gamma_b(self, n_elements, alpha):
        # approx2 is documented as a lower bound on gamma_b, but at small
        # arrays it overshoots the simulated coverage at 5 dB by more than
        # the estimate's half-width (and more than the 0.03 gate margin)
        cfg = NetworkConfig(
            n_elements=n_elements, alpha=alpha, n_trials=20_000, master_seed=3,
            thresholds_db=(5.0,),
        )
        t = cfg.thresholds_linear[0]
        est = next(e for e in montecarlo.run(cfg, [t])[1] if e.metric == "gamma_b")
        overshoot = analytic.coverage_path_b_approx2(cfg, t) - est.probability
        assert overshoot > est.ci_half_width
        assert overshoot > 0.03

    def test_coverage_within_reference_ci(self):
        # both engines sample the same model: every coverage point of the
        # conditional estimator lies within the combined (summed) 95%
        # half-widths of the reference engine's indicator count
        cfg = NetworkConfig(n_trials=3000, master_seed=2026)
        _, ests = montecarlo.run(cfg, cfg.thresholds_linear)
        ours = {(e.metric, e.threshold): e for e in ests}
        reference = ref.reference_sirs(cfg)
        sirs = {
            "gamma_o": reference["sir_o"],
            "gamma_a": reference["sir_a"],
            "gamma_b": reference["sir_b"][~np.isnan(reference["sir_b"])],
        }
        for metric, theirs in sirs.items():
            for t in cfg.thresholds_linear:
                est = ours[(metric, t)]
                p_ref = float(np.mean(theirs > t))
                bound = est.ci_half_width + _ci(p_ref, len(theirs))
                assert abs(est.probability - p_ref) <= bound, (metric, t, est.probability, p_ref)
