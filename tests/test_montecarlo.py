"""Simulator: the vectorized engine, the reference engine's per-trial SIRs, estimators, determinism."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import reference_engine as ref
from riscov import channel, cli, montecarlo
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
    """Interferers per base station in the drawn annulus ``r0 < r <= r_far``.

    The drawn interferers are a thinned Poisson field of intensity
    ``lambda_bs * p`` on that annulus, so the ratio estimates ``p``.
    """
    area = math.pi * float(np.sum(rec.r_far**2 - rec.r0**2))
    return float(counts.sum()) / (cfg.lambda_bs_m2 * area)


class TestDropScenario:
    def test_same_seed_and_trial_is_byte_identical(self):
        cfg = small_cfg()
        a = montecarlo.simulate(cfg)
        b = montecarlo.simulate(cfg)
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)

    def test_different_trials_differ(self):
        rec = montecarlo.simulate(small_cfg())
        # neighbours within a chunk, and the first trials of two chunks
        assert rec.r0[0] != rec.r0[1]
        assert rec.r0[0] != rec.r0[montecarlo.CHUNK_TRIALS]

    def test_structure_invariants(self):
        cfg = small_cfg()
        rec = montecarlo.simulate(cfg)
        assert np.all(rec.r0 > 0) and np.all(rec.r_far > rec.r0)
        # single-beam survivors are a subset of split-beam survivors
        assert np.all(rec.n_interferers_single <= rec.n_interferers_split)
        assert np.all(rec.sir_a <= rec.sir_o)
        lo, hi = np.abs(rec.r0 - rec.r2), rec.r0 + rec.r2
        assert np.all((lo - 1e-9 <= rec.r1) & (rec.r1 <= hi + 1e-9))
        if cfg.conditional_path_b:
            assert np.all(rec.r2[rec.engaged] < rec.r0[rec.engaged])

    def test_single_beam_retention_fraction(self):
        # thinning keeps 1/sqrt(N) of the non-serving bases
        cfg = small_cfg(n_trials=10_000, n_elements=16)
        rec = montecarlo.simulate(cfg)
        fraction = thinning_rate(cfg, rec, rec.n_interferers_single)
        assert abs(fraction - 0.25) < 0.01
        split_fraction = thinning_rate(cfg, rec, rec.n_interferers_split)
        assert abs(split_fraction - math.sqrt(2 / 16)) < 0.01

    def test_explicit_orientation_matches_thinning_rate(self):
        cfg = NetworkConfig(n_trials=3000, master_seed=5, orientation="explicit")
        rec = montecarlo.simulate(cfg)
        fraction = thinning_rate(cfg, rec, rec.n_interferers_single)
        assert abs(fraction - 0.25) < 0.01

    def test_engaged_fraction_tracks_density_ratio(self):
        rec = montecarlo.simulate(small_cfg(n_trials=10_000, lambda_ris=100.0))
        expected = 100.0 / 125.0
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(rec.engaged.mean() - expected) < 4 * se

    def test_unconditional_mode_always_engages(self):
        rec = montecarlo.simulate(
            NetworkConfig(n_trials=500, master_seed=9, conditional_path_b=False)
        )
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
        assert np.all(rec.sir_a <= rec.sir_o)

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
        unit = channel.ReflectionModel(m_elements=1, beta_attenuation=1.0)
        assert ref.sir_path_b(s, 4.0, unit) == pytest.approx(1.0, rel=1e-9)
        bank = channel.ReflectionModel(m_elements=20, beta_attenuation=0.5)
        assert ref.sir_path_b(s, 4.0, bank) == pytest.approx(200.0, rel=1e-9)

    def test_path_b_element_scaling(self):
        s = hand_scenario(
            bs_xy=[[30.0, 0.0], [55.0, 12.0]],
            ris_xy=[[2.0, 3.0]],
            g=[0.7, 1.3],
            f1=0.9,
            h=1.8,
        )
        small = ref.sir_path_b(s, 4.0, channel.ReflectionModel(10, 0.9))
        large = ref.sir_path_b(s, 4.0, channel.ReflectionModel(100, 0.9))
        assert large == pytest.approx(100.0 * small, rel=1e-12)

    def test_path_b_absent_without_engaged_reflector(self):
        s = hand_scenario(
            bs_xy=[[5.0, 0.0], [9.0, 2.0]],
            ris_xy=[[0.0, 50.0]],  # farther than the serving base
            g=[1.0, 1.0],
        )
        assert s.engaged_ris_index is None
        model = channel.ReflectionModel(10, 0.9)
        assert ref.sir_path_b(s, 4.0, model) is None
        assert ref.sir_selection(s, 4.0, model) == ref.sir_path_a(s, 4.0)

    def test_selection_takes_maximum(self):
        s = hand_scenario(
            bs_xy=[[30.0, 0.0], [55.0, 12.0]],
            ris_xy=[[2.0, 3.0]],
            g=[0.7, 1.3],
            f1=0.9,
            h=1.8,
        )
        model = channel.ReflectionModel(100, 0.9)
        a = ref.sir_path_a(s, 4.0)
        b = ref.sir_path_b(s, 4.0, model)
        assert ref.sir_selection(s, 4.0, model) == max(a, b)


class TestTransmitPowerInvariance:
    def test_records_bit_identical_under_power_rescale(self):
        rec_a = montecarlo.simulate(small_cfg(n_trials=1000, p_s=2.0))
        rec_b = montecarlo.simulate(small_cfg(n_trials=1000, p_s=14.0))
        for field in ("sir_o", "sir_a", "sir_b", "reflect_gain", "r0", "r1", "r2"):
            assert np.array_equal(
                getattr(rec_a, field), getattr(rec_b, field), equal_nan=True
            )


class TestEstimateCoverage:
    def test_tiny_threshold_gives_certain_coverage(self):
        ests = montecarlo.estimate_coverage(small_cfg(n_trials=500), [1e-12])
        for e in ests:
            assert e.probability == 1.0

    def test_requires_minimum_trials(self):
        with pytest.raises(ParameterError):
            montecarlo.estimate_coverage(small_cfg(n_trials=50), [1.0])

    def test_requires_positive_threshold(self):
        with pytest.raises(ParameterError):
            montecarlo.estimate_coverage(small_cfg(n_trials=200), [0.0])

    def test_worker_count_does_not_change_estimates(self, monkeypatch):
        cfg = small_cfg(n_trials=3000)
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "1")
        one = montecarlo.estimate_coverage(cfg, [0.5, 1.0, 2.0])
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "3")
        three = montecarlo.estimate_coverage(cfg, [0.5, 1.0, 2.0])
        assert one == three

    def test_malformed_worker_count_warns(self, monkeypatch, capsys):
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "four")
        assert montecarlo.worker_count() == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert montecarlo.WORKERS_ENV_VAR in err and "four" in err
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "3")
        assert montecarlo.worker_count() == 3
        assert capsys.readouterr().err == ""

    def test_gamma_b_conditions_on_engagement(self):
        cfg = small_cfg(n_trials=2000, lambda_ris=100.0)
        rec = montecarlo.simulate(cfg)
        ests = montecarlo.estimate_coverage(cfg, [1.0], records=rec)
        by_metric = {e.metric: e for e in ests}
        assert by_metric["gamma_b"].n_trials == int(rec.engaged.sum())
        assert by_metric["gamma_o"].n_trials == len(rec)

    def test_ci_formula(self):
        est = montecarlo.estimate_coverage(small_cfg(n_trials=1000), [1.0])[0]
        p, n = est.probability, est.n_trials
        assert est.ci_half_width == pytest.approx(1.96 * math.sqrt(p * (1 - p) / n))

    def test_coverage_nonincreasing_in_threshold(self):
        thresholds = [0.1, 0.5, 1.0, 5.0, 20.0]
        ests = montecarlo.estimate_coverage(small_cfg(n_trials=3000), thresholds)
        for metric in montecarlo.METRICS:
            vals = [e.probability for e in ests if e.metric == metric]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_selection_dominates_paths_with_matched_denominators(self):
        # unconditional mode keeps every trial in every metric, making the
        # pointwise-max dominance exact at the coverage level
        cfg = NetworkConfig(n_trials=2000, master_seed=31, conditional_path_b=False)
        ests = montecarlo.estimate_coverage(cfg, [0.5, 1.0, 5.0])
        by = {(e.metric, e.threshold): e.probability for e in ests}
        for t in (0.5, 1.0, 5.0):
            assert by[("gamma_s", t)] >= max(by[("gamma_a", t)], by[("gamma_b", t)])


class TestHistograms:
    def test_mass_sums_to_one(self, sparse_run):
        h = montecarlo.empirical_histogram(sparse_run.cfg, "r1", records=sparse_run.records)
        assert float(np.sum(h.density * h.widths)) == pytest.approx(1.0, abs=1e-12)

    def test_r0_histogram_matches_analytic_law(self, sparse_run):
        cfg = sparse_run.cfg
        h = montecarlo.empirical_histogram(cfg, "r0", bins=50, records=sparse_run.records)
        # Rayleigh CDF 1 - exp(-pi * lambda_bs * r**2) differenced over each bin
        cdf = 1.0 - np.exp(-math.pi * cfg.lambda_bs_m2 * h.edges**2)
        masses = np.diff(cdf)
        emp = h.density * h.widths
        assert float(np.abs(emp - masses).sum()) < 0.05

    def test_p_ris_scales_with_transmit_power(self):
        cfg = small_cfg(n_trials=1500)
        rec = montecarlo.simulate(cfg)
        h = montecarlo.empirical_histogram(cfg, "p_ris", records=rec)
        finite = rec.reflect_gain[np.isfinite(rec.reflect_gain)]
        assert h.edges[-1] == pytest.approx(float(finite.max()) * cfg.p_s / 2)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ParameterError):
            montecarlo.empirical_histogram(small_cfg(), "r9")

    def test_requires_enough_trials(self):
        with pytest.raises(ParameterError):
            montecarlo.empirical_histogram(small_cfg(n_trials=10), "r0")


class TestRunConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            montecarlo.simulate(NetworkConfig(n_trials=0))

    def test_independent_fade_mode_changes_reflection_only(self):
        shared = NetworkConfig(n_trials=400, master_seed=55, shared_ris_fade=True)
        indep = NetworkConfig(n_trials=400, master_seed=55, shared_ris_fade=False)
        rec_s = montecarlo.simulate(shared)
        rec_i = montecarlo.simulate(indep)
        # geometry draws precede the fade draws, so distances agree
        assert np.array_equal(rec_s.r0, rec_i.r0)
        assert not np.array_equal(rec_s.sir_b, rec_i.sir_b, equal_nan=True)

    def test_huge_reflector_bank_fails_before_drawing(self):
        cfg = NetworkConfig(n_trials=10, m_elements=10**160, shared_ris_fade=False)
        with pytest.raises(NumericalError, match="reflector gain"):
            montecarlo.simulate(cfg)

    def test_per_element_fades_bounded_memory(self):
        cfg = NetworkConfig(
            n_trials=16, master_seed=8, m_elements=10**6, shared_ris_fade=False
        )
        tracemalloc.start()
        try:
            rec = montecarlo.simulate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one trial's 1e6 fades alone take 8 MB, a (block x M) array 128 MB
        assert peak < 8 * 10**6
        assert np.all(np.isfinite(rec.reflect_gain)) and np.all(rec.reflect_gain > 0)


def _ci(p: float, n: int) -> float:
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


class TestEngineAgreement:
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5])
    def test_low_alpha_direct_path_gates(self, alpha):
        # the compare gates of both direct paths, at the default densities;
        # the far-field tail term is what keeps alpha = 2.5 within them
        cfg = NetworkConfig(alpha=alpha, n_trials=40_000, master_seed=3)
        mc_rows, _ = cli.run_simulate(cfg)
        report = cli.build_comparison(cfg, cli.run_analytic(cfg), mc_rows)
        gates = [g for g in report["gates"] if g["metric"] in ("gamma_o", "gamma_a")]
        assert len(gates) == 2 * len(cfg.thresholds_db)
        failed = [(g["metric"], g["t_db"], round(g["gap"], 4)) for g in gates if not g["passed"]]
        assert not failed

    def test_single_element_split_beam_gates(self):
        # N = 1: the split-beam retention sqrt(2/N) exceeds 1 and is capped, in
        # the closed forms exactly as in the simulator
        cfg = NetworkConfig(n_elements=1, n_trials=20_000, master_seed=3)
        mc_rows, _ = cli.run_simulate(cfg)
        report = cli.build_comparison(cfg, cli.run_analytic(cfg), mc_rows)
        gates = [g for g in report["gates"] if g["metric"] == "gamma_a"]
        assert len(gates) == len(cfg.thresholds_db)
        failed = [(g["t_db"], round(g["gap"], 4)) for g in gates if not g["passed"]]
        assert not failed

    def test_coverage_within_reference_ci(self):
        # both engines sample the same model: every coverage point of one lies
        # within the combined (summed) 95% half-widths of the other
        cfg = NetworkConfig(n_trials=3000, master_seed=2026)
        rec = montecarlo.simulate(cfg)
        reference = ref.reference_sirs(cfg)
        for metric, name in (("gamma_o", "sir_o"), ("gamma_a", "sir_a"), ("gamma_b", "sir_b")):
            ours = rec.metric_values(metric)
            theirs = reference[name][~np.isnan(reference[name])]
            for t in cfg.thresholds_linear:
                p_ours = float(np.mean(ours > t))
                p_ref = float(np.mean(theirs > t))
                bound = _ci(p_ours, len(ours)) + _ci(p_ref, len(theirs))
                assert abs(p_ours - p_ref) <= bound, (metric, t, p_ours, p_ref)
