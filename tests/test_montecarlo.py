"""Simulator: the vectorized engine, its conditional estimator, the reference engine's
per-trial SIRs, determinism."""
from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing.pool
import os
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import reference_engine as ref
from oracle_helpers import peak_reflection_power, reflection_gain
from riscov import analytic, cli, montecarlo
from riscov.config import KM2_TO_M2, STREAM_VERSION, ConfigError, NetworkConfig
from riscov.errors import NumericalError, ParameterError


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(montecarlo.TrialRecords))

# sha256 of the metric, T_db, value, ci_half_width and n_trials cells of the
# CSV rows of `simulate` at the defaults with 20000 trials, by stream version
SIMULATE_DIGESTS = {5: "c665b0e5f4fe64e0018c99197c711db6d376e3e88749154ead3890ff192864cd"}


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


def thinning_rate(rec, counts) -> float:
    """Interferers per base station in the drawn annulus ``r0 < r <= r_k``.

    The drawn interferers are a thinned Poisson field of intensity
    ``lambda_bs * p`` on that annulus, so the ratio estimates ``p``. Squared
    distances are in units of ``1/(pi * lambda_bs)``, so the annulus holds
    ``r_k**2 - r0**2`` bases on average.
    """
    return float(counts.sum()) / float(np.sum(rec.r_k_sq - rec.r0**2))


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
        a = montecarlo.draw(cfg)
        b = montecarlo.draw(cfg)
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)

    def test_different_trials_differ(self):
        rec = montecarlo.draw(small_cfg())
        # neighbours within a chunk, and the first trials of two chunks
        assert rec.r0[0] != rec.r0[1]
        assert rec.r0[0] != rec.r0[montecarlo.CHUNK_TRIALS]

    def test_structure_invariants(self):
        cfg = small_cfg()
        rec = montecarlo.draw(cfg)
        assert np.all(rec.r0 > 0) and np.all(rec.r_k_sq > rec.r0**2)
        # single-beam survivors are a subset of split-beam survivors
        assert np.all(rec.n_interferers_single <= montecarlo.NEAR_ARRIVALS)
        assert np.all((-np.inf < rec.log_near_single) | (rec.n_interferers_single == 0))
        assert np.all(rec.log_near_single <= rec.log_near_split)
        assert np.all(np.isfinite(rec.log_near_split))
        assert_value_orderings(cfg, rec, cfg.thresholds_linear)
        lo, hi = np.abs(rec.r0 - rec.r2), rec.r0 + rec.r2
        assert np.all((lo - 1e-9 <= rec.r1) & (rec.r1 <= hi + 1e-9))
        assert np.array_equal(rec.engaged, rec.r2 < rec.r0)

    def test_single_beam_retention_fraction(self):
        # thinning keeps 1/sqrt(N) of the non-serving bases
        cfg = small_cfg(n_trials=10_000, n_elements=16)
        rec = montecarlo.draw(cfg)
        fraction = thinning_rate(rec, rec.n_interferers_single)
        assert abs(fraction - 0.25) < 0.01
        split_fraction = thinning_rate(rec, np.full(len(rec), montecarlo.NEAR_ARRIVALS))
        assert abs(split_fraction - math.sqrt(2 / 16)) < 0.01

    def test_explicit_orientation_matches_thinning_rate(self):
        cfg = NetworkConfig(n_trials=3000, master_seed=5, orientation="explicit")
        rec = montecarlo.draw(cfg)
        fraction = thinning_rate(rec, rec.n_interferers_single)
        assert abs(fraction - 0.25) < 0.01

    def test_engaged_fraction_tracks_density_ratio(self):
        rec = montecarlo.draw(small_cfg(n_trials=10_000, lambda_ris=100.0))
        expected = 100.0 / 125.0
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(rec.engaged.mean() - expected) < 4 * se


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
            if s.engaged_ris_index is not None:
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
        assert np.all(rec.log_near_single <= rec.log_near_split)
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
        rec_a, rec_b = montecarlo.draw(cfg_a), montecarlo.draw(cfg_b)
        for field in RECORD_FIELDS:
            assert np.array_equal(getattr(rec_a, field), getattr(rec_b, field))
        for t in cfg_a.thresholds_linear:
            values_a = montecarlo.conditional_values(cfg_a, rec_a, t)
            values_b = montecarlo.conditional_values(cfg_b, rec_b, t)
            for metric in montecarlo.METRICS:
                assert np.array_equal(values_a[metric], values_b[metric])


class TestDeploymentInvariance:
    """The direct paths see the deployment only through alpha and N.

    Distances are drawn in units of ``1/sqrt(pi * lambda_bs)`` and fades in
    units of ``1/mu``, so the direct-path estimates are the defaults' to the
    bit under any change of the densities, mu or the reflector bank,
    including changes to the edges of the float range.
    """

    @staticmethod
    def direct_estimates(**change):
        cfg = NetworkConfig(n_trials=2000, **change)
        estimates = montecarlo.run(cfg)
        return [array.tolist() for metric in ("gamma_o", "gamma_a") for array in estimates[metric]]

    @pytest.mark.parametrize("change", [
        {"lambda_bs": 1e-300},
        {"lambda_bs": 1.7e308},
        {"lambda_ris": 1e-3},
        {"lambda_ris": 1e300},
        {"mu": 1e-320},
        {"mu": 1e300},
        {"m_elements": 10**150},
        {"beta": 1e-300},
        {"beta": 5e-324, "phase_bits": 1},  # the bank gain underflows to 0
        {"p_s": 1e-300},
        {"epsilon_floor": 1e100},
        {"phase_bits": 3},
    ], ids=lambda change: "-".join(f"{k}={v:.3g}" for k, v in change.items()))
    def test_direct_paths_ignore_the_deployment(self, change):
        assert self.direct_estimates(**change) == self.direct_estimates()


class TestEstimateCoverage:
    def test_tiny_threshold_gives_certain_coverage(self):
        # a conditional value is exp(-x) with x > 0, so it reaches 1 only
        # where x underflows
        ests = montecarlo.run(small_cfg(n_trials=500, thresholds_db=(-120.0, -3000.0)))
        for e in ests.values():
            assert np.all(1.0 - e.probability < 1e-9)
            assert e.probability[1] == 1.0

    def test_huge_threshold_gives_no_coverage(self):
        # a trial whose drawn single-beam field is empty gets its 0 from the
        # far field alone
        cfg = small_cfg(n_trials=500, thresholds_db=(3000.0,))
        ests = montecarlo.run(cfg)
        assert all(e.probability[0] == 0.0 and e.ci_half_width[0] == 0.0 for e in ests.values())
        rec = montecarlo.draw(cfg)
        empty = dataclasses.replace(rec, log_near_single=np.full(len(rec), -np.inf))
        assert not np.any(montecarlo.conditional_values(cfg, empty, 1e300)["gamma_o"])

    def test_requires_minimum_trials(self):
        with pytest.raises(ConfigError):
            montecarlo.run(small_cfg(n_trials=50))
        # the minimum is the estimator's: drawing needs none
        assert len(montecarlo.draw(small_cfg(n_trials=50))) == 50

    def test_worker_count_does_not_change_estimates(self, monkeypatch, pool_tasks):
        # three blocks, the last one partial
        cfg = small_cfg(n_trials=20000, thresholds_db=(-3.0, 0.0, 3.0))
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "1")
        one = montecarlo.run(cfg)
        assert pool_tasks == []
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "3")
        three = montecarlo.run(cfg)
        assert pool_tasks == [(3, 3)]
        np.testing.assert_equal(one, three)

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_pooled_estimates_match_estimates_from_records(self, monkeypatch, pool_tasks, workers):
        cfg = small_cfg(n_trials=20000, thresholds_db=(-10.0, 0.0, 10.0))
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, workers)
        estimates = montecarlo.run(cfg)
        records = montecarlo.draw(cfg)
        # the blocks' merged sums against the values of the whole run at once
        for metric, est in estimates.items():
            for t, p, half_width, n in zip(cfg.thresholds_linear, *est):
                values = montecarlo.conditional_values(cfg, records, t)[metric]
                assert n == len(values)
                assert p == pytest.approx(float(np.mean(values)), rel=1e-12)
                assert half_width == pytest.approx(
                    1.96 * float(np.std(values)) / math.sqrt(len(values)), rel=1e-9
                )
        assert pool_tasks == ([] if workers == "1" else [(3, 3)])

    def test_pool_is_capped_at_the_block_count(self, monkeypatch, pool_tasks):
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "8")
        montecarlo.run(small_cfg(n_trials=montecarlo.VALUE_BLOCK, thresholds_db=(0.0,)))
        assert pool_tasks == []
        montecarlo.run(small_cfg(n_trials=montecarlo.VALUE_BLOCK + 1, thresholds_db=(0.0,)))
        assert pool_tasks == [(2, 2)]

    @pytest.mark.parametrize("source", ["affinity", "cpu_count", "unknown"])
    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, source):
        # a huge RISCOV_WORKERS used to ask multiprocessing for that many
        # processes; a stand-in pool records its size and runs its tasks in
        # this process, so no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable, chunksize=1):
                return map(func, iterable)

        def usable_cpus(n):
            # the CPUs this process may run on, else the machine's; None when unknown
            if source == "affinity":
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: 1000)
            else:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: n if source == "cpu_count" else None)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, str(10**9))
        cfg = small_cfg(n_trials=4 * montecarlo.VALUE_BLOCK, thresholds_db=(0.0,))
        usable_cpus(3)
        capped = montecarlo.run(cfg)
        usable_cpus(1)  # one usable CPU runs the blocks in process
        serial = montecarlo.run(cfg)
        assert sizes == ([3] if source != "unknown" else [])
        np.testing.assert_equal(capped, serial)

    def test_pool_tasks_return_only_block_sums(self, monkeypatch):
        results = []
        imap = multiprocessing.pool.Pool.imap

        def recording_imap(self, func, iterable, chunksize=1):
            for result in imap(self, func, iterable, chunksize):
                results.append(result)
                yield result

        monkeypatch.setattr(multiprocessing.pool.Pool, "imap", recording_imap)
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "2")
        montecarlo.run(small_cfg(n_trials=20000, thresholds_db=(-3.0, 0.0, 3.0)))
        assert len(results) == 3
        for sums in results:
            assert type(sums) is np.ndarray
            assert sums.shape == (len(montecarlo.METRICS), 3, 3)

    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        # only one block's records are alive at a time, whatever the block count
        monkeypatch.setenv(montecarlo.WORKERS_ENV_VAR, "1")
        peaks = []
        for blocks in (2, 32):
            tracemalloc.start()
            try:
                montecarlo.run(small_cfg(n_trials=blocks * montecarlo.VALUE_BLOCK, thresholds_db=(0.0, 10.0)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

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
        cfg = small_cfg(n_trials=2000, lambda_ris=100.0, thresholds_db=(0.0,))
        by_metric, rec = montecarlo.run(cfg), montecarlo.draw(cfg)
        assert by_metric["gamma_b"].n_trials[0] == int(rec.engaged.sum())
        assert by_metric["gamma_o"].n_trials[0] == len(rec)

    def test_ci_formula(self):
        # the mean of the per-trial values and 1.96 of their standard errors
        cfg = small_cfg(n_trials=1000, thresholds_db=(0.0,))
        ((p,), (half_width,), (n,)), rec = montecarlo.run(cfg)["gamma_o"], montecarlo.draw(cfg)
        values = montecarlo.conditional_values(cfg, rec, 1.0)["gamma_o"]
        assert p == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert half_width == pytest.approx(1.96 * float(np.std(values)) / math.sqrt(n))

    def test_never_noisier_than_counting(self):
        # values in [0, 1] have a variance of at most p * (1 - p), the variance
        # of the indicators they average
        cfg = NetworkConfig(n_trials=10_000)
        ests = montecarlo.run(cfg)
        assert list(ests) == list(montecarlo.METRICS)
        for metric, e in ests.items():
            assert all(len(array) == len(cfg.thresholds_db) for array in e)
            for p, half_width, n in zip(*e):
                assert half_width <= _ci(p, n), (metric, p, half_width, n)

    def test_coverage_nonincreasing_in_threshold(self):
        ests = montecarlo.run(small_cfg(n_trials=3000, thresholds_db=(-10.0, -3.0, 0.0, 7.0, 13.0)))
        for e in ests.values():
            vals = e.probability
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_selection_dominates_paths_with_matched_denominators(self):
        # gamma_s and gamma_a average over every trial and gamma_s >= gamma_a
        # holds per trial, so it holds exactly at the coverage level; gamma_b
        # averages over the engaged trials only, and its per-trial dominance
        # is checked by assert_value_orderings
        cfg = NetworkConfig(n_trials=2000, master_seed=31, thresholds_db=(-3.0, 0.0, 7.0))
        ests = montecarlo.run(cfg)
        selection, direct = ests["gamma_s"], ests["gamma_a"]
        for j in range(3):
            assert selection.n_trials[j] == direct.n_trials[j] == cfg.n_trials
            assert selection.probability[j] >= direct.probability[j]


class TestStreamDigest:
    def test_simulate_rows_match_the_stream_version_digest(self):
        rows = cli.run_simulate(NetworkConfig(n_trials=20_000, master_seed=1234))
        header, *lines = cli.rows_to_csv(rows).splitlines()
        names = header.split(",")
        columns = [names.index(c) for c in ("metric", "T_db", "value", "ci_half_width", "n_trials")]
        cells = "\n".join(",".join(line.split(",")[i] for i in columns) for line in lines)
        digest = hashlib.sha256(cells.encode()).hexdigest()
        pinned = SIMULATE_DIGESTS.get(STREAM_VERSION)
        assert digest == pinned, (
            f"stream version {STREAM_VERSION}: the simulate rows hash to {digest}, pinned {pinned}; "
            "output bytes change only with a STREAM_VERSION bump, so bump the version and "
            "this digest together"
        )


class TestConditionalValues:
    def test_far_field_matches_its_laplace_functional_by_quadrature(self):
        # two hand-built trials in metres and watts, the second without an
        # engaged reflector; the far field's factor is
        # exp(-2*pi*lambda*p * int_{r_K}^inf r dr / (1 + r**a / c))
        cfg = NetworkConfig(alpha=3.0, mu=2.0)
        r0, r1, r2, r_k = np.array([[80.0, 60.0], [79.0, 100.0], [3.0, 70.0], [400.0, 500.0]])
        fade_f1 = np.array([0.0164, 0.111])  # mean 1/mu
        near_single = np.array([2e-9, 0.0])  # the drawn interferers' power per unit transmit power
        near_split = np.array([5e-9, 4e-9])
        length = 1.0 / math.sqrt(math.pi * cfg.lambda_bs * KM2_TO_M2)  # metres per distance unit
        with np.errstate(divide="ignore"):  # the second trial's single-beam sum is empty
            log_near_single = np.log(cfg.mu * near_single * r0**cfg.alpha)
        rec = montecarlo.TrialRecords(
            log_near_single=log_near_single,
            log_near_split=np.log(cfg.mu * near_split * r0**cfg.alpha),
            r_k_sq=(r_k / length) ** 2,
            log_far_ratio=cfg.alpha * np.log(r0 / r_k),
            # the direct link's mean power over the reflected one's, in SI units
            log_q=np.log(r0**-cfg.alpha / reflection_gain(cfg, fade_f1, r1) * r2**cfg.alpha),
            f1=cfg.mu * fade_f1,
            r0=r0 / length,
            r1=r1 / length,
            r2=r2 / length,
            engaged=np.array([True, False]),
            n_interferers_single=np.array([5, 0]),
        )
        p_single, p_split = cfg.retentions

        def oracle(k, c, near, p):
            tail, _ = integrate.quad(
                lambda r: r / (1.0 + r**cfg.alpha / c), r_k[k], np.inf,
                epsabs=0.0, epsrel=1e-12, limit=200,
            )
            return math.exp(-cfg.mu * c * near - 2.0 * math.pi * cfg.lambda_bs * KM2_TO_M2 * p * tail)

        T = 3.0
        values = montecarlo.conditional_values(cfg, rec, T)
        for k in range(2):
            c_a = T * r0[k] ** cfg.alpha
            e_a = oracle(k, c_a, near_split[k], p_split)
            assert values["gamma_o"][k] == pytest.approx(
                oracle(k, c_a, near_single[k], p_single), rel=1e-10
            )
            assert values["gamma_a"][k] == pytest.approx(e_a, rel=1e-10)
        c_a = T * r0[0] ** cfg.alpha
        c_b = T * r2[0] ** cfg.alpha / reflection_gain(cfg, fade_f1[0], r1[0])
        e_a, e_b = oracle(0, c_a, near_split[0], p_split), oracle(0, c_b, near_split[0], p_split)
        e_s = e_a + e_b - oracle(0, c_a + c_b, near_split[0], p_split)
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
        cdf = 1.0 - np.exp(-math.pi * cfg.lambda_bs * KM2_TO_M2 * edges**2)
        masses = np.diff(cdf)
        emp = counts / counts.sum()
        assert float(np.abs(emp - masses).sum()) < 0.05

    def test_p_ris_scales_with_transmit_power(self):
        # the records hold unit-free distances and fades; the histogram is in watts
        cfg = small_cfg(n_trials=1500)
        rec = montecarlo.draw(cfg)
        length = 1.0 / math.sqrt(math.pi * cfg.lambda_bs * KM2_TO_M2)  # metres per distance unit
        power = peak_reflection_power(cfg, rec.f1 / cfg.mu, rec.r1 * length)
        _, edges = montecarlo.empirical_histogram(cfg, rec, "p_ris")
        assert (edges[0], edges[-1]) == pytest.approx((power.min(), power.max()), rel=1e-12)
        _, scaled = montecarlo.empirical_histogram(cfg.replace(p_s=7 * cfg.p_s), rec, "p_ris")
        assert scaled == pytest.approx(7 * edges, rel=1e-12)

    @pytest.mark.parametrize("quantity, lam", [("r0", "lambda_bs"), ("r2", "lambda_ris")])
    def test_distances_are_in_metres(self, quantity, lam):
        # the mean of a Rayleigh distance at intensity lam per m^2 is 1 / (2 * sqrt(lam))
        cfg = small_cfg(n_trials=20_000)
        counts, edges = montecarlo.empirical_histogram(cfg, montecarlo.draw(cfg), quantity)
        mean = float(np.dot(counts, 0.5 * (edges[:-1] + edges[1:]))) / counts.sum()
        assert mean == pytest.approx(0.5 / math.sqrt(getattr(cfg, lam) * KM2_TO_M2), rel=0.02)

    def test_unknown_quantity_rejected(self, sparse_run):
        with pytest.raises(ParameterError):
            montecarlo.empirical_histogram(sparse_run.cfg, sparse_run.records, "r9")

    def test_requires_enough_trials(self):
        cfg = small_cfg(n_trials=10)
        with pytest.raises(ConfigError):
            montecarlo.empirical_histogram(cfg, montecarlo.draw(cfg), "r0")


class TestLargeAlpha:
    def test_alpha_1000_meets_the_exact_gate(self):
        # the reflected path's x * S was inf * 0 = nan wherever q overflowed
        # and S underflowed, and run raised NumericalError; both are sums of
        # logs now
        cfg = NetworkConfig(alpha=1000.0, n_trials=20_000)
        estimates = montecarlo.run(cfg)
        assert all(np.all((0.0 <= e.probability) & (e.probability <= 1.0)) for e in estimates.values())
        gamma_o = estimates["gamma_o"].probability
        exact = analytic.coverage_baseline(cfg)
        np.testing.assert_allclose(gamma_o, exact, rtol=0, atol=0.02)

    def test_near_sums_are_finite_where_they_underflow(self):
        # at alpha = 1e5 the split-beam sum S underflows to 0 on nearly every
        # trial, while log S, shifted by the first arrival's factor, is finite
        rec = montecarlo.draw(NetworkConfig(alpha=1e5, n_trials=2000))
        assert np.all(np.isfinite(rec.log_near_split))
        assert np.mean(rec.log_near_split < math.log(np.finfo(float).smallest_subnormal)) > 0.9


class TestRunConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            montecarlo.run(NetworkConfig(n_trials=0))

    def test_huge_reflector_bank_fails_only_in_watts(self):
        # M**2 leaves the float range, log G does not: the estimator reads log q
        # and gives every reflected value 1, while the powers in watts overflow
        cfg = NetworkConfig(n_trials=1000, m_elements=10**160, thresholds_db=(0.0,))
        with pytest.raises(NumericalError, match="p_ris values"):
            montecarlo.empirical_histogram(cfg, montecarlo.draw(cfg), "p_ris")
        by_metric = montecarlo.run(cfg)
        assert by_metric["gamma_b"].probability[0] == 1.0
        assert by_metric["gamma_s"].probability[0] > by_metric["gamma_a"].probability[0]


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
        (p,), (half_width,), _ = montecarlo.run(cfg)["gamma_b"]
        (overshoot,) = analytic.coverage_path_b_approx2(cfg) - p
        assert overshoot > half_width
        assert overshoot > 0.03

    def test_coverage_within_reference_ci(self):
        # both engines sample the same model: every coverage point of the
        # conditional estimator lies within the combined (summed) 95%
        # half-widths of the reference engine's indicator count
        cfg = NetworkConfig(n_trials=3000, master_seed=2026)
        ours = montecarlo.run(cfg)
        reference = ref.reference_sirs(cfg)
        sirs = {
            "gamma_o": reference["sir_o"],
            "gamma_a": reference["sir_a"],
            "gamma_b": reference["sir_b"][~np.isnan(reference["sir_b"])],
        }
        for metric, theirs in sirs.items():
            for t, p, half_width, _ in zip(cfg.thresholds_linear, *ours[metric]):
                p_ref = float(np.mean(theirs > t))
                bound = half_width + _ci(p_ref, len(theirs))
                assert abs(p - p_ref) <= bound, (metric, t, p, p_ref)
