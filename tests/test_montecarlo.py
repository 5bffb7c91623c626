"""Simulator: the vectorized engine, its conditional estimator, the reference engine's
drops and per-trial SIRs, and determinism.

Three relations of the engine are each one parametrized table:
``TestBlockReduction::test_run_matches_its_points_recomputed`` (``run``
equals its points recomputed by ``oracle_helpers.lattice_estimates``),
``TestUnmovedBits::test_change_keeps_the_bits`` (a change that must not move
bits moves none) and ``TestEngineAgreement::test_direct_path_gates_pass``
(the direct-path compare gates pass). A config or argument that the engine
rejects is a row of ``tests/test_cli.py``'s exit table, not a test here.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import reference_engine as ref
from oracle_helpers import (conditional_values, gamma_b_large_alpha_limit, gamma_b_sampled, lattice_estimates,
                            lattice_records, peak_reflection_power, rayleigh_pdf, reflection_gain)
from riscov import analytic, cli, montecarlo
from riscov.config import KM2_TO_M2, STREAM_VERSION, ConfigError, NetworkConfig
from riscov.errors import NumericalError


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(montecarlo.TrialRecords))

# sha256 of the metric, T_db, value, ci_half_width and n_trials cells of the
# CSV rows of `simulate` at the defaults with 20000 trials, by stream version;
# CHANGES.md lists the digests of earlier streams
SIMULATE_DIGESTS = {
    14: "054b11a186eeea15dbb2606721cda67811fb15f1a696241f937e1b1bb9e43f4a",
}

# sha256 of the probability and ci_half_width bytes of every metric, in METRICS
# order, of montecarlo.run with 20000 trials at each alpha, by stream version:
# a last-ulp change that the CSV's 10 digits round away changes it, as stream
# 14's elementary I(T, 3) did at alpha = 3 (CHANGES.md lists the digests of
# earlier streams). Another numpy or platform may round exp and log
# differently, so the bytes are pinned for one build only
RUN_BYTES_DIGESTS = {
    14: {
        4.0: "57ff0cc649730983834eb78ae0fb7555af45016d2ee533039177925f4e9ced44",
        3.0: "c720ec1cda21519f79919ca6f51387535ac8130ed8e5cc3f91c85c97d1a811be",
    },
}
RUN_BYTES_BUILD = ((3, 11), "2.4.6")


def small_cfg(**cfg_kw) -> NetworkConfig:
    defaults = dict(n_trials=2000, master_seed=77)
    defaults.update(cfg_kw)
    return NetworkConfig(**defaults)


def hand_sirs(cfg, bs_xy, ris_xy, g, f1=1.0, h=1.0, retained_single=None, retained_split=None):
    """The reference engine's ``(sir_o, sir_a, sir_b)`` of a fully specified drop, for closed-form checks."""
    bs = np.asarray(bs_xy, dtype=float)
    marks = [np.ones(len(bs), bool) if m is None else np.asarray(m) for m in (retained_single, retained_split)]
    return ref.sirs(cfg, bs, np.asarray(ris_xy, dtype=float), marks, (np.asarray(g, dtype=float), f1, h))


def reference_sir_s(sir_a, sir_b):
    """The selection's SIR from the reference's paths: the stronger one, path A where ``sir_b`` is nan."""
    return np.fmax(sir_a, sir_b)


def assert_value_orderings(cfg, rec, thresholds):
    """Per trial and threshold: e_a <= e_o, and e_s >= max(e_a, e_b) where engaged.

    The split beam keeps a superset of the single beam's interferers and the
    selection takes the better of two paths; both orderings are exact in the
    per-trial conditional values, not only in their means.
    """
    engaged = rec.r2 < rec.r0
    for t in thresholds:
        values = conditional_values(cfg, rec, t)
        e_o, e_a, e_b, e_s = (values[m] for m in montecarlo.METRICS)
        for v in (e_o, e_a, e_b, e_s):
            assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(e_a <= e_o), t
        assert np.all(e_s >= e_a), t
        assert np.all(e_s[engaged] >= e_b), t
        assert np.array_equal(e_s[~engaged], e_a[~engaged])


class TestDropScenario:
    def test_drawing_needs_no_minimum(self):
        # the trial minimum is the estimator's
        assert len(montecarlo.draw(small_cfg(n_trials=50)).r0) == 50

    def test_different_trials_differ(self):
        rec = montecarlo.draw(small_cfg(n_trials=montecarlo.VALUE_BLOCK + 1))
        # neighbours within a block, and the first trials of two blocks
        assert rec.r0[0] != rec.r0[1]
        assert rec.r0[0] != rec.r0[montecarlo.VALUE_BLOCK]

    def test_a_run_is_the_start_of_any_longer_run(self):
        # draw takes the lattice points index by index, every shift of an
        # index in turn, so a shorter draw is a prefix of a longer one
        short, long = (montecarlo.draw(small_cfg(n_trials=n)) for n in (3000, 5000))
        for name in RECORD_FIELDS:
            assert getattr(short, name).tobytes() == getattr(long, name)[:3000].tobytes(), name

    def test_draws_the_points_that_run_integrates_over(self):
        # hist bins the run's own lattice points, before run moves the fade
        # coordinate and draws the reflector inside r0: the serving distance,
        # which reads neither, is run's, and the reflector is drawn from its
        # unconditional law, engaged or not
        cfg = small_cfg(n_trials=3 * montecarlo.VALUE_BLOCK)
        drawn = montecarlo.draw(cfg)
        records, _, _, per_shift = lattice_records(cfg)

        def in_draw_order(values):
            return values.reshape(montecarlo.SHIFTS, per_shift).T.ravel()

        assert np.array_equal(drawn.r0, in_draw_order(records.r0))
        for name in ("r1", "r2", "f1"):
            assert not np.array_equal(getattr(drawn, name), in_draw_order(getattr(records, name))), name
        assert np.all(records.r2 <= records.r0) and not np.all(drawn.r2 < drawn.r0)

    def test_hand_picked_points_map_to_their_trials(self):
        # at equal densities rho = 1: u0 = 1 - 1/e puts the serving base at
        # r0 = 1 and u3 = 1 - 1/e gives f1 = 1; u1 = 1 - exp(-r2**2) puts the
        # reflector at r2, and u2 = 0, 1/4 and 1/2 turn it onto the +x, +y and
        # -x axes, where r1 is |r2 - r0|, hypot(r0, r2) and r0 + r2
        cfg = NetworkConfig(lambda_ris=NetworkConfig().lambda_bs)
        r2, u2 = (a.ravel() for a in np.meshgrid([0.5, 0.999, 1.001, 2.0], [0.0, 0.25, 0.5]))
        unit = np.full_like(r2, 1.0 - math.exp(-1.0))
        u = np.stack([unit, -np.expm1(-r2 * r2), u2, unit], axis=1)
        rec = montecarlo._trials(cfg, u)
        r1 = np.select([u2 == 0.0, u2 == 0.25], [np.abs(r2 - 1.0), np.hypot(1.0, r2)], 1.0 + r2)
        np.testing.assert_allclose(rec.r0, 1.0, rtol=1e-15)
        np.testing.assert_allclose(rec.f1, 1.0, rtol=1e-15)
        np.testing.assert_allclose(rec.r2, r2, rtol=1e-14)
        np.testing.assert_allclose(rec.r1, r1, rtol=1e-12)
        np.testing.assert_allclose(rec.log_q_per_alpha, np.log(r1 * r2) + cfg.log_k_per_alpha, rtol=0, atol=1e-12)

    def test_structure_invariants(self):
        cfg = small_cfg()
        rec = montecarlo.draw(cfg)
        assert np.all(rec.r0 > 0) and np.all(np.isfinite(rec.log_q_per_alpha))
        assert_value_orderings(cfg, rec, cfg.thresholds_linear)
        lo, hi = np.abs(rec.r0 - rec.r2), rec.r0 + rec.r2
        assert np.all((lo - 1e-9 <= rec.r1) & (rec.r1 <= hi + 1e-9))

    def test_explicit_orientation_matches_thinning_rate(self):
        # explicit main lobes keep 1/sqrt(N) of the non-serving bases of a
        # reference drop, and sqrt(2/N) when split, as thinning does; the
        # engine integrates the interferers out at those rates, so it draws
        # the same trials for both modes (the row [orientation] of
        # test_change_keeps_the_bits)
        cfg = NetworkConfig(n_trials=3000, master_seed=5, orientation="explicit")
        rng = np.random.default_rng(5)
        kept, interferers = np.zeros(2), 0
        for k in range(40):
            bs = ref.drop(cfg, k)[0]
            others = np.delete(bs, np.argmin(np.hypot(*bs.T)), axis=0)
            boresight = 2.0 * math.pi * rng.random(len(others))
            to_user = np.arctan2(-others[:, 1], -others[:, 0])
            off = np.abs((boresight - to_user + math.pi) % (2.0 * math.pi) - math.pi)
            # a main lobe is 2*pi/sqrt(N) wide, sqrt(2) times that when split
            kept += [np.sum(off <= width * math.pi / math.sqrt(cfg.n_elements)) for width in (1.0, math.sqrt(2.0))]
            interferers += len(others)
        rates = [1.0 / math.sqrt(cfg.n_elements), math.sqrt(2.0 / cfg.n_elements)]
        assert np.all(np.abs(kept / interferers - rates) < 0.01), kept / interferers

    def test_engaged_fraction_tracks_density_ratio(self):
        rec = montecarlo.draw(small_cfg(n_trials=10_000, lambda_ris=100.0))
        expected = 100.0 / 125.0
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(np.mean(rec.r2 < rec.r0) - expected) < 4 * se


class TestReferenceDrop:
    """The windowed reference engine's drops, which the cross-checks rely on."""

    @pytest.mark.skipif((sys.version_info[:2], np.__version__) != RUN_BYTES_BUILD,
                        reason="the full-precision bytes are pinned under Python 3.11 and numpy 2.4.6")
    def test_sirs_bytes_match_the_pinned_digest(self):
        # the reference's draws and arithmetic, pinned before it was rewritten
        # as three functions: a rewrite that moves a draw or an operation moves
        # these bytes
        sirs = ref.reference_sirs(NetworkConfig(n_trials=200, master_seed=2026))
        digest = hashlib.sha256(b"".join(sirs[name].tobytes() for name in ("sir_o", "sir_a", "sir_b"))).hexdigest()
        assert digest == "37bb5616be60881cf4b4cf159e11b87d84d79b786e8e0040169d04c394c1a840"

    def test_same_seed_and_trial_is_byte_identical(self):
        cfg = small_cfg()
        (bs, ris, marks, fades), again = ref.drop(cfg, 5), ref.drop(cfg, 5)
        assert np.array_equal(bs, again[0]) and np.array_equal(ris, again[1])
        assert all(np.array_equal(a, b) for a, b in zip(marks, again[2]))
        assert all(np.array_equal(a, b) for a, b in zip(fades, again[3]))

    def test_different_trials_differ(self):
        cfg = small_cfg()
        assert np.hypot(*ref.drop(cfg, 0)[0].T).min() != np.hypot(*ref.drop(cfg, 1)[0].T).min()

    def test_structure_invariants(self):
        cfg = small_cfg()
        for idx in range(20):
            bs, ris, (single, split), fades = ref.drop(cfg, idx)
            assert len(single) == len(split) == len(fades[0]) == len(bs)
            # single-beam survivors are a subset of split-beam survivors
            assert not np.any(single & ~split)
            sir_o, sir_a, sir_b = ref.sirs(cfg, bs, ris, (single, split), fades)
            assert sir_a <= sir_o
            assert math.isnan(sir_b) == (np.hypot(*ris.T).min() >= np.hypot(*bs.T).min())

    def test_marks_keep_the_thinning_rates(self):
        # one uniform per base keeps it at 1/sqrt(N) single-beam and at
        # sqrt(2/N) split-beam, the rates the analysis thins at
        cfg = small_cfg()
        marks = [ref.drop(cfg, k)[2] for k in range(40)]
        rates = [np.mean(np.concatenate([m[beam] for m in marks])) for beam in (0, 1)]
        expected = [1.0 / math.sqrt(cfg.n_elements), math.sqrt(2.0 / cfg.n_elements)]
        assert np.all(np.abs(np.subtract(rates, expected)) < 0.01), rates

    def test_fades_are_exponential_with_mean_one_over_mu(self):
        cfg = small_cfg(mu=2.0)
        fades = [ref.drop(cfg, k)[3] for k in range(200)]
        g = np.concatenate([f[0] for f in fades])
        assert stats.kstest(g, "expon", args=(0.0, 1.0 / cfg.mu)).statistic < 0.01
        # one f1 and one h per drop: 400 draws, 4 standard errors
        links = [f[i] for f in fades for i in (1, 2)]
        assert abs(np.mean(links) - 1.0 / cfg.mu) < 4.0 * (1.0 / cfg.mu) / math.sqrt(len(links))


class TestPerTrialSirs:
    def test_baseline_single_interferer(self):
        # equal fades, interferer twice as far, fourth-power law: SIR = 16
        sir_o, _, _ = hand_sirs(NetworkConfig(alpha=4.0), bs_xy=[[10.0, 0.0], [20.0, 0.0]], ris_xy=[[0.0, 50.0]],
                                g=[1.0, 1.0])
        assert sir_o == pytest.approx(16.0, rel=1e-12)

    def test_nearest_base_serves_wherever_it_is_listed(self):
        # the drop of test_baseline_single_interferer, farther base first
        sir_o, sir_a, _ = hand_sirs(NetworkConfig(alpha=4.0), bs_xy=[[20.0, 0.0], [10.0, 0.0]], ris_xy=[[0.0, 50.0]],
                                    g=[1.0, 1.0])
        assert sir_o == sir_a == pytest.approx(16.0, rel=1e-12)

    def test_baseline_follows_the_path_loss_exponent(self):
        # the same drop at alpha = 3: SIR = 2^3
        sir_o, _, _ = hand_sirs(NetworkConfig(alpha=3.0), bs_xy=[[10.0, 0.0], [20.0, 0.0]], ris_xy=[[0.0, 50.0]],
                                g=[1.0, 1.0])
        assert sir_o == pytest.approx(8.0, rel=1e-12)

    def test_empty_interferer_set_is_covered_sentinel(self):
        sir_o, _, _ = hand_sirs(NetworkConfig(alpha=4.0), bs_xy=[[10.0, 0.0], [20.0, 0.0]], ris_xy=[[0.0, 50.0]],
                                g=[1.0, 1.0], retained_single=[False, False])
        assert math.isinf(sir_o) and sir_o > 1e6

    def test_path_a_never_beats_baseline_when_coupled(self, dense_run):
        assert_value_orderings(dense_run.cfg, dense_run.records, dense_run.cfg.thresholds_linear)

    def test_path_b_unit_configuration(self):
        # r1 = r2 = 1 with unit link gains and a unit-strength interference
        # sum: SIR reduces to M^2 * beta. The reflector sits where the unit
        # circles around the user and around the serving base (r0 = 1.5)
        # intersect; the interferer must lie beyond the serving base, so its
        # fade compensates its path loss (g = d^alpha).
        drop = dict(bs_xy=[[0.0, 1.5], [2.0, 0.0]], ris_xy=[[math.sqrt(1.0 - 0.5625), 0.75]], g=[1.0, 16.0])
        assert hand_sirs(NetworkConfig(m_elements=1, beta=1.0, alpha=4.0), **drop)[2] == pytest.approx(1.0, rel=1e-9)
        bank = NetworkConfig(m_elements=20, beta=0.5, alpha=4.0)
        assert hand_sirs(bank, **drop)[2] == pytest.approx(200.0, rel=1e-9)

    def test_nearest_reflector_is_engaged_wherever_it_is_listed(self):
        # the unit drop of test_path_b_unit_configuration with a farther
        # reflector listed first; it too is closer than the serving base
        drop = dict(bs_xy=[[0.0, 1.5], [2.0, 0.0]], ris_xy=[[0.0, 1.2], [math.sqrt(1.0 - 0.5625), 0.75]],
                    g=[1.0, 16.0])
        assert hand_sirs(NetworkConfig(m_elements=1, beta=1.0, alpha=4.0), **drop)[2] == pytest.approx(1.0, rel=1e-9)

    def test_path_b_without_split_interferers_is_covered_sentinel(self):
        drop = dict(bs_xy=[[0.0, 1.5], [2.0, 0.0]], ris_xy=[[math.sqrt(1.0 - 0.5625), 0.75]], g=[1.0, 16.0],
                    retained_split=[False, False])
        _, sir_a, sir_b = hand_sirs(NetworkConfig(m_elements=1, beta=1.0, alpha=4.0), **drop)
        assert math.isinf(sir_a) and math.isinf(sir_b)

    def test_path_b_element_scaling(self):
        drop = dict(bs_xy=[[30.0, 0.0], [55.0, 12.0]], ris_xy=[[2.0, 3.0]], g=[0.7, 1.3], f1=0.9, h=1.8)
        _, _, small = hand_sirs(NetworkConfig(m_elements=10, beta=0.9, alpha=4.0), **drop)
        _, _, large = hand_sirs(NetworkConfig(m_elements=100, beta=0.9, alpha=4.0), **drop)
        assert large == pytest.approx(100.0 * small, rel=1e-12)

    def test_path_b_absent_without_engaged_reflector(self):
        # the reflector is farther than the serving base
        cfg = NetworkConfig(m_elements=10, beta=0.9, alpha=4.0)
        _, sir_a, sir_b = hand_sirs(cfg, bs_xy=[[5.0, 0.0], [9.0, 2.0]], ris_xy=[[0.0, 50.0]], g=[1.0, 1.0])
        assert math.isnan(sir_b)
        assert reference_sir_s(sir_a, sir_b) == sir_a

    def test_selection_takes_maximum(self):
        cfg = NetworkConfig(m_elements=100, beta=0.9, alpha=4.0)
        _, sir_a, sir_b = hand_sirs(cfg, bs_xy=[[30.0, 0.0], [55.0, 12.0]], ris_xy=[[2.0, 3.0]], g=[0.7, 1.3],
                                    f1=0.9, h=1.8)
        assert reference_sir_s(sir_a, sir_b) == max(sir_a, sir_b)


def _records(cfg):
    """The arrays of :func:`montecarlo.draw`'s records."""
    records = montecarlo.draw(cfg)
    return [getattr(records, name) for name in RECORD_FIELDS]


def _records_and_values(cfg):
    """The drawn records and every metric's conditional values at every threshold."""
    records = montecarlo.draw(cfg)
    return [*(getattr(records, name) for name in RECORD_FIELDS),
            *(conditional_values(cfg, records, t)[metric]
              for t in cfg.thresholds_linear for metric in montecarlo.METRICS)]


def _direct_estimates(cfg):
    """The probabilities and half-widths of ``run``'s gamma_o and gamma_a."""
    estimates = montecarlo.run(cfg)
    return [array for metric in ("gamma_o", "gamma_a") for array in estimates[metric]]


_DEFAULT_2000 = NetworkConfig(n_trials=2000)

# rows of TestUnmovedBits.test_change_keeps_the_bits: the outputs of both configs agree bit for bit
_UNMOVED_BITS = [
    # the same seed and trials draw the same records
    pytest.param(small_cfg(), small_cfg(), _records, id="repeat"),
    # explicit lobes are integrated out at the thinning rate
    pytest.param(NetworkConfig(n_trials=3000, master_seed=5, orientation="explicit"),
                 NetworkConfig(n_trials=3000, master_seed=5, orientation="thinning"), _records, id="orientation"),
    # the records hold unit-free distances and fades, and the SIR is a power ratio
    pytest.param(small_cfg(n_trials=1000, p_s=2.0), small_cfg(n_trials=1000, p_s=14.0), _records_and_values,
                 id="p_s"),
    # the direct paths see the deployment only through alpha and N: distances
    # are drawn in units of 1/sqrt(pi * lambda_bs) and fades in units of 1/mu,
    # so the densities, mu and the bank, even at the edges of the float range,
    # leave their estimates as they are
    *[pytest.param(_DEFAULT_2000.replace(**change), _DEFAULT_2000, _direct_estimates,
                   id="-".join(f"{k}={v:.3g}" for k, v in change.items()))
      for change in ({"lambda_bs": 1e-300}, {"lambda_bs": 1.7e308}, {"lambda_ris": 1e-3}, {"lambda_ris": 1e300},
                     {"mu": 1e-320}, {"mu": 1e300}, {"m_elements": 10**150}, {"beta": 1e-300},
                     {"beta": 5e-324, "phase_bits": 1},  # the bank gain underflows to 0
                     {"p_s": 1e-300}, {"epsilon_floor": 1e100}, {"phase_bits": 3})],
]


class TestUnmovedBits:
    @pytest.mark.parametrize("before, after, outputs", _UNMOVED_BITS)
    def test_change_keeps_the_bits(self, before, after, outputs):
        arrays = outputs(before), outputs(after)
        assert len(arrays[0]) == len(arrays[1]) > 0
        for k, (a, b) in enumerate(zip(*arrays)):
            assert a.tobytes() == b.tobytes(), k


class TestEstimateCoverage:
    def test_tiny_threshold_gives_certain_coverage(self):
        # a conditional value is exp(-x) with x > 0, so it reaches 1 only
        # where x underflows
        ests = montecarlo.run(small_cfg(n_trials=500, thresholds_db=(-120.0, -3000.0)))
        for e in ests.values():
            assert np.all(1.0 - e.probability < 1e-9)
            assert e.probability[1] == 1.0

    def test_huge_threshold_gives_no_coverage(self):
        cfg = small_cfg(n_trials=500, thresholds_db=(3000.0,))
        ests = montecarlo.run(cfg)
        assert all(e.probability[0] == 0.0 and e.ci_half_width[0] == 0.0 for e in ests.values())

    def test_sparse_reflectors_give_gamma_b(self):
        # the parent engine counted the engaged points and read nan at these
        # densities, where 20,000 points engage none; given r0, a reflector
        # inside it lies at r2**2 = u1 * r0**2 in the sparse limit, so both
        # densities give the same gamma_b, far from 0 and 1
        base = NetworkConfig(lambda_bs=25.0, n_trials=20_000)
        estimates = [montecarlo.run(base.replace(lambda_ris=lam))["gamma_b"] for lam in (1e-6, 1e-300)]
        for p, half_width in estimates:
            assert np.isfinite(p).all() and np.all((0.0 < half_width) & (half_width < np.inf))
        (p_a, half_width_a), (p_b, _) = estimates
        assert np.all(np.abs(p_a - p_b) <= half_width_a)
        j = NetworkConfig().thresholds_db.index(0.0)
        assert 0.03 < p_b[j] < 0.05

    def test_memory_does_not_grow_with_the_trial_count(self):
        # only one block's records are alive at a time, whatever the block count
        peaks = []
        for blocks in (2, 32):
            tracemalloc.start()
            try:
                montecarlo.run(small_cfg(n_trials=blocks * montecarlo.VALUE_BLOCK, thresholds_db=(0.0, 10.0)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_gamma_b_conditions_on_engagement(self):
        # run draws the reflector inside r0 and weights each point by
        # Pr[engaged | r0]: its gamma_b matches gamma_b over the engaged drops
        # of independent samples, within the two half-widths
        cfg = small_cfg(n_trials=4000, lambda_ris=100.0, thresholds_db=(0.0, 10.0))
        records, _, engaged, _ = lattice_records(cfg)
        assert np.all(records.r2 <= records.r0)
        np.testing.assert_allclose(engaged, -np.expm1(-100.0 / 25.0 * np.square(records.r0)), rtol=1e-12)
        gamma_b = montecarlo.run(cfg)["gamma_b"]
        for t, p, half_width in zip(cfg.thresholds_linear, *gamma_b):
            sampled, sampled_half_width = gamma_b_sampled(cfg, t, n_samples=200_000)
            assert abs(p - sampled) <= half_width + sampled_half_width, (t, p, sampled)

    def test_ci_formula(self):
        # the mean of the shift means and Student's t with SHIFTS - 1 degrees
        # of freedom times their standard error
        cfg = small_cfg(n_trials=1000, thresholds_db=(0.0,))
        *_, (points, estimates) = montecarlo.looks(cfg)
        (p,), (half_width,) = estimates["gamma_o"]
        records, _, _, per_shift = lattice_records(cfg)
        means = conditional_values(cfg, records, 1.0)["gamma_o"].reshape(montecarlo.SHIFTS, per_shift).mean(axis=1)
        assert points == 992 == montecarlo.SHIFTS * per_shift
        assert p == pytest.approx(float(np.mean(means)), rel=1e-12)
        assert half_width == pytest.approx(
            stats.t.ppf(0.975, montecarlo.SHIFTS - 1) * float(np.std(means, ddof=1)) / math.sqrt(montecarlo.SHIFTS))

    def test_never_noisier_than_counting(self):
        # values in [0, 1] have a variance of at most p * (1 - p), the variance
        # of the indicators they average, and the lattice rule divides it
        # further; its half-width is itself an estimate from 32 shifts, yet
        # at the defaults it stays far below the counting half-width
        cfg = NetworkConfig(n_trials=10_000)
        *_, (n, ests) = montecarlo.looks(cfg)
        assert list(ests) == list(montecarlo.METRICS)
        for metric, e in ests.items():
            assert all(len(array) == len(cfg.thresholds_db) for array in e)
            for p, half_width in zip(*e):
                assert half_width <= _ci(p, n), (metric, p, half_width, n)

    def test_coverage_nonincreasing_in_threshold(self):
        ests = montecarlo.run(small_cfg(n_trials=3000, thresholds_db=(-10.0, -3.0, 0.0, 7.0, 13.0)))
        for e in ests.values():
            vals = e.probability
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_selection_dominates_paths_with_matched_denominators(self):
        # gamma_s and gamma_a count every point and gamma_s >= gamma_a holds
        # per trial; gamma_s weights its points by the fade coordinate's
        # Jacobian, so the estimates keep that order up to their noise, far
        # below the selection gain here. gamma_b is conditioned on an
        # engaged reflector, and its per-trial dominance is checked by
        # assert_value_orderings
        cfg = NetworkConfig(n_trials=2000, master_seed=31, thresholds_db=(-3.0, 0.0, 7.0))
        *_, (points, ests) = montecarlo.looks(cfg)
        selection, direct = ests["gamma_s"], ests["gamma_a"]
        assert points == 1984  # 32 shifts of 62 points
        assert np.all(selection.probability >= direct.probability)


def _blocks_without_engaged(cfg, estimates):
    # at 4e-3 reflectors per km^2 (3.2 engaged points expected among the
    # unconditioned draws) some blocks hold no engaged point; the reflector
    # is drawn inside r0 and weighted by Pr[engaged | r0], so every block weighs in
    drawn = montecarlo.draw(cfg)
    per_block = np.add.reduceat(drawn.r2 < drawn.r0, np.arange(0, len(drawn.r0), montecarlo.VALUE_BLOCK))
    assert (per_block == 0).any() and per_block.any()
    (p,), (half_width,) = estimates["gamma_b"]
    assert 0.0 < half_width < p


def _recomputed(id, *checks, **change):
    """A row of :meth:`TestBlockReduction.test_run_matches_its_points_recomputed`: ``small_cfg(**change)``.

    Each ``check(cfg, estimates)`` asserts what the row adds.
    """
    return pytest.param(change, checks, id=id)


_RECOMPUTED_RUNS = [
    # thresholds down to -40 dB, where gamma_s is near 1 and the shift means
    # agree to about 1e-10: sums of the values themselves would lose most of
    # the half-width's digits to their rounding
    _recomputed("shift-means-near-one", n_trials=20000, thresholds_db=(-40.0, -30.0, -20.0, -10.0, 0.0, 10.0)),
    # block boundaries; a last block of one lattice index holds one point per shift
    *[_recomputed(id, n_trials=n_trials, lambda_ris=100.0, thresholds_db=(-40.0, 0.0)) for id, n_trials in (
        ("part-block", 100),
        ("one-block", montecarlo.VALUE_BLOCK),
        ("one-index-over", montecarlo.VALUE_BLOCK + montecarlo.SHIFTS),
        ("part-block-over", 3 * montecarlo.VALUE_BLOCK + montecarlo.VALUE_BLOCK // 2 - 1))],
    _recomputed("blocks-without-engaged", _blocks_without_engaged, n_trials=20000, lambda_ris=4e-3,
                thresholds_db=(0.0,)),
]


class TestBlockReduction:
    @pytest.mark.parametrize("change, checks", _RECOMPUTED_RUNS)
    def test_run_matches_its_points_recomputed(self, change, checks):
        # the blocks' summed sums against the values of the whole run at once
        cfg = small_cfg(**change)
        estimates = montecarlo.run(cfg)
        for j, t in enumerate(cfg.thresholds_linear):
            for metric, (p, half_width) in lattice_estimates(cfg, t).items():
                assert estimates[metric].probability[j] == pytest.approx(p, rel=1e-12)
                assert estimates[metric].ci_half_width[j] == pytest.approx(half_width, rel=1e-9, abs=0.0)
        for check in checks:
            check(cfg, estimates)

    @pytest.mark.parametrize("scale", [1e-10, 1e-160, 1e-200])
    def test_half_width_keeps_its_digits_near_one(self, scale):
        # shift means within `scale` of 1, as at -40 dB, where the means
        # themselves have lost digits of their spread, given as deviations
        # from a reference of 1; their half-width is under scale / 10, so
        # approx's default abs of 1e-12 is off. Unless the deviations are
        # scaled first, their squares are subnormal at 1e-160, which loses
        # digits of the half-width, and underflow to 0 at 1e-200
        unit = np.random.default_rng(3).random(montecarlo.SHIFTS)
        deviations = -scale * unit
        per_shift = 1000
        sums = np.empty((2, len(montecarlo.METRICS), 1, montecarlo.SHIFTS))
        sums[0], sums[1] = per_shift * deviations, per_shift
        two_pass = scale * montecarlo.T_QUANTILE * float(np.std(unit, ddof=1)) / math.sqrt(montecarlo.SHIFTS)
        means = 1.0 + deviations
        plain = montecarlo.T_QUANTILE * float(np.std(means, ddof=1)) / math.sqrt(montecarlo.SHIFTS)
        assert abs(plain / two_pass - 1.0) > 1e-9  # the data are where the means' own rounding shows
        reference = np.ones((len(montecarlo.METRICS), 1))
        for metric, ((p,), (half_width,)) in montecarlo._estimates(sums, reference).items():
            assert p == pytest.approx(1.0 + float(np.mean(deviations)), rel=1e-15)
            assert half_width == pytest.approx(two_pass, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [2.5, 4.0, 1000.0])
    def test_stacked_reflected_factors_match_one_call_each(self, alpha):
        # e(T * q) and e(T * (1 + q)) share one call on a (2, n) array; each
        # element takes the branch of its own sign, so the rows are unchanged
        rng = np.random.default_rng(8)
        rows = np.stack([rng.normal(0.0, 3.0, 500), rng.normal(0.5, 3.0, 500)])
        rows[0, :4] = -np.inf, np.inf, 0.0, np.nan
        stacked = montecarlo.interference_factor_from_log(rows, alpha)
        assert stacked.shape == rows.shape
        for row, values in zip(rows, stacked):
            np.testing.assert_array_equal(values, montecarlo.interference_factor_from_log(row, alpha))

    def test_direct_factor_is_evaluated_once_per_threshold(self, monkeypatch):
        # the direct paths' I(T, alpha) is the closed forms' scalar, shared by
        # every trial and block; only the reflected path's factor, an array,
        # is evaluated per block
        calls = []

        def counting(module):
            factor = module.interference_factor_from_log

            def count(log_t_per_alpha, alpha):
                calls.append((module.__name__, np.ndim(log_t_per_alpha)))
                return factor(log_t_per_alpha, alpha)

            monkeypatch.setattr(module, "interference_factor_from_log", count)

        counting(montecarlo)
        counting(analytic)
        thresholds = (-3.0, 0.0, 3.0)
        # 257 lattice indices: blocks 0-3, 4-7, 8-15, 16-31 and 32-63, three of 64 and one of 1
        montecarlo.run(small_cfg(n_trials=4 * montecarlo.VALUE_BLOCK + montecarlo.SHIFTS, thresholds_db=thresholds))
        assert calls.count(("riscov.analytic", 0)) == len(thresholds)
        assert calls.count(("riscov.montecarlo", 2)) == 9 * len(thresholds)
        assert len(calls) == 10 * len(thresholds)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_direct_factor_is_the_closed_forms_own(self, alpha, monkeypatch):
        # run reads the table of (log T / alpha, I) that the baseline, path-A
        # and approx2 closed forms are formed from, bit for bit, at every
        # default threshold; gamma_o and gamma_a weight r0**2 by its floats
        cfg = small_cfg(alpha=alpha, n_trials=200)
        table = analytic.direct_factors(cfg)
        assert [u for u, _ in table] == [math.log(t) / alpha for t in cfg.thresholds_linear]
        seen, block_sums = [], montecarlo._block_sums

        def recording(cfg, shifts, start, stop, direct, reference):
            seen.append(direct)
            return block_sums(cfg, shifts, start, stop, direct, reference)

        monkeypatch.setattr(montecarlo, "_block_sums", recording)
        montecarlo.run(cfg)
        assert seen == [table, table]  # the blocks of lattice indices 0-3 and 4-5
        p_single, p_split = cfg.retentions
        log_kappa = analytic.log_reflector_ratio(cfg)
        assert analytic.coverage_baseline(cfg) == tuple(1.0 / (1.0 + p_single * f) for _, f in table)
        assert analytic.coverage_path_a(cfg) == tuple(1.0 / (1.0 + p_split * f) for _, f in table)
        assert analytic.coverage_path_b_approx2(cfg) == tuple(
            analytic._reflected_coverage(log_kappa, p_split * f) for _, f in table)
        records = montecarlo.draw(cfg)
        area = np.square(records.r0)
        for t, (_, factor) in zip(cfg.thresholds_linear, table):
            values = conditional_values(cfg, records, t)
            np.testing.assert_array_equal(values["gamma_o"], np.exp(-p_single * area * factor))
            np.testing.assert_array_equal(values["gamma_a"], np.exp(-p_split * area * factor))

    def test_nonfinite_block_names_its_trials(self, monkeypatch):
        # 197 lattice indices are blocks 0-3, 4-7, 8-15, 16-31, 32-63, 64-127,
        # 128-191 and 192-196; the seventh turns nan, the blocks before it
        # reduced cleanly, and the message names its lattice indices
        seen = []
        values = montecarlo._values

        def nan_in_seventh_block(cfg, records, engaged, direct):
            by_threshold = list(values(cfg, records, engaged, direct))
            seen.append(len(records.r0))
            if len(seen) == 7:
                by_threshold[0]["gamma_a"] = np.full_like(by_threshold[0]["gamma_a"], math.nan)
            return by_threshold

        monkeypatch.setattr(montecarlo, "_values", nan_in_seventh_block)
        block, indices = montecarlo.VALUE_BLOCK, montecarlo._INDICES
        cfg = small_cfg(n_trials=3 * block + 5 * montecarlo.SHIFTS, thresholds_db=(0.0,))
        with pytest.raises(NumericalError, match=f"^lattice points {2 * indices}-{3 * indices - 1}: "):
            montecarlo.run(cfg)
        assert seen == [128, 128, 256, 512, 1024, block, block]


class TestLooks:
    def test_each_look_is_the_run_of_its_count_and_run_is_the_last(self):
        # the blocks of a run are a prefix of a longer run's, so a look's
        # estimates are those of run at its point count, bit for bit
        cfg = small_cfg(n_trials=5000, lambda_ris=100.0, thresholds_db=(-10.0, 5.0))  # 156 indices per shift
        looks = list(montecarlo.looks(cfg))
        assert [points for points, _ in looks] == [128, 256, 512, 1024, 2048, 4096, 4992]
        runs = [montecarlo.run(cfg.replace(n_trials=points)) for points, _ in looks] + [montecarlo.run(cfg)]
        for (_, estimates), expected in zip([*looks, looks[-1]], runs):
            for metric in montecarlo.METRICS:
                for got, want in zip(estimates[metric], expected[metric]):
                    np.testing.assert_array_equal(got, want)

    def test_doublings_end_at_2_to_the_20_points(self, monkeypatch):
        # at most the 15 looks that LOOK_QUANTILE splits the 5% over: each
        # doubling from 2**7 to 2**20 points, and the cap; the sums are
        # stubbed, so no point is evaluated
        monkeypatch.setattr(montecarlo, "_block_sums", lambda cfg, shifts, start, stop, direct, reference: (0, None))
        monkeypatch.setattr(montecarlo, "_estimates", lambda total, reference: None)
        cfg = NetworkConfig(n_trials=3 << 20, thresholds_db=(0.0,))
        assert [points for points, _ in montecarlo.looks(cfg)] == [1 << m for m in range(7, 21)] + [3 << 20]


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

    @pytest.mark.skipif((sys.version_info[:2], np.__version__) != RUN_BYTES_BUILD,
                        reason="the full-precision bytes are pinned under Python 3.11 and numpy 2.4.6")
    @pytest.mark.parametrize("alpha", [4.0, 3.0])
    def test_run_bytes_match_the_stream_version_digest(self, alpha):
        estimates = montecarlo.run(NetworkConfig(n_trials=20_000, alpha=alpha))
        data = b"".join(a.tobytes() for e in estimates.values() for a in (e.probability, e.ci_half_width))
        digest = hashlib.sha256(data).hexdigest()
        pinned = RUN_BYTES_DIGESTS.get(STREAM_VERSION, {}).get(alpha)
        assert digest == pinned, (
            f"stream version {STREAM_VERSION}: the estimates' bytes hash to {digest}, pinned {pinned}; "
            "output bytes change only with a STREAM_VERSION bump"
        )


class TestConditionalValues:
    def test_far_field_matches_its_laplace_functional_by_quadrature(self):
        # two hand-built trials in metres and watts, the second without an
        # engaged reflector; every interferer lies beyond the serving base,
        # so a value is exp(-2*pi*lambda*p * int_{r0}^inf r dr / (1 + r**a / c))
        cfg = NetworkConfig(alpha=3.0, mu=2.0, thresholds_db=(10.0 * math.log10(3.0),))
        r0, r1, r2 = np.array([[80.0, 60.0], [79.0, 100.0], [3.0, 70.0]])
        fade_f1 = np.array([0.0164, 0.111])  # mean 1/mu
        length = 1.0 / math.sqrt(math.pi * cfg.lambda_bs * KM2_TO_M2)  # metres per distance unit
        # the direct link's mean power over the reflected one's, in SI units
        log_q = np.log(r0**-cfg.alpha / reflection_gain(cfg, fade_f1, r1) * r2**cfg.alpha)
        rec = montecarlo.TrialRecords(
            log_q_per_alpha=log_q / cfg.alpha,
            f1=cfg.mu * fade_f1,
            r0=r0 / length,
            r1=r1 / length,
            r2=r2 / length,
        )
        p_single, p_split = cfg.retentions

        def oracle(k, c, p):
            integral, _ = integrate.quad(
                lambda r: r / (1.0 + r**cfg.alpha / c), r0[k], np.inf,
                epsabs=0.0, epsrel=1e-12, limit=200,
            )
            return math.exp(-2.0 * math.pi * cfg.lambda_bs * KM2_TO_M2 * p * integral)

        (T,) = cfg.thresholds_linear  # 3 to the last bit or so
        values = conditional_values(cfg, rec, T)
        for k in range(2):
            c_a = T * r0[k] ** cfg.alpha
            assert values["gamma_o"][k] == pytest.approx(oracle(k, c_a, p_single), rel=1e-10)
            assert values["gamma_a"][k] == pytest.approx(oracle(k, c_a, p_split), rel=1e-10)
        c_a = T * r0[0] ** cfg.alpha
        c_b = T * r2[0] ** cfg.alpha / reflection_gain(cfg, fade_f1[0], r1[0])
        e_a, e_b = oracle(0, c_a, p_split), oracle(0, c_b, p_split)
        e_s = e_a + e_b - oracle(0, c_a + c_b, p_split)
        assert 0.05 < e_a < e_b < e_s < 0.999  # no term is trivially 0 or 1
        assert values["gamma_b"] == pytest.approx([e_b], rel=1e-10)
        assert values["gamma_s"] == pytest.approx([e_s, values["gamma_a"][1]], rel=1e-10)
        # engaged with probability g, selection gains g times what it gains when engaged
        partial = conditional_values(cfg, rec, T, engaged=np.array([0.25, 0.0]))
        assert partial["gamma_b"][0] == pytest.approx(e_b, rel=1e-10)
        assert partial["gamma_s"] == pytest.approx([e_a + 0.25 * (e_s - e_a), values["gamma_a"][1]], rel=1e-10)


class TestHistograms:
    def test_mass_sums_to_one(self, sparse_run):
        cfg = sparse_run.cfg
        counts, edges, overlay = montecarlo.empirical_histogram(cfg, "r1")
        assert int(counts.sum()) == np.count_nonzero(np.isfinite(sparse_run.records.r1))
        # the CSV normalizes the counts to a density of unit mass; its ten
        # significant digits bound the rounding of the sum well below 1e-9
        lines = cli.histogram_csv(cfg, "r1", counts, edges, overlay).splitlines()[1:]
        rows = [line.split(",") for line in lines]
        mass = sum(float(r[3]) * (float(r[2]) - float(r[1])) for r in rows)
        assert len(rows) == 60 and mass == pytest.approx(1.0, abs=1e-9)

    def test_r0_histogram_matches_analytic_law(self, sparse_run):
        cfg = sparse_run.cfg
        counts, edges, _ = montecarlo.empirical_histogram(cfg, "r0", bins=50)
        # Rayleigh CDF 1 - exp(-pi * lambda_bs * r**2) differenced over each bin
        cdf = 1.0 - np.exp(-math.pi * cfg.lambda_bs * KM2_TO_M2 * edges**2)
        masses = np.diff(cdf)
        emp = counts / counts.sum()
        assert float(np.abs(emp - masses).sum()) < 0.05

    def test_p_ris_scales_with_transmit_power(self):
        # the records hold unit-free distances and fades; the histogram is in dBW
        cfg = small_cfg(n_trials=1500)
        rec = montecarlo.draw(cfg)
        length = 1.0 / math.sqrt(math.pi * cfg.lambda_bs * KM2_TO_M2)  # metres per distance unit
        power = peak_reflection_power(cfg, rec.f1 / cfg.mu, rec.r1 * length)
        _, edges, overlay = montecarlo.empirical_histogram(cfg, "p_ris_dbw")
        assert overlay is None  # no closed form yet
        assert (edges[0], edges[-1]) == pytest.approx(10 * np.log10([power.min(), power.max()]), rel=1e-12)
        _, scaled, _ = montecarlo.empirical_histogram(cfg.replace(p_s=7 * cfg.p_s), "p_ris_dbw")
        assert scaled - edges == pytest.approx(np.full_like(edges, 10 * math.log10(7)), rel=1e-12)

    @pytest.mark.parametrize("quantity, lam", [("r0", "lambda_bs"), ("r2", "lambda_ris")])
    def test_distances_are_in_metres(self, quantity, lam):
        # the mean of a Rayleigh distance at intensity lam per m^2 is 1 / (2 * sqrt(lam))
        cfg = small_cfg(n_trials=20_000)
        counts, edges, _ = montecarlo.empirical_histogram(cfg, quantity)
        mean = float(np.dot(counts, 0.5 * (edges[:-1] + edges[1:]))) / counts.sum()
        assert mean == pytest.approx(0.5 / math.sqrt(getattr(cfg, lam) * KM2_TO_M2), rel=0.02)

    @pytest.mark.parametrize("quantity, lam", [
        ("r0", lambda c: c.lambda_bs), ("r2", lambda c: c.lambda_ris),
        ("r1", lambda c: c.lambda_bs * c.lambda_ris / (c.lambda_bs + c.lambda_ris)),
    ], ids=["r0", "r2", "r1"])
    def test_overlay_is_the_rayleigh_density_per_metre(self, quantity, lam):
        # the overlay reads the drop's groups; the oracle reads the density per m^2
        cfg = small_cfg()
        _, edges, overlay = montecarlo.empirical_histogram(cfg, quantity)
        expected = rayleigh_pdf(0.5 * (edges[:-1] + edges[1:]), lam(cfg) * KM2_TO_M2)
        np.testing.assert_allclose(overlay, expected, rtol=1e-9, atol=0)

    def test_unknown_quantity_rejected(self, sparse_run):
        # a config error, as the bins and trial checks are (the exit rows
        # [bins-*] and [trial-minimum-hist]): exit 2, not 4
        with pytest.raises(ConfigError, match=r"^quantity: must be one of .*, got 'r9'$"):
            montecarlo.empirical_histogram(sparse_run.cfg, "r9")


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

    def test_gamma_b_takes_its_large_alpha_limit(self):
        # q itself overflows on most trials here; reading I(T * q) at T * q =
        # exp(log T + log q) = inf gave gamma_b 0.381 against the limit's
        # 0.524, so the factor is read from log(T * q) / alpha. At alpha =
        # 1000 gamma_b still lies up to 0.0025 from the limit over the
        # default thresholds, an O(log(T / f1) / alpha) term: run must match
        # an independent sample at alpha = 1000 within the two half-widths,
        # and that sample the limit's, on the same drops, within 0.005
        cfg = NetworkConfig(alpha=1000.0)
        rec = montecarlo.draw(cfg)
        log_q = cfg.alpha * (np.log(rec.r1 * rec.r2 / rec.r0) + cfg.log_k_per_alpha) - np.log(rec.f1)
        assert np.mean(log_q > math.log(np.finfo(float).max)) > 0.4
        limit, _ = gamma_b_large_alpha_limit(cfg)
        gamma_b = montecarlo.run(cfg)["gamma_b"]
        for t, p, half_width in zip(cfg.thresholds_linear, gamma_b.probability, gamma_b.ci_half_width):
            sampled, sampled_half_width = gamma_b_sampled(cfg, t)
            assert abs(p - sampled) <= half_width + sampled_half_width, (t, p, sampled)
            assert abs(sampled - limit) <= 0.005, (t, sampled, limit)


def _ci(p: float, n: int) -> float:
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


def _wilson(p: float, n: int) -> tuple[float, float]:
    """Centre and half-width of the 95% Wilson score interval of a fraction ``p`` of ``n``.

    Unlike the Wald interval ``p +- _ci(p, n)``, it keeps a width at p = 0 or 1.
    """
    z2 = 1.96**2 / n
    return (p + z2 / 2.0) / (1.0 + z2), 1.96 / (1.0 + z2) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n))


class TestEngineAgreement:
    @pytest.mark.parametrize("cfg, metrics", [
        # the far-field tail term is what keeps alpha = 2.5 within both gates
        *[pytest.param(NetworkConfig(alpha=alpha, n_trials=40_000, master_seed=3), ("gamma_o", "gamma_a"),
                       id=f"alpha-{alpha:g}") for alpha in (2.5, 3.0, 3.5)],
        # N = 1: the split-beam retention sqrt(2/N) exceeds 1 and is capped, in
        # the closed forms exactly as in the simulator
        pytest.param(NetworkConfig(n_elements=1, n_trials=20_000, master_seed=3), ("gamma_a",), id="n-elements-1"),
    ])
    def test_direct_path_gates_pass(self, cfg, metrics):
        # the compare gates of the direct paths, at the default densities
        report = cli.build_comparison(cfg, cli.run_analytic(cfg), cli.run_simulate(cfg))
        gates = [g for g in report["gates"] if g["metric"] in metrics]
        assert len(gates) == len(metrics) * len(cfg.thresholds_db)
        failed = [(g["metric"], g["t_db"], round(g["gap"], 4)) for g in gates if not g["passed"]]
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
        (p,), (half_width,) = montecarlo.run(cfg)["gamma_b"]
        (overshoot,) = np.asarray(analytic.coverage_path_b_approx2(cfg)) - p
        assert overshoot > half_width
        assert overshoot > 0.03

    def test_coverage_within_reference_ci(self):
        # both engines sample the same model: every coverage point of the
        # conditional estimator lies within the combined (summed) 95%
        # half-widths of the reference engine's indicator count. gamma_s's
        # reference count reaches all 3000 trials at -10 dB, where the Wald
        # interval has no width, so it is bounded by the Wilson interval
        cfg = NetworkConfig(n_trials=3000, master_seed=2026)
        ours = montecarlo.run(cfg)
        reference = ref.reference_sirs(cfg)
        sirs = {
            "gamma_o": reference["sir_o"],
            "gamma_a": reference["sir_a"],
            "gamma_b": reference["sir_b"][~np.isnan(reference["sir_b"])],
            "gamma_s": reference_sir_s(reference["sir_a"], reference["sir_b"]),
        }
        for metric, theirs in sirs.items():
            for t, p, half_width in zip(cfg.thresholds_linear, *ours[metric]):
                p_ref = float(np.mean(theirs > t))
                centre, ref_half_width = ((p_ref, _ci(p_ref, len(theirs))) if metric != "gamma_s"
                                          else _wilson(p_ref, len(theirs)))
                assert abs(p - centre) <= half_width + ref_half_width, (metric, t, p, p_ref)
