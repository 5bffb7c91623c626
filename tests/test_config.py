"""Configuration parsing, validation and hashing."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_helpers import array_factor_from_phases
from riscov import cli, config
from riscov.config import (
    IDEAL_PHASES, KM2_TO_M2, ConfigError, NetworkConfig, load_config, quantization_efficiency,
)


REAL_FIELDS = ["lambda_bs", "lambda_ris", "p_s", "beta", "mu", "epsilon_floor", "alpha"]


class TestValidation:
    def test_defaults_are_valid(self):
        NetworkConfig()

    def test_field_level_messages(self):
        with pytest.raises(ConfigError) as exc:
            NetworkConfig(lambda_bs=-1.0, alpha=2.0, n_elements=0, epsilon_floor=0.0)
        errs = exc.value.errors
        assert any(e.startswith("lambda_bs:") for e in errs)
        assert any(e.startswith("alpha:") for e in errs)
        assert any(e.startswith("n_elements:") for e in errs)
        # no function below the config re-checks the floor
        assert any(e.startswith("epsilon_floor:") for e in errs)

    @pytest.mark.parametrize("field", ["lambda_bs", "lambda_ris"])
    def test_density_below_one_per_m2_float_is_accepted(self, field):
        # 1e-320 per km^2 underflows to 0 per m^2, so such a density was
        # rejected; the engines read its log, never the density per m^2
        cfg = NetworkConfig(**{field: 1e-320})
        assert cfg.lambda_bs * KM2_TO_M2 == 0 or cfg.lambda_ris * KM2_TO_M2 == 0
        assert all(math.isfinite(v) for v in (cfg.log_rho, cfg.log_k_per_alpha, cfg.log_floor))

    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_real_fields_hold_the_float_they_equal(self, field):
        # alpha: 4 and alpha: 4.0 hashed apart, and an int beyond the float
        # range raised OverflowError from math.isfinite
        value = 1 if field == "beta" else 3
        cfg = NetworkConfig(**{field: value})
        assert type(getattr(cfg, field)) is float
        assert cfg.config_hash() == NetworkConfig(**{field: float(value)}).config_hash()
        with pytest.raises(ConfigError) as exc:
            NetworkConfig(**{field: 10**400})
        assert [e.split(":")[0] for e in exc.value.errors] == [field]

    def test_alpha_two_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(alpha=2.0)

    def test_beta_above_one_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(beta=1.5)

    def test_phase_bits_forms(self):
        NetworkConfig(phase_bits="ideal")
        NetworkConfig(phase_bits=3)
        with pytest.raises(ConfigError):
            NetworkConfig(phase_bits=0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            NetworkConfig.from_mapping({"lambda_bss": 10})
        assert "unknown config key" in str(exc.value)

    def test_duplicate_thresholds_rejected(self):
        # repeated thresholds would collapse into one row of the simulation output
        with pytest.raises(ConfigError) as exc:
            NetworkConfig(thresholds_db=(0.0, 5.0, 0.0))
        assert any(e.startswith("thresholds_db:") for e in exc.value.errors)
        with pytest.raises(ConfigError):
            NetworkConfig.from_mapping({"thresholds_db": [5, 5.0]})

    @pytest.mark.parametrize(
        "thresholds", [(), (4000.0,), (-4000.0,), (0.0, math.nan), [True], ["5"], "5", 5.0],
        ids=["empty", "overflow", "underflow", "nan", "bool", "string", "bare-string", "bare-number"],
    )
    def test_thresholds_need_a_positive_finite_ratio(self, thresholds):
        # 4000 dB used to overflow 10**(t/10) in the engines and -4000 dB to
        # reach them as a zero ratio; an empty list ran with nothing to gate;
        # from a file, true ran at 1 dB and "5" at 5 dB
        with pytest.raises(ConfigError) as exc:
            NetworkConfig(thresholds_db=thresholds)
        assert [e.split(":")[0] for e in exc.value.errors] == ["thresholds_db"]

    def test_thresholds_are_stored_as_a_tuple_of_floats(self):
        # the constructor is the one parse of the thresholds, from a file or not
        cfg = NetworkConfig(thresholds_db=[0, 5])
        assert cfg.thresholds_db == (0.0, 5.0) and all(type(t) is float for t in cfg.thresholds_db)
        assert cfg.config_hash() == NetworkConfig(thresholds_db=(0.0, 5.0)).config_hash()
        assert NetworkConfig.from_mapping({"thresholds_db": [0, 5]}) == cfg

    def test_extreme_finite_ratios_accepted(self):
        assert NetworkConfig(thresholds_db=(-3000.0, 3000)).thresholds_linear == (1e-300, 1e300)

    def test_orientation_values(self):
        with pytest.raises(ConfigError):
            NetworkConfig(orientation="sideways")


class TestUnits:
    def test_density_conversion(self):
        cfg = NetworkConfig(lambda_bs=25.0, lambda_ris=1000.0)
        assert cfg.lambda_bs * KM2_TO_M2 == pytest.approx(2.5e-5)
        assert cfg.lambda_ris * KM2_TO_M2 == pytest.approx(1e-3)

    def test_threshold_conversion(self):
        cfg = NetworkConfig(thresholds_db=(0.0, 5.0, 10.0))
        assert cfg.thresholds_linear == pytest.approx((1.0, 10**0.5, 10.0))


class TestR1Scale:
    """``log_r1_scale`` is computed in ``math``, so loading a config needs no numpy."""

    @staticmethod
    def _numpy_value(cfg):
        return -float(np.logaddexp(0.0, -cfg.log_rho))

    @pytest.mark.parametrize("lambda_bs, lambda_ris", [
        (25.0, 25.0), (1.0, 1.0),  # log rho = 0, where logaddexp adds log 2
        (1.0, 1e300), (1.0, 1e-300), (1e300, 1.0), (1e-300, 1.0),
        (3.0e-318, 1.7e308), (1.7e308, 3.0e-318),
        (25.0, 5e4),
    ])
    def test_matches_numpy_logaddexp(self, lambda_bs, lambda_ris):
        cfg = NetworkConfig(lambda_bs=lambda_bs, lambda_ris=lambda_ris)
        assert cfg.log_r1_scale == self._numpy_value(cfg)

    @settings(max_examples=50)
    @given(lambda_bs=st.floats(3.0e-318, 1.7e308), lambda_ris=st.floats(3.0e-318, 1.7e308))
    def test_matches_numpy_logaddexp_on_drawn_densities(self, lambda_bs, lambda_ris):
        cfg = NetworkConfig(lambda_bs=lambda_bs, lambda_ris=lambda_ris)
        assert cfg.log_r1_scale == self._numpy_value(cfg)


class TestHashing:
    def test_semantic_change_changes_hash(self):
        a = NetworkConfig()
        b = NetworkConfig(m_elements=101)
        assert a.config_hash() != b.config_hash()

    def test_hash_is_stable(self):
        assert NetworkConfig().config_hash() == NetworkConfig().config_hash()

    def test_canonical_mapping_carries_stream_version(self, monkeypatch):
        cfg = NetworkConfig()
        assert cfg.canonical_mapping()["stream_version"] == config.STREAM_VERSION == 10
        assert "stream_version" not in cfg.to_mapping()
        before = cfg.config_hash()
        monkeypatch.setattr(config, "STREAM_VERSION", 11)
        assert cfg.config_hash() != before

    def test_comments_do_not_change_hash(self, tmp_path):
        plain = tmp_path / "a.yaml"
        commented = tmp_path / "b.yaml"
        plain.write_text("lambda_ris: 1000\nn_trials: 500\n")
        commented.write_text(
            "# reflector density sweep point\nlambda_ris: 1000\n"
            "n_trials: 500  # short smoke run\n"
        )
        assert load_config(plain).config_hash() == load_config(commented).config_hash()


class TestLoading:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "lambda_bs: 25\nlambda_ris: 1000\nthresholds_db: [0, 5]\n"
        )
        cfg = load_config(path)
        assert cfg.lambda_ris == 1000
        assert cfg.thresholds_db == (0.0, 5.0)
        # unspecified fields keep their defaults
        assert cfg.n_elements == 16

    def test_json_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda_ris": 2000, "master_seed": 7}))
        cfg = load_config(path)
        assert cfg.lambda_ris == 2000 and cfg.master_seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("lambda_ris: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("suffix", [".yaml", ".json"])
    def test_int_beyond_the_string_conversion_limit(self, tmp_path, suffix):
        # Python refuses to parse an int of over 4300 digits: the parser's
        # ValueError escaped as a traceback
        path = tmp_path / f"big{suffix}"
        path.write_text('{"lambda_bs": 1' + "0" * 5000 + "}\n")
        with pytest.raises(ConfigError, match="cannot parse config file"):
            load_config(path)

    @pytest.mark.parametrize("suffix, text", [
        (".yaml", "alpha: 4\nalpha: 3\n"),
        (".json", '{"alpha": 4, "alpha": 3}'),
        (".yaml", "alpha: 4\nthresholds_db: [5]\nalpha: 4\n"),
    ], ids=["yaml", "json", "yaml-same-value"])
    def test_repeated_key_rejected(self, tmp_path, suffix, text):
        # both parsers kept the last value, so alpha 4 then 3 ran at alpha 3;
        # a repeat is rejected even where it agrees with the first value
        path = tmp_path / f"dup{suffix}"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.errors == [f"cannot parse config file {path}: key 'alpha' repeated in one mapping"]

    def test_repeated_key_in_a_nested_mapping_rejected(self, tmp_path):
        path = tmp_path / "nested.yaml"
        path.write_text("thresholds_db: {a: 1, a: 2}\n")
        with pytest.raises(ConfigError, match="key 'a' repeated in one mapping"):
            load_config(path)

    def test_unknown_tolerance_key(self, tmp_path):
        # the compare gates are fixed in riscov.cli; a config cannot set them
        path = tmp_path / "bad2.yaml"
        path.write_text("compare_tolerances:\n  gamma_o: 0.5\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.errors == ["unknown config key: compare_tolerances"]


def test_replace_validates():
    with pytest.raises(ConfigError):
        NetworkConfig().replace(alpha=1.0)
    assert NetworkConfig().replace(alpha=3.0).alpha == 3.0


def test_tolerances_defaults():
    assert [(g.engine, g.metric, g.kind, g.tolerance, g.t_db) for g in cli.GATES] == [
        ("analytic_q2", "gamma_o", "absolute", 0.02, None),
        ("analytic_q23", "gamma_a", "absolute", 0.02, None),
        ("approx1", "gamma_b", "absolute", 0.05, 5.0),
        ("approx2", "gamma_b", "lower_bound", 0.03, 5.0),
    ]
    assert cli.GATE_T_DB_ABS_TOL == 1e-9


class TestBeamThinning:
    def test_single_beam_n16(self):
        single, _ = NetworkConfig(n_elements=16).retentions
        assert single == pytest.approx(1 / 4)

    def test_split_beam_n16(self):
        _, split = NetworkConfig(n_elements=16).retentions
        assert split == pytest.approx(0.3535533906, rel=1e-9)

    def test_isotropic_limit(self):
        single, _ = NetworkConfig(n_elements=1).retentions
        assert single == pytest.approx(1.0)

    def test_split_beam_retention_capped_at_one(self):
        def split(n):
            return NetworkConfig(n_elements=n).retentions[1]

        assert split(1) == 1.0
        assert split(2) == 1.0
        assert split(3) == math.sqrt(2 / 3)


def _brute_force_efficiency(m, bits, n_draws, seed):
    """Mean quantized coherent-power efficiency over uniform target phases."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_draws):
        phases = rng.uniform(0.0, 2 * math.pi, m)
        gain = array_factor_from_phases(phases, bits)
        total += abs(gain) ** 2 / m**2
    return total / n_draws


class TestArrayFactor:
    @pytest.mark.parametrize("m", [1, 10, 100])
    def test_ideal_power_gain_is_exact_square(self, m):
        rng = np.random.default_rng(4)
        phases = rng.uniform(0, 2 * math.pi, m)
        gain = array_factor_from_phases(phases, IDEAL_PHASES)
        assert abs(gain) ** 2 == float(m) ** 2

    def test_single_element_any_quantization(self):
        for bits in (1, 2, 8, IDEAL_PHASES):
            gain = array_factor_from_phases([1.2345], bits)
            assert abs(gain) == pytest.approx(1.0)

    def test_one_bit_efficiency_matches_brute_force(self):
        eff = _brute_force_efficiency(100, 1, 10_000, seed=5)
        assert abs(eff - (2 / math.pi) ** 2) < 0.01
        assert abs(quantization_efficiency(1) - (2 / math.pi) ** 2) < 1e-12

    def test_efficiency_monotone_in_bits(self):
        # common-random-numbers comparison across depths
        effs = [_brute_force_efficiency(64, b, 2_000, seed=6) for b in (1, 2, 3, 4, 5, 6)]
        assert all(a < b for a, b in zip(effs, effs[1:]))
        model_effs = [quantization_efficiency(b) for b in (1, 2, 3, 4, 5, 6)]
        assert all(a < b for a, b in zip(model_effs, model_effs[1:]))
        assert quantization_efficiency(IDEAL_PHASES) == 1.0
        for emp, mod in zip(effs, model_effs):
            assert abs(emp - mod) < 0.02

    def test_bad_bits(self):
        with pytest.raises(ConfigError):
            NetworkConfig(m_elements=16, phase_bits=0)
