"""Configuration parsing, validation and hashing.

A config or file that is rejected is a row of ``tests/test_cli.py``'s exit
table, which asserts the exact stderr; only what no command reaches is
tested here.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_helpers import array_factor_from_phases
from riscov import config
from riscov.config import (
    IDEAL_PHASES, KM2_TO_M2, ConfigError, NetworkConfig, load_config, quantization_efficiency,
)


# NetworkConfig().config_hash() at the current stream version, from hashlib.sha256
DEFAULT_HASH = "a66f36db81b2"
REAL_FIELDS = ["lambda_bs", "lambda_ris", "p_s", "beta", "mu", "epsilon_floor", "alpha"]


class TestValidation:
    def test_defaults_are_valid(self):
        NetworkConfig()

    @pytest.mark.parametrize("field", ["lambda_bs", "lambda_ris"])
    def test_density_below_one_per_m2_float_is_accepted(self, field):
        # 1e-320 per km^2 underflows to 0 per m^2, so such a density was
        # rejected; the engines read its log, never the density per m^2
        cfg = NetworkConfig(**{field: 1e-320})
        assert cfg.lambda_bs * KM2_TO_M2 == 0 or cfg.lambda_ris * KM2_TO_M2 == 0
        assert all(math.isfinite(v) for v in (cfg.log_rho, cfg.log_k_per_alpha, cfg.log_floor))

    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_real_fields_hold_the_float_they_equal(self, field):
        # alpha: 4 and alpha: 4.0 hashed apart; an int beyond the float range
        # is the exit row [beyond-float-<field>]
        value = 1 if field == "beta" else 3
        cfg = NetworkConfig(**{field: value})
        assert type(getattr(cfg, field)) is float
        assert cfg.config_hash() == NetworkConfig(**{field: float(value)}).config_hash()

    def test_phase_bits_forms(self):
        # 0 bits is the exit row [phase-bits-zero]
        NetworkConfig(phase_bits="ideal")
        NetworkConfig(phase_bits=3)

    def test_thresholds_are_stored_as_a_tuple_of_floats(self):
        # the constructor is the one parse of the thresholds, from a file or not
        cfg = NetworkConfig(thresholds_db=[0, 5])
        assert cfg.thresholds_db == (0.0, 5.0) and all(type(t) is float for t in cfg.thresholds_db)
        assert cfg.config_hash() == NetworkConfig(thresholds_db=(0.0, 5.0)).config_hash()
        assert NetworkConfig.from_mapping({"thresholds_db": [0, 5]}) == cfg

    def test_extreme_finite_ratios_accepted(self):
        assert NetworkConfig(thresholds_db=(-3000.0, 3000)).thresholds_linear == (1e-300, 1e300)


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

    def test_hash_carries_stream_version(self, monkeypatch):
        cfg = NetworkConfig()
        before = cfg.config_hash()
        assert config.STREAM_VERSION == 14 and before == DEFAULT_HASH
        monkeypatch.setattr(config, "STREAM_VERSION", 15)
        assert cfg.config_hash() != before

    def test_hash_without_builtin_digests_comes_from_hashlib(self):
        # a build without _sha2 (3.12+) and _sha256 (3.10, 3.11) falls back
        # to hashlib, whose sha256 gives the same, pinned, hash
        code = ('import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
                "from riscov.config import NetworkConfig\n"
                'print(NetworkConfig().config_hash(), "_hashlib" in sys.modules)')
        src = Path(config.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == [DEFAULT_HASH, "True"]

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


def test_replace_validates():
    with pytest.raises(ConfigError):
        NetworkConfig().replace(alpha=1.0)
    assert NetworkConfig().replace(alpha=3.0).alpha == 3.0


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
    def test_single_element_any_quantization(self):
        for bits in (1, 2, 8, IDEAL_PHASES):
            gain = array_factor_from_phases([1.2345], bits)
            assert abs(gain) == pytest.approx(1.0)

    def test_efficiency_monotone_in_bits(self):
        # common-random-numbers comparison across depths
        effs = [_brute_force_efficiency(64, b, 2_000, seed=6) for b in (1, 2, 3, 4, 5, 6)]
        assert all(a < b for a, b in zip(effs, effs[1:]))
        model_effs = [quantization_efficiency(b) for b in (1, 2, 3, 4, 5, 6)]
        assert all(a < b for a, b in zip(model_effs, model_effs[1:]))
        assert quantization_efficiency(IDEAL_PHASES) == 1.0
        assert abs(quantization_efficiency(1) - (2 / math.pi) ** 2) < 1e-12
        for emp, mod in zip(effs, model_effs):
            assert abs(emp - mod) < 0.02
