"""Configuration parsing, validation and hashing."""
from __future__ import annotations

import json

import pytest

from riscov import config
from riscov.config import CompareTolerances, ConfigError, NetworkConfig, load_config


class TestValidation:
    def test_defaults_are_valid(self):
        NetworkConfig()

    def test_field_level_messages(self):
        with pytest.raises(ConfigError) as exc:
            NetworkConfig(lambda_bs=-1.0, alpha=2.0, n_elements=0)
        errs = exc.value.errors
        assert any(e.startswith("lambda_bs:") for e in errs)
        assert any(e.startswith("alpha:") for e in errs)
        assert any(e.startswith("n_elements:") for e in errs)

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

    def test_orientation_values(self):
        with pytest.raises(ConfigError):
            NetworkConfig(orientation="sideways")


class TestUnits:
    def test_density_conversion(self):
        cfg = NetworkConfig(lambda_bs=25.0, lambda_ris=1000.0)
        assert cfg.lambda_bs_m2 == pytest.approx(2.5e-5)
        assert cfg.lambda_ris_m2 == pytest.approx(1e-3)

    def test_threshold_conversion(self):
        cfg = NetworkConfig(thresholds_db=(0.0, 5.0, 10.0))
        assert cfg.thresholds_linear == pytest.approx((1.0, 10**0.5, 10.0))


class TestHashing:
    def test_semantic_change_changes_hash(self):
        a = NetworkConfig()
        b = NetworkConfig(m_elements=101)
        assert a.config_hash() != b.config_hash()

    def test_hash_is_stable(self):
        assert NetworkConfig().config_hash() == NetworkConfig().config_hash()

    def test_canonical_mapping_carries_stream_version(self, monkeypatch):
        cfg = NetworkConfig()
        assert cfg.canonical_mapping()["stream_version"] == config.STREAM_VERSION == 2
        assert "stream_version" not in cfg.to_mapping()
        before = cfg.config_hash()
        monkeypatch.setattr(config, "STREAM_VERSION", 3)
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
            "compare_tolerances:\n  gamma_o: 0.03\n"
        )
        cfg = load_config(path)
        assert cfg.lambda_ris == 1000
        assert cfg.thresholds_db == (0.0, 5.0)
        assert cfg.compare_tolerances.gamma_o == 0.03
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

    def test_unknown_tolerance_key(self, tmp_path):
        path = tmp_path / "bad2.yaml"
        path.write_text("compare_tolerances:\n  gamma_z: 0.5\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "gamma_z" in str(exc.value)


def test_replace_validates():
    with pytest.raises(ConfigError):
        NetworkConfig().replace(alpha=1.0)
    assert NetworkConfig().replace(alpha=3.0).alpha == 3.0


def test_tolerances_defaults():
    tol = CompareTolerances()
    assert tol.gamma_o == 0.02 and tol.gamma_b_approx1 == 0.05
    assert tol.gamma_b_gate_t_db == 5.0
