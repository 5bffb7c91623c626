"""Deployment configuration: parsing, validation, unit conversion, hashing.

Configs are written with per-km^2 densities and dB thresholds (the units the
network figures are drawn in); everything downstream of this module works in
SI units and linear ratios. Files are YAML for humans (comments survive a
round-trip through the hash because only parsed values are hashed) or JSON
for machines.

A :class:`NetworkConfig` is checked when it is built, so every instance is
valid: the constructor, ``replace``, :meth:`NetworkConfig.from_mapping` and
:func:`load_config` raise :class:`ConfigError` with field-level messages
instead. No other module re-checks a config field.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import RiscovError

KM2_TO_M2 = 1e-6

ORIENTATION_MODES = ("thinning", "explicit")

# Layout of the Monte-Carlo random streams (see riscov.montecarlo). It enters
# every config hash, so outputs of different stream layouts never share one.
STREAM_VERSION = 2


class ConfigError(RiscovError, ValueError):
    """Raised on schema violations; ``errors`` lists field-level messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class CompareTolerances:
    """Gates applied by the compare pipeline (absolute coverage gaps).

    The direct-path gates apply at every threshold. The reflected-path
    approximations are only advertised for dense reflector deployments at
    moderate thresholds, so their gates apply at ``gamma_b_gate_t_db`` alone
    (skipped when that threshold is not part of the run).
    """

    gamma_o: float = 0.02
    gamma_a: float = 0.02
    gamma_b_approx1: float = 0.05
    gamma_b_approx2_margin: float = 0.03
    gamma_b_gate_t_db: float = 5.0


@dataclass(frozen=True)
class NetworkConfig:
    """All deployment parameters of one experiment, valid by construction.

    Densities are per km^2 and thresholds are in dB here; use the ``*_m2`` /
    ``thresholds_linear`` accessors for computation. Building an instance
    with any invalid field raises :class:`ConfigError`.
    """

    lambda_bs: float = 25.0
    lambda_ris: float = 5e4
    p_s: float = 2.0
    n_elements: int = 16
    m_elements: int = 100
    beta: float = 0.9
    mu: float = 1.0
    alpha: float = 4.0
    epsilon_floor: float = 1.0
    phase_bits: int | str = "ideal"
    thresholds_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_trials: int = 100_000
    master_seed: int = 1234
    conditional_path_b: bool = True
    orientation: str = "thinning"
    shared_ris_fade: bool = True
    compare_tolerances: CompareTolerances = CompareTolerances()

    # -- unit accessors ----------------------------------------------------
    @property
    def lambda_bs_m2(self) -> float:
        return self.lambda_bs * KM2_TO_M2

    @property
    def lambda_ris_m2(self) -> float:
        return self.lambda_ris * KM2_TO_M2

    @property
    def thresholds_linear(self) -> tuple[float, ...]:
        return tuple(10.0 ** (t / 10.0) for t in self.thresholds_db)

    # -- schema ------------------------------------------------------------
    def __post_init__(self):
        errs = []

        def positive(name, upper=None):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v) or v <= 0:
                errs.append(f"{name}: must be a positive finite number, got {v!r}")
            elif upper is not None and v > upper:
                errs.append(f"{name}: must be <= {upper}, got {v!r}")

        def positive_int(name):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                errs.append(f"{name}: must be an integer >= 1, got {v!r}")

        positive("lambda_bs")
        positive("lambda_ris")
        positive("p_s")
        positive("beta", upper=1.0)
        positive("mu")
        positive("epsilon_floor")
        if not isinstance(self.alpha, (int, float)) or not math.isfinite(self.alpha) or self.alpha <= 2:
            errs.append(f"alpha: must be a finite number > 2, got {self.alpha!r}")
        positive_int("n_elements")
        positive_int("m_elements")
        positive_int("n_trials")
        # N enters the closed forms as sqrt(N), a float; M's float overflow
        # is reported where M**2 is formed
        if isinstance(self.n_elements, int):
            try:
                float(self.n_elements)
            except OverflowError:
                errs.append(f"n_elements: must convert to a float, got {self.n_elements!r}")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int) or self.master_seed < 0:
            errs.append(f"master_seed: must be a nonnegative integer, got {self.master_seed!r}")
        if self.phase_bits != "ideal" and (
            isinstance(self.phase_bits, bool)
            or not isinstance(self.phase_bits, int)
            or self.phase_bits < 1
        ):
            errs.append(f"phase_bits: must be 'ideal' or an integer >= 1, got {self.phase_bits!r}")
        if not isinstance(self.thresholds_db, tuple) or any(
            not isinstance(t, (int, float)) or isinstance(t, bool) or not math.isfinite(t)
            for t in self.thresholds_db
        ):
            errs.append(f"thresholds_db: must be a list of finite dB values, got {self.thresholds_db!r}")
        elif len(set(self.thresholds_db)) != len(self.thresholds_db):
            errs.append(f"thresholds_db: must not repeat a value, got {list(self.thresholds_db)!r}")
        if self.orientation not in ORIENTATION_MODES:
            errs.append(f"orientation: must be one of {ORIENTATION_MODES}, got {self.orientation!r}")
        for name in ("conditional_path_b", "shared_ris_fade"):
            if not isinstance(getattr(self, name), bool):
                errs.append(f"{name}: must be a boolean, got {getattr(self, name)!r}")
        for name in ("gamma_o", "gamma_a", "gamma_b_approx1", "gamma_b_approx2_margin"):
            v = getattr(self.compare_tolerances, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v) or v < 0:
                errs.append(f"compare_tolerances.{name}: must be a nonnegative number, got {v!r}")
        gate_t = self.compare_tolerances.gamma_b_gate_t_db
        if not isinstance(gate_t, (int, float)) or isinstance(gate_t, bool) or not math.isfinite(gate_t):
            errs.append(f"compare_tolerances.gamma_b_gate_t_db: must be a finite dB value, got {gate_t!r}")
        if errs:
            raise ConfigError(errs)

    # -- serialization / identity ------------------------------------------
    def to_mapping(self) -> dict:
        d = dataclasses.asdict(self)
        d["thresholds_db"] = list(self.thresholds_db)
        return d

    def canonical_mapping(self) -> dict:
        """What :meth:`config_hash` digests: every field plus the stream version."""
        return {**self.to_mapping(), "stream_version": STREAM_VERSION}

    def config_hash(self) -> str:
        """Digest of every semantically meaningful field (comments never enter)."""
        canonical = json.dumps(self.canonical_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def replace(self, **changes) -> "NetworkConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "NetworkConfig":
        if not isinstance(mapping, dict):
            raise ConfigError([f"config root must be a mapping, got {type(mapping).__name__}"])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError([f"unknown config key: {k}" for k in unknown])
        kwargs = dict(mapping)
        if "thresholds_db" in kwargs:
            thresholds = kwargs["thresholds_db"]
            error = ConfigError([f"thresholds_db: must be a list of numbers, got {thresholds!r}"])
            # a bare string or number is not a list: "10" would become (1.0, 0.0)
            if not isinstance(thresholds, (list, tuple)):
                raise error
            try:
                kwargs["thresholds_db"] = tuple(float(t) for t in thresholds)
            except (TypeError, ValueError):
                raise error
        if "compare_tolerances" in kwargs:
            sub = kwargs["compare_tolerances"]
            if not isinstance(sub, dict):
                raise ConfigError([f"compare_tolerances: must be a mapping, got {sub!r}"])
            sub_known = {f.name for f in dataclasses.fields(CompareTolerances)}
            sub_unknown = sorted(set(sub) - sub_known)
            if sub_unknown:
                raise ConfigError([f"unknown compare_tolerances key: {k}" for k in sub_unknown])
            kwargs["compare_tolerances"] = CompareTolerances(**sub)
        return cls(**kwargs)


def load_config(path: str | Path) -> NetworkConfig:
    """Read a YAML (or, by suffix, JSON) config file on top of the defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"])
    try:
        if path.suffix.lower() == ".json":
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError([f"cannot parse config file {path}: {exc}"])
    if data is None:
        data = {}
    return NetworkConfig.from_mapping(data)
