"""Deployment configuration: parsing, validation, derived groups, hashing.

Configs are written with per-km^2 densities and dB thresholds (the units the
network figures are drawn in). Files are YAML for humans (comments survive a
round-trip through the hash because only parsed values are hashed) or JSON
for machines.

Coverage depends on the deployment only through ``alpha``, ``N`` and three
groups, which :class:`NetworkConfig` forms from logs so that none leaves the
float range: ``rho = lambda_ris / lambda_bs``, ``K = mu / (G * (pi *
lambda_bs)**(alpha/2))`` (``G`` the bank gain), held as ``log(K) / alpha``,
and the floor in units of the base spacing ``1/sqrt(pi * lambda_bs)``. Only
writers of metres read a density.

A :class:`NetworkConfig` is checked when it is built, so every instance is
valid: the constructor, ``replace``, :meth:`NetworkConfig.from_mapping` and
:func:`load_config` raise :class:`ConfigError` with field-level messages
instead. No other module re-checks a config field. Every threshold must
have a positive finite linear ratio, and a run needs at least one.

A config describes a deployment and a run, not how a run is judged: the
compare gates and their tolerances are constants of :mod:`riscov.cli`, so
no config can loosen or drop a gate.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import RiscovError

KM2_TO_M2 = 1e-6
_LOG_PI_PER_KM2 = math.log(math.pi * KM2_TO_M2)  # log(pi * lambda) per m^2 is this plus log(lambda) per km^2

IDEAL_PHASES = "ideal"
ORIENTATION_MODES = ("thinning", "explicit")
HISTOGRAM_QUANTITIES = ("r0", "r1", "r2", "p_ris_dbw")  # what riscov.montecarlo.empirical_histogram bins

# Layout of the Monte-Carlo random streams and of the estimator that reduces
# them (see riscov.montecarlo). It enters every config hash, so outputs of
# different stream layouts or estimators never share one.
STREAM_VERSION = 10


class ConfigError(RiscovError, ValueError):
    """Raised on schema violations; ``errors`` lists field-level messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _is_ratio_db(t) -> bool:
    """Whether ``t`` is a dB value whose linear ratio is a positive finite float."""
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        return False
    try:
        return 0.0 < 10.0 ** (t / 10.0) < math.inf
    except OverflowError:  # above about 3082 dB
        return False


def quantization_efficiency(phase_bits) -> float:
    """Mean power efficiency of b-bit phase rounding relative to ideal phasing.

    Residuals are uniform on ``[-pi/2**b, pi/2**b)``, giving the classic
    ``sinc**2`` loss; kept independent of the element count so peak power
    retains its exact square-law scaling. The test suite keeps the
    element-by-element array factor that derives it.
    """
    if phase_bits == IDEAL_PHASES:
        return 1.0
    half_step = math.ldexp(math.pi, -phase_bits)
    if half_step == 0.0:  # past 1076 bits it underflows; the efficiency is then 1
        return 1.0
    return (math.sin(half_step) / half_step) ** 2


@dataclass(frozen=True)
class NetworkConfig:
    """All deployment parameters of one experiment, valid by construction.

    Densities are per km^2 and thresholds are in dB here; the engines read
    ``thresholds_linear`` and the derived groups below. Building an instance
    with any invalid field raises :class:`ConfigError`. Real fields hold floats
    (``4`` and ``4.0`` hash alike); ``thresholds_db`` takes any list of numbers.
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
    orientation: str = "thinning"

    @property
    def thresholds_linear(self) -> tuple[float, ...]:
        return tuple(10.0 ** (t / 10.0) for t in self.thresholds_db)

    # -- the deployment as the engines read it -----------------------------
    @property
    def retentions(self) -> tuple[float, float]:
        """Fractions of interferers whose random single beam / split beam covers the user.

        The lobe half-width over ``pi`` is ``1/sqrt(N)`` or ``sqrt(2/N)``; the
        split lobe at ``N = 1`` is wider than the circle, hence the cap at 1.
        """
        return 1.0 / math.sqrt(self.n_elements), min(1.0, math.sqrt(2.0 / self.n_elements))

    @property
    def log_gain(self) -> float:
        """``log G``, the bank gain ``M**2 * beta`` times the phase efficiency, finite for any ``M``."""
        return (2.0 * math.log(self.m_elements) + math.log(self.beta)
                + math.log(quantization_efficiency(self.phase_bits)))

    @property
    def base_spacing_m(self) -> float:
        """The engines' unit of length in metres, from lambda_bs per km^2: per m^2 it can be subnormal."""
        return 1.0 / (math.sqrt(math.pi * KM2_TO_M2) * math.sqrt(self.lambda_bs))

    @property
    def log_rho(self) -> float:
        return math.log(self.lambda_ris) - math.log(self.lambda_bs)

    @property
    def log_r1_scale(self) -> float:
        """``log(pi * lambda_eff)`` in units of the base spacing: ``log(rho / (1 + rho))``."""
        x = self.log_rho  # -log1p(exp(-x)) without overflow, bit for bit numpy's -logaddexp(0, -x)
        return -(max(0.0, -x) + math.log1p(math.exp(-abs(x))))

    @property
    def log_k_per_alpha(self) -> float:
        """``log(K) / alpha = (log mu - log G) / alpha - log(pi * lambda_bs) / 2``; see :mod:`riscov.montecarlo`.

        ``log K`` itself overflows for ``alpha`` near the float maximum, this never does.
        """
        return ((math.log(self.mu) - self.log_gain) / self.alpha
                - 0.5 * (_LOG_PI_PER_KM2 + math.log(self.lambda_bs)))

    @property
    def log_floor(self) -> float:
        """``log(eps * sqrt(pi * lambda_bs))``: the floor distance in units of the base spacing."""
        return math.log(self.epsilon_floor) + 0.5 * (_LOG_PI_PER_KM2 + math.log(self.lambda_bs))

    # -- schema ------------------------------------------------------------
    def __post_init__(self):
        errs = []

        def real(name, requirement="a positive finite number", ok=lambda x: x > 0):
            v = getattr(self, name)
            # stored as the float it equals; an int beyond the float range fails the exact comparison
            finite = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
            if finite and ok(float(v)):
                object.__setattr__(self, name, float(v))
            else:
                errs.append(f"{name}: must be {requirement}, got {v!r}")

        def positive_int(name):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                errs.append(f"{name}: must be an integer >= 1, got {v!r}")

        real("lambda_bs")
        real("lambda_ris")
        real("p_s")
        real("beta", "a finite number in (0, 1]", lambda x: 0 < x <= 1)
        real("mu")
        real("epsilon_floor")
        real("alpha", "a finite number > 2", lambda x: x > 2)
        positive_int("n_elements")
        positive_int("m_elements")
        positive_int("n_trials")
        # N enters the closed forms as sqrt(N), a float; M only as log M
        if isinstance(self.n_elements, int):
            try:
                float(self.n_elements)
            except OverflowError:
                errs.append(f"n_elements: must convert to a float, got {self.n_elements!r}")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int) or self.master_seed < 0:
            errs.append(f"master_seed: must be a nonnegative integer, got {self.master_seed!r}")
        if self.phase_bits != IDEAL_PHASES and (
            isinstance(self.phase_bits, bool)
            or not isinstance(self.phase_bits, int)
            or self.phase_bits < 1
        ):
            errs.append(f"phase_bits: must be 'ideal' or an integer >= 1, got {self.phase_bits!r}")
        if not isinstance(self.thresholds_db, (list, tuple)):
            errs.append(f"thresholds_db: must be a list of numbers, got {self.thresholds_db!r}")
        elif not all(map(_is_ratio_db, self.thresholds_db)):
            errs.append(
                "thresholds_db: must be a list of dB values t with 10**(t/10) a positive "
                f"finite float, got {self.thresholds_db!r}"
            )
        elif not self.thresholds_db:
            errs.append("thresholds_db: must hold at least one threshold, got []")
        elif len(set(self.thresholds_db)) != len(self.thresholds_db):
            errs.append(f"thresholds_db: must not repeat a value, got {list(self.thresholds_db)!r}")
        else:
            object.__setattr__(self, "thresholds_db", tuple(map(float, self.thresholds_db)))
        if self.orientation not in ORIENTATION_MODES:
            errs.append(f"orientation: must be one of {ORIENTATION_MODES}, got {self.orientation!r}")
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
        return cls(**mapping)


def _unique_keys(pairs: list[tuple]) -> dict:
    """``dict(pairs)``, except that a key given twice is an error rather than the last value winning."""
    mapping = dict(pairs)
    if len(mapping) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"key {repeated!r} repeated in one mapping")
    return mapping


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` whose mappings go through :func:`_unique_keys`; merged (``<<``) keys count."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep=deep)  # rejects an unhashable key
        _unique_keys([(self.construct_object(key), None) for key, _ in node.value])
        return mapping


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """PyYAML's problem and its line and column on one line; its own text spans several."""
    mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
    if mark is None or problem is None:  # a reader error gives no mark
        return " ".join(str(exc).split())
    return f"line {mark.line + 1}, column {mark.column + 1}: {problem}"


def load_config(path: str | Path) -> NetworkConfig:
    """Read a YAML (or, by suffix, JSON) config file on top of the defaults; a repeated key is an error."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"])
    try:
        if path.suffix.lower() == ".json":
            data = json.loads(text, object_pairs_hook=_unique_keys)
        else:
            data = yaml.load(text, Loader=_UniqueKeyLoader)
    # JSONDecodeError, a repeated key, an int of over 4300 digits, or nesting deeper than the parser recurses
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"cannot parse config file {path}: {exc}"])
    except yaml.YAMLError as exc:
        raise ConfigError([f"cannot parse config file {path}: {_yaml_problem(exc)}"])
    if data is None:
        data = {}
    return NetworkConfig.from_mapping(data)
