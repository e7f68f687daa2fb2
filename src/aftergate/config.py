"""Run configuration: INI parsing, validation, object construction.

Configurations use named sections ([detector], [traps.interface],
[traps.multiplication], [environment], ...) whose keys mirror the parameter
fields. Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .detector import (CAPTURE_PARAMS, DetectorParams, Environment,
                       GateTiming, TrapSpecies)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _checked(cast, ok, why: str):
    """Caster that casts, then raises ValueError(why) unless ok(value)."""
    def caster(raw: str):
        x = cast(raw)
        if not ok(x):
            raise ValueError(why)
        return x
    return caster


_float = _checked(float, math.isfinite, "must be finite")
_positive = _checked(_float, lambda x: x > 0, "must be > 0")
_nonnegative = _checked(_float, lambda x: x >= 0, "must be >= 0")
_qber = _checked(_float, lambda x: 0 < x < 0.5, "must lie in (0, 0.5)")
_count = _checked(int, lambda n: n >= 1, "must be >= 1")
_seed = _checked(int, lambda n: 0 <= n < 1 << 64, "must lie in [0, 2**64)")
# the binomial draw takes an int64 trial count
_trials = _checked(int, lambda n: 1 <= n < 1 << 63, "must lie in [1, 2**63)")


def _temperatures(raw: str) -> list[float]:
    temps = [_positive(tok) for tok in raw.replace(",", " ").split()]
    if not temps or len({f"{t:g}" for t in temps}) < len(temps):
        raise ValueError("needs at least one value, each distinct at 6 "
                         "significant digits, since they name output files")
    return temps


def _model_keys(*classes, skip=()) -> dict:
    """key -> caster for the float and int fields of model dataclasses,
    leaving out the names in skip. Under `from __future__ import
    annotations` a field's type is its annotation string."""
    casters = {"float": _float, "int": int}
    return {f.name: casters[f.type] for cls in classes for f in fields(cls)
            if f.type in casters and f.name not in skip}


# section -> key -> caster; a caster raises ValueError on a bad value
_SCHEMA = {
    "detector": _model_keys(GateTiming, DetectorParams),
    # each [traps.*] section takes only the capture keys its slot reads
    "traps.interface": _model_keys(
        TrapSpecies, skip=CAPTURE_PARAMS["multiplication_trap"]),
    "traps.multiplication": _model_keys(
        TrapSpecies, skip=CAPTURE_PARAMS["interface_trap"]),
    "environment": _model_keys(Environment),
    "scenario": {
        "flux_full": _positive,
        "signal_flux": _positive,
        "attack_flux": _positive,
    },
    "sweep": {
        "delay_min": _float,
        "delay_max": _float,
        "delay_points": _count,
    },
    "histogram": {
        "gates": _count,
        "pulse_delay": _float,
        "dead_time": _nonnegative,
    },
    "gate2": {"delay_points": _count},
    "contour": {
        "flux_min": _positive,
        "flux_max": _positive,
        "flux_points": _count,
        "delay_min": _float,
        "delay_max": _float,
        "delay_points": _count,
    },
    "feasibility": {
        "freq_min": _float,
        "freq_max": _float,
        "freq_points": _count,
        "temperatures": _temperatures,
        "qber_threshold": _qber,
    },
    "partial_attack": {"fraction_points": _count},
    "run": {
        "seed": _seed,
        "trials": _trials,
        "output_dir": str,
        "workers": _count,
    },
}

_REQUIRED_SECTIONS = ("detector", "traps.interface", "traps.multiplication",
                      "environment")


@dataclass
class RunConfig:
    """Parsed configuration with constructed model objects."""

    detector: DetectorParams
    environment: Environment
    values: dict = field(repr=False, default_factory=dict)


def default_config_path() -> Path:
    return Path(__file__).parent / "data" / "default.ini"


def _cast(section: str, key: str, raw: str):
    """raw cast by the schema; a bad key or value raises ConfigError."""
    caster = _SCHEMA.get(section, {}).get(key)
    if caster is None:
        raise ConfigError(f"unknown key '{key}' in section [{section}]")
    try:
        return caster(raw)
    except ValueError as exc:
        raise ConfigError(
            f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def _parse(path: Path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {key: _cast(section, key, raw)
                           for key, raw in parser.items(section)}
    return values


def _apply_overrides(values: dict, overrides) -> None:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not section.key=value")
        target, raw = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override target {target!r} needs section.key")
        section, key = target.rsplit(".", 1)
        values.setdefault(section, {})[key] = _cast(section, key, raw)


def _build(values: dict, section: str, cls, **fixed):
    """cls from the keys of `section` that name its fields, plus `fixed`;
    an absent key takes the field's default. A missing key, or a value cls
    rejects, is a ConfigError naming section.key."""
    sec = values[section]
    for f in fields(cls):
        if f.default is MISSING and f.name not in sec and f.name not in fixed:
            raise ConfigError(f"missing config key: {section}.{f.name}")
    try:
        return cls(**fixed, **{f.name: sec[f.name] for f in fields(cls)
                               if f.name in sec})
    except ValueError as exc:  # the message opens with the field it blames
        raise ConfigError(f"{section}.{exc}") from exc


def load_config(path: str | Path | None = None,
                overrides=None) -> RunConfig:
    """Load and validate a run configuration.

    The packaged calibration supplies every command and run key the file
    leaves out; the model sections ([detector], [traps.*], [environment])
    come from the file alone. `overrides` is a sequence of
    "section.key=value" strings applied last, matching the CLI --set flag.
    """
    values = _parse(default_config_path())
    if path is not None:
        for section in _REQUIRED_SECTIONS:
            del values[section]
        for section, keys in _parse(Path(path)).items():
            values.setdefault(section, {}).update(keys)
    _apply_overrides(values, overrides)
    missing = [s for s in _REQUIRED_SECTIONS if s not in values]
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")
    feas = values["feasibility"]
    lo, hi = feas["freq_min"], feas["freq_max"]
    if not (0 < lo < hi or 0 < lo == hi and feas["freq_points"] == 1):
        raise ConfigError(f"need 0 < feasibility.freq_min < feasibility."
                          f"freq_max (equal at 1 point), got {lo:g}, {hi:g}")
    if not math.isfinite(1.0e12 / lo):  # GateTiming's gate_period rule
        raise ConfigError("feasibility.freq_min is too small for a finite "
                          "gate period")
    timing = _build(values, "detector", GateTiming)
    detector = _build(
        values, "detector", DetectorParams, timing=timing,
        interface_trap=_build(values, "traps.interface", TrapSpecies),
        multiplication_trap=_build(values, "traps.multiplication",
                                   TrapSpecies))
    environment = _build(values, "environment", Environment)
    delay = values["histogram"]["pulse_delay"]
    try:
        timing.delays(delay)
    except ValueError as exc:
        raise ConfigError(f"bad value for histogram.pulse_delay: {delay:g} "
                          f"({exc})") from exc
    return RunConfig(detector=detector, environment=environment, values=values)
