"""Run configuration: INI parsing, validation, object construction.

Configurations use named sections ([detector], [traps.interface],
[traps.multiplication], [environment], ...) whose keys mirror the parameter
fields. Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path

from .detector import (DetectorParams, Environment, GateTiming, TrapKind,
                       TrapSpecies)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _auto_or_float(raw: str):
    return None if raw.strip().lower() == "auto" else float(raw)


def _float_list(raw: str):
    return [float(tok) for tok in raw.replace(",", " ").split()]


# section -> key -> caster
_SCHEMA = {
    "detector": {
        "detection_efficiency": float,
        "discrimination_threshold": float,
        "dark_count_prob": float,
        "afterpulse_prob": float,
        "afterpulse_spread_gates": int,
        "gating_frequency": float,
        "gate_width": float,
        "trigger_peak": float,
        "trigger_flat_fraction": float,
        "gain_flat_fraction": float,
        "gain_edge_fraction": float,
        "gain_floor": float,
    },
    "traps.interface": {
        "activation_energy": float,
        "lifetime_prefactor": float,
        "capture_fraction_photo": float,
        "capture_per_avalanche_charge": float,
        "retention_strength": float,
    },
    "traps.multiplication": {
        "activation_energy": float,
        "lifetime_prefactor": float,
        "capture_fraction_photo": float,
        "capture_per_avalanche_charge": float,
        "retention_strength": float,
    },
    "environment": {
        "temperature": float,
        "excess_bias_fraction": float,
    },
    "scenario": {
        "flux_full": float,
        "flux_half": float,
        "signal_flux": float,
        "attack_flux": float,
        "attack_delay": _auto_or_float,
    },
    "sweep": {
        "delay_min": float,
        "delay_max": float,
        "delay_points": int,
    },
    "histogram": {
        "gates": int,
        "pulse_delay": float,
        "dead_time": float,
    },
    "gate2": {
        "delay_min": _auto_or_float,
        "delay_max": _auto_or_float,
        "delay_points": int,
    },
    "contour": {
        "flux_min": float,
        "flux_max": float,
        "flux_points": int,
        "delay_min": float,
        "delay_max": float,
        "delay_points": int,
    },
    "feasibility": {
        "freq_min": float,
        "freq_max": float,
        "freq_points": int,
        "temperatures": _float_list,
        "qber_threshold": float,
    },
    "partial_attack": {
        "q_attack": _auto_or_float,
        "q_baseline": _auto_or_float,
        "fraction_points": int,
    },
    "run": {
        "seed": int,
        "trials": int,
        "output_dir": str,
        "workers": int,
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
    return Path(resources.files("aftergate").joinpath("data/default.ini"))


def _parse(path: Path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r}") from exc
    return values


def _apply_overrides(values: dict, overrides) -> None:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not section.key=value")
        target, raw = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override target {target!r} needs section.key")
        section, key = target.rsplit(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {target!r}")
        try:
            values.setdefault(section, {})[key] = _SCHEMA[section][key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {target}: {raw!r}") from exc


def _build(cls, sec: dict, **fixed):
    """cls from the keys present in sec plus `fixed`; an absent key takes
    the field's default, and an absent field without one is a KeyError."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in sec and f.name not in fixed:
            raise KeyError(f.name)
    return cls(**fixed, **sec)


def load_config(path: str | Path | None = None,
                overrides=None) -> RunConfig:
    """Load and validate a run configuration.

    `overrides` is a sequence of "section.key=value" strings applied on top
    of the file, matching the CLI --set flag.
    """
    cfg_path = Path(path) if path is not None else default_config_path()
    values = _parse(cfg_path)
    _apply_overrides(values, overrides)
    missing = [s for s in _REQUIRED_SECTIONS if s not in values]
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")
    det_sec = dict(values["detector"])
    try:
        timing = GateTiming(gating_frequency=det_sec.pop("gating_frequency"),
                            gate_width=det_sec.pop("gate_width"))
        detector = _build(
            DetectorParams, det_sec, timing=timing,
            interface_trap=_build(TrapSpecies, values["traps.interface"],
                                  kind=TrapKind.INTERFACE),
            multiplication_trap=_build(TrapSpecies,
                                       values["traps.multiplication"],
                                       kind=TrapKind.MULTIPLICATION))
        environment = _build(Environment, values["environment"])
    except (KeyError, ValueError) as exc:
        if isinstance(exc, KeyError):
            raise ConfigError(f"missing config key: {exc}") from exc
        raise ConfigError(str(exc)) from exc
    return RunConfig(detector=detector, environment=environment, values=values)
