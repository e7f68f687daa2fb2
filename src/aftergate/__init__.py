"""Simulator and analysis toolkit for the faint after-gate attack on
fast-gated single-photon avalanche photodiodes.

The public names load lazily (PEP 562): a submodule is imported the first
time one of its names is read, so `load_config` alone loads only `config`
and `detector`."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "detector": ("K_BOLTZMANN_EV", "DetectorParams", "Environment",
                 "GateTiming", "PulseSpec", "TrapSpecies",
                 "click_probability", "trap_lifetime", "trap_loading"),
    "characterization": ("ArrheniusFit", "LifetimeExtractionError",
                         "arrhenius_fit", "build_histogram",
                         "extract_lifetime"),
    "attack": ("NoSignalError", "attack_histogram", "binary_entropy",
               "contour_flux_delay", "gate2_vs_delay", "key_rate",
               "mean_delayed", "partial_attack_rates", "qber_target",
               "qber_with_dd", "sweep_delay"),
    "feasibility": ("attack_qber_at_frequency", "feasibility_band",
                    "noise_qber", "rescale_detector"),
    "montecarlo": ("analytic_gate_probabilities", "simulate_pulse_train"),
    "config": ("ConfigError", "RunConfig", "default_config_path",
               "load_config"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
