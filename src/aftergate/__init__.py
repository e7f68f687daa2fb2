"""Simulator and analysis toolkit for the faint after-gate attack on
fast-gated single-photon avalanche photodiodes."""

from .detector import (
    K_BOLTZMANN_EV,
    DetectorParams,
    Environment,
    GateTiming,
    PulseSpec,
    TrapKind,
    TrapSpecies,
    click_probability,
    trap_lifetime,
    trap_loading,
)
from .characterization import (
    ArrheniusFit,
    GateHistogram,
    LifetimeExtractionError,
    LifetimePoint,
    arrhenius_fit,
    build_histogram,
    extract_lifetime,
)
from .attack import (
    QBER_THRESHOLD,
    NoSignalError,
    attack_histogram,
    binary_entropy,
    contour_flux_delay,
    gate2_vs_delay,
    key_rate,
    mean_delayed,
    partial_attack_rates,
    qber_target,
    qber_with_dd,
    sweep_delay,
)
from .feasibility import (
    attack_qber_at_frequency,
    feasibility_band,
    noise_qber,
    rescale_detector,
)
from .montecarlo import analytic_gate_probabilities, simulate_pulse_train
from .config import ConfigError, RunConfig, default_config_path, load_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
