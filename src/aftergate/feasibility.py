"""Gating-frequency feasibility classification.

A frequency is usable when two conditions hold at once: legitimate operation
must not poison itself with delayed detection (gates far enough apart that a
click rarely spills into the next gate), yet an attacker's trailing-edge
pulses must still spill enough to push the corrected QBER over the security
threshold. Frequencies failing the first are Noisy, failing the second are
Vulnerable, and the window in between is Suitable.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .attack import QBER_THRESHOLD, _sweep_arrays
# click_probability_array, delayed_click_probability_arrays, trap_lifetime
# and trap_loading are unused here; bench/tracer.py wraps them by these names.
from .detector import (DetectorParams, Environment, GateTiming,  # noqa: F401
                       PulseSpec, afterpulse_background, click_probability,
                       click_probability_array, delayed_click_probability_arrays,
                       delayed_release_mean, trap_lifetime, trap_loading)


def classify(q_noise: float, q_attack: float,
             threshold: float = QBER_THRESHOLD) -> str:
    """Pure trichotomy on the two QBER figures."""
    if q_noise > threshold:
        return "Noisy"
    if q_attack <= threshold:
        return "Vulnerable"
    return "Suitable"


def rescale_detector(det: DetectorParams, frequency: float) -> DetectorParams:
    """Detector at a different clock, keeping the duty cycle constant.

    The gate width scales with the period, so the fraction-parameterized
    profiles keep their shape relative to the gate.
    """
    duty = det.timing.gate_width / det.timing.gate_period
    timing = GateTiming(gating_frequency=frequency,
                        gate_width=duty * 1.0e12 / frequency)
    return replace(det, timing=timing)


def noise_qber(det: DetectorParams, env: Environment,
               signal_flux: float = 0.1) -> float:
    """QBER induced by the detector's own delayed detection, no eavesdropper.

    Each legitimate detection at the optimal delay seeds interface-trap
    carriers; their release in the following gate is an error half the time
    (they are uncorrelated with the transmitted qubit), as is the dark and
    afterpulse background. Only the interface species is counted, which is
    the conservative choice for this criterion.
    """
    if signal_flux <= 0:
        raise ValueError("signal_flux must be > 0")
    p_sig = click_probability(det, PulseSpec(mean_flux=signal_flux, delay=0.0))
    interface_only = replace(det, multiplication_trap=replace(
        det.multiplication_trap, capture_per_avalanche_charge=0.0))
    mean = float(delayed_release_mean(interface_only, signal_flux, 0.0, env))
    p_dd = 1.0 - math.exp(-mean)
    p_other = det.dark_count_prob + afterpulse_background(det, p_sig)
    total = p_sig + p_dd + p_other
    if total <= 0.0:
        raise ValueError("zero total detection probability")
    return (0.5 * p_dd + 0.5 * p_other) / total


def attack_qber_at_frequency(det: DetectorParams, env: Environment,
                             attack_flux: float = 20.0,
                             delay_points: int = 512) -> float:
    """Best corrected QBER an attacker can reach at this clock rate.

    Minimizes the delayed-detection QBER over the pulse delay (the attacker
    picks the most favorable delay) at the conservative attack flux.
    """
    if attack_flux <= 0:
        raise ValueError("attack_flux must be > 0")
    width = det.timing.gate_width
    period = det.timing.gate_period
    delays = np.linspace(0.0, min(1.05 * width, 0.999 * period), delay_points)
    q = _sweep_arrays(det, attack_flux, attack_flux / 2.0, delays, env)[-1]
    if np.all(np.isnan(q)):
        raise ValueError("attack sweep produced no signal at any delay; "
                         "check the detector configuration")
    return float(np.nanmin(q))


def feasibility_band(frequencies, env: Environment,
                     det_template: DetectorParams,
                     signal_flux: float = 0.1,
                     attack_flux: float = 20.0,
                     threshold: float = QBER_THRESHOLD) -> np.recarray:
    """One verdict per frequency of an ascending grid, as records
    (frequency [Hz], q_noise, q_attack, classification)."""
    freqs = np.asarray(frequencies, dtype=float)
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequency grid must be sorted ascending")
    qs = []
    for f in freqs:
        det = rescale_detector(det_template, f)
        qs.append((noise_qber(det, env, signal_flux),
                   attack_qber_at_frequency(det, env, attack_flux)))
    q_noise, q_attack = np.array(qs).reshape(-1, 2).T
    classes = [classify(qn, qa, threshold) for qn, qa in qs]
    return np.rec.fromarrays([freqs, q_noise, q_attack,
                              np.array(classes, dtype=str)],
                             names="frequency,q_noise,q_attack,classification")


def suitable_interval(band: np.recarray) -> tuple[float, float] | None:
    """(min_hz, max_hz) of the Suitable grid points, or None if empty."""
    fs = band.frequency[band.classification == "Suitable"]
    if not fs.size:
        return None
    return (float(fs.min()), float(fs.max()))
