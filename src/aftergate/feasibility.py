"""Gating-frequency feasibility classification.

A frequency is usable when two conditions hold at once: legitimate operation
must not poison itself with delayed detection (gates far enough apart that a
click rarely spills into the next gate), yet an attacker's trailing-edge
pulses must still spill enough to push the corrected QBER over the security
threshold. Frequencies failing the first are Noisy, failing the second are
Vulnerable, and the window in between is Suitable.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .attack import QBER_THRESHOLD, _sweep_arrays
# click_probability, delayed_click_probability_arrays, trap_lifetime and
# trap_loading are unused here; bench/tracer.py wraps them by these names.
from .detector import (DetectorParams, Environment, GateTiming,  # noqa: F401
                       afterpulse_background, click_probability,
                       click_probability_array, delayed_click_probability_arrays,
                       delayed_release_mean, trap_lifetime, trap_loading)


def classify(q_noise, q_attack, threshold: float = QBER_THRESHOLD):
    """Pure trichotomy on the two QBER figures; a str for scalars, an
    array of them elementwise over arrays."""
    return np.where(q_noise > threshold, "Noisy",
                    np.where(q_attack <= threshold, "Vulnerable",
                             "Suitable"))[()]


def rescale_detector(det: DetectorParams, frequency) -> DetectorParams:
    """Detector at a different clock, keeping the duty cycle constant.

    frequency is one clock rate or an array of them, one clock per element.
    The gate width scales with the period, so the fraction-parameterized
    profiles keep their shape relative to the gate.
    """
    frequency = np.asarray(frequency, dtype=float)
    duty = det.timing.gate_width / det.timing.gate_period
    timing = GateTiming(gating_frequency=frequency,
                        gate_width=duty * 1.0e12 / frequency)
    return replace(det, timing=timing)


def noise_qber(det: DetectorParams, env: Environment,
               signal_flux: float = 0.1):
    """QBER induced by the detector's own delayed detection, no eavesdropper.

    Each legitimate detection at the optimal delay seeds interface-trap
    carriers; their release in the following gate is an error half the time
    (they are uncorrelated with the transmitted qubit), as is the dark and
    afterpulse background. Only the interface species is counted, which is
    the conservative choice for this criterion. An array of clocks
    (rescale_detector) gives one QBER per clock.
    """
    if signal_flux <= 0:
        raise ValueError("signal_flux must be > 0")
    p_sig = click_probability_array(det, signal_flux, 0.0)
    interface_only = replace(det, multiplication_trap=replace(
        det.multiplication_trap, capture_per_avalanche_charge=0.0))
    mean = delayed_release_mean(interface_only, signal_flux, 0.0, env)
    p_dd = 1.0 - np.exp(-mean)
    p_other = det.dark_count_prob + afterpulse_background(det, p_sig)
    total = p_sig + p_dd + p_other
    if np.any(total <= 0.0):
        raise ValueError("zero total detection probability")
    return (0.5 * p_dd + 0.5 * p_other) / total


def attack_qber_at_frequency(det: DetectorParams, env: Environment,
                             attack_flux: float = 20.0):
    """Best corrected QBER an attacker can reach at this clock rate.

    Minimizes the delayed-detection QBER over 512 pulse delays (the attacker
    picks the most favorable delay) at the conservative attack flux. An
    array of clocks gets its delays on a leading axis, one QBER per clock.
    """
    if attack_flux <= 0:
        raise ValueError("attack_flux must be > 0")
    stop = np.minimum(1.05 * det.timing.gate_width,
                      0.999 * det.timing.gate_period)
    delays = np.linspace(0.0, stop, 512)
    q = _sweep_arrays(det, attack_flux, attack_flux / 2.0, delays, env)[-1]
    if np.any(np.all(np.isnan(q), axis=0)):
        raise ValueError("attack sweep produced no signal at any delay; "
                         "check the detector configuration")
    return np.nanmin(q, axis=0)


def feasibility_band(frequencies, env: Environment,
                     det_template: DetectorParams,
                     signal_flux: float = 0.1,
                     attack_flux: float = 20.0,
                     threshold: float = QBER_THRESHOLD) -> np.recarray:
    """One verdict per frequency of an ascending grid, as records
    (frequency [Hz], q_noise, q_attack, classification); every frequency
    is evaluated in one pass of the kernels."""
    freqs = np.asarray(frequencies, dtype=float)
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequency grid must be sorted ascending")
    det = rescale_detector(det_template, freqs)
    q_noise = noise_qber(det, env, signal_flux)
    q_attack = attack_qber_at_frequency(det, env, attack_flux)
    return np.rec.fromarrays([freqs, q_noise, q_attack,
                              classify(q_noise, q_attack, threshold)],
                             names="frequency,q_noise,q_attack,classification")


def suitable_interval(band: np.recarray) -> tuple[float, float] | None:
    """(min_hz, max_hz) of the Suitable grid points, or None if empty."""
    fs = band.frequency[band.classification == "Suitable"]
    if not fs.size:
        return None
    return (float(fs.min()), float(fs.max()))
