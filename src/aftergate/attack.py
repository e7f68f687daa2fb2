"""Faint after-gate attack analysis.

Eve intercepts with a copy of Bob's receiver and resends classical pulses at
the trailing edge of Bob's gate: full power when she knows the basis matches,
half power into each detector otherwise. The target-gate QBER follows from
the full/half click probabilities alone; the corrected QBER adds the average
per-gate probability of a one-gate-delayed detection, which is what trapped
carriers contribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characterization import GateHistogram
from .detector import (DetectorParams, Environment, PulseSpec,
                       click_probability_array,
                       delayed_click_probability_arrays)

# BB84 security threshold shared across modules; configurable per call.
QBER_THRESHOLD = 0.11


class NoSignalError(ValueError):
    """Both detection probabilities vanish; the QBER is undefined."""


@dataclass(frozen=True)
class AttackScenario:
    """Attack parameters: full/half fluxes, pulse delay, attacked fraction."""

    flux_full: float
    flux_half: float | None = None
    delay: float = 0.0
    attacked_fraction: float = 1.0
    env: Environment = Environment(temperature=293.15)

    def __post_init__(self):
        if self.flux_half is None:
            object.__setattr__(self, "flux_half", self.flux_full / 2.0)
        if not (self.flux_full >= self.flux_half >= 0):
            raise ValueError("need flux_full >= flux_half >= 0")
        if not (0.0 <= self.attacked_fraction <= 1.0):
            raise ValueError("attacked_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class QberPoint:
    """One delay sample of the attack sweep."""

    delay: float
    p_f: float
    p_h: float
    p_dd_f: float
    p_dd_h: float
    p_dd_bar: float
    q_target: float
    q_with_dd: float


@dataclass(frozen=True)
class KeyRateResult:
    qber: float
    rate: float


def qber_target(p_f: float, p_h: float) -> float:
    """QBER seen at the target gate for full/half click probabilities.

    A mismatched basis splits the pulse into both of Bob's detectors at half
    power; either may click (union 2*p_h - p_h**2) and the resulting bit is
    random. Returns (2 p_h - p_h^2) / (2 p_f + 2 (2 p_h - p_h^2)).
    """
    if not (0.0 <= p_f <= 1.0 and 0.0 <= p_h <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if p_f == 0.0 and p_h == 0.0:
        raise NoSignalError("no detections at either power: QBER undefined")
    s = 2.0 * p_h - p_h * p_h
    return s / (2.0 * p_f + 2.0 * s)


def _qber_array(p_f, p_h):
    s = 2.0 * p_h - p_h * p_h
    denom = 2.0 * p_f + 2.0 * s
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, s / denom, np.nan)


def mean_delayed(p_dd_f: float, p_dd_h: float) -> float:
    """Average per-gate probability of a one-gate-delayed detection.

    Weights 1/4 and 1/2 come from the basis bookkeeping: a matched basis
    produced the delayed carriers with the full pulse in one detector, a
    mismatched basis with half pulses in both.
    """
    if not (0.0 <= p_dd_f <= 1.0 and 0.0 <= p_dd_h <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return 0.25 * p_dd_f + 0.5 * p_dd_h


def qber_with_dd(p_f: float, p_h: float, p_dd_f: float, p_dd_h: float) -> float:
    """Target-gate QBER corrected for delayed detection.

    The mean delayed probability is added to both detection probabilities
    (clamped at 1) before applying the target-gate formula.
    """
    p_bar = mean_delayed(p_dd_f, p_dd_h)
    p_f_prime = min(p_f + p_bar, 1.0)
    p_h_prime = min(p_h + p_bar, 1.0)
    if p_f_prime == 0.0 and p_h_prime == 0.0:
        raise NoSignalError("no detections at either power: QBER undefined")
    return qber_target(p_f_prime, p_h_prime)


def sweep_delay(det: DetectorParams, scenario: AttackScenario,
                delays) -> list[QberPoint]:
    """Evaluate both QBER forms over a grid of pulse delays.

    No-signal delays (both probabilities exactly zero) yield NaN QBER fields
    rather than aborting the sweep, so output grids stay rectangular.
    """
    d = np.sort(np.asarray(delays, dtype=float))
    if np.any(d < 0) or np.any(d >= det.timing.gate_period):
        raise ValueError("delay grid must lie within one gate period")
    env = scenario.env
    p_f = click_probability_array(det, scenario.flux_full, d)
    p_h = click_probability_array(det, scenario.flux_half, d)
    p_ddf = delayed_click_probability_arrays(det, scenario.flux_full, d, env)
    p_ddh = delayed_click_probability_arrays(det, scenario.flux_half, d, env)
    p_bar = 0.25 * p_ddf + 0.5 * p_ddh
    q = _qber_array(p_f, p_h)
    q_dd = _qber_array(np.minimum(p_f + p_bar, 1.0),
                       np.minimum(p_h + p_bar, 1.0))
    return [QberPoint(float(d[i]), float(p_f[i]), float(p_h[i]),
                      float(p_ddf[i]), float(p_ddh[i]), float(p_bar[i]),
                      float(q[i]), float(q_dd[i]))
            for i in range(len(d))]


def attack_histogram(det: DetectorParams, scenario: AttackScenario,
                     power: str, gates: int = 8) -> GateHistogram:
    """Analytic per-gate detection probabilities under the attack.

    Gate 1 is the target gate; later gates carry trap release plus dark and
    flat afterpulse background. power is "full" or "half".
    """
    from .montecarlo import analytic_gate_probabilities
    if power not in ("full", "half"):
        raise ValueError('power must be "full" or "half"')
    flux = scenario.flux_full if power == "full" else scenario.flux_half
    pulse = PulseSpec(mean_flux=flux, delay=scenario.delay)
    probs = analytic_gate_probabilities(det, [(0, pulse)], scenario.env, gates)
    return GateHistogram(gate_counts=probs, trials=None,
                         gate_period=det.timing.gate_period)


def gate2_vs_delay(det: DetectorParams, flux: float, delays,
                   env: Environment) -> list[tuple[float, float]]:
    """Detection probability in the adjacent gate as the pulse slides from
    the trailing edge into the inter-gate gap.

    With both trap species active the curve first falls (multiplication-layer
    loading collapses with the avalanche charge) and then rises (interface
    survival grows as the wait to the next gate shrinks)."""
    d = np.asarray(delays, dtype=float)
    p = delayed_click_probability_arrays(det, flux, d, env, gate_offset=1)
    return [(float(di), float(pi)) for di, pi in zip(d, p)]


def contour_flux_delay(det: DetectorParams, env: Environment,
                       fluxes, delays) -> np.ndarray:
    """Target-gate QBER over a (flux, delay) grid; half power is flux/2.

    Returns a matrix with shape (len(fluxes), len(delays)); no-signal cells
    are NaN.
    """
    f = np.asarray(fluxes, dtype=float)
    if np.any(f <= 0):
        raise ValueError("flux grid must be positive")
    d = np.asarray(delays, dtype=float)
    p_f = click_probability_array(det, f[:, None], d)
    p_h = click_probability_array(det, f[:, None] / 2.0, d)
    return _qber_array(p_f, p_h)


def sub_threshold_region(qber_matrix: np.ndarray,
                         threshold: float = QBER_THRESHOLD) -> np.ndarray:
    """Boolean mask of grid cells where the attack stays undetected."""
    with np.errstate(invalid="ignore"):
        return np.asarray(qber_matrix) < threshold


def binary_entropy(q) -> float:
    """Binary entropy in bits, with 0 log 0 = 0."""
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("binary_entropy domain is [0, 1]")
    log_q = np.log2(arr, out=np.zeros_like(arr), where=arr > 0)
    log_p = np.log2(1 - arr, out=np.zeros_like(arr), where=arr < 1)
    h = -np.where(arr > 0, arr * log_q, 0.0) \
        - np.where(arr < 1, (1 - arr) * log_p, 0.0)
    out = np.where((arr == 0) | (arr == 1), 0.0, h)
    return float(out) if out.ndim == 0 else out


def key_rate(qber: float) -> KeyRateResult:
    """Asymptotic BB84 key fraction, clamped at zero."""
    rate = max(0.0, 1.0 - 2.0 * float(binary_entropy(qber)))
    return KeyRateResult(qber=qber, rate=rate)


def partial_attack_rates(q_attack: float, q_baseline: float,
                         fractions) -> list[tuple[float, float, float]]:
    """Key rate when only a fraction of gates is attacked.

    For each fraction f the combined rate is the convex mixture
    f * r(q_attack) + (1 - f) * r(q_baseline). By convexity of the rate in
    the QBER this is never below the rate at the blended QBER, which is why
    attacking every gate is Eve's best strategy.
    """
    for q in (q_attack, q_baseline):
        if not (0.0 <= q <= 0.5):
            raise ValueError("QBER inputs must lie in [0, 0.5]")
    r_attack = key_rate(q_attack).rate
    r_base = key_rate(q_baseline).rate
    out = []
    for f in np.asarray(fractions, dtype=float):
        combined = f * r_attack + (1.0 - f) * r_base
        out.append((float(f), float(combined), r_attack))
    return out
