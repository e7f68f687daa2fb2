"""Faint after-gate attack analysis.

Eve intercepts with a copy of Bob's receiver and resends classical pulses at
the trailing edge of Bob's gate: full power when she knows the basis matches,
half power into each detector otherwise. The target-gate QBER follows from
the full/half click probabilities alone; the corrected QBER adds the average
per-gate probability of a one-gate-delayed detection, which is what trapped
carriers contribute.
"""

from __future__ import annotations

import numpy as np

from .detector import (DetectorParams, Environment, PulseSpec,
                       click_probability_array,
                       delayed_click_probability_arrays)

# BB84 security threshold shared across modules; configurable per call.
QBER_THRESHOLD = 0.11


class NoSignalError(ValueError):
    """Both detection probabilities vanish; the QBER is undefined."""


def _qber_array(p_f, p_h):
    """Target-gate QBER (2 p_h - p_h^2) / (2 p_f + 2 (2 p_h - p_h^2));
    NaN where both probabilities vanish."""
    s = 2.0 * p_h - p_h * p_h
    denom = 2.0 * p_f + 2.0 * s
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, s / denom, np.nan)


def _mean_delayed_array(p_dd_f, p_dd_h):
    return 0.25 * p_dd_f + 0.5 * p_dd_h


def _qber_with_dd_array(p_f, p_h, p_bar):
    return _qber_array(np.minimum(p_f + p_bar, 1.0),
                       np.minimum(p_h + p_bar, 1.0))


def _probabilities(*probs) -> np.ndarray:
    arr = np.array(probs, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    return arr


def _defined(q) -> float:
    if np.isnan(q):
        raise NoSignalError("no detections at either power: QBER undefined")
    return float(q)


def qber_target(p_f: float, p_h: float) -> float:
    """QBER seen at the target gate for full/half click probabilities.

    A mismatched basis splits the pulse into both of Bob's detectors at half
    power; either may click (union 2*p_h - p_h**2) and the resulting bit is
    random. Returns (2 p_h - p_h^2) / (2 p_f + 2 (2 p_h - p_h^2)).
    """
    return _defined(_qber_array(*_probabilities(p_f, p_h)))


def mean_delayed(p_dd_f: float, p_dd_h: float) -> float:
    """Average per-gate probability of a one-gate-delayed detection.

    Weights 1/4 and 1/2 come from the basis bookkeeping: a matched basis
    produced the delayed carriers with the full pulse in one detector, a
    mismatched basis with half pulses in both.
    """
    return float(_mean_delayed_array(*_probabilities(p_dd_f, p_dd_h)))


def qber_with_dd(p_f: float, p_h: float, p_dd_f: float, p_dd_h: float) -> float:
    """Target-gate QBER corrected for delayed detection.

    The mean delayed probability is added to both detection probabilities
    (clamped at 1) before applying the target-gate formula.
    """
    p_f, p_h, p_dd_f, p_dd_h = _probabilities(p_f, p_h, p_dd_f, p_dd_h)
    return _defined(_qber_with_dd_array(p_f, p_h,
                                        _mean_delayed_array(p_dd_f, p_dd_h)))


def _grid(values, name: str) -> np.ndarray:
    """The values as a 1-D float array; anything else raises, naming the
    grid."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} grid must be a 1-D array")
    return a


def _delay_grid(det: DetectorParams, delays) -> np.ndarray:
    """The delays as a 1-D float array within one gate period; the
    caller's order is kept."""
    return _grid(det.timing.delays(delays), "delay")


def _sweep_arrays(det: DetectorParams, flux: float, delays, env: Environment):
    """p_f, p_h, p_dd_f, p_dd_h, p_bar, q_target and q_with_dd over a delay
    grid, at full power `flux` and half power flux / 2 in one broadcast pass
    (powers on a leading axis); no-signal delays give NaN QBERs."""
    fluxes = np.array([flux, flux / 2.0]).reshape((2,) + (1,) * np.ndim(delays))
    p_f, p_h = click_probability_array(det, fluxes, delays)
    p_ddf, p_ddh = delayed_click_probability_arrays(det, fluxes, delays, env)
    p_bar = _mean_delayed_array(p_ddf, p_ddh)
    return (p_f, p_h, p_ddf, p_ddh, p_bar, _qber_array(p_f, p_h),
            _qber_with_dd_array(p_f, p_h, p_bar))


def sweep_delay(det: DetectorParams, flux: float, delays,
                env: Environment) -> np.recarray:
    """Evaluate both QBER forms over a grid of pulse delays, at full power
    `flux` and half power flux / 2.

    Returns one record per delay with fields delay, p_f, p_h, p_dd_f,
    p_dd_h, p_dd_bar, q_target and q_with_dd. No-signal delays (both
    probabilities exactly zero) yield NaN QBER fields rather than aborting
    the sweep, so output grids stay rectangular.
    """
    d = _delay_grid(det, delays)
    columns = _sweep_arrays(det, flux, d, env)
    return np.rec.fromarrays([d, *columns], names="delay,p_f,p_h,p_dd_f,"
                             "p_dd_h,p_dd_bar,q_target,q_with_dd")


def attack_histogram(det: DetectorParams, flux: float, delay: float,
                     env: Environment, gates: int) -> np.ndarray:
    """Analytic per-gate detection probabilities of one pulse of `flux`
    photons at `delay`, as a float array over `gates` gates.

    Gate 1 is the target gate; later gates carry trap release plus dark and
    flat afterpulse background.
    """
    from .montecarlo import analytic_gate_probabilities
    pulse = PulseSpec(mean_flux=flux, delay=delay)
    return analytic_gate_probabilities(det, [(0, pulse)], env, gates)


def gate2_vs_delay(det: DetectorParams, flux: float, delays,
                   env: Environment) -> np.recarray:
    """Detection probability in the adjacent gate as the pulse slides from
    the trailing edge into the inter-gate gap, as records (delay,
    probability).

    With both trap species active the curve first falls (multiplication-layer
    loading collapses with the avalanche charge) and then rises (interface
    survival grows as the wait to the next gate shrinks)."""
    d = _delay_grid(det, delays)
    p = delayed_click_probability_arrays(det, flux, d, env, gate_offset=1)
    return np.rec.fromarrays([d, p], names="delay,probability")


def contour_flux_delay(det: DetectorParams, fluxes, delays) -> np.ndarray:
    """Target-gate QBER over a (flux, delay) grid; half power is flux/2.

    Returns a matrix with shape (len(fluxes), len(delays)); no-signal cells
    are NaN. The whole grid is evaluated in one pass at each power.
    """
    f = _grid(fluxes, "flux")
    if np.any(f <= 0):
        raise ValueError("flux grid must be positive")
    d = _delay_grid(det, delays)
    return _qber_array(click_probability_array(det, f[:, None], d),
                       click_probability_array(det, f[:, None] / 2.0, d))


def sub_threshold_region(qber_matrix: np.ndarray,
                         threshold: float = QBER_THRESHOLD) -> np.ndarray:
    """Boolean mask of grid cells where the attack stays undetected."""
    with np.errstate(invalid="ignore"):
        return np.asarray(qber_matrix) < threshold


def binary_entropy(q) -> float:
    """Binary entropy in bits, with 0 log 0 = 0."""
    arr = np.asarray(q, dtype=float)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("binary_entropy domain is [0, 1]")
    log_q = np.log2(arr, out=np.zeros_like(arr), where=arr > 0)
    log_p = np.log2(1 - arr, out=np.zeros_like(arr), where=arr < 1)
    # the logs are 0 where their argument is, so 0 log 0 gives +0.0
    out = 0.0 - arr * log_q - (1 - arr) * log_p
    return float(out) if out.ndim == 0 else out


def key_rate(qber: float) -> float:
    """Asymptotic BB84 key fraction 1 - 2 h(qber) for a QBER in [0, 0.5],
    clamped at zero."""
    if not 0.0 <= qber <= 0.5:
        raise ValueError("QBER must lie in [0, 0.5]")
    return max(0.0, 1.0 - 2.0 * float(binary_entropy(qber)))


def partial_attack_rates(q_attack: float, q_baseline: float,
                         fractions) -> np.recarray:
    """Key rate when only a fraction of gates is attacked, as records
    (fraction, combined_rate, full_attack_rate).

    For each fraction f the combined rate is the convex mixture
    f * r(q_attack) + (1 - f) * r(q_baseline). By convexity of the rate in
    the QBER this is never below the rate at the blended QBER, which is why
    attacking every gate is Eve's best strategy.
    """
    r_attack = key_rate(q_attack)
    r_base = key_rate(q_baseline)
    f = _grid(fractions, "fraction")
    if not np.all((f >= 0.0) & (f <= 1.0)):
        raise ValueError("attacked fractions must lie in [0, 1]")
    return np.rec.fromarrays(
        [f, f * r_attack + (1.0 - f) * r_base, np.full(f.shape, r_attack)],
        names="fraction,combined_rate,full_attack_rate")
