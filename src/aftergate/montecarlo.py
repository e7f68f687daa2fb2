"""Seeded Monte Carlo engine for pulse trains.

Every click source of a gate is independent of the others and of every other
gate: the light click (Poisson avalanche count at least the gain-dependent
threshold), trap release (Poisson(mean) >= 1, a Bernoulli with probability
1 - exp(-mean)), dark counts and the flat afterpulse background. So gate j
clicks with the exact probability p_j of the analytic oracle, independently
of every other gate and of the trial's history. Under a non-paralyzable dead
time a trial is live at gate j unless an accepted click keeps it dead; a
trial that clicks at j is live again at the first gate i > j whose time
i*T - j*T is at least the dead time. Given the history, the live trials at
gate j thus click independently with probability p_j, and their accepted
clicks are exactly Binomial(live_j, p_j). The engine walks the window once
for all trials, drawing that one binomial per gate from one Philox stream
keyed by (seed, 0). This is the same law as drawing every (trial, gate)
cell and filtering, at a cost of `window` scalar draws whatever the number
of trials. A seed fixes the counts of this draw order only: a per-trial
sampler of the same law gives other counts for the seed.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

# trap_loading is unused here; bench/tracer.py wraps it under this name.
from .detector import (DetectorParams, Environment, PulseSpec,  # noqa: F401
                       afterpulse_background, delayed_release_mean,
                       poisson_tail, trap_loading)


def analytic_gate_probabilities(det: DetectorParams, pulses, env: Environment,
                                window: int) -> np.ndarray:
    """Exact per-gate click probabilities for the same composition the
    Monte Carlo engine samples: the engine draws against this vector.

    The per-gate probability that neither light, trap release nor a dark
    count clicks sets the flat afterpulse background, an independent last
    source. window and every pulse gate are integers, each gate in
    [0, window)."""
    try:
        window = operator.index(window)
        gates = [operator.index(gate) for gate, _ in pulses]
    except TypeError:
        raise ValueError("window and pulse gates must be integers") from None
    if not all(0 <= gate < window for gate in gates):
        raise ValueError(f"pulse gates must lie in [0, window={window})")
    p_no_click = np.full(window, 1.0 - det.dark_count_prob)
    for gate, pulse in pulses:
        d = det.timing.one_clock(pulse.delay)
        p_no_click[gate] *= 1.0 - float(poisson_tail(
            det.threshold_count(d), det.mean_avalanches(pulse.mean_flux, d)))
        offsets = np.arange(1, window - gate, dtype=float)
        p_no_click[gate + 1:] *= np.exp(-delayed_release_mean(
            det, pulse.mean_flux, pulse.delay, env, offsets))
    ap_bg = afterpulse_background(det, float(np.mean(1.0 - p_no_click)))
    return 1.0 - p_no_click * (1.0 - ap_bg)


def _next_start(window: int, dead_time: float,
                gate_period: float) -> np.ndarray:
    """next_start[j] is the first gate i > j with i*T - j*T >= dead_time, as
    the click-matrix reference filter in tests/dead_time_reference.py
    compares them; gates past the window read as `window`."""
    gate = np.arange(window)
    steps = int(min(max(np.ceil(dead_time / gate_period), 1), window))
    next_start = np.minimum(gate + steps, window)

    def eligible(i):
        return i * gate_period - gate * gate_period >= dead_time

    # the rounded comparison can move the first eligible gate off gate+steps
    while np.any(back := (next_start - 1 > gate) & eligible(next_start - 1)):
        next_start[back] -= 1
    while np.any(ahead := (next_start < window) & ~eligible(next_start)):
        next_start[ahead] += 1
    return next_start


def _run_chunk(seed: int, p_click: np.ndarray, trials: int,
               next_start: np.ndarray) -> np.ndarray:
    """Per-gate accepted-click counts of all trials.

    Gate by gate, the live trials click as one Binomial(live, p_j) draw;
    the trials that clicked leave and are live again at next_start[j].
    bench/tracer.py wraps this name and reads the trial count from the
    third positional argument, so the name and the argument order stay
    and simulate_pulse_train calls it through the module global."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64)))
    window = p_click.size
    counts = [0] * window
    back = [0] * (window + 1)
    live = trials
    for j, (p, nxt) in enumerate(zip(p_click.tolist(), next_start.tolist())):
        live += back[j]
        c = rng.binomial(live, p)
        counts[j] = c
        live -= c
        back[nxt] += c
    return np.array(counts, dtype=np.int64)


def simulate_pulse_train(det: DetectorParams,
                         pulses: Sequence[tuple[int, PulseSpec]],
                         env: Environment,
                         trials: int,
                         seed: int,
                         window: int,
                         dead_time: float = 0.0) -> np.ndarray:
    """Sample `trials` repetitions of a pulse train and histogram the clicks
    of its first `window` gates.

    pulses is a sequence of (gate_index, PulseSpec) with strictly increasing
    gate indices. Each trial's clicks pass a non-paralyzable dead time (ps;
    0 keeps every click) before they are counted. trials, seed, window and
    the gate indices are integers; trials must lie in [1, 2**63), the range
    of the binomial draw's int64 count. Returns the int64 count per gate.
    """
    try:
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise ValueError("trials and seed must be integers") from None
    if not 1 <= trials < 1 << 63:
        raise ValueError("trials must lie in [1, 2**63)")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    if not dead_time >= 0:
        raise ValueError("dead_time must be >= 0")
    if not pulses:
        raise ValueError("at least one pulse is required")
    gates = [g for g, _ in pulses]
    if any(b <= a for a, b in zip(gates, gates[1:])):
        raise ValueError("pulse gate indices must be strictly increasing")

    p_click = analytic_gate_probabilities(det, pulses, env, window)
    next_start = _next_start(window, dead_time, det.timing.gate_period)
    return _run_chunk(seed, p_click, trials, next_start)
