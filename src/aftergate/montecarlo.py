"""Seeded Monte Carlo engine for pulse trains.

Trials are partitioned into fixed-size chunks; each chunk draws from its own
Philox stream keyed by (seed, chunk_index), so the histogram is bit-identical
for a given seed no matter how many workers execute the chunks. Each chunk
applies the dead-time filter to its own click matrix and returns only its
per-gate counts; the reduction is an integer sum per gate, which is
associative and commutative.

Every click source of a gate is independent of the others and of every other
gate: the light click (Poisson avalanche count at least the gain-dependent
threshold), trap release (Poisson(mean) >= 1, a Bernoulli with probability
1 - exp(-mean)), dark counts and the flat afterpulse background. So one
uniform per (trial, gate) cell, compared with the exact per-gate click
probability of the analytic oracle, samples the same law as drawing each
source separately.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

# trap_loading is unused here; bench/tracer.py wraps it under this name.
from .detector import (DetectorParams, Environment, PulseSpec,  # noqa: F401
                       afterpulse_background, delayed_release_mean,
                       poisson_tail, trap_loading)
from .characterization import GateHistogram, dead_time_counts

_CHUNK = 8192


def analytic_gate_probabilities(det: DetectorParams, pulses, env: Environment,
                                window: int) -> np.ndarray:
    """Exact per-gate click probabilities for the same composition the
    Monte Carlo engine samples: the engine draws against this vector.

    The per-gate probability that neither light, trap release nor a dark
    count clicks sets the flat afterpulse background, an independent last
    source."""
    p_no_click = np.full(window, 1.0 - det.dark_count_prob)
    for gate, pulse in pulses:
        pulse.validate_against(det.timing)
        lam = float(det.mean_avalanches(pulse.mean_flux, pulse.delay))
        n_th = int(det.threshold_count(pulse.delay))
        p_no_click[gate] *= 1.0 - float(poisson_tail(n_th, lam))
        offsets = np.arange(1, window - gate, dtype=float)
        p_no_click[gate + 1:] *= np.exp(-delayed_release_mean(
            det, pulse.mean_flux, pulse.delay, env, offsets))
    ap_bg = afterpulse_background(det, 1.0 - p_no_click)
    return 1.0 - p_no_click * (1.0 - ap_bg)


def _run_chunk(seed: int, chunk_index: int, n: int, p_click: np.ndarray,
               dead_time: float, gate_period: float) -> np.ndarray:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    clicked = rng.random((n, p_click.size)) < p_click
    return dead_time_counts(clicked, dead_time, gate_period)


def simulate_pulse_train(det: DetectorParams,
                         pulses: Sequence[tuple[int, PulseSpec]],
                         env: Environment,
                         trials: int,
                         seed: int,
                         window: int | None = None,
                         workers: int = 1,
                         dead_time: float = 0.0) -> GateHistogram:
    """Sample `trials` repetitions of a pulse train and histogram the clicks.

    pulses is a sequence of (gate_index, PulseSpec) with strictly increasing
    gate indices. Each trial's clicks pass a non-paralyzable dead time (ps;
    0 keeps every click) before they are counted. Returns a GateHistogram of
    integer counts per gate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    if not dead_time >= 0:
        raise ValueError("dead_time must be >= 0")
    if not pulses:
        raise ValueError("at least one pulse is required")
    gates = [g for g, _ in pulses]
    if any(b <= a for a, b in zip(gates, gates[1:])):
        raise ValueError("pulse gate indices must be strictly increasing")
    if window is None:
        window = gates[-1] + 12
    if window <= gates[-1]:
        raise ValueError(f"window {window} too small to contain all pulses")

    p_click = analytic_gate_probabilities(det, pulses, env, window)
    n_chunks = (trials + _CHUNK - 1) // _CHUNK

    def work(i):
        return _run_chunk(seed, i, min(_CHUNK, trials - i * _CHUNK), p_click,
                          dead_time, det.timing.gate_period)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(work, range(n_chunks)))
    else:
        counts = sum(map(work, range(n_chunks)))
    return GateHistogram(gate_counts=counts, trials=trials,
                         gate_period=det.timing.gate_period)
