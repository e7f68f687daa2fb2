"""Seeded Monte Carlo engine for pulse trains.

Trials are partitioned into fixed-size chunks; each chunk draws from its own
Philox stream keyed by (seed, chunk_index), so the histogram is bit-identical
for a given seed no matter how many workers execute the chunks. Each chunk
returns only its per-gate counts of accepted clicks; the reduction is an
integer sum per gate, which is associative and commutative.

Every click source of a gate is independent of the others and of every other
gate: the light click (Poisson avalanche count at least the gain-dependent
threshold), trap release (Poisson(mean) >= 1, a Bernoulli with probability
1 - exp(-mean)), dark counts and the flat afterpulse background. So gate g
clicks with the exact probability p_g of the analytic oracle, independently
of every other gate. Under a non-paralyzable dead time a trial's accepted
clicks then form a chain: from an eligible gate s the next accepted click is
the first click at a gate j >= s, with probability
p_j * prod_{s <= i < j} (1 - p_i), and the next eligible gate is the first
i > j whose time i*T - j*T is at least the dead time. The engine samples
that chain directly, one uniform per step of each still-active trial,
inverting the conditional first-click law on a cumulative log-survival
table. This is the same law as drawing every (trial, gate) cell and
filtering, at a cost that grows with the trials and the accepted clicks
instead of with trials x gates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# trap_loading is unused here; bench/tracer.py wraps it under this name.
from .detector import (DetectorParams, Environment, PulseSpec,  # noqa: F401
                       afterpulse_background, delayed_release_mean,
                       poisson_tail, trap_loading)

_CHUNK = 8192


def analytic_gate_probabilities(det: DetectorParams, pulses, env: Environment,
                                window: int) -> np.ndarray:
    """Exact per-gate click probabilities for the same composition the
    Monte Carlo engine samples: the engine draws against this vector.

    The per-gate probability that neither light, trap release nor a dark
    count clicks sets the flat afterpulse background, an independent last
    source. Every pulse gate must lie in [0, window)."""
    if not all(0 <= gate < window for gate, _ in pulses):
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


def _chain_tables(p_click: np.ndarray, dead_time: float,
                  gate_period: float):
    """The tables _run_chunk samples a trial's accepted clicks from.

    neg_log_surv[k] = -sum_{i<k} log(1 - p_i), over the gates with p_i < 1,
    so the first click from start s lies past gate j with probability
    exp(neg_log_surv[s] - neg_log_surv[j + 1]). A gate with p = 1 adds
    nothing there; instead certain[s] is the first such gate at or after s,
    where the search stops. next_start[j] is the first gate i > j with
    i*T - j*T >= dead_time, as dead_time_counts compares them. Gates past
    the window read as `window`.
    """
    window = p_click.size
    sure = p_click >= 1.0
    neg_log_surv = np.zeros(window + 1)
    np.cumsum(-np.log1p(-np.where(sure, 0.0, p_click)), out=neg_log_surv[1:])
    certain = np.append(np.flatnonzero(sure), window)
    certain = certain[np.searchsorted(certain, np.arange(window))]

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
    return neg_log_surv, certain, next_start


def _run_chunk(seed: int, chunk_index: int, n: int, neg_log_surv: np.ndarray,
               certain: np.ndarray, next_start: np.ndarray) -> np.ndarray:
    """Per-gate accepted-click counts of n trials (see _chain_tables).

    Each step draws one uniform u per still-active trial, in trial order,
    and picks the first gate j >= start whose survival from start falls
    below 1 - u."""
    key = np.array([seed, chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    window = next_start.size
    counts = np.zeros(window, dtype=np.int64)
    start = np.zeros(n, dtype=np.intp)
    while start.size:
        target = neg_log_surv[start] - np.log1p(-rng.random(start.size))
        gate = np.searchsorted(neg_log_surv, target, side="right") - 1
        gate = np.minimum(gate, certain[start])
        gate = gate[gate < window]
        counts += np.bincount(gate, minlength=window)
        start = next_start[gate]
        start = start[start < window]
    return counts


def simulate_pulse_train(det: DetectorParams,
                         pulses: Sequence[tuple[int, PulseSpec]],
                         env: Environment,
                         trials: int,
                         seed: int,
                         window: int,
                         workers: int = 1,
                         dead_time: float = 0.0) -> np.ndarray:
    """Sample `trials` repetitions of a pulse train and histogram the clicks
    of its first `window` gates.

    pulses is a sequence of (gate_index, PulseSpec) with strictly increasing
    gate indices. Each trial's clicks pass a non-paralyzable dead time (ps;
    0 keeps every click) before they are counted. Returns the int64 count
    per gate.
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

    tables = _chain_tables(analytic_gate_probabilities(det, pulses, env,
                                                       window),
                           dead_time, det.timing.gate_period)
    n_chunks = (trials + _CHUNK - 1) // _CHUNK

    def work(i):
        return _run_chunk(seed, i, min(_CHUNK, trials - i * _CHUNK), *tables)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(work, range(n_chunks)))
    return sum(map(work, range(n_chunks)))
