"""Seeded Monte Carlo engine for pulse trains.

Trials are partitioned into fixed-size chunks; each chunk draws from its own
Philox stream keyed by (seed, chunk_index), so the histogram is bit-identical
for a given seed no matter how many workers execute the chunks. The reduction
is an integer sum per gate, which is associative and commutative.

The per-trial sampling mirrors the analytic model exactly: avalanche counts
are Poisson with mean flux * efficiency * shape(delay), a light click needs
the gain-dependent threshold count, trap release counts per later gate are
Poisson around the expected-value populations (Poisson thinning), and dark
plus flat afterpulse background are independent Bernoulli draws per gate.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import DetectorParams, Environment, PulseSpec, trap_loading, \
    delayed_release_mean, poisson_tail
from .characterization import GateHistogram

_CHUNK = 8192


@dataclass(frozen=True)
class _PulsePlan:
    gate: int
    lam: float          # Poisson mean of triggered avalanches
    n_th: int           # click threshold at the pulse delay
    release_means: np.ndarray  # expected release clicks per later gate offset


def _plan(det: DetectorParams, pulses, env: Environment, window: int):
    plans = []
    for gate, pulse in pulses:
        tail = window - gate - 1
        offsets = np.arange(1, tail + 1, dtype=float)
        state = trap_loading(det, pulse)
        rel = delayed_release_mean(det, state, env, offsets) if tail > 0 else np.zeros(0)
        plans.append(_PulsePlan(
            gate=gate,
            lam=float(det.mean_avalanches(pulse.mean_flux, pulse.delay)),
            n_th=int(det.threshold_count(pulse.delay)),
            release_means=rel,
        ))
    return plans


def analytic_gate_probabilities(det: DetectorParams, pulses, env: Environment,
                                window: int) -> np.ndarray:
    """Exact per-gate click probabilities for the same composition the
    Monte Carlo engine samples. This is the oracle the engine is tested
    against."""
    p_no_click, ap_bg = _no_click_and_background(
        det, _plan(det, pulses, env, window), window)
    return 1.0 - p_no_click * (1.0 - ap_bg)


def _no_click_and_background(det: DetectorParams, plans, window: int):
    """Per-gate probability that neither light, trap release nor a dark
    count clicks, and the flat afterpulse background that implies."""
    p_no_click = np.full(window, 1.0 - det.dark_count_prob)
    for plan in plans:
        p_no_click[plan.gate] *= 1.0 - float(poisson_tail(plan.n_th, plan.lam))
        for k, mean in enumerate(plan.release_means, start=1):
            p_no_click[plan.gate + k] *= np.exp(-mean)
    return p_no_click, afterpulse_background(det, 1.0 - p_no_click)


def afterpulse_background(det: DetectorParams, base_probabilities) -> float:
    """Flat per-gate afterpulse background, proportional to the mean detected
    rate and spread over afterpulse_spread_gates gates."""
    mean_det = float(np.mean(base_probabilities))
    return det.afterpulse_prob * mean_det / det.afterpulse_spread_gates


def _run_chunk(seed: int, chunk_index: int, n: int, window: int,
               plans, dark: float, ap_bg: float):
    key = np.array([seed % (1 << 64), chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    clicked = np.zeros((n, window), dtype=bool)
    for plan in plans:
        n_av = rng.poisson(plan.lam, size=n)
        clicked[:, plan.gate] |= n_av >= plan.n_th
        for k, mean in enumerate(plan.release_means, start=1):
            if mean > 0.0:
                clicked[:, plan.gate + k] |= rng.poisson(mean, size=n) >= 1
    if dark > 0.0:
        clicked |= rng.random((n, window)) < dark
    if ap_bg > 0.0:
        clicked |= rng.random((n, window)) < ap_bg
    return clicked


def simulate_pulse_train(det: DetectorParams,
                         pulses: Sequence[tuple[int, PulseSpec]],
                         env: Environment,
                         trials: int,
                         seed: int,
                         window: int | None = None,
                         workers: int = 1,
                         collect_records: bool = False):
    """Sample `trials` repetitions of a pulse train and histogram the clicks.

    pulses is a sequence of (gate_index, PulseSpec) with strictly increasing
    gate indices. Returns a GateHistogram of integer counts per gate; with
    collect_records=True also returns the raw (trial, gate_index) click
    records for dead-time processing.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not pulses:
        raise ValueError("at least one pulse is required")
    gates = [g for g, _ in pulses]
    if any(b <= a for a, b in zip(gates, gates[1:])):
        raise ValueError("pulse gate indices must be strictly increasing")
    for _, pulse in pulses:
        pulse.validate_against(det.timing)
    if window is None:
        window = gates[-1] + 12
    if window <= gates[-1]:
        raise ValueError(f"window {window} too small to contain all pulses")

    plans = _plan(det, pulses, env, window)
    _, ap_bg = _no_click_and_background(det, plans, window)

    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    sizes = [min(_CHUNK, trials - i * _CHUNK) for i in range(n_chunks)]

    def work(i):
        return _run_chunk(seed, i, sizes[i], window, plans,
                          det.dark_count_prob, ap_bg)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, range(n_chunks)))
    else:
        chunks = [work(i) for i in range(n_chunks)]

    counts = np.zeros(window, dtype=np.int64)
    records = [] if collect_records else None
    offset = 0
    for i, clicked in enumerate(chunks):
        counts += clicked.sum(axis=0, dtype=np.int64)
        if collect_records:
            t_idx, g_idx = np.nonzero(clicked)
            records.append(np.column_stack([t_idx + offset, g_idx]))
        offset += sizes[i]

    hist = GateHistogram(gate_counts=counts, trials=trials,
                         gate_period=det.timing.gate_period)
    if collect_records:
        recs = (np.concatenate(records, axis=0) if records
                else np.zeros((0, 2), dtype=np.int64))
        return hist, recs
    return hist
