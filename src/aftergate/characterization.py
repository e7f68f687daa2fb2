"""Turning per-gate histograms into trap physics.

Covers the dead-time filter on click matrices and raw click records,
single-exponential lifetime extraction from two gates of a decay histogram,
and the Arrhenius regression that converts lifetimes at several temperatures
into an activation energy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .detector import K_BOLTZMANN_EV


class LifetimeExtractionError(RuntimeError):
    """Raised when a histogram does not support a decay-lifetime estimate."""


@dataclass(frozen=True)
class ArrheniusFit:
    activation_energy: float  # eV
    lifetime_prefactor: float  # ps
    residual_norm: float

    def __post_init__(self):
        if not math.isfinite(self.activation_energy):
            raise ValueError("activation_energy must be finite")
        if self.lifetime_prefactor <= 0:
            raise ValueError("lifetime_prefactor must be > 0")


def dead_time_counts(clicked: np.ndarray, dead_time: float,
                     gate_period: float) -> np.ndarray:
    """Per-gate counts of a (trial, gate) boolean click matrix after a
    non-paralyzable dead time.

    Within each trial, a click closer than dead_time (ps) after the last
    accepted click is dropped; accepted clicks reset the dead-time anchor.
    Trials (rows) never suppress each other. The loop runs over gates and is
    vectorized over trials.
    """
    if not dead_time >= 0:
        raise ValueError("dead_time must be >= 0")
    columns = np.ascontiguousarray(np.asarray(clicked, dtype=bool).T)
    last = np.full(columns.shape[1], -math.inf)
    counts = np.zeros(columns.shape[0], dtype=np.int64)
    for gate, column in enumerate(columns):
        t = gate * gate_period
        accept = column & (t - last >= dead_time)
        counts[gate] = np.count_nonzero(accept)
        np.copyto(last, t, where=accept)
    return counts


def build_histogram(click_records: Iterable[tuple[int, int]], window: int,
                    dead_time: float, gate_period: float) -> np.ndarray:
    """Per-gate counts of (trial, gate_index) click records, discarding
    clicks inside the dead time (see dead_time_counts).

    A gate clicks at most once per trial: repeated records count once.
    """
    recs = np.asarray(list(click_records) if not isinstance(click_records, np.ndarray)
                      else click_records, dtype=np.int64)
    if recs.size and (recs.ndim != 2 or recs.shape[1] != 2):
        raise ValueError("click records must be (trial, gate_index) pairs")
    recs = recs.reshape(-1, 2)
    if np.any(recs[:, 1] < 0) or np.any(recs[:, 1] >= window):
        raise ValueError("gate index outside window")
    rows, row_of = np.unique(recs[:, 0], return_inverse=True)
    clicked = np.zeros((rows.size, window), dtype=bool)
    clicked[row_of, recs[:, 1]] = True
    return dead_time_counts(clicked, dead_time, gate_period)


def estimate_background(counts: np.ndarray) -> float:
    """Mean count of gates 6 onward (1-based), past the decay region."""
    tail = counts[5:]
    return float(np.mean(tail)) if tail.size else 0.0


def extract_lifetime(counts, gate_period: float,
                     use_gates: tuple[int, int] = (1, 3),
                     background: float | None = None) -> float:
    """Single-exponential lifetime from two gates of a decay histogram.

    counts is a 1-D array of per-gate counts (or probabilities), finite and
    >= 0, over gates gate_period ps apart. Gate indices are 1-based with
    gate 1 the illuminated gate. With background-subtracted counts C_a and
    C_b at gates (anchor, probe) and gate separation
    D = (probe - anchor) * gate_period, the lifetime is D / ln(C_a / C_b).
    The anchor count is treated as proportional to the initially trapped
    population; pass e.g. use_gates=(2, 4) to fit purely within the release
    tail. background defaults to estimate_background(counts).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or not np.all((counts >= 0) & (counts < np.inf)):
        raise ValueError("counts must be a 1-D array of finite values >= 0")
    if not 0 < gate_period < math.inf:
        raise ValueError("gate_period must be finite and > 0")
    if background is None:
        background = estimate_background(counts)
    elif not 0 <= background < math.inf:
        raise ValueError("background must be finite and >= 0")
    try:
        anchor, probe = map(operator.index, use_gates)
    except TypeError:
        raise ValueError(f"use_gates {use_gates} must be integers") from None
    if not (1 <= anchor < probe <= counts.size):
        raise ValueError(f"use_gates {use_gates} outside histogram of "
                         f"{counts.size} gates")
    c_a = float(counts[anchor - 1]) - background
    c_b = float(counts[probe - 1]) - background
    if c_a <= 0 or c_b <= 0:
        raise LifetimeExtractionError(
            "background-subtracted counts must be positive at both gates")
    if c_b >= c_a:
        raise LifetimeExtractionError(
            f"counts do not decay between gates {anchor} and {probe}")
    separation = (probe - anchor) * gate_period
    return separation / math.log(c_a / c_b)


def arrhenius_fit(temperatures, lifetimes) -> ArrheniusFit:
    """Least-squares Arrhenius line through ln(lifetime) vs 1/T.

    temperatures (K) and lifetimes (ps) are 1-D arrays of equal length
    whose values are finite and > 0. The slope times the Boltzmann constant
    is the activation energy; the intercept exponentiates to the lifetime
    prefactor.
    """
    temps = np.asarray(temperatures, dtype=float)
    taus = np.asarray(lifetimes, dtype=float)
    if temps.ndim != 1 or temps.shape != taus.shape:
        raise ValueError("temperatures and lifetimes must be 1-D arrays "
                         "of equal length")
    for name, values in (("temperatures", temps), ("lifetimes", taus)):
        if not np.all((values > 0) & (values < np.inf)):
            raise ValueError(f"{name} must be finite and > 0")
    if len(set(np.round(temps, 9))) < 2:
        raise ValueError("need at least 2 distinct temperatures")
    x = 1.0 / temps
    y = np.log(taus)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * x + intercept)
    return ArrheniusFit(
        activation_energy=float(slope * K_BOLTZMANN_EV),
        lifetime_prefactor=float(np.exp(intercept)),
        residual_norm=float(np.sqrt(np.mean(resid ** 2))),
    )
