"""Turning per-gate histograms into trap physics.

Covers the dead-time filter on click matrices and raw click records,
single-exponential lifetime extraction from two gates of a decay histogram,
and the Arrhenius regression that converts lifetimes at several temperatures
into an activation energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .detector import K_BOLTZMANN_EV


class LifetimeExtractionError(RuntimeError):
    """Raised when a histogram does not support a decay-lifetime estimate."""


@dataclass(frozen=True)
class GateHistogram:
    """Click counts (or analytic probabilities) over consecutive gates."""

    gate_counts: np.ndarray
    trials: int | None
    gate_period: float  # ps
    background_estimate: float | None = None

    def __post_init__(self):
        counts = np.asarray(self.gate_counts, dtype=float)
        object.__setattr__(self, "gate_counts", counts)
        if not np.all(counts >= 0):
            raise ValueError("gate counts must be >= 0")
        if self.trials is not None:
            if self.trials < 1:
                raise ValueError("trials must be >= 1")
            if np.any(counts > self.trials):
                raise ValueError("counts cannot exceed trials")
        if not (self.background_estimate is None
                or self.background_estimate >= 0):
            raise ValueError("background_estimate must be >= 0")
        if not self.gate_period > 0:
            raise ValueError("gate_period must be > 0")

    @property
    def probabilities(self) -> np.ndarray:
        if self.trials is None:
            return self.gate_counts
        return self.gate_counts / self.trials

    def __len__(self) -> int:
        return len(self.gate_counts)


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
                    dead_time: float, gate_period: float,
                    trials: int | None = None) -> GateHistogram:
    """Accumulate per-gate counts from (trial, gate_index) click records,
    discarding clicks inside the dead time (see dead_time_counts).

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
    counts = dead_time_counts(clicked, dead_time, gate_period)
    return GateHistogram(gate_counts=counts, trials=trials,
                         gate_period=gate_period)


def estimate_background(hist: GateHistogram) -> float:
    """Mean count of gates 6 onward (1-based), past the decay region."""
    tail = hist.gate_counts[5:]
    if tail.size == 0:
        return 0.0
    return float(np.mean(tail))


def extract_lifetime(hist: GateHistogram,
                     use_gates: tuple[int, int] = (1, 3)) -> float:
    """Single-exponential lifetime from two gates of a decay histogram.

    Gate indices are 1-based with gate 1 the illuminated gate. With
    background-subtracted counts C_a and C_b at gates (anchor, probe) and
    gate separation D = (probe - anchor) * gate_period, the lifetime is
    D / ln(C_a / C_b). The anchor count is treated as proportional to the
    initially trapped population; pass e.g. use_gates=(2, 4) to fit purely
    within the release tail.
    """
    anchor, probe = use_gates
    if not (1 <= anchor < probe <= len(hist)):
        raise ValueError(f"use_gates {use_gates} outside histogram of "
                         f"{len(hist)} gates")
    background = (hist.background_estimate if hist.background_estimate is not None
                  else estimate_background(hist))
    c_a = float(hist.gate_counts[anchor - 1]) - background
    c_b = float(hist.gate_counts[probe - 1]) - background
    if c_a <= 0 or c_b <= 0:
        raise LifetimeExtractionError(
            "background-subtracted counts must be positive at both gates")
    if c_b >= c_a:
        raise LifetimeExtractionError(
            f"counts do not decay between gates {anchor} and {probe}")
    separation = (probe - anchor) * hist.gate_period
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
