"""Reference dead-time filter on (trial, gate) click matrices.

An independent statement of the non-paralyzable dead-time rule that the
Monte Carlo engine (`montecarlo._next_start`) and `build_histogram` apply
through their next-start gates: the tests check both against it.
"""

import math

import numpy as np


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
