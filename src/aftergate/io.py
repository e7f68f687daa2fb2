"""CSV and JSON serialization for histograms, sweeps, grids and fits.

Formats are stable: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .characterization import GateHistogram, LifetimePoint


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_histogram_csv(path, hist: GateHistogram) -> None:
    """Columns: gate_index,counts,trials,probability (gate_index is 1-based)."""
    trials = hist.trials if hist.trials is not None else 0
    probs = hist.probabilities
    rows = []
    for i, count in enumerate(hist.gate_counts):
        c = int(count) if hist.trials is not None else float(count)
        rows.append([i + 1, c, trials, float(probs[i])])
    _write_rows(path, ["gate_index", "counts", "trials", "probability"], rows)


def write_sweep_csv(path, points) -> None:
    rows = [[p.delay, p.p_f, p.p_h, p.p_dd_f, p.p_dd_h, p.p_dd_bar,
             p.q_target, p.q_with_dd] for p in points]
    _write_rows(path, ["delay_ps", "p_f", "p_h", "p_dd_f", "p_dd_h",
                       "p_dd_bar", "q_target", "q_with_dd"], rows)


def write_contour_csv(path, fluxes, delays, qber_matrix) -> None:
    rows = []
    for i, mu in enumerate(fluxes):
        for j, d in enumerate(delays):
            rows.append([float(mu), float(d), float(qber_matrix[i, j])])
    _write_rows(path, ["flux", "delay_ps", "q_target"], rows)


def write_gate2_csv(path, points) -> None:
    _write_rows(path, ["delay_ps", "probability"],
                [[d, p] for d, p in points])


def write_partial_attack_csv(path, rows) -> None:
    _write_rows(path, ["fraction", "combined_rate", "full_attack_rate"], rows)


def write_feasibility_csv(path, verdicts) -> None:
    rows = [[v.frequency, v.q_noise, v.q_attack, v.classification]
            for v in verdicts]
    _write_rows(path, ["frequency_hz", "q_noise", "q_attack",
                       "classification"], rows)


def read_arrhenius_csv(path) -> list[LifetimePoint]:
    """Columns: temperature_k,lifetime_ps,excess_bias."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"temperature_k", "lifetime_ps", "excess_bias"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"arrhenius CSV needs columns {sorted(required)}")
        for row in reader:
            points.append(LifetimePoint(
                temperature=float(row["temperature_k"]),
                lifetime=float(row["lifetime_ps"]),
                excess_bias_fraction=float(row["excess_bias"]),
            ))
    return points


def write_json(path, payload: dict) -> None:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, float) and math.isnan(obj):
            return None
        return obj

    with open(path, "w", newline="\n") as fh:
        json.dump(clean(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
