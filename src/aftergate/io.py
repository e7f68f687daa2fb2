"""CSV and JSON serialization for histograms, sweeps, grids and fits.

Formats are stable: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .characterization import GateHistogram, LifetimePoint


def _cells(column) -> list[str]:
    """A column's cells as text, each distinct value formatted once: float64
    as format(x, ".12g") or "nan", anything else by str(). float64 values
    are keyed by bit pattern; keyed by value, -0.0 would print as 0."""
    a = np.asarray(column)
    if a.dtype == np.float64:
        keys = a.view(np.int64).tolist()
        distinct = np.array(list(dict.fromkeys(keys)), dtype=np.int64)
        text = {k: "nan" if math.isnan(x) else format(x, ".12g") for k, x in
                zip(distinct.tolist(), distinct.view(np.float64).tolist())}
    else:
        keys = a.tolist()
        text = {x: str(x) for x in dict.fromkeys(keys)}
        if any(c in t for t in text.values() for c in ',"\r\n'):
            raise ValueError("CSV cells must not need quoting")
    return list(map(text.__getitem__, keys))


def _write_columns(path, header, columns) -> None:
    """CSV of a header and equal-length 1-D columns, formatted by _cells."""
    rows = map(",".join, zip(*map(_cells, columns), strict=True))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *rows]) + "\n")


def _write_table(path, header, table) -> None:
    """CSV of a record array's fields, in order, under `header`."""
    _write_columns(path, header, [table[name] for name in table.dtype.names])


def write_histogram_csv(path, hist: GateHistogram) -> None:
    """Columns: gate_index,counts,trials,probability (gate_index is 1-based)."""
    n, counts = len(hist), hist.gate_counts
    _write_columns(path, ["gate_index", "counts", "trials", "probability"],
                   [np.arange(1, n + 1),
                    counts if hist.trials is None else counts.astype(np.int64),
                    np.full(n, hist.trials or 0), hist.probabilities])


def write_sweep_csv(path, points) -> None:
    _write_table(path, ["delay_ps", "p_f", "p_h", "p_dd_f", "p_dd_h",
                        "p_dd_bar", "q_target", "q_with_dd"], points)


def write_contour_csv(path, fluxes, delays, qber_matrix) -> None:
    fluxes = np.asarray(fluxes, dtype=np.float64)
    delays = np.asarray(delays, dtype=np.float64)
    _write_columns(path, ["flux", "delay_ps", "q_target"],
                   [np.repeat(fluxes, delays.size),
                    np.tile(delays, fluxes.size),
                    np.asarray(qber_matrix, dtype=np.float64).ravel()])


def write_gate2_csv(path, points) -> None:
    _write_table(path, ["delay_ps", "probability"], points)


def write_partial_attack_csv(path, rows) -> None:
    _write_table(path, ["fraction", "combined_rate", "full_attack_rate"], rows)


def write_feasibility_csv(path, band) -> None:
    _write_table(path, ["frequency_hz", "q_noise", "q_attack",
                        "classification"], band)


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
    """JSON with numpy scalars as Python values and NaN or +-inf as null."""
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, np.generic):
            obj = obj.item()
        if isinstance(obj, float) and not math.isfinite(obj):
            return None
        return obj

    with open(path, "w", newline="\n") as fh:
        json.dump(clean(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
