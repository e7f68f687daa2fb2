"""CSV and JSON serialization for histograms, sweeps, grids and fits.

Formats are stable: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .characterization import GateHistogram, LifetimePoint


def write_text(path, text: str) -> None:
    """Write an output file with LF line ends, making its directory first:
    a run that fails before its first write leaves no directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cells(column, sep: str) -> np.ndarray:
    """A column's cells as text, each followed by `sep`: floats, cast to
    float64, as format(x, ".12g") or "nan", anything else by str(). Each
    distinct value is found by np.unique and formatted once. Floats are
    keyed by bit pattern; keyed by value, -0.0 and 0.0 would share a text."""
    if column.dtype.kind == "f":
        bits = column.astype(np.float64, copy=False).view(np.int64)
        distinct, index = np.unique(bits, return_inverse=True)
        text = ["nan" if math.isnan(x) else format(x, ".12g")
                for x in distinct.view(np.float64).tolist()]
    else:
        distinct, index = np.unique(column, return_inverse=True)
        text = [str(x) for x in distinct.tolist()]
        if any(c in t for t in text for c in ',"\r\n'):
            raise ValueError("CSV cells must not need quoting")
    return np.array([t + sep for t in text], dtype=object)[index]


def _write_columns(path, header, columns) -> None:
    """CSV of a header and equal-length 1-D columns, formatted by _cells."""
    columns = [np.asarray(c) for c in columns]
    if any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-D")
    seps = [","] * (len(columns) - 1) + ["\n"]
    cells = np.stack(list(map(_cells, columns, seps)), axis=1)
    write_text(path, ",".join(header) + "\n" + "".join(cells.ravel().tolist()))


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

    write_text(path, json.dumps(clean(payload), indent=2, sort_keys=True,
                                allow_nan=False) + "\n")
