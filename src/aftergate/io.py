"""CSV and JSON serialization for histograms, sweeps, grids and fits.

Formats are stable: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def write_text(path, text: str) -> None:
    """Write an output file with LF line ends, making its directory first:
    a run that fails before its first write leaves no directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cells(column, sep: str) -> np.ndarray:
    """A column's cells as text, each followed by `sep`: floats, cast to
    float64, as format(x, ".12g") (every NaN prints "nan"), anything else
    by str(). Each distinct value is found by np.unique and formatted once.
    Floats are keyed by bit pattern; keyed by value, -0.0 and 0.0 would
    share a text."""
    if column.dtype.kind == "f":
        bits = column.astype(np.float64, copy=False).view(np.int64)
        distinct, index = np.unique(bits, return_inverse=True)
        values = tuple(distinct.view(np.float64).tolist())
        # one % call for all of them ("%.12g" % x == format(x, ".12g"); no
        # float text holds a line break)
        text = ("%.12g\n" * len(values) % values).splitlines()
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


def write_histogram_csv(path, counts, trials: int | None = None) -> None:
    """Columns: gate_index,counts,trials,probability (gate_index is 1-based).
    Without trials the values are probabilities: the counts and probability
    columns both hold them, and trials reads 0."""
    counts = np.asarray(counts, dtype=float if trials is None else np.int64)
    probs = counts if trials is None else counts / trials
    _write_columns(path, ["gate_index", "counts", "trials", "probability"],
                   [np.arange(1, counts.size + 1), counts,
                    np.full(counts.size, trials or 0), probs])


def write_sweep_csv(path, points) -> None:
    _write_table(path, ["delay_ps", "p_f", "p_h", "p_dd_f", "p_dd_h",
                        "p_dd_bar", "q_target", "q_with_dd"], points)


# Cells per block of QBER rows in write_contour_csv (at least one row).
# Measured against a 2 MB L2 per core: on a 250x1001 grid in a warm
# process, 16-row blocks wrote the CSV in a median 75 ms, whole-column
# passes in 132 ms (87 and 131 ms in fresh processes).
_CSV_BLOCK_CELLS = 2 ** 14


def write_contour_csv(path, fluxes, delays, qber_matrix) -> None:
    """Columns: flux,delay_ps,q_target, one row per cell, fluxes outermost.
    The axes are formatted once and the QBER one block of rows at a time;
    the bytes are those of _write_columns on the repeated and tiled axes
    and the flattened matrix."""
    fluxes = np.asarray(fluxes, dtype=np.float64)
    delays = np.asarray(delays, dtype=np.float64)
    if fluxes.ndim != 1 or delays.ndim != 1:
        raise ValueError("CSV columns must be 1-D")
    matrix = np.asarray(qber_matrix, dtype=np.float64).reshape(
        fluxes.size, delays.size)
    flux_text, delay_text = _cells(fluxes, ","), _cells(delays, ",")
    rows = max(1, _CSV_BLOCK_CELLS // max(delays.size, 1))
    parts = ["flux,delay_ps,q_target\n"]
    for i in range(0, fluxes.size, rows):
        block = matrix[i:i + rows]
        cells = np.empty(block.shape + (3,), dtype=object)
        cells[..., 0] = flux_text[i:i + rows, None]
        cells[..., 1] = delay_text
        cells[..., 2] = _cells(block.ravel(), "\n").reshape(block.shape)
        parts.append("".join(cells.ravel().tolist()))
    write_text(path, "".join(parts))


def write_gate2_csv(path, points) -> None:
    _write_table(path, ["delay_ps", "probability"], points)


def write_partial_attack_csv(path, rows) -> None:
    _write_table(path, ["fraction", "combined_rate", "full_attack_rate"], rows)


def write_feasibility_csv(path, band) -> None:
    _write_table(path, ["frequency_hz", "q_noise", "q_attack",
                        "classification"], band)


def read_arrhenius_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(temperatures, lifetimes) from the temperature_k and lifetime_ps
    columns; any other column is ignored."""
    import csv  # here: only `arrhenius` reads CSV
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        required = {"temperature_k", "lifetime_ps"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"arrhenius CSV needs columns {sorted(required)}")
        rows = [(float(row["temperature_k"]), float(row["lifetime_ps"]))
                for row in reader]
    return tuple(np.array(rows, dtype=float).reshape(-1, 2).T)


def write_json(path, payload: dict) -> None:
    """JSON with numpy scalars as Python values and NaN or +-inf as null."""
    import json  # here: most commands write no JSON

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
