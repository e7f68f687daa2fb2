"""Output checks for benchmark invocations.

After each invocation every file it must write is checked:

- analytic CSV and JSON outputs match the reference values in
  `reference.json` (recorded by `record_reference.py`) to RTOL/ATOL, with
  identical NaN positions. A CSV of at most FULL_ROWS rows is compared
  cell by cell. A longer one is compared cell by cell on every stride-th
  row (about SAMPLE_ROWS rows), and on all rows through the per-column sums
  of v and of |v| over each of BLOCKS row blocks. A tolerance rather than
  byte equality, so that a change in the last printed digits still passes;
- `sweep_summary.json` shows the target-gate QBER dip below the threshold
  and a corrected minimum above it;
- `histogram.csv` per-gate counts lie within Z_MAX standard deviations of
  the first-click law p_g * prod_{j<g} (1 - p_j), with p recorded from
  `analytic_gate_probabilities`. The law is exact because the 50 ns dead
  time is longer than the 12-gate window, so only a trial's first click
  counts;
- an invocation with `same_as` writes CSVs byte-identical to that
  sibling's (the Monte Carlo engine must not depend on the worker count);
- SVGs are complete, non-empty documents.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
Z_MAX = 5.0
FULL_ROWS = 12_000   # CSVs up to this many rows: every cell
SAMPLE_ROWS = 2_500  # longer CSVs: about this many rows cell by cell,
BLOCKS = 250         # plus the sums of v and |v| over this many row blocks


def read_columns(path) -> tuple[list[str], list[list]]:
    """Header and columns of a CSV; a column is floats if every value
    parses as one, else strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = []
    for j in range(len(header)):
        raw = [row[j] for row in body]
        try:
            columns.append([float(v) for v in raw])
        except ValueError:
            columns.append(raw)
    return header, columns


def _is_numeric(col) -> bool:
    return all(isinstance(v, float) for v in col)


def _nan_digest(columns) -> str:
    mask = "".join("1" if isinstance(v, float) and math.isnan(v) else "0"
                   for col in columns for v in col)
    return hashlib.sha256(mask.encode()).hexdigest()


def _stride(n: int) -> int:
    return 1 if n <= FULL_ROWS else -(-n // SAMPLE_ROWS)


def _block_sums(col, size: int) -> list[list[float]]:
    """[sum of v, sum of |v|] over each block of `size` rows, NaN excluded."""
    sums = []
    for i in range(0, len(col), size):
        block = [v for v in col[i:i + size] if not math.isnan(v)]
        sums.append([math.fsum(block), math.fsum(map(abs, block))])
    return sums


def _text_digest(col) -> str:
    return hashlib.sha256("\n".join(map(str, col)).encode()).hexdigest()


def summarize_csv(path) -> dict:
    """Reference summary of a CSV: shape, NaN positions, and for each
    column either its cells on every stride-th row (NaN as null) or a
    digest of its text; block sums too when stride > 1."""
    header, columns = read_columns(path)
    n = len(columns[0]) if columns else 0
    stride = _stride(n)
    summary = {
        "header": header,
        "rows": n,
        "nan_sha256": _nan_digest(columns),
        "stride": stride,
        "cells": [[None if math.isnan(v) else v for v in col[::stride]]
                  if _is_numeric(col) else None for col in columns],
        "text_sha256": [None if _is_numeric(col) else _text_digest(col)
                        for col in columns],
    }
    if stride > 1:
        size = -(-n // BLOCKS)
        summary["block_rows"] = size
        summary["block_sums"] = [_block_sums(col, size) if _is_numeric(col)
                                 else None for col in columns]
    return summary


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _close(a, b) -> bool:
    """Values agree: numbers to RTOL/ATOL, NaN with NaN or null (the JSON
    spelling of NaN), anything else exactly."""
    if isinstance(a, float) and math.isnan(a):
        return b is None or (isinstance(b, float) and math.isnan(b))
    if _is_number(a) and _is_number(b):
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    return type(a) is type(b) and a == b


def compare_csv(path, ref: dict) -> list[str]:
    """Cells on every stride-th row within RTOL/ATOL; when stride > 1, each
    block's sum of v and of |v| within RTOL of the block's sum of |v|; NaN
    positions and text columns identical."""
    header, columns = read_columns(path)
    if header != ref["header"]:
        return [f"{path.name}: header {header} != {ref['header']}"]
    n = len(columns[0]) if columns else 0
    if n != ref["rows"]:
        return [f"{path.name}: {n} rows, reference has {ref['rows']}"]
    problems = []
    if _nan_digest(columns) != ref["nan_sha256"]:
        problems.append(f"{path.name}: NaN positions differ from reference")
    stride = ref["stride"]
    for j, (name, col) in enumerate(zip(header, columns)):
        if ref["cells"][j] is None:
            if _text_digest(col) != ref["text_sha256"][j]:
                problems.append(f"{path.name}: column {name} text differs")
            continue
        if not _is_numeric(col):
            problems.append(f"{path.name}: column {name} is not numeric")
            continue
        for k, (got, want) in enumerate(zip(col[::stride], ref["cells"][j])):
            if not _close(got, want):
                problems.append(f"{path.name}: column {name} row "
                                f"{k * stride + 1} is {got!r}, reference "
                                f"{want!r}")
                break
        if stride == 1:
            continue
        size = ref["block_rows"]
        for k, (got, want) in enumerate(zip(_block_sums(col, size),
                                            ref["block_sums"][j])):
            tol = RTOL * got[1] + ATOL * size
            if abs(got[0] - want[0]) > tol or abs(got[1] - want[1]) > tol:
                problems.append(
                    f"{path.name}: column {name} rows {k * size + 1}-"
                    f"{min(n, (k + 1) * size)} sum to {got!r}, reference "
                    f"{want!r}")
                break
    return problems


def _compare_tree(got, ref, where: str) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from reference"]
        return [p for k in ref for p in _compare_tree(got[k], ref[k],
                                                       f"{where}.{k}")]
    if not _close(got, ref):
        return [f"{where}: {got!r}, reference {ref!r}"]
    return []


def compare_json(path, ref) -> list[str]:
    return _compare_tree(json.loads(Path(path).read_text()), ref, path.name)


def check_sweep_summary(path) -> list[str]:
    s = json.loads(Path(path).read_text())
    problems = []
    if not s["min_q_target"] < s["threshold"]:
        problems.append(f"sweep dip {s['min_q_target']} not below "
                        f"{s['threshold']}")
    if not s["min_q_with_dd"] > s["threshold"]:
        problems.append(f"corrected minimum {s['min_q_with_dd']} not above "
                        f"{s['threshold']}")
    return problems


def first_click_z(counts, trials: int, p) -> list[float]:
    """z-score of each gate's count against the first-click law."""
    z, none_yet = [], 1.0
    for c, p_g in zip(counts, p):
        q = p_g * none_yet
        none_yet *= 1.0 - p_g
        var = trials * q * (1.0 - q)
        z.append((c - trials * q) / math.sqrt(var) if var > 0
                 else (0.0 if c == trials * q else math.inf))
    return z


def check_histogram(path, law: dict) -> list[str]:
    header, (gate, counts, trials, prob) = read_columns(path)
    n = law["trials"]
    problems = []
    if header != ["gate_index", "counts", "trials", "probability"]:
        problems.append(f"{path.name}: header {header}")
    if gate != [float(g) for g in range(1, len(law["p"]) + 1)]:
        problems.append(f"{path.name}: gate indices {gate}")
    if any(t != n for t in trials):
        problems.append(f"{path.name}: trials column is not {n}")
    if not all(_close(pr, c / n) for pr, c in zip(prob, counts)):
        problems.append(f"{path.name}: probability != counts / trials")
    z = first_click_z(counts, n, law["p"])
    worst = max(range(len(z)), key=lambda i: abs(z[i]))
    if abs(z[worst]) > Z_MAX:
        problems.append(f"{path.name}: gate {worst + 1} count is "
                        f"{z[worst]:.2f} sigma from the first-click law")
    return problems


def check_svg(path) -> list[str]:
    with open(path, "rb") as fh:
        head = fh.read(4)
        fh.seek(0, 2)
        size = fh.tell()
        fh.seek(max(0, size - 8))
        tail = fh.read()
    if head != b"<svg" or not tail.rstrip().endswith(b"</svg>"):
        return [f"{path.name}: not a complete SVG document"]
    return []


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Checker:
    """Checks one workload's outputs against the reference."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference

    def check(self, inv, outdir: Path) -> list[str]:
        problems = []
        for name in inv.outputs:
            path = outdir / name
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"{inv.name}: {name} missing or empty")
                continue
            if inv.same_as and name.endswith(".csv"):
                sibling = outdir.parent / inv.same_as / name
                if not sibling.is_file() or _digest(path) != _digest(sibling):
                    problems.append(f"{inv.name}: {name} differs from "
                                    f"{inv.same_as}/{name}")
            try:
                found = self._check_file(
                    f"{self.workload.name}/{inv.name}/{name}", path)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                found = [f"{name}: unreadable ({exc!r})"]
            problems += [f"{inv.name}: {p}" for p in found]
        return problems

    def _check_file(self, key: str, path: Path) -> list[str]:
        """Check one file; key is `<workload>/<invocation>/<file name>`."""
        if path.suffix == ".svg":
            return check_svg(path)
        if path.name == "histogram.csv":
            return check_histogram(path, self.reference["law"][
                key.rsplit("/", 1)[0]])
        ref = self.reference["files"].get(key)
        if ref is None:
            return [f"{path.name}: no reference recorded"]
        if path.suffix == ".csv":
            return compare_csv(path, ref)
        problems = compare_json(path, ref)
        if path.name == "sweep_summary.json":
            problems += check_sweep_summary(path)
        return problems
