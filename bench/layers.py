"""Per-layer metrics and the self-time table, from traced invocations.

A layer is one module of the package (plus `import` and `other`). A span's
self time is its duration minus the part of it that its child spans cover;
a layer's self time is the length of the union of its spans' self
intervals, so chunks running in parallel worker threads count once.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("config", "detector", "attack", "feasibility", "montecarlo",
          "characterization", "io", "svg", "cli")

# Inclusive wall time of these functions, reported as `<name>_s`.
FUNCTIONS = (
    "detector.click_probability_array",
    "detector.delayed_click_probability_arrays",
    "attack.sweep_delay", "attack.contour_flux_delay",
    "attack.gate2_vs_delay", "attack.attack_histogram",
    "feasibility.feasibility_band",
    "montecarlo.simulate_pulse_train",
    "montecarlo.analytic_gate_probabilities",
    "characterization.build_histogram",
)

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("import.numpy_s", "s"), ("import.aftergate_s", "s"),
    ("config.load_config_s", "s"),
    ("detector.click_probability_array_s", "s"),
    ("detector.delayed_click_probability_arrays_s", "s"),
    ("detector.self_s", "s"), ("detector.calls", "count"),
    ("detector.points", "count"),
    ("attack.sweep_delay_s", "s"), ("attack.contour_flux_delay_s", "s"),
    ("attack.gate2_vs_delay_s", "s"), ("attack.attack_histogram_s", "s"),
    ("attack.self_s", "s"), ("attack.cells", "count"),
    ("feasibility.feasibility_band_s", "s"), ("feasibility.self_s", "s"),
    ("feasibility.frequencies", "count"),
    ("montecarlo.simulate_pulse_train_s", "s"), ("montecarlo.chunk_s", "s"),
    ("montecarlo.analytic_gate_probabilities_s", "s"),
    ("montecarlo.self_s", "s"), ("montecarlo.records", "count"),
    ("montecarlo.record_bytes", "B"),
    ("characterization.build_histogram_s", "s"),
    ("characterization.self_s", "s"),
    ("characterization.records_in", "count"),
    ("characterization.keep_ratio", "ratio"),
    ("io.write_s", "s"), ("io.bytes", "B"), ("io.rows", "count"),
    ("svg.render_s", "s"), ("svg.bytes", "B"),
    ("cli.self_s", "s"), ("other_s", "s"), ("trace.overhead_s", "s"),
    ("health.stderr_lines", "count"), ("health.nan_cells", "count"),
)

# Layer self time under the name the metric list uses for it.
_SELF_NAME = {"config": "config.load_config_s", "io": "io.write_s",
              "svg": "svg.render_s", "cli": "cli.self_s"}


def self_name(layer: str) -> str:
    return _SELF_NAME.get(layer, f"{layer}.self_s")


def _merge(intervals):
    merged = []
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _length(intervals) -> float:
    return sum(end - start for start, end in _merge(intervals))


def _minus(start, end, cover):
    """[start, end) without the merged intervals in cover."""
    out, at = [], start
    for c_start, c_end in cover:
        if c_start > at:
            out.append((at, min(c_start, end)))
        at = max(at, c_end)
    if at < end:
        out.append((at, end))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    own = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        cover = _merge([(max(start, spans[c][1]), min(end, spans[c][2]))
                        for c in children[i]])
        own[layer_of(name)] += _minus(start, end, cover)
    return {layer: _length(iv) for layer, iv in own.items()}


def inclusive(spans, name: str) -> float:
    """Total duration of the outermost calls of one function."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


def invocation_metrics(doc: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation whose child process took
    wall_s seconds."""
    spans = doc["spans"]
    m = defaultdict(float)
    m["import.numpy_s"] = doc["import_numpy_s"]
    m["import.aftergate_s"] = doc["import_aftergate_s"]
    for layer, seconds in self_times(spans).items():
        m[self_name(layer)] += seconds
    for name in FUNCTIONS:
        m[f"{name}_s"] = inclusive(spans, name)
    for name, _, _, _, counts in spans:
        layer = layer_of(name)
        m[f"{layer}.calls"] += 1
        for key, value in counts.items():
            m[f"{layer}.{key}"] += value
    m["other_s"] = (wall_s - doc["import_numpy_s"] - doc["import_aftergate_s"]
                    - doc["main_s"] - doc["bookkeeping_s"])
    m["trace.overhead_s"] = len(spans) * doc["per_span_s"]
    m["trace.bookkeeping_s"] = doc["bookkeeping_s"]
    m["wall_s"] = wall_s
    return m


def workload_metrics(passes: list[list[dict]]) -> dict[str, float]:
    """Sum each metric over a pass's invocations, then take the median over
    passes. An invocation entry holds its trace `doc`, child `wall_s`,
    `stderr_lines` and `nan_cells`."""
    totals = []
    for invocations in passes:
        t = defaultdict(float)
        chunks = {}
        for inv in invocations:
            for key, value in invocation_metrics(inv["doc"],
                                                 inv["wall_s"]).items():
                t[key] += value
            t["health.stderr_lines"] += inv["stderr_lines"]
            t["health.nan_cells"] += inv["nan_cells"]
            for name, start, end, _, counts in inv["doc"]["spans"]:
                if name == "montecarlo.run_chunk":
                    chunks.setdefault(counts["trials"], []).append(end - start)
        # one full-size chunk call, the unit of Monte Carlo work
        t["montecarlo.chunk_s"] = (statistics.median(chunks[max(chunks)])
                                   if chunks else 0.0)
        t["characterization.keep_ratio"] = (
            t["characterization.kept"] / t["characterization.records_in"]
            if t["characterization.records_in"] else 0.0)
        totals.append(t)
    keys = {k for t in totals for k in t}
    return {k: statistics.median(t.get(k, 0.0) for t in totals) for k in keys}


def table(m: dict[str, float]) -> list[str]:
    """Self time and share of the traced wall time per layer."""
    rows = [("import.numpy", m["import.numpy_s"]),
            ("import.aftergate", m["import.aftergate_s"])]
    rows += [(layer, m.get(self_name(layer), 0.0)) for layer in LAYERS]
    rows += [("tracer", m["trace.bookkeeping_s"]), ("other", m["other_s"])]
    wall = m["wall_s"]
    lines = [f"{'layer':<18}{'self_s':>10}{'share':>9}"]
    lines += [f"{name:<18}{sec:>10.4f}{sec / wall:>9.1%}" for name, sec in rows]
    total = sum(sec for _, sec in rows)
    lines.append(f"{'sum':<18}{total:>10.4f}{total / wall:>9.1%}")
    lines.append(f"{'wall_s (traced)':<18}{wall:>10.4f}")
    lines.append(f"{'trace.overhead_s':<18}{m['trace.overhead_s']:>10.4f}"
                 "   (estimate, inside the rows above)")
    compute = [r for r in rows if not r[0].startswith("import")
               and r[0] not in ("cli", "tracer", "other")]
    top = max(compute, key=lambda r: r[1])
    lines.append(f"dominant layer: {max(rows, key=lambda r: r[1])[0]}; "
                 f"dominant past import: {top[0]}")
    return lines
