"""Traced `aftergate` invocation, run as a fresh child process:

    PYTHONPATH=src python3 bench/tracer.py TRACE_JSON -- <aftergate args>

Times `import numpy` and `import aftergate`, wraps the public functions of
each module at the names their callers look up (for example
`aftergate.cli.sweep_delay` or `aftergate.attack.click_probability_array`),
then calls `aftergate.cli.main(argv)` in-process. Each wrapped call records
a span (name, start, end, parent span, counts); spans stay in memory and are
written to TRACE_JSON when main returns. The child exits with main's code.
Nothing in the package is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

perf = time.perf_counter


def _n(arg) -> int:
    """Number of grid points in an argument (1 for a scalar)."""
    if hasattr(arg, "size"):
        return int(arg.size)
    return len(arg) if hasattr(arg, "__len__") else 1


def _points(args, kwargs, result):
    return {"points": _n(args[2])}


def _one_point(args, kwargs, result):
    return {"points": 1}


def _cells(args, kwargs, result):
    return {"cells": _n(result)}


def _path(args, kwargs, result):
    return {"path": str(args[0])}


def _records(args, kwargs, result):
    if isinstance(result, tuple):
        recs = result[1]
        return {"records": int(recs.shape[0]), "record_bytes": int(recs.nbytes)}
    return {}


def _records_in(args, kwargs, result):
    return {"records_in": len(args[0]), "kept": int(result.gate_counts.sum())}


def _chunk(args, kwargs, result):
    return {"trials": int(args[2])}


def _frequencies(args, kwargs, result):
    return {"frequencies": _n(args[0])}


_DETECTOR_ARRAYS = ("click_probability_array",
                    "delayed_click_probability_arrays")

# (module callers look the name up in, attribute, layer, counts function)
TARGETS = [
    ("aftergate.cli", "load_config", "config", None),
    *[("aftergate.cli", name, "attack", _cells) for name in
      ("sweep_delay", "attack_histogram", "contour_flux_delay",
       "gate2_vs_delay", "partial_attack_rates")],
    ("aftergate.cli", "key_rate", "attack", None),
    ("aftergate.cli", "sub_threshold_region", "attack", None),
    ("aftergate.cli", "feasibility_band", "feasibility", _frequencies),
    ("aftergate.cli", "noise_qber", "feasibility", None),
    ("aftergate.cli", "suitable_interval", "feasibility", None),
    ("aftergate.cli", "simulate_pulse_train", "montecarlo", _records),
    ("aftergate.cli", "build_histogram", "characterization", _records_in),
    ("aftergate.cli", "arrhenius_fit", "characterization", None),
    *[(module, name, "detector", _points) for name in _DETECTOR_ARRAYS
      for module in ("aftergate.attack", "aftergate.feasibility")],
    ("aftergate.feasibility", "click_probability", "detector", _one_point),
    ("aftergate.feasibility", "trap_loading", "detector", None),
    ("aftergate.feasibility", "trap_lifetime", "detector", None),
    ("aftergate.montecarlo", "trap_loading", "detector", None),
    ("aftergate.montecarlo", "delayed_release_mean", "detector", None),
    ("aftergate.montecarlo", "analytic_gate_probabilities", "montecarlo",
     None),
    ("aftergate.montecarlo", "_run_chunk", "montecarlo", _chunk),
    *[("aftergate.io", name, "io", _path) for name in
      ("write_histogram_csv", "write_sweep_csv", "write_contour_csv",
       "write_gate2_csv", "write_partial_attack_csv",
       "write_feasibility_csv", "write_json")],
    *[("aftergate.svg", name, "svg", _path) for name in
      ("bar_chart", "line_chart", "heatmap", "band_chart")],
]


class Recorder:
    """In-memory span store. A span's parent is the innermost open span of
    its thread; spans opened in a worker thread with nothing open hang off
    the main thread's innermost span, which started the work."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, counts, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, {}])
        stack.append(index)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            self.spans[index][1:3] = [start, end]
        if counts is not None:
            self.spans[index][4] = counts(args, kwargs, result)
        return result

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counts, args, kwargs)
        return traced


def install(recorder: Recorder) -> None:
    for module_name, attr, layer, counts in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(f"{layer}.{attr.lstrip('_')}",
                                            getattr(module, attr), counts))


def span_cost(calls: int = 5000) -> float:
    """Seconds a wrapped call costs over a plain one (best of three)."""
    def noop():
        return None
    traced = Recorder().wrap("calibrate.noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = perf()
        for _ in range(calls):
            noop()
        t1 = perf()
        for _ in range(calls):
            traced()
        t2 = perf()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def _file_counts(spans) -> None:
    """Replace each writer span's path with the bytes and rows it wrote."""
    for span in spans:
        path = span[4].pop("path", None)
        if path is None:
            continue
        data = Path(path).read_bytes() if Path(path).exists() else b""
        span[4]["bytes"] = len(data)
        if path.endswith(".csv"):
            span[4]["rows"] = max(data.count(b"\n") - 1, 0)


def main() -> int:
    t0 = perf()
    import numpy  # noqa: F401
    t1 = perf()
    import aftergate.cli
    t2 = perf()
    out_path, argv = Path(sys.argv[1]), sys.argv[3:]
    recorder = Recorder()
    install(recorder)
    t3 = perf()
    code = recorder.call("cli.main", aftergate.cli.main, None, (argv,), {})
    t4 = perf()
    _file_counts(recorder.spans)
    per_span = span_cost()
    doc = {
        "exit_code": code,
        "import_numpy_s": t1 - t0,
        "import_aftergate_s": t2 - t1,
        "main_s": t4 - t3,
        "per_span_s": per_span,
        "bookkeeping_s": (t3 - t2) + (perf() - t4),
        "spans": recorder.spans,
    }
    out_path.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
