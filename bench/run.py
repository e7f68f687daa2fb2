"""aftergate benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from `src/` as checked
out. Each `aftergate` invocation is a fresh process (`python -m
aftergate.cli` with PYTHONPATH set to `src/`), one at a time. The seed is
passed to every invocation as the Monte Carlo seed. Every output is checked
(see checks.py) and each failed invocation or failed check counts as a
failure.

--trace 0 measures the end-to-end metrics with tracing off. It cycles
through the workload's invocations, every second one after a set-up probe,
until another invocation is expected to end after S seconds (at least one
full pass). The host's speed drifts by tens of percent over minutes, so
every timed child runs between two calibration children (CALIBRATION: a
fixed mix of imports, numpy work and Python loops that does not use the
package) and its time is scaled by CALIBRATION_REF_S / the mean wall time
of those two. Times are thus in reference seconds: seconds on a host whose
calibration child takes CALIBRATION_REF_S.
  setup_s      median over the run's probes of `import aftergate` plus
               `load_config` of the packaged calibration, in a fresh process
  wall_s       sum over the workload's invocations of each one's median
               wall time
  peak_rss_mb  the largest over invocations of each one's median child
               ru_maxrss
and prints each command's median wall time, the unscaled medians, the
calibration's median and the error rate by name.

--trace 1 runs each invocation in a fresh tracer process (tracer.py),
which calls `aftergate.cli.main` in-process with the package's functions
wrapped, and reports the per-layer metrics of layers.py, with a self-time
table per invocation and one for the whole workload. Its passes over the
invocation sequence repeat while another is expected to end within S
seconds (at least one). Its times are not scaled.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything written goes under
.bench_work/ in the repository root and is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
COMMANDS = ("sweep", "contour", "gate2", "attack_hist", "partial_attack",
            "feasibility", "contour_large", "histogram", "histogram_w2",
            "histogram_bright")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

SETUP_PROBE = """\
import time
t = time.perf_counter()
import aftergate
aftergate.load_config(None)
print(time.perf_counter() - t)
"""

CALIBRATION = """\
import argparse, csv, decimal, json
import numpy
x = numpy.random.default_rng(0).random(200_000)
numpy.sort(numpy.exp(-x) * x)
d = {}
for i in range(100_000):
    d[i % 977] = d.get(i % 977, 0) + i
"""
CALIBRATION_REF_S = 0.25
# A set-up probe before every PROBE_EVERY-th invocation: enough probes for
# a steady setup_s, and more of the run left for the invocations.
PROBE_EVERY = 2


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts children from the repository root and waits for each."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    def run(self, args: list[str]) -> Child:
        """Run `python args...` to completion; wall time, peak RSS (from
        wait4) and output of the child."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                killer.cancel()
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6,
                     out_path.read_text(), err_path.read_text())

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline


def remove_work(work: Path) -> None:
    """Delete a run's work directory, and .bench_work once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


def _failure(inv, child: Child) -> list[str]:
    if child.code == 0:
        return []
    last = (child.stderr.strip().splitlines() or ["no diagnostic"])[-1]
    return [f"{inv.name}: exit {child.code}: {last}"]


class Tally:
    """Invocations attempted and failed; failed means a non-zero exit or a
    failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def repeat(runner: Runner, seconds: float, once) -> list:
    """Call once() while another call is expected to end within `seconds`
    (at least once); the results of all calls."""
    results = []
    start = time.perf_counter()
    while not results or (
            (time.perf_counter() - start) * (len(results) + 1) / len(results)
            <= seconds and not runner.expired()):
        results.append(once())
    return results


class Timeline:
    """Timed children, each between two calibration children."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.cal = [self._calibrate()]
        self.children: list[tuple[str, Child]] = []

    def _calibrate(self) -> float:
        cal = self.runner.run(["-c", CALIBRATION])
        if cal.code != 0:
            raise RuntimeError(f"calibration failed: {cal.stderr.strip()}")
        return cal.wall_s

    def run(self, name: str, args: list[str]) -> Child:
        child = self.runner.run(args)
        self.children.append((name, child))
        self.cal.append(self._calibrate())
        return child

    def scaled(self) -> list[tuple[str, Child, float]]:
        """(name, child, factor turning its times into reference
        seconds) for each child."""
        return [(name, child, 2 * CALIBRATION_REF_S / (before + after))
                for (name, child), before, after
                in zip(self.children, self.cal, self.cal[1:])]


def measure(runner: Runner, workload, checker, tally: Tally, seed: int,
            seconds: float) -> Timeline:
    """Cycle through the invocations, every PROBE_EVERY-th after a set-up
    probe, until another is expected to end after `seconds` (at least one
    pass)."""
    timeline = Timeline(runner)
    invocations = workload.invocations
    step_s = {}
    start = time.perf_counter()
    for k in itertools.count():
        inv = invocations[k % len(invocations)]
        if k >= len(invocations) and (
                time.perf_counter() - start + step_s[inv.name] > seconds
                or runner.expired()):
            return timeline
        step_start = time.perf_counter()
        if k % PROBE_EVERY == 0:
            probe = timeline.run("setup", ["-c", SETUP_PROBE])
            if probe.code != 0:
                raise RuntimeError(
                    f"set-up probe failed: {probe.stderr.strip()}")
        outdir = runner.work / "out" / inv.name
        shutil.rmtree(outdir, ignore_errors=True)
        child = timeline.run(inv.name, [
            "-m", "aftergate.cli", *workload.argv(inv, outdir, seed)])
        tally.record(_failure(inv, child) or checker.check(inv, outdir))
        step_s[inv.name] = time.perf_counter() - step_start


def trace(runner: Runner, workload, checker, tally: Tally, seed: int,
          seconds: float) -> list[list[dict]]:
    """Traced passes over the invocation sequence for `seconds`."""
    def once() -> list[dict]:
        rep = runner.work / "out"
        entries = []
        for inv in workload.invocations:
            outdir = rep / inv.name
            doc_path = runner.work / "trace.json"
            doc_path.unlink(missing_ok=True)
            child = runner.run([str(BENCH / "tracer.py"), str(doc_path), "--",
                                *workload.argv(inv, outdir, seed)])
            problems = _failure(inv, child)
            if not problems and not doc_path.is_file():
                problems = [f"{inv.name}: tracer wrote no trace"]
            tally.record(problems or checker.check(inv, outdir))
            if problems:
                continue
            entries.append({
                "doc": json.loads(doc_path.read_text()),
                "wall_s": child.wall_s,
                "stderr_lines": len(child.stderr.splitlines()),
                "nan_cells": sum(p.read_bytes().count(b"nan")
                                 for p in outdir.glob("*.csv")),
            })
        shutil.rmtree(rep, ignore_errors=True)
        return entries

    return repeat(runner, seconds, once)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size").strip()
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, **caches}


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(root: Path, args, samples: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "versions": {"python": platform.python_version(),
                     "numpy": _version("numpy"), "scipy": _version("scipy")},
        "commit": commit(root), "source_sha256": source_digest(root),
        "samples": samples,
    }


def end_to_end(runner, workload, checker, tally, args):
    timeline = measure(runner, workload, checker, tally, args.seed,
                       args.seconds)
    scaled, raw, rss = defaultdict(list), defaultdict(list), defaultdict(list)
    for name, child, factor in timeline.scaled():
        value = float(child.stdout) if name == "setup" else child.wall_s
        scaled[name].append(value * factor)
        raw[name].append(value)
        rss[name].append(child.rss_mb)
    med = statistics.median
    invocations = [inv.name for inv in workload.invocations]
    metrics = {"setup_s": med(scaled["setup"]),
               "wall_s": sum(med(scaled[n]) for n in invocations),
               "peak_rss_mb": max(med(rss[n]) for n in invocations)}
    print(f"times in reference seconds; calibration child median "
          f"{med(timeline.cal):.4f} s (reference {CALIBRATION_REF_S} s)")
    print(f"{'setup_s':<18} {metrics['setup_s']:.4f} s "
          f"(unscaled {med(raw['setup']):.4f} s)")
    print(f"{'wall_s':<18} {metrics['wall_s']:.4f} s (unscaled "
          f"{sum(med(raw[n]) for n in invocations):.4f} s)")
    for name in COMMANDS:
        value = (f"{med(scaled[name]):.4f} s (unscaled {med(raw[name]):.4f} s)"
                 if name in invocations else "- s (not in this workload)")
        print(f"{name + '_s':<18} {value}")
    print(f"{'peak_rss_mb':<18} {metrics['peak_rss_mb']:.1f} MB")
    print(f"{'error_rate':<18} {tally.error_rate:.4f} "
          f"({tally.failed}/{tally.attempted})")
    samples = {"calibration": len(timeline.cal),
               "setup_s": len(scaled["setup"]),
               **{f"{name}_s": len(scaled[name]) for name in invocations}}
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}, samples


def per_layer(runner, workload, checker, tally, args):
    passes = trace(runner, workload, checker, tally, args.seed, args.seconds)
    passes = [p for p in passes if len(p) == len(workload.invocations)]
    if not passes:
        return {}, {"passes": 0}
    for i, inv in enumerate(workload.invocations):
        print(f"== {inv.name}")
        print("\n".join(layers.table(
            layers.workload_metrics([[p[i]] for p in passes]))))
    print(f"== workload {workload.name}")
    m = layers.workload_metrics(passes)
    print("\n".join(layers.table(m)))
    return ({name: {"value": m.get(name, 0.0), "unit": unit}
             for name, unit in layers.METRICS}, {"passes": len(passes)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM unwind normally, so children are killed and work removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "aftergate" / "cli.py").is_file():
        print("bench: no src/aftergate/cli.py here; run from the repository "
              "root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())
    checker = checks.Checker(workload, reference)
    tally = Tally()
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, time.perf_counter() + TIME_LIMIT_S)
    try:
        print(f"workload {workload.name}: {workload.why}")
        collect = per_layer if args.trace else end_to_end
        metrics, samples = collect(runner, workload, checker, tally, args)
    finally:
        remove_work(work)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print("provenance " + json.dumps(provenance(root, args, samples)))
    print(json.dumps({"correct": tally.failed == 0 and bool(metrics),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
