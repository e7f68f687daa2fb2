"""The benchmark's own tests.

    python3 bench/selftest.py          # from the repository root, ~2 min

- BENCHMARK.json agrees with the runner: workloads, metric names, units.
- A quick run (1 s) of every workload in both modes prints every metric
  BENCHMARK.json names, with its unit, prints all per-command metrics by
  name, and has no failure.
- Corrupted outputs count as failures: a perturbed contour cell, a
  workers-2 histogram that differs from workers 1, and a histogram that
  breaks the first-click law.
- A CSV too long to be checked cell by cell still fails when a sampled
  cell moves by 1e-6 or an unsampled one by 1e-3 of its value.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def quick(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(out.stderr)
    return json.loads(out.stdout.splitlines()[-1]), out.stdout


class SpecMatchesRunner(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual({w["name"]: w["why"] for w in SPEC["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})

    def test_metrics(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         list(layers.METRICS))


class QuickRun(unittest.TestCase):
    def runs(self, trace: int, spec_key: str) -> list[tuple[dict, str]]:
        """Quick run of every workload; each result has exactly the metrics
        and units BENCHMARK.json lists under spec_key, and no failure."""
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        out = []
        for name in WORKLOADS:
            result, text = quick(name, trace)
            self.assertTrue(result["correct"], text)
            self.assertEqual(result["failed"], 0, text)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual({k: v["unit"] for k, v in
                              result["metrics"].items()}, expected)
            out.append((result, text))
        return out

    def test_end_to_end(self):
        for result, text in self.runs(0, "end_to_end"):
            self.assertTrue(all(v["value"] > 0
                                for v in result["metrics"].values()))
            printed = {line.split()[0] for line in text.splitlines()
                       if line.strip()}
            names = [f"{c}_s" for c in run.COMMANDS] + [
                "setup_s", "wall_s", "peak_rss_mb", "error_rate"]
            self.assertLessEqual(set(names), printed)
            self.assertRegex(text, r"error_rate\s+0\.0000 ")
            self.assertIn('"seed": 7', text)

    def test_per_layer(self):
        for _, text in self.runs(1, "per_layer"):
            self.assertIn("dominant layer", text)


class LongCsv(unittest.TestCase):
    def setUp(self):
        self.path = ROOT / ".bench_work" / f"selftest-{time.time_ns()}.csv"
        self.path.parent.mkdir(exist_ok=True)
        self.rows = [f"{i},{0.5 + 0.25 * ((i * 7919) % 1000) / 1000!r}"
                     for i in range(3 * checks.FULL_ROWS)]
        self.write(self.rows)
        self.ref = checks.summarize_csv(self.path)

    def tearDown(self):
        self.path.unlink(missing_ok=True)
        run.remove_work(self.path)

    def write(self, rows):
        self.path.write_text("\n".join(["i,v", *rows]) + "\n")

    def perturbed(self, row: int, rel: float) -> list[str]:
        rows = list(self.rows)
        i, v = rows[row].split(",")
        rows[row] = f"{i},{float(v) * (1 + rel)!r}"
        self.write(rows)
        return checks.compare_csv(self.path, self.ref)

    def test_unchanged_passes(self):
        self.assertGreater(self.ref["stride"], 1)
        self.assertEqual(checks.compare_csv(self.path, self.ref), [])

    def test_sampled_cell(self):
        self.assertTrue(self.perturbed(5 * self.ref["stride"], 1e-6))

    def test_unsampled_cell(self):
        self.assertTrue(self.perturbed(5 * self.ref["stride"] + 1, 1e-3))


class CorruptedOutput(unittest.TestCase):
    def setUp(self):
        self.work = ROOT / ".bench_work" / f"selftest-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.runner = run.Runner(ROOT, self.work, time.perf_counter() + 170)

    def tearDown(self):
        run.remove_work(self.work)

    def produce(self, workload, inv_name: str) -> tuple:
        wl = WORKLOADS[workload]
        inv = next(i for i in wl.invocations if i.name == inv_name)
        outdir = self.work / "out" / inv.name
        child = self.runner.run(["-m", "aftergate.cli",
                                 *wl.argv(inv, outdir, 7)])
        self.assertEqual(child.code, 0, child.stderr)
        checker = checks.Checker(wl, REFERENCE)
        self.assertEqual(checker.check(inv, outdir), [])
        return wl, inv, outdir

    def counted(self, wl, inv, outdir) -> run.Tally:
        tally = run.Tally()
        tally.record(checks.Checker(wl, REFERENCE).check(inv, outdir))
        return tally

    def test_perturbed_contour_cell(self):
        wl, inv, outdir = self.produce("analytic", "contour")
        path = outdir / "contour.csv"
        lines = path.read_text().splitlines()
        middle = len(lines) // 2
        flux, delay, q = lines[middle].split(",")
        lines[middle] = f"{flux},{delay},{float(q) * (1 + 1e-6)!r}"
        path.write_text("\n".join(lines) + "\n")
        tally = self.counted(wl, inv, outdir)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertGreater(tally.error_rate, 0)

    def test_workers2_histogram_differs(self):
        wl, inv, outdir = self.produce("histogram", "histogram")
        w2 = next(i for i in wl.invocations if i.name == "histogram_w2")
        shutil.copytree(outdir, outdir.parent / w2.name)
        self.assertEqual(self.counted(wl, w2, outdir.parent / w2.name)
                         .failed, 0)
        path = outdir.parent / w2.name / "histogram.csv"
        rows = path.read_text().splitlines()
        gate, count, trials, _ = rows[-1].split(",")
        count = int(count) + 1
        rows[-1] = f"{gate},{count},{trials},{count / int(trials)!r}"
        path.write_text("\n".join(rows) + "\n")
        tally = self.counted(wl, w2, outdir.parent / w2.name)
        self.assertEqual(tally.failed, 1)
        self.assertTrue(any("differs" in p for p in tally.problems))

    def test_histogram_breaks_first_click_law(self):
        wl, inv, outdir = self.produce("histogram", "histogram")
        path = outdir / "histogram.csv"
        rows = path.read_text().splitlines()
        gate, count, trials, _ = rows[2].split(",")
        count = 2 * int(count)
        rows[2] = f"{gate},{count},{trials},{count / int(trials)!r}"
        path.write_text("\n".join(rows) + "\n")
        tally = self.counted(wl, inv, outdir)
        self.assertEqual(tally.failed, 1)
        self.assertTrue(any("first-click law" in p for p in tally.problems))


if __name__ == "__main__":
    unittest.main(verbosity=2)
