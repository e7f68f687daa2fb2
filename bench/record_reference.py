"""Record the reference values the output checks compare against.

    python3 bench/record_reference.py

Run from the repository root. Runs every analytic invocation once and
summarizes each CSV and JSON it writes, and records the per-gate click
probabilities `analytic_gate_probabilities` gives for each histogram
workload, into bench/reference.json. Re-record only when a change to the
package is meant to change these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time
from pathlib import Path

import checks
from run import BENCH, Runner, commit, remove_work, source_digest
from workloads import WORKLOADS


def histogram_law(root: Path, inv) -> dict:
    sys.path.insert(0, str(root / "src"))
    from aftergate import PulseSpec, analytic_gate_probabilities, load_config

    cfg = load_config(None, overrides=inv.option("--set"))
    sec = cfg.values["histogram"]
    pulse = PulseSpec(mean_flux=cfg.values["scenario"]["signal_flux"],
                      delay=sec["pulse_delay"])
    p = analytic_gate_probabilities(cfg.detector, [(0, pulse)],
                                    cfg.environment, int(sec["gates"]))
    return {"trials": int(inv.option("--trials")[0]),
            "p": [float(v) for v in p]}


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, time.perf_counter() + 3600)
    files, law = {}, {}
    try:
        for workload in WORKLOADS.values():
            for inv in workload.invocations:
                key = f"{workload.name}/{inv.name}"
                if inv.option("--trials"):
                    law[key] = histogram_law(root, inv)
                    continue
                outdir = work / inv.name
                child = runner.run(["-m", "aftergate.cli",
                                    *workload.argv(inv, outdir, 0)])
                if child.code != 0:
                    raise SystemExit(f"{inv.name} failed: {child.stderr}")
                for name in inv.outputs:
                    path = outdir / name
                    if path.suffix == ".csv":
                        files[f"{key}/{name}"] = checks.summarize_csv(path)
                    elif path.suffix == ".json":
                        files[f"{key}/{name}"] = json.loads(path.read_text())
                shutil.rmtree(outdir)
    finally:
        remove_work(work)
    reference = {"recorded_at": {"commit": commit(root),
                                 "source_sha256": source_digest(root)},
                 "files": files, "law": law}
    text = json.dumps(reference, indent=1, sort_keys=True)
    # one line per list of numbers
    text = re.sub(r"\n\s+(?=[-\d]|null)", "", text)
    (BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
