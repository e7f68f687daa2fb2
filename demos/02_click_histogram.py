"""Simulate a single-photon pulse train and histogram the clicks.

The illuminated gate dominates; the next few gates carry delayed detections
from trap release, decaying onto the flat dark/afterpulse background. Each
trial's clicks pass through the time tagger's dead time before accumulation.
"""

from pathlib import Path

import numpy as np

from aftergate import load_config
from aftergate.cli import main

OUT = Path(__file__).resolve().parent / "out"
TRIALS = 2_000_000

cfg = load_config()
code = main(["--out", str(OUT), "--trials", str(TRIALS), "--seed", "8081",
             "histogram"])
if code:
    raise SystemExit(code)
# the counts column of the file the command wrote
counts = np.loadtxt(OUT / "histogram.csv", delimiter=",", skiprows=1,
                    usecols=1, dtype=np.int64, encoding="utf-8")

print(f"{TRIALS} trials, flux {cfg.values['scenario']['signal_flux']:g} at "
      f"the optimal delay, {cfg.values['histogram']['dead_time'] / 1000:g} "
      f"ns dead time")
print(f"{'gate':>5} {'counts':>9} {'per trial':>11}")
for i, c in enumerate(counts, start=1):
    bar = "#" * max(1, int(40 * c / counts[0])) if c else ""
    print(f"{i:5d} {int(c):9d} {c / TRIALS:11.6f}  {bar}")

ratio = counts[1] / counts[0]
print(f"\ngate 2 / gate 1 = {ratio:.4f} (about one percent: trap release "
      f"plus background)")
