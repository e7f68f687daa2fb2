"""Classify gating frequencies into Vulnerable / Suitable / Noisy.

Slow gating lets trapped carriers decay harmlessly between gates, so the
attack stays invisible (Vulnerable). Fast gating keeps the delayed-detection
alarm alive but eventually poisons normal operation (Noisy). The usable
window sits in between and shifts down in frequency as the detector cools,
because all lifetimes stretch.
"""

import json
from pathlib import Path

import numpy as np

from aftergate import load_config
from aftergate.cli import main

OUT = Path(__file__).resolve().parent / "out"

if code := main(["--out", str(OUT), "feasibility"]):
    raise SystemExit(code)
cfg = load_config()
clock = cfg.detector.timing.gating_frequency
summary = json.loads((OUT / "feasibility_summary.json").read_text(
    encoding="utf-8"))
marks = {"Vulnerable": "v", "Suitable": "S", "Noisy": "n"}

for temp in cfg.values["feasibility"]["temperatures"]:
    band = np.genfromtxt(OUT / f"feasibility_{temp:g}K.csv", delimiter=",",
                         names=True, dtype=None, encoding="utf-8")
    interval = summary[f"{temp:g}K"]
    print(f"T = {temp:6.2f} K: "
          f"{''.join(marks[c] for c in band['classification'])}")
    print(f"    suitable {interval['suitable_min_hz']:.2e} .. "
          f"{interval['suitable_max_hz']:.2e} Hz")
    at = band[np.argmin(np.abs(band["frequency_hz"] - clock))]
    print(f"    {clock / 1e9:g} GHz -> {at['classification']} "
          f"(self-noise {at['q_noise']:.4f}, "
          f"attack QBER {at['q_attack']:.4f})")
