"""Classify gating frequencies into Vulnerable / Suitable / Noisy.

Slow gating lets trapped carriers decay harmlessly between gates, so the
attack stays invisible (Vulnerable). Fast gating keeps the delayed-detection
alarm alive but eventually poisons normal operation (Noisy). The usable
window sits in between and shifts down in frequency as the detector cools,
because all lifetimes stretch.
"""

from pathlib import Path

import numpy as np

from aftergate import Environment, feasibility_band, load_config
from aftergate.cli import main
from aftergate.feasibility import suitable_interval

OUT = Path(__file__).resolve().parent / "out"

cfg = load_config()
sec, sc = cfg.values["feasibility"], cfg.values["scenario"]
freqs = np.geomspace(sec["freq_min"], sec["freq_max"], sec["freq_points"])
clock = cfg.detector.timing.gating_frequency

for temp in sec["temperatures"]:
    env = Environment(temperature=temp)
    band = feasibility_band(freqs, env, cfg.detector, sc["signal_flux"],
                            sc["attack_flux"], sec["qber_threshold"])
    interval = suitable_interval(band)
    marks = {"Vulnerable": "v", "Suitable": "S", "Noisy": "n"}
    line = "".join(marks[v.classification] for v in band)
    print(f"T = {temp:6.2f} K: {line}")
    print(f"    suitable {interval[0]:.2e} .. {interval[1]:.2e} Hz")
    i_clock = int(np.argmin(np.abs(freqs - clock)))
    print(f"    {clock / 1e9:g} GHz -> {band[i_clock].classification} "
          f"(self-noise {band[i_clock].q_noise:.4f}, "
          f"attack QBER {band[i_clock].q_attack:.4f})")

raise SystemExit(main(["--out", str(OUT), "feasibility"]))
