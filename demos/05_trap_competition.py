"""Two trap species compete for the adjacent-gate detection probability.

Sliding the pulse from the trailing edge into the inter-gate gap first
starves the multiplication-layer traps (avalanche charge collapses), then
hands the curve to interface trapping (shorter wait, higher survival). The
result is a characteristic fall-then-rise with a single interior minimum.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from aftergate import TrapSpecies, gate2_vs_delay, load_config
from aftergate.io import write_gate2_csv
from aftergate.svg import line_chart

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

cfg = load_config()
det, env = cfg.detector, cfg.environment
lo = det.trigger_flat_fraction * det.timing.gate_width
delays = np.linspace(lo, 0.96 * det.timing.gate_period, 300)

both = gate2_vs_delay(det, 80.0, delays, env)
only_if = gate2_vs_delay(
    replace(det, multiplication_trap=TrapSpecies(0.110, 8.0)),
    80.0, delays, env)
only_mult = gate2_vs_delay(
    replace(det, interface_trap=TrapSpecies(0.040, 100.0)), 80.0, delays, env)

p_both = np.array([p for _, p in both])
i_min = int(np.argmin(p_both))
print(f"two-species curve: starts {p_both[0]:.4f}, dips to "
      f"{p_both[i_min]:.5f} at {delays[i_min]:.0f} ps, "
      f"ends {p_both[-1]:.4f}")
print(f"interface only : monotone rising  "
      f"({only_if[0][1]:.5f} -> {only_if[-1][1]:.5f})")
print(f"mult only      : monotone falling "
      f"({only_mult[0][1]:.5f} -> {only_mult[-1][1]:.5f})")

write_gate2_csv(OUT / "gate2.csv", both)
line_chart(OUT / "gate2.svg", delays,
           {"both species": p_both,
            "interface only": [p for _, p in only_if],
            "multiplication only": [p for _, p in only_mult]},
           "adjacent-gate probability vs delay", "delay (ps)", "probability")
print(f"wrote {OUT / 'gate2.csv'} and {OUT / 'gate2.svg'}")
