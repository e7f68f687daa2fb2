"""Two trap species compete for the adjacent-gate detection probability.

Sliding the pulse from the trailing edge into the inter-gate gap first
starves the multiplication-layer traps (avalanche charge collapses), then
hands the curve to interface trapping (shorter wait, higher survival). The
result is a characteristic fall-then-rise with a single interior minimum.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from aftergate import gate2_vs_delay, load_config
from aftergate.cli import main
from aftergate.svg import line_chart

OUT = Path(__file__).resolve().parent / "out"

cfg = load_config()
det, env = cfg.detector, cfg.environment
# the gate2 command's grid, from the trigger's flat top into the gap
lo = det.trigger_flat_fraction * det.timing.gate_width
delays = np.linspace(lo, 0.96 * det.timing.gate_period,
                     cfg.values["gate2"]["delay_points"])
# a species is off when it captures nothing
detectors = {
    "both species": det,
    "interface only": replace(det, multiplication_trap=replace(
        det.multiplication_trap, capture_per_avalanche_charge=0.0)),
    "multiplication only": replace(det, interface_trap=replace(
        det.interface_trap, capture_fraction_photo=0.0))}
curves = {name: gate2_vs_delay(d, cfg.values["scenario"]["flux_full"],
                               delays, env).probability
          for name, d in detectors.items()}

p_both, only_if = curves["both species"], curves["interface only"]
only_mult = curves["multiplication only"]
i_min = int(np.argmin(p_both))
print(f"two-species curve: starts {p_both[0]:.4f}, dips to "
      f"{p_both[i_min]:.5f} at {delays[i_min]:.0f} ps, "
      f"ends {p_both[-1]:.4f}")
print(f"interface only : monotone rising  "
      f"({only_if[0]:.5f} -> {only_if[-1]:.5f})")
print(f"mult only      : monotone falling "
      f"({only_mult[0]:.5f} -> {only_mult[-1]:.5f})")

# no command draws the three curves together
line_chart(OUT / "gate2_species.svg", delays, curves,
           "adjacent-gate probability vs delay", "delay (ps)", "probability")
print(f"wrote {OUT / 'gate2_species.svg'}")
raise SystemExit(main(["--out", str(OUT), "gate2"]))
