"""Two trap species compete for the adjacent-gate detection probability.

Sliding the pulse from the trailing edge into the inter-gate gap first
starves the multiplication-layer traps (avalanche charge collapses), then
hands the curve to interface trapping (shorter wait, higher survival). The
result is a characteristic fall-then-rise with a single interior minimum.
"""

from pathlib import Path

import numpy as np

from aftergate.cli import main
from aftergate.svg import line_chart

OUT = Path(__file__).resolve().parent / "out"

# a species is off when it captures nothing; those runs get subdirectories
runs = {
    "both species": (OUT, []),
    "interface only": (OUT / "interface_only", [
        "--set", "traps.multiplication.capture_per_avalanche_charge=0"]),
    "multiplication only": (OUT / "multiplication_only", [
        "--set", "traps.interface.capture_fraction_photo=0"])}
curves = {}
for name, (out, sets) in runs.items():
    if code := main(["--out", str(out), *sets, "gate2"]):
        raise SystemExit(code)
    table = np.genfromtxt(out / "gate2.csv", delimiter=",", names=True,
                          encoding="utf-8")
    delays, curves[name] = table["delay_ps"], table["probability"]

p_both, only_if, only_mult = curves.values()
i_min = int(np.argmin(p_both))
print(f"\ntwo-species curve: starts {p_both[0]:.4f}, dips to "
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
