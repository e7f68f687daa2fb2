"""Map the target-gate QBER over attack flux and delay.

Saturated mid-gate cells sit at 25%. A tongue of sub-threshold cells opens
along the trailing edge: the parameter space where the attack would go
unnoticed if delayed detection were ignored. The attacker's cheapest flux
lives strictly inside the edge.
"""

from pathlib import Path

import numpy as np

from aftergate import contour_flux_delay, load_config
from aftergate.attack import sub_threshold_region
from aftergate.cli import main

OUT = Path(__file__).resolve().parent / "out"

cfg = load_config()
sec, sc = cfg.values["contour"], cfg.values["scenario"]
threshold = cfg.values["feasibility"]["qber_threshold"]

fluxes = np.linspace(sec["flux_min"], sec["flux_max"], sec["flux_points"])
delays = np.linspace(sec["delay_min"], sec["delay_max"], sec["delay_points"])
matrix = contour_flux_delay(cfg.detector, fluxes, delays)

region = sub_threshold_region(matrix, threshold)
print(f"grid: {len(fluxes)} fluxes x {len(delays)} delays")
print(f"cells with QBER < {threshold:.0%}: {int(region.sum())}")
# a faint pulse, the feasibility attack, and the sweep's half and full power
for mu in (10.0, sc["attack_flux"], sc["flux_full"] / 2, sc["flux_full"]):
    i = int(np.where(fluxes == mu)[0][0])
    row = matrix[i]
    j = int(np.nanargmin(row))
    marker = "inside the undetected region" if region[i].any() else "detected"
    print(f"  flux {mu:5.1f}: best QBER {row[j]:.4f} at {delays[j]:.0f} ps "
          f"({marker})")

rows = np.where(region.any(axis=1))[0]
print(f"\nsmallest flux with an undetected cell: {fluxes[rows[0]]:.0f} "
      f"photons/pulse")

raise SystemExit(main(["--out", str(OUT), "contour"]))
