"""Map the target-gate QBER over attack flux and delay.

Saturated mid-gate cells sit at 25%. A tongue of sub-11% cells opens along
the trailing edge: the parameter space where the attack would go unnoticed
if delayed detection were ignored. The attacker's cheapest flux lives
strictly inside the edge.
"""

from pathlib import Path

import numpy as np

from aftergate import contour_flux_delay, load_config
from aftergate.attack import sub_threshold_region
from aftergate.io import write_contour_csv
from aftergate.svg import heatmap

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

cfg = load_config()
det = cfg.detector

fluxes = np.arange(2.0, 101.0, 2.0)
delays = np.arange(0.0, 200.5, 1.0)
matrix = contour_flux_delay(det, fluxes, delays)

region = sub_threshold_region(matrix, 0.11)
print(f"grid: {len(fluxes)} fluxes x {len(delays)} delays")
print(f"cells with QBER < 11%: {int(region.sum())}")
for mu in (10.0, 20.0, 40.0, 80.0):
    i = int(np.where(fluxes == mu)[0][0])
    row = matrix[i]
    j = int(np.nanargmin(row))
    marker = "inside the undetected region" if region[i].any() else "detected"
    print(f"  flux {mu:5.1f}: best QBER {row[j]:.4f} at {delays[j]:.0f} ps "
          f"({marker})")

rows = np.where(region.any(axis=1))[0]
print(f"\nsmallest flux with an undetected cell: {fluxes[rows[0]]:.0f} "
      f"photons/pulse")

write_contour_csv(OUT / "contour.csv", fluxes, delays, matrix)
heatmap(OUT / "contour.svg", delays, fluxes, matrix,
        "target-gate QBER over flux and delay", "delay (ps)",
        "flux (photons/pulse)", iso=0.11)
print(f"wrote {OUT / 'contour.csv'} and {OUT / 'contour.svg'}")
