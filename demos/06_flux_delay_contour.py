"""Map the target-gate QBER over attack flux and delay.

Saturated mid-gate cells sit at 25%. A tongue of sub-threshold cells opens
along the trailing edge: the parameter space where the attack would go
unnoticed if delayed detection were ignored. The attacker's cheapest flux
lives strictly inside the edge.
"""

from pathlib import Path

import numpy as np

from aftergate import load_config
from aftergate.attack import sub_threshold_region
from aftergate.cli import main

OUT = Path(__file__).resolve().parent / "out"

if code := main(["--out", str(OUT), "contour"]):
    raise SystemExit(code)
cfg = load_config()
sc = cfg.values["scenario"]
threshold = cfg.values["feasibility"]["qber_threshold"]
# one CSV row per cell, fluxes outermost
flux, delay, q = np.loadtxt(OUT / "contour.csv", delimiter=",", skiprows=1,
                            unpack=True, encoding="utf-8")
matrix = q.reshape(cfg.values["contour"]["flux_points"], -1)
fluxes, delays = flux[::matrix.shape[1]], delay[:matrix.shape[1]]

region = sub_threshold_region(matrix, threshold)
print(f"\ngrid: {len(fluxes)} fluxes x {len(delays)} delays")
print(f"cells with QBER < {threshold:.0%}: {int(region.sum())}")
# a faint pulse, the feasibility attack, and the sweep's half and full power
for mu in (10.0, sc["attack_flux"], sc["flux_full"] / 2, sc["flux_full"]):
    i = int(np.where(fluxes == mu)[0][0])
    j = int(np.nanargmin(matrix[i]))
    marker = "inside the undetected region" if region[i].any() else "detected"
    print(f"  flux {mu:5.1f}: best QBER {matrix[i, j]:.4f} at "
          f"{delays[j]:.0f} ps ({marker})")

rows = np.where(region.any(axis=1))[0]
print(f"\nsmallest flux with an undetected cell: {fluxes[rows[0]]:.0f} "
      f"photons/pulse")
