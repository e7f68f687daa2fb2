"""Sweep the attack pulse across the gate and watch both QBER figures.

The target-gate QBER (delayed detection ignored) dips well under the security
threshold on the trailing edge: the attacker would go unnoticed. Adding the
average one-gate-delayed detection probability pushes the measured QBER back
above threshold at every delay, which is what reveals the attack.
"""

from pathlib import Path

import numpy as np

from aftergate import attack_histogram, load_config, sweep_delay
from aftergate.cli import main

OUT = Path(__file__).resolve().parent / "out"

cfg = load_config()
det, env = cfg.detector, cfg.environment
flux = cfg.values["scenario"]["flux_full"]  # a mismatched basis halves it
sec = cfg.values["sweep"]

delays = np.linspace(sec["delay_min"], sec["delay_max"], sec["delay_points"])
points = sweep_delay(det, flux, delays, env)

q = np.array([p.q_target for p in points])
q_dd = np.array([p.q_with_dd for p in points])
i = int(np.nanargmin(q))

print(f"attack sweep, {flux:g}/{flux / 2:g} photons per pulse, room "
      f"temperature:")
print(f"  flat mid-gate QBER        : {points[80].q_target:.4f}")
print(f"  minimum target-gate QBER  : {q[i]:.4f} at {points[i].delay:.2f} ps")
print(f"  same point with delayed detection: {points[i].q_with_dd:.4f}")
print(f"  minimum corrected QBER    : {np.nanmin(q_dd):.4f}  "
      f"(> {cfg.values['feasibility']['qber_threshold']:g})")

hist_f = attack_histogram(det, flux, points[i].delay, env, gates=6)
hist_h = attack_histogram(det, flux / 2.0, points[i].delay, env, gates=6)
print("\nper-gate probabilities at the dip delay:")
print(f"{'gate':>5} {'full':>10} {'half':>10}")
for g in range(6):
    print(f"{g + 1:5d} {hist_f[g]:10.6f} {hist_h[g]:10.6f}")
print("\nfor half power the adjacent gate outweighs the target gate: those")
print("delayed clicks are random bits, and they betray the eavesdropper.\n")

raise SystemExit(main(["--out", str(OUT), "sweep"]))
