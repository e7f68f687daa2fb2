"""Sweep the attack pulse across the gate and watch both QBER figures.

The target-gate QBER (delayed detection ignored) dips well under the 11%
threshold on the trailing edge: the attacker would go unnoticed. Adding the
average one-gate-delayed detection probability pushes the measured QBER back
above threshold at every delay, which is what reveals the attack.
"""

from pathlib import Path

import numpy as np

from aftergate import attack_histogram, load_config, sweep_delay
from aftergate.io import write_sweep_csv
from aftergate.svg import line_chart

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

cfg = load_config()
det, env = cfg.detector, cfg.environment
flux = 80.0  # photons at full power; a mismatched basis halves it

delays = np.linspace(0.0, 240.0, 961)
points = sweep_delay(det, flux, delays, env)

q = np.array([p.q_target for p in points])
q_dd = np.array([p.q_with_dd for p in points])
i = int(np.nanargmin(q))

print("attack sweep, 80/40 photons per pulse, room temperature:")
print(f"  flat mid-gate QBER        : {points[80].q_target:.4f}")
print(f"  minimum target-gate QBER  : {q[i]:.4f} at {points[i].delay:.2f} ps")
print(f"  same point with delayed detection: {points[i].q_with_dd:.4f}")
print(f"  minimum corrected QBER    : {np.nanmin(q_dd):.4f}  (> 0.11)")

hist_f = attack_histogram(det, flux, points[i].delay, env, gates=6)
hist_h = attack_histogram(det, flux / 2.0, points[i].delay, env, gates=6)
print("\nper-gate probabilities at the dip delay:")
print(f"{'gate':>5} {'full':>10} {'half':>10}")
for g in range(6):
    print(f"{g + 1:5d} {hist_f.gate_counts[g]:10.6f} "
          f"{hist_h.gate_counts[g]:10.6f}")
print("\nfor half power the adjacent gate outweighs the target gate: those")
print("delayed clicks are random bits, and they betray the eavesdropper.")

write_sweep_csv(OUT / "sweep.csv", points)
line_chart(OUT / "sweep.svg", delays,
           {"target-gate QBER": q, "with delayed detection": q_dd},
           "QBER vs attack delay", "delay (ps)", "QBER", hline=0.11)
print(f"\nwrote {OUT / 'sweep.csv'} and {OUT / 'sweep.svg'}")
