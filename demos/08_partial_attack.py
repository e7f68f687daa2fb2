"""Why attacking only some gates does not help the eavesdropper.

The asymptotic key rate is convex in the QBER, so mixing attacked and clean
gates always yields at least the rate of the blended QBER: the users lose
nothing by assuming the attack runs on every gate. The baseline QBER here is
the detector's own delayed-detection noise, not zero.
"""

from pathlib import Path

import numpy as np

from aftergate import (key_rate, load_config, noise_qber, partial_attack_rates,
                       sweep_delay)
from aftergate.cli import main

OUT = Path(__file__).resolve().parent / "out"

cfg = load_config()
det, env = cfg.detector, cfg.environment
sec, sc = cfg.values["sweep"], cfg.values["scenario"]

delays = np.linspace(sec["delay_min"], sec["delay_max"], sec["delay_points"])
points = sweep_delay(det, sc["flux_full"], delays, env)
q_attack = min(0.5, float(np.nanmin([p.q_with_dd for p in points])))
q_base = noise_qber(det, env, sc["signal_flux"])

print(f"attacked-gate QBER (delayed detection included): {q_attack:.4f}")
print(f"baseline QBER without the attacker            : {q_base:.4f}")
print(f"key rate at baseline: {key_rate(q_base):.4f}; "
      f"under full attack: {key_rate(q_attack):.4f}")

fractions = np.linspace(0.0, 1.0,
                        cfg.values["partial_attack"]["fraction_points"])
rows = partial_attack_rates(q_attack, q_base, fractions)
print(f"\n{'fraction':>9} {'combined rate':>14} {'blended-QBER rate':>18}")
for f, combined, _ in rows[::20]:
    blended = key_rate(f * q_attack + (1 - f) * q_base)
    print(f"{f:9.2f} {combined:14.4f} {blended:18.4f}")

gaps = [combined - key_rate(f * q_attack + (1 - f) * q_base)
        for f, combined, _ in rows]
print(f"\nminimum (combined - blended) gap over the grid: {min(gaps):.3e}")
print("the mixture never undercuts the blended rate: partial attacks only")
print("dilute the eavesdropper's information.")

raise SystemExit(main(["--out", str(OUT), "partial-attack"]))
