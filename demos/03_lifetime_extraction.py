"""Extract trap lifetimes from decay histograms and fit the barrier height.

Uses the analytic model with only the interface species active, so the
release tail is a clean single exponential. Comparing two gates of the decay
inverts the lifetime; repeating across temperatures and regressing
ln(lifetime) on 1/T recovers the activation energy.
"""

from dataclasses import replace

from aftergate import (Environment, PulseSpec, TrapSpecies, arrhenius_fit,
                       extract_lifetime, load_config, trap_lifetime)
from aftergate.montecarlo import analytic_gate_probabilities

cfg = load_config()
det = replace(cfg.detector, dark_count_prob=0.0, afterpulse_prob=0.0,
              multiplication_trap=TrapSpecies(
                  0.110, 8.0, capture_per_avalanche_charge=0.0))

temps = (243.15, 258.15, 273.15, 293.15)
lifetimes = []
print("per-temperature extraction (anchor/probe gates 2 and 4):")
for temp in temps:
    env = Environment(temperature=temp)
    probs = analytic_gate_probabilities(det, [(0, PulseSpec(0.1, 0.0))],
                                        env, 10)
    tau_hat = extract_lifetime(probs, det.timing.gate_period,
                               use_gates=(2, 4), background=0.0)
    tau_true = trap_lifetime(det.interface_trap, env)
    lifetimes.append(tau_hat)
    print(f"  T = {temp:6.2f} K   extracted {tau_hat:7.2f} ps   "
          f"configured {tau_true:7.2f} ps")

fit = arrhenius_fit(temps, lifetimes)
print(f"\nArrhenius fit: activation energy "
      f"{fit.activation_energy * 1e3:.2f} meV "
      f"(configured {det.interface_trap.activation_energy * 1e3:.1f}), "
      f"prefactor {fit.lifetime_prefactor:.2f} ps "
      f"(configured {det.interface_trap.lifetime_prefactor:.1f}), "
      f"ln-space residual {fit.residual_norm:.2e}")

print("\nlifetimes shorten as the detector warms: the extracted slope is")
print("the barrier height carriers must overcome to escape the trap.")
