"""Simulate a single-photon pulse train and histogram the clicks.

The illuminated gate dominates; the next few gates carry delayed detections
from trap release, decaying onto the flat dark/afterpulse background. Each
trial's clicks pass through the time tagger's dead time before accumulation.
"""

from pathlib import Path

from aftergate import PulseSpec, load_config, simulate_pulse_train
from aftergate.io import write_histogram_csv
from aftergate.svg import bar_chart

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

cfg = load_config()
det, env = cfg.detector, cfg.environment

trials = 2_000_000
gates = 12
pulse = PulseSpec(mean_flux=0.1, delay=0.0)

dead_time = cfg.values["histogram"]["dead_time"]
hist = simulate_pulse_train(det, [(0, pulse)], env, trials=trials, seed=8081,
                            window=gates, dead_time=dead_time)

print(f"{trials} trials, flux 0.1 at the optimal delay, "
      f"{dead_time / 1000:g} ns dead time")
print(f"{'gate':>5} {'counts':>9} {'per trial':>11}")
for i, c in enumerate(hist.gate_counts, start=1):
    bar = "#" * max(1, int(40 * c / hist.gate_counts[0])) if c else ""
    print(f"{i:5d} {int(c):9d} {c / trials:11.6f}  {bar}")

ratio = hist.gate_counts[1] / hist.gate_counts[0]
print(f"\ngate 2 / gate 1 = {ratio:.4f} (about one percent: trap release "
      f"plus background)")

write_histogram_csv(OUT / "histogram.csv", hist)
bar_chart(OUT / "histogram.svg", [str(i + 1) for i in range(gates)],
          hist.gate_counts, "single-photon click histogram", "gate index",
          "counts")
print(f"wrote {OUT / 'histogram.csv'} and {OUT / 'histogram.svg'}")
