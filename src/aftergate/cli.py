"""Command-line front end.

One configuration file drives each run; individual keys can be overridden
with --set section.key=value. Every command writes CSV (and JSON where a
verdict is involved) plus a simple SVG rendering into the output directory.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io, svg
from .attack import (QBER_THRESHOLD, AttackScenario, NoSignalError,
                     attack_histogram, contour_flux_delay, gate2_vs_delay,
                     key_rate, partial_attack_rates, sub_threshold_region,
                     sweep_delay)
# build_histogram is unused here; bench/tracer.py wraps it under this name.
from .characterization import (LifetimeExtractionError, arrhenius_fit,  # noqa: F401
                               build_histogram)
from .config import ConfigError, RunConfig, load_config
from .feasibility import feasibility_band, noise_qber, suitable_interval
from .montecarlo import simulate_pulse_train
from .detector import K_BOLTZMANN_EV, PulseSpec

OUTDIR_ENV = "AFTERGATE_OUTDIR"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; usage errors are
    # configuration errors in this tool's contract.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aftergate",
                     description="Fast-gated APD after-gate attack toolkit")
    parser.add_argument("--config", type=Path, default=None,
                        help="run configuration (defaults to the packaged "
                             "calibration)")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"output directory (default: ${OUTDIR_ENV} "
                             "or the config's run.output_dir)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="override run.trials")
    parser.add_argument("--workers", type=int, default=None,
                        help="override run.workers")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides",
                        help="override a config key, e.g. "
                             "--set detector.dark_count_prob=1e-4")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("histogram", help="simulate a pulse train and write the "
                                     "per-gate click histogram")
    arr = sub.add_parser("arrhenius", help="fit lifetimes vs temperature")
    arr.add_argument("--input", type=Path, required=True,
                     help="CSV with temperature_k,lifetime_ps,excess_bias")
    sub.add_parser("sweep", help="attack QBER vs pulse delay")
    sub.add_parser("attack-hist", help="per-gate probabilities under attack")
    sub.add_parser("gate2", help="adjacent-gate probability vs delay")
    sub.add_parser("contour", help="QBER over a flux/delay grid")
    sub.add_parser("partial-attack", help="key rate vs attacked fraction")
    sub.add_parser("feasibility", help="classify gating frequencies")
    return parser


def _run_section(cfg: RunConfig, args) -> dict:
    run = dict(cfg.values.get("run", {}))
    if args.seed is not None:
        run["seed"] = args.seed
    if args.trials is not None:
        run["trials"] = args.trials
    if args.workers is not None:
        run["workers"] = args.workers
    run.setdefault("seed", 12345)
    run.setdefault("trials", 100000)
    run.setdefault("workers", 1)
    run.setdefault("output_dir", "out")
    return run


def _outdir(args, run: dict) -> Path:
    if args.out is not None:
        out = args.out
    elif os.environ.get(OUTDIR_ENV):
        out = Path(os.environ[OUTDIR_ENV])
    else:
        out = Path(run["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario(cfg: RunConfig) -> AttackScenario:
    sec = cfg.values.get("scenario", {})
    return AttackScenario(
        flux_full=sec.get("flux_full", 80.0),
        flux_half=sec.get("flux_half"),
        env=cfg.environment,
    )


def _sweep_grid(cfg: RunConfig) -> np.ndarray:
    sec = cfg.values.get("sweep", {})
    return np.linspace(sec.get("delay_min", 0.0),
                       sec.get("delay_max", 240.0),
                       sec.get("delay_points", 961))


def _sweep_points(cfg: RunConfig):
    return sweep_delay(cfg.detector, _scenario(cfg), _sweep_grid(cfg))


def _dip_delay(points) -> tuple[float, float]:
    qs = np.array([p.q_target for p in points])
    i = int(np.nanargmin(qs))
    return points[i].delay, float(qs[i])


def cmd_histogram(cfg: RunConfig, args, out: Path, run: dict) -> None:
    sec = cfg.values.get("histogram", {})
    gates = sec.get("gates", 12)
    sc = cfg.values.get("scenario", {})
    pulse = PulseSpec(mean_flux=sc.get("signal_flux", 0.1),
                      delay=sec.get("pulse_delay", 0.0))
    if run["trials"] < 1:
        raise ConfigError("run.trials must be >= 1")
    hist = simulate_pulse_train(
        cfg.detector, [(0, pulse)], cfg.environment, trials=run["trials"],
        seed=run["seed"], window=gates, workers=run["workers"],
        dead_time=sec.get("dead_time", 50000.0))
    io.write_histogram_csv(out / "histogram.csv", hist)
    svg.bar_chart(out / "histogram.svg",
                  [str(i + 1) for i in range(gates)], hist.gate_counts,
                  "per-gate click counts", "gate index", "counts", log_y=True)
    print(f"wrote {out / 'histogram.csv'} and histogram.svg "
          f"(gate 1 count {int(hist.gate_counts[0])})")


def cmd_arrhenius(cfg: RunConfig, args, out: Path, run: dict) -> None:
    points = io.read_arrhenius_csv(args.input)
    try:
        fit = arrhenius_fit(points)
    except ValueError as exc:
        raise LifetimeExtractionError(str(exc)) from exc
    io.write_json(out / "arrhenius_fit.json", {
        "activation_energy_ev": fit.activation_energy,
        "tau0_ps": fit.lifetime_prefactor,
        "residual": fit.residual_norm,
    })
    inv_t = [1.0 / p.temperature for p in points]
    ln_tau = [float(np.log(p.lifetime)) for p in points]
    fit_y = [fit.activation_energy / K_BOLTZMANN_EV * x
             + float(np.log(fit.lifetime_prefactor)) for x in inv_t]
    svg.line_chart(out / "arrhenius.svg", inv_t,
                   {"ln(lifetime)": ln_tau, "fit": fit_y},
                   "Arrhenius fit", "1/T (1/K)", "ln(lifetime / ps)")
    print(f"activation energy {fit.activation_energy * 1e3:.2f} meV, "
          f"prefactor {fit.lifetime_prefactor:.2f} ps, "
          f"residual {fit.residual_norm:.3g}")


def cmd_sweep(cfg: RunConfig, args, out: Path, run: dict) -> None:
    points = _sweep_points(cfg)
    io.write_sweep_csv(out / "sweep.csv", points)
    delays = [p.delay for p in points]
    threshold = cfg.values.get("feasibility", {}).get("qber_threshold",
                                                      QBER_THRESHOLD)
    svg.line_chart(out / "sweep.svg", delays,
                   {"target-gate QBER": [p.q_target for p in points],
                    "with delayed detection": [p.q_with_dd for p in points]},
                   "QBER vs pulse delay", "delay (ps)", "QBER",
                   hline=threshold)
    q = np.array([p.q_target for p in points])
    qdd = np.array([p.q_with_dd for p in points])
    i = int(np.nanargmin(q))
    summary = {
        "min_q_target": float(q[i]),
        "min_q_target_delay_ps": points[i].delay,
        "min_q_with_dd": float(np.nanmin(qdd)),
        "q_target_below_0.21": bool(np.nanmin(q) < 0.21),
        "attack_undetected_without_dd": bool(np.nanmin(q) < threshold),
        "attack_detected_with_dd": bool(np.nanmin(qdd) > threshold),
        "threshold": threshold,
    }
    io.write_json(out / "sweep_summary.json", summary)
    print(f"min target QBER {summary['min_q_target']:.4f} at "
          f"{summary['min_q_target_delay_ps']:.2f} ps; "
          f"min corrected QBER {summary['min_q_with_dd']:.4f}")


def cmd_attack_hist(cfg: RunConfig, args, out: Path, run: dict) -> None:
    scenario = _scenario(cfg)
    delay = cfg.values.get("scenario", {}).get("attack_delay")
    if delay is None:
        delay, _ = _dip_delay(_sweep_points(cfg))
    scenario = AttackScenario(flux_full=scenario.flux_full,
                              flux_half=scenario.flux_half,
                              delay=delay, env=scenario.env)
    gates = cfg.values.get("histogram", {}).get("gates", 12)
    hists = {}
    for power in ("full", "half"):
        hist = attack_histogram(cfg.detector, scenario, power, gates)
        hists[power] = hist
        io.write_histogram_csv(out / f"attack_hist_{power}.csv", hist)
    svg.line_chart(out / "attack_hist.svg",
                   list(range(1, gates + 1)),
                   {"full power": hists["full"].gate_counts,
                    "half power": hists["half"].gate_counts},
                   f"per-gate detection probability at delay "
                   f"{delay:.1f} ps", "gate index", "probability")
    g1, g2 = hists["full"].gate_counts[0], hists["full"].gate_counts[1]
    print(f"attack delay {delay:.2f} ps: full-power gate2/gate1 = "
          f"{g2 / g1:.4f}; half-power gate2 > gate1: "
          f"{hists['half'].gate_counts[1] > hists['half'].gate_counts[0]}")


def cmd_gate2(cfg: RunConfig, args, out: Path, run: dict) -> None:
    sec = cfg.values.get("gate2", {})
    det = cfg.detector
    lo = sec.get("delay_min")
    hi = sec.get("delay_max")
    if lo is None:
        lo = det.trigger_flat_fraction * det.timing.gate_width
    if hi is None:
        hi = 0.96 * det.timing.gate_period
    delays = np.linspace(lo, hi, sec.get("delay_points", 300))
    flux = cfg.values.get("scenario", {}).get("flux_full", 80.0)
    points = gate2_vs_delay(det, flux, delays, cfg.environment)
    io.write_gate2_csv(out / "gate2.csv", points)
    svg.line_chart(out / "gate2.svg", [d for d, _ in points],
                   {"adjacent-gate probability": [p for _, p in points]},
                   "adjacent-gate detection vs delay", "delay (ps)",
                   "probability")
    probs = np.array([p for _, p in points])
    i = int(np.argmin(probs))
    print(f"adjacent-gate curve: min {probs[i]:.5f} at "
          f"{points[i][0]:.1f} ps, interior minimum: {0 < i < len(points) - 1}")


def cmd_contour(cfg: RunConfig, args, out: Path, run: dict) -> None:
    sec = cfg.values.get("contour", {})
    fluxes = np.linspace(sec.get("flux_min", 2.0), sec.get("flux_max", 100.0),
                         sec.get("flux_points", 50))
    delays = np.linspace(sec.get("delay_min", 0.0),
                         sec.get("delay_max", 200.0),
                         sec.get("delay_points", 201))
    matrix = contour_flux_delay(cfg.detector, cfg.environment, fluxes, delays)
    io.write_contour_csv(out / "contour.csv", fluxes, delays, matrix)
    threshold = cfg.values.get("feasibility", {}).get("qber_threshold",
                                                      QBER_THRESHOLD)
    svg.heatmap(out / "contour.svg", delays, fluxes, matrix,
                "target-gate QBER vs flux and delay", "delay (ps)",
                "flux (photons/pulse)", iso=threshold)
    region = sub_threshold_region(matrix, threshold)
    if region.any():
        i_min = int(np.argmax(region.any(axis=1)))
        print(f"QBER below {threshold} first reached at flux "
              f"{fluxes[i_min]:.1f}")
    else:
        print(f"no cell below QBER {threshold}")


def cmd_partial_attack(cfg: RunConfig, args, out: Path, run: dict) -> None:
    sec = cfg.values.get("partial_attack", {})
    q_attack = sec.get("q_attack")
    q_baseline = sec.get("q_baseline")
    if q_attack is None:
        points = _sweep_points(cfg)
        q_attack = float(np.nanmin([p.q_with_dd for p in points]))
    if q_baseline is None:
        q_baseline = noise_qber(
            cfg.detector, cfg.environment,
            cfg.values.get("scenario", {}).get("signal_flux", 0.1))
    q_attack = min(q_attack, 0.5)
    fractions = np.linspace(0.0, 1.0, sec.get("fraction_points", 101))
    rows = partial_attack_rates(q_attack, q_baseline, fractions)
    io.write_partial_attack_csv(out / "partial_attack.csv", rows)
    svg.line_chart(out / "partial_attack.svg", fractions,
                   {"combined rate": [r[1] for r in rows],
                    "always-attack rate": [r[2] for r in rows]},
                   "key rate vs attacked fraction", "attacked fraction",
                   "key rate")
    io.write_json(out / "partial_attack.json", {
        "q_attack": q_attack, "q_baseline": q_baseline,
        "rate_baseline": key_rate(q_baseline).rate,
        "rate_attack": key_rate(q_attack).rate,
    })
    print(f"q_attack={q_attack:.4f} q_baseline={q_baseline:.4f}; "
          f"combined rate at f=0.5: {rows[len(rows) // 2][1]:.4f}")


def cmd_feasibility(cfg: RunConfig, args, out: Path, run: dict) -> None:
    sec = cfg.values.get("feasibility", {})
    freqs = np.geomspace(sec.get("freq_min", 1e7), sec.get("freq_max", 5e9),
                         sec.get("freq_points", 50))
    temps = sec.get("temperatures", [cfg.environment.temperature])
    threshold = sec.get("qber_threshold", QBER_THRESHOLD)
    sc = cfg.values.get("scenario", {})
    summary = {}
    for temp in temps:
        env = type(cfg.environment)(
            temperature=temp,
            excess_bias_fraction=cfg.environment.excess_bias_fraction)
        verdicts = feasibility_band(
            freqs, env, cfg.detector,
            signal_flux=sc.get("signal_flux", 0.1),
            attack_flux=sc.get("attack_flux", 20.0), threshold=threshold)
        tag = f"{temp:g}K"
        io.write_feasibility_csv(out / f"feasibility_{tag}.csv", verdicts)
        svg.band_chart(out / f"feasibility_{tag}.svg", freqs,
                       [v.q_noise for v in verdicts],
                       [v.q_attack for v in verdicts],
                       [v.classification for v in verdicts],
                       f"gating-frequency feasibility at {temp:g} K",
                       threshold)
        interval = suitable_interval(verdicts)
        summary[tag] = {
            "suitable_min_hz": interval[0] if interval else None,
            "suitable_max_hz": interval[1] if interval else None,
        }
        print(f"{tag}: suitable band "
              f"{interval[0]:.3e}..{interval[1]:.3e} Hz" if interval
              else f"{tag}: no suitable band on the grid")
    io.write_json(out / "feasibility_summary.json", summary)


_COMMANDS = {
    "histogram": cmd_histogram,
    "arrhenius": cmd_arrhenius,
    "sweep": cmd_sweep,
    "attack-hist": cmd_attack_hist,
    "gate2": cmd_gate2,
    "contour": cmd_contour,
    "partial-attack": cmd_partial_attack,
    "feasibility": cmd_feasibility,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, overrides=args.overrides)
        run = _run_section(cfg, args)
        out = _outdir(args, run)
        _COMMANDS[args.command](cfg, args, out, run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (LifetimeExtractionError, NoSignalError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
