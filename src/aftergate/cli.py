"""Command-line front end.

One configuration file drives each run; individual keys can be overridden
with --set section.key=value. Every command writes CSV (and JSON where a
verdict is involved) plus a simple SVG rendering into the output directory.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
`entry` is the process entry (the `aftergate` script and `python -m
aftergate.cli`); `main` is for in-process callers.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io, svg
from .attack import (NoSignalError, attack_histogram, contour_flux_delay,
                     gate2_vs_delay, key_rate, partial_attack_rates,
                     sub_threshold_region, sweep_delay)
# build_histogram is unused here; bench/tracer.py wraps it under this name.
from .characterization import arrhenius_fit, build_histogram  # noqa: F401
from .config import ConfigError, RunConfig, load_config
from .feasibility import feasibility_band, noise_qber, suitable_interval
from .montecarlo import simulate_pulse_train
from .detector import K_BOLTZMANN_EV, PulseSpec


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
    parser.add_argument("--out", dest="output_dir", metavar="OUT",
                        default=None, help="override run.output_dir")
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="override run.trials")
    parser.add_argument("--workers", type=int, default=None,
                        help="override run.workers (accepted, selects "
                             "nothing)")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides",
                        help="override a config key, e.g. "
                             "--set detector.dark_count_prob=1e-4")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    sub.choices["arrhenius"].add_argument(
        "--input", type=Path, required=True,
        help="CSV with temperature_k,lifetime_ps columns")
    return parser


def _sweep_points(cfg: RunConfig, column: str = "q_target"):
    """The configured sweep; NoSignalError if `column` is NaN throughout."""
    sec = cfg.values["sweep"]
    delays = np.linspace(sec["delay_min"], sec["delay_max"],
                         sec["delay_points"])
    points = sweep_delay(cfg.detector, cfg.values["scenario"]["flux_full"],
                         delays, cfg.environment)
    if np.all(np.isnan(points[column])):
        raise NoSignalError(f"no detections at any delay: {column} undefined")
    return points


def _dip_delay(points) -> tuple[float, float]:
    i = int(np.nanargmin(points.q_target))
    return float(points.delay[i]), float(points.q_target[i])


def cmd_histogram(cfg: RunConfig, args, out: Path) -> None:
    sec = cfg.values["histogram"]
    run = cfg.values["run"]
    gates = sec["gates"]
    pulse = PulseSpec(mean_flux=cfg.values["scenario"]["signal_flux"],
                      delay=sec["pulse_delay"])
    counts = simulate_pulse_train(
        cfg.detector, [(0, pulse)], cfg.environment, trials=run["trials"],
        seed=run["seed"], window=gates, dead_time=sec["dead_time"])
    io.write_histogram_csv(out / "histogram.csv", counts, run["trials"])
    svg.bar_chart(out / "histogram.svg",
                  [str(i + 1) for i in range(gates)], counts,
                  "per-gate click counts", "gate index", "counts")
    print(f"wrote {out / 'histogram.csv'} and histogram.svg "
          f"(gate 1 count {int(counts[0])})")


def cmd_arrhenius(cfg: RunConfig, args, out: Path) -> None:
    temps, lifetimes = io.read_arrhenius_csv(args.input)
    fit = arrhenius_fit(temps, lifetimes)
    io.write_json(out / "arrhenius_fit.json", {
        "activation_energy_ev": fit.activation_energy,
        "tau0_ps": fit.lifetime_prefactor,
        "residual": fit.residual_norm,
    })
    inv_t = 1.0 / temps
    fit_y = (fit.activation_energy / K_BOLTZMANN_EV * inv_t
             + np.log(fit.lifetime_prefactor))
    svg.line_chart(out / "arrhenius.svg", inv_t,
                   {"ln(lifetime)": np.log(lifetimes), "fit": fit_y},
                   "Arrhenius fit", "1/T (1/K)", "ln(lifetime / ps)")
    print(f"activation energy {fit.activation_energy * 1e3:.2f} meV, "
          f"prefactor {fit.lifetime_prefactor:.2f} ps, "
          f"residual {fit.residual_norm:.3g}")


def cmd_sweep(cfg: RunConfig, args, out: Path) -> None:
    points = _sweep_points(cfg)
    io.write_sweep_csv(out / "sweep.csv", points)
    threshold = cfg.values["feasibility"]["qber_threshold"]
    svg.line_chart(out / "sweep.svg", points.delay,
                   {"target-gate QBER": points.q_target,
                    "with delayed detection": points.q_with_dd},
                   "QBER vs pulse delay", "delay (ps)", "QBER",
                   hline=threshold)
    delay, q_min = _dip_delay(points)
    q_dd_min = float(np.nanmin(points.q_with_dd))
    summary = {
        "min_q_target": q_min,
        "min_q_target_delay_ps": delay,
        "min_q_with_dd": q_dd_min,
        "q_target_below_0.21": q_min < 0.21,
        "attack_undetected_without_dd": q_min < threshold,
        "attack_detected_with_dd": q_dd_min > threshold,
        "threshold": threshold,
    }
    io.write_json(out / "sweep_summary.json", summary)
    print(f"min target QBER {q_min:.4f} at {delay:.2f} ps; "
          f"min corrected QBER {q_dd_min:.4f}")


def cmd_attack_hist(cfg: RunConfig, args, out: Path) -> None:
    gates = cfg.values["histogram"]["gates"]
    if gates < 2:
        raise ConfigError("attack-hist needs histogram.gates >= 2")
    delay, _ = _dip_delay(_sweep_points(cfg))
    flux = cfg.values["scenario"]["flux_full"]
    hists = {}
    for power, f in (("full", flux), ("half", flux / 2.0)):
        hists[power] = attack_histogram(cfg.detector, f, delay,
                                        cfg.environment, gates)
        io.write_histogram_csv(out / f"attack_hist_{power}.csv", hists[power])
    svg.line_chart(out / "attack_hist.svg",
                   list(range(1, gates + 1)),
                   {"full power": hists["full"], "half power": hists["half"]},
                   f"per-gate detection probability at delay "
                   f"{delay:.1f} ps", "gate index", "probability")
    g1, g2 = hists["full"][:2]
    print(f"attack delay {delay:.2f} ps: full-power gate2/gate1 = "
          f"{g2 / g1:.4f}; half-power gate2 > gate1: "
          f"{hists['half'][1] > hists['half'][0]}")


def cmd_gate2(cfg: RunConfig, args, out: Path) -> None:
    sec = cfg.values["gate2"]
    det = cfg.detector
    # from the end of the trigger's flat top into the inter-gate gap
    delays = np.linspace(det.trigger_flat_fraction * det.timing.gate_width,
                         0.96 * det.timing.gate_period, sec["delay_points"])
    flux = cfg.values["scenario"]["flux_full"]
    points = gate2_vs_delay(det, flux, delays, cfg.environment)
    io.write_gate2_csv(out / "gate2.csv", points)
    svg.line_chart(out / "gate2.svg", points.delay,
                   {"adjacent-gate probability": points.probability},
                   "adjacent-gate detection vs delay", "delay (ps)",
                   "probability")
    p = points.probability
    i = int(np.argmin(p))
    # a plateau at an end value is no interior minimum, wherever argmin
    # lands on it
    print(f"adjacent-gate curve: min {p[i]:.5f} at {points.delay[i]:.1f} ps, "
          f"interior minimum: {p[i] < p[0] and p[i] < p[-1]}")


def cmd_contour(cfg: RunConfig, args, out: Path) -> None:
    sec = cfg.values["contour"]
    fluxes = np.linspace(sec["flux_min"], sec["flux_max"], sec["flux_points"])
    delays = np.linspace(sec["delay_min"], sec["delay_max"],
                         sec["delay_points"])
    matrix = contour_flux_delay(cfg.detector, fluxes, delays)
    io.write_contour_csv(out / "contour.csv", fluxes, delays, matrix)
    threshold = cfg.values["feasibility"]["qber_threshold"]
    svg.heatmap(out / "contour.svg", delays, fluxes, matrix,
                "target-gate QBER vs flux and delay", "delay (ps)",
                "flux (photons/pulse)", iso=threshold)
    rows = sub_threshold_region(matrix, threshold).any(axis=1)
    if rows.any():
        # the smallest such flux, whichever way the grid runs
        print(f"QBER below {threshold} first reached at flux "
              f"{fluxes[rows].min():.1f}")
    else:
        print(f"no cell below QBER {threshold}")


def cmd_partial_attack(cfg: RunConfig, args, out: Path) -> None:
    q_with_dd = _sweep_points(cfg, "q_with_dd").q_with_dd
    q_attack = min(float(np.nanmin(q_with_dd)), 0.5)
    q_baseline = noise_qber(cfg.detector, cfg.environment,
                            cfg.values["scenario"]["signal_flux"])
    fractions = np.linspace(0.0, 1.0,
                            cfg.values["partial_attack"]["fraction_points"])
    rows = partial_attack_rates(q_attack, q_baseline, fractions)
    io.write_partial_attack_csv(out / "partial_attack.csv", rows)
    svg.line_chart(out / "partial_attack.svg", fractions,
                   {"combined rate": rows.combined_rate,
                    "always-attack rate": rows.full_attack_rate},
                   "key rate vs attacked fraction", "attacked fraction",
                   "key rate")
    io.write_json(out / "partial_attack.json", {
        "q_attack": q_attack, "q_baseline": q_baseline,
        "rate_baseline": key_rate(q_baseline),
        "rate_attack": key_rate(q_attack),
    })
    i = len(rows) // 2
    print(f"q_attack={q_attack:.4f} q_baseline={q_baseline:.4f}; "
          f"combined rate at f={fractions[i]:g}: {rows.combined_rate[i]:.4f}")


def cmd_feasibility(cfg: RunConfig, args, out: Path) -> None:
    sec = cfg.values["feasibility"]
    freqs = np.geomspace(sec["freq_min"], sec["freq_max"], sec["freq_points"])
    threshold = sec["qber_threshold"]
    sc = cfg.values["scenario"]
    summary = {}
    for temp in sec["temperatures"]:
        env = replace(cfg.environment, temperature=temp)
        band = feasibility_band(
            freqs, env, cfg.detector, signal_flux=sc["signal_flux"],
            attack_flux=sc["attack_flux"], threshold=threshold)
        tag = f"{temp:g}K"
        io.write_feasibility_csv(out / f"feasibility_{tag}.csv", band)
        svg.band_chart(out / f"feasibility_{tag}.svg", freqs, band.q_noise,
                       band.q_attack, band.classification,
                       f"gating-frequency feasibility at {temp:g} K",
                       threshold)
        interval = suitable_interval(band)
        summary[tag] = {
            "suitable_min_hz": interval[0] if interval else None,
            "suitable_max_hz": interval[1] if interval else None,
        }
        print(f"{tag}: suitable band "
              f"{interval[0]:.3e}..{interval[1]:.3e} Hz" if interval
              else f"{tag}: no suitable band on the grid")
    io.write_json(out / "feasibility_summary.json", summary)


# name -> (function, help), in the order `aftergate --help` lists them
_COMMANDS = {
    "histogram": (cmd_histogram, "simulate a pulse train and write the "
                                 "per-gate click histogram"),
    "arrhenius": (cmd_arrhenius, "fit lifetimes vs temperature"),
    "sweep": (cmd_sweep, "attack QBER vs pulse delay"),
    "attack-hist": (cmd_attack_hist, "per-gate probabilities under attack"),
    "gate2": (cmd_gate2, "adjacent-gate probability vs delay"),
    "contour": (cmd_contour, "QBER over a flux/delay grid"),
    "partial-attack": (cmd_partial_attack, "key rate vs attacked fraction"),
    "feasibility": (cmd_feasibility, "classify gating frequencies"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = args.overrides + [
            f"run.{key}={getattr(args, key)}"
            for key in ("seed", "trials", "workers", "output_dir")
            if getattr(args, key) is not None]
        cfg = load_config(args.config, overrides=overrides)
        out = Path(cfg.values["run"]["output_dir"])
        _COMMANDS[args.command][0](cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


def _exit_is_watched() -> bool:
    """Whether anything observes the interpreter's own exit: development
    mode's teardown warnings, a tracer or profiler that reports at exit
    (coverage, trace, cProfile), a thread the interpreter would wait for,
    the prompt of -i, or an interpreter without atexit._run_exitfuncs."""
    # from 3.12 cProfile and coverage may use sys.monitoring instead
    monitoring = getattr(sys, "monitoring", None)
    return bool(sys.flags.dev_mode or sys.flags.inspect
                or sys.gettrace() is not None or sys.getprofile() is not None
                or (monitoring is not None
                    and any(monitoring.get_tool(i) is not None
                            for i in range(6)))
                or threading.active_count() > 1
                or not hasattr(atexit, "_run_exitfuncs"))


def entry(argv=None) -> int:
    """main(argv) as a whole process, with stdout flushed under main's
    OSError rule. Unless something watches the interpreter's exit, the
    atexit handlers then run, stdout and stderr are flushed and the process
    ends with the exit code, without finalization. Otherwise the code is
    returned, and the interpreter finalizes the whole heap."""
    code = main(argv)
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter's own final flush would fail again, past the
            # exit code; a run that failed has reported its one line
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if code == 0:
                print(f"config error: {exc}", file=sys.stderr)
                code = 1
    if _exit_is_watched():
        return code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                # the run's own output was flushed under the contract above
                pass
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(entry())
