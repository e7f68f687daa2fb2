"""Benchmark workloads: the `aftergate` invocations each workload runs.

Every invocation runs in a fresh process on the packaged calibration, one
at a time (a closed loop with a single client).

Two workloads, so that each run can be long: on a shared host the CPU
speed can drift over tens of seconds, and a long run averages over it.
Each workload is the other's bypass case: `analytic` does no Monte Carlo
and `histogram` runs no analytic kernels and writes almost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    name: str                 # metric stem: `<name>_s` is its wall time
    args: tuple[str, ...]     # options and command after --out/--seed
    outputs: tuple[str, ...]  # files the command must write
    same_as: str | None = None  # sibling whose CSVs must match byte for byte

    def option(self, flag: str) -> list[str]:
        """Values given to `flag` in args, in order."""
        return [v for f, v in zip(self.args, self.args[1:]) if f == flag]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]

    def argv(self, inv: Invocation, outdir, seed: int) -> list[str]:
        return ["--out", str(outdir), "--seed", str(seed), *inv.args]


_HIST_OUT = ("histogram.csv", "histogram.svg")

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "analytic",
        "the six default analytic commands (bound by package import, no "
        "Monte Carlo) plus a 250x1001 contour bound by its 8 MB CSV and "
        "19 MB SVG writers",
        (
            Invocation("sweep", ("sweep",),
                       ("sweep.csv", "sweep_summary.json", "sweep.svg")),
            Invocation("contour", ("contour",),
                       ("contour.csv", "contour.svg")),
            Invocation("gate2", ("gate2",), ("gate2.csv", "gate2.svg")),
            Invocation("attack_hist", ("attack-hist",),
                       ("attack_hist_full.csv", "attack_hist_half.csv",
                        "attack_hist.svg")),
            Invocation("partial_attack", ("partial-attack",),
                       ("partial_attack.csv", "partial_attack.json",
                        "partial_attack.svg")),
            Invocation("feasibility", ("feasibility",),
                       ("feasibility_293.15K.csv", "feasibility_223.15K.csv",
                        "feasibility_293.15K.svg", "feasibility_223.15K.svg",
                        "feasibility_summary.json")),
            Invocation("contour_large",
                       ("--set", "contour.flux_points=250",
                        "--set", "contour.delay_points=1001", "contour"),
                       ("contour.csv", "contour.svg")),
        ),
    ),
    Workload(
        "histogram",
        "Monte Carlo histograms: 2e6 faint-pulse trials at 1 then 2 workers "
        "(sampling-bound, few click records), then 1e6 bright-pulse trials "
        "(~440k records: the dead-time filter dominates)",
        (
            Invocation("histogram",
                       ("--trials", "2000000", "--workers", "1", "histogram"),
                       _HIST_OUT),
            Invocation("histogram_w2",
                       ("--trials", "2000000", "--workers", "2", "histogram"),
                       _HIST_OUT, same_as="histogram"),
            Invocation("histogram_bright",
                       ("--trials", "1000000", "--workers", "1",
                        "--set", "scenario.signal_flux=2.0", "histogram"),
                       _HIST_OUT),
        ),
    ),
)}
