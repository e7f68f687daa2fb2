"""Command-line interface: artifacts, determinism, exit codes."""

import configparser
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aftergate
from aftergate.cli import main
from aftergate.config import _REQUIRED_SECTIONS, _SCHEMA, default_config_path
from aftergate.detector import click_probability_array

KB = 8.617e-5

FAST = ["--set", "sweep.delay_points=241",
        "--set", "contour.flux_points=20",
        "--set", "contour.delay_points=51",
        "--set", "feasibility.freq_points=10",
        "--set", "histogram.gates=10"]


# no light reaches the discriminator, and no dark counts
NO_LIGHT = ["--set", "detector.detection_efficiency=0",
            "--set", "detector.dark_count_prob=0"]
# every sweep delay in the inter-gate gap, so no target-gate clicks
GAP = ["--set", "sweep.delay_min=170", "--set", "sweep.delay_max=240",
       "--set", "detector.dark_count_prob=0"]


def run(tmp_path, *args, trials=20000, seed=3):
    return main(["--out", str(tmp_path), "--trials", str(trials),
                 "--seed", str(seed), *FAST, *args])


def child_env():
    """The environment for a child Python that imports this aftergate."""
    src = str(Path(aftergate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_child(argv, address_space=None, timeout=60, python_flags=(),
              env=None):
    """cli.main(argv) in a fresh process started with python_flags and the
    extra variables `env`. Its output is captured at the file descriptors,
    so lines that native code writes there count too. address_space (bytes)
    limits that process alone; one BLAS thread keeps the library's own
    reservation small."""
    code = "import resource, sys\n"
    if address_space:
        code += (f"resource.setrlimit(resource.RLIMIT_AS, "
                 f"({address_space}, {address_space}))\n")
    code += ("from aftergate.cli import main\n"
             f"sys.exit(main({[str(a) for a in argv]!r}))\n")
    return subprocess.run([sys.executable, *python_flags, "-c", code],
                          capture_output=True, text=True, timeout=timeout,
                          env={**child_env(), "OPENBLAS_NUM_THREADS": "1",
                               **(env or {})})


class TestHistogramCommand:
    def test_writes_files_gate1_dominant(self, tmp_path):
        assert run(tmp_path, "histogram") == 0
        csv_path = tmp_path / "histogram.csv"
        assert csv_path.exists()
        assert (tmp_path / "histogram.svg").exists()
        rows = csv_path.read_text().splitlines()[1:]
        counts = [int(r.split(",")[1]) for r in rows]
        assert counts[0] > 5 * max(counts[1:])

    def test_same_seed_byte_identical(self, tmp_path):
        run(tmp_path / "a", "histogram")
        run(tmp_path / "b", "histogram")
        assert (tmp_path / "a" / "histogram.csv").read_bytes() == \
            (tmp_path / "b" / "histogram.csv").read_bytes()

    def test_zero_trials_is_config_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "--trials", "0", "histogram"])
        assert code == 1
        assert capsys.readouterr().err.strip().count("\n") == 0


class TestArrheniusCommand:
    def test_exact_fit(self, tmp_path):
        pts = tmp_path / "pts.csv"
        lines = ["temperature_k,lifetime_ps"]
        for t in (223.15, 258.15, 293.15):
            lines.append(f"{t},{50.0 * math.exp(0.030 / (KB * t))}")
        pts.write_text("\n".join(lines) + "\n")
        assert run(tmp_path, "arrhenius", "--input", str(pts)) == 0
        fit = json.loads((tmp_path / "arrhenius_fit.json").read_text())
        assert fit["activation_energy_ev"] == pytest.approx(0.030, rel=1e-9)
        assert fit["tau0_ps"] == pytest.approx(50.0, rel=1e-9)
        assert fit["residual"] < 1e-10
        assert (tmp_path / "arrhenius.svg").exists()

    def test_single_temperature_is_numerical_failure(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("temperature_k,lifetime_ps\n"
                       "293.15,480.0\n293.15,500.0\n")
        assert run(tmp_path, "arrhenius", "--input", str(pts)) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_other_columns_change_no_output_byte(self, tmp_path):
        rows = [(223.15, 900.5), (258.15, 610.25), (293.15, 480.0)]
        plain, extra = tmp_path / "plain.csv", tmp_path / "extra.csv"
        plain.write_text("temperature_k,lifetime_ps\n"
                         + "".join(f"{t},{tau}\n" for t, tau in rows))
        extra.write_text("note,temperature_k,lifetime_ps,bias\n"
                         + "".join(f"x,{t},{tau},0.5\n" for t, tau in rows))
        for name, pts in (("plain", plain), ("extra", extra)):
            assert run(tmp_path / name, "arrhenius", "--input", str(pts)) == 0
        for out in ("arrhenius_fit.json", "arrhenius.svg"):
            assert (tmp_path / "plain" / out).read_bytes() == \
                (tmp_path / "extra" / out).read_bytes()

    @pytest.mark.parametrize("bad", ["0", "-1", "inf", "nan"])
    @pytest.mark.parametrize("column", ["temperature", "lifetime"])
    def test_bad_value_fails_on_one_line(self, tmp_path, column, bad):
        # 1/T = 0 for an infinite temperature, which used to fit silently;
        # a NaN reached LAPACK, which wrote six lines to fd 1 itself
        rows = {"temperature": ["223.15", "293.15", "258.15"],
                "lifetime": ["600", "300", "400"]}
        rows[column][2] = bad
        pts = tmp_path / "pts.csv"
        pts.write_text("temperature_k,lifetime_ps\n" + "".join(
            f"{t},{tau}\n" for t, tau in zip(*rows.values())))
        out = tmp_path / "out"
        proc = run_child(["--out", out, "arrhenius", "--input", pts])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_missing_input_is_config_error(self, tmp_path):
        assert run(tmp_path, "arrhenius", "--input",
                   str(tmp_path / "nope.csv")) == 1


class TestSweepCommand:
    def test_summary_verdicts(self, tmp_path):
        assert run(tmp_path, "sweep") == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert 0.05 <= summary["min_q_target"] <= 0.10
        assert summary["min_q_with_dd"] > 0.11
        assert summary["attack_undetected_without_dd"] is True
        assert summary["attack_detected_with_dd"] is True
        assert summary["q_target_below_0.21"] is True
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == ("delay_ps,p_f,p_h,p_dd_f,p_dd_h,p_dd_bar,"
                          "q_target,q_with_dd")
        assert (tmp_path / "sweep.svg").exists()


def _user_config(tmp_path, drop, **scenario):
    """The packaged file without the sections in `drop`, plus a [scenario]
    holding only `scenario` when that is given."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(default_config_path())
    for section in drop:
        parser.remove_section(section)
    if scenario:
        parser.read_dict({"scenario": scenario})
    path = tmp_path / "user.ini"
    with path.open("w") as fh:
        parser.write(fh)
    return path


class TestPackagedDefaults:
    # section -> (command, output file, its line count at the packaged values)
    SHIPPED = {
        "sweep": ("sweep", "sweep.csv", 1 + 961),
        "contour": ("contour", "contour.csv", 1 + 50 * 201),
        "gate2": ("gate2", "gate2.csv", 1 + 300),
        "partial_attack": ("partial-attack", "partial_attack.csv", 1 + 101),
        "feasibility": ("feasibility", "feasibility_223.15K.csv", 1 + 50),
        "histogram": ("histogram", "histogram.csv", 1 + 12),
        "run": ("histogram", "histogram.csv", 1 + 12),
    }

    @pytest.mark.parametrize("section", list(SHIPPED))
    def test_config_without_section_uses_default_ini(self, tmp_path,
                                                     section):
        command, name, lines = self.SHIPPED[section]
        cfg = _user_config(tmp_path, [section])
        assert main(["--config", str(cfg), "--out", str(tmp_path / "user"),
                     command]) == 0
        assert main(["--out", str(tmp_path / "packaged"), command]) == 0
        written = (tmp_path / "user" / name).read_bytes()
        assert written == (tmp_path / "packaged" / name).read_bytes()
        assert len(written.splitlines()) == lines

    def test_flux_half_follows_user_flux_full(self, tmp_path, det):
        drop = [s for s in _SCHEMA if s not in _REQUIRED_SECTIONS]
        cfg = _user_config(tmp_path, drop, flux_full="60")
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "sweep"]) == 0
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        delays = np.array([float(r[0]) for r in rows])
        p_h = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(
            p_h, click_probability_array(det, 30.0, delays), rtol=1e-11)

    def test_seed_flag_beats_set_run_seed(self, tmp_path):
        args = ["--trials", "20000", "histogram"]
        assert main(["--out", str(tmp_path / "a"), "--seed", "5",
                     "--set", "run.seed=9", *args]) == 0
        assert main(["--out", str(tmp_path / "b"), "--seed", "5", *args]) == 0
        assert (tmp_path / "a" / "histogram.csv").read_bytes() == \
            (tmp_path / "b" / "histogram.csv").read_bytes()


class TestOtherCommands:
    def test_attack_hist(self, tmp_path):
        assert run(tmp_path, "attack-hist") == 0
        for name in ("attack_hist_full.csv", "attack_hist_half.csv",
                     "attack_hist.svg"):
            assert (tmp_path / name).exists()

    def test_gate2(self, tmp_path):
        assert run(tmp_path, "gate2") == 0
        rows = (tmp_path / "gate2.csv").read_text().splitlines()
        assert rows[0] == "delay_ps,probability"
        assert len(rows) == 301

    @pytest.mark.parametrize("argv, interior", [
        ([], "True"),
        # without interface trapping the curve falls to a plateau
        (["--set", "traps.interface.capture_fraction_photo=0"], "False"),
    ], ids=["both_species", "multiplication_only"])
    def test_gate2_interior_minimum(self, tmp_path, capsys, argv, interior):
        assert main(["--out", str(tmp_path), *argv, "gate2"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"interior minimum: {interior}\n")
        p = np.array([float(r.split(",")[1]) for r in
                      (tmp_path / "gate2.csv").read_text().splitlines()[1:]])
        assert (p.min() < min(p[0], p[-1])) == (interior == "True")

    def test_contour_grid_complete(self, tmp_path):
        assert run(tmp_path, "contour") == 0
        rows = (tmp_path / "contour.csv").read_text().splitlines()
        assert rows[0] == "flux,delay_ps,q_target"
        assert len(rows) == 1 + 20 * 51
        assert (tmp_path / "contour.svg").exists()

    def test_partial_attack(self, tmp_path):
        assert run(tmp_path, "partial-attack") == 0
        rows = (tmp_path / "partial_attack.csv").read_text().splitlines()
        assert rows[0] == "fraction,combined_rate,full_attack_rate"
        assert len(rows) == 102

    def test_contour_reports_smallest_flux_either_way(self, tmp_path,
                                                      capsys):
        # the same 2...1000 grid, ascending and descending
        lines = []
        for lo, hi in ((2, 1000), (1000, 2)):
            assert main(["--out", str(tmp_path / f"{lo}"),
                         "--set", f"contour.flux_min={lo}",
                         "--set", f"contour.flux_max={hi}", "contour"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0].startswith("QBER below 0.11 first reached at flux ")
        assert lines[1] == lines[0]

    @pytest.mark.parametrize("points, fraction", [
        (101, "0.5"), (4, "0.666667"), (2, "1")])
    def test_partial_attack_prints_the_fraction_it_reads(self, tmp_path,
                                                         capsys, points,
                                                         fraction):
        assert run(tmp_path, "--set",
                   f"partial_attack.fraction_points={points}",
                   "partial-attack") == 0
        printed = capsys.readouterr().out.split("combined rate at f=")[1]
        f, rate = printed.strip().split(": ")
        assert f == fraction
        rows = csv.DictReader((tmp_path / "partial_attack.csv").read_text(
            encoding="utf-8").splitlines())
        row, = [r for r in rows if format(float(r["fraction"]), "g") == f]
        assert rate == f"{float(row['combined_rate']):.4f}"

    def test_feasibility(self, tmp_path):
        assert run(tmp_path, "feasibility") == 0
        assert (tmp_path / "feasibility_293.15K.csv").exists()
        assert (tmp_path / "feasibility_223.15K.csv").exists()
        summary = json.loads(
            (tmp_path / "feasibility_summary.json").read_text())
        assert "293.15K" in summary and "223.15K" in summary


class TestErrorPaths:
    def test_unknown_override_is_config_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "--set", "detector.bogus=1",
                     "sweep"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "none.ini"), "sweep"])
        assert code == 1

    def test_usage_error_is_config_error(self, tmp_path, capsys):
        assert main(["no-such-command"]) == 1

    def test_gate2_delay_outside_period_is_numerical_failure(self, tmp_path,
                                                             capsys):
        code = run(tmp_path, "--set", "sweep.delay_max=5000", "sweep")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "delay grid" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--set", "sweep.delay_max=5000", "sweep"],
        ["--set", "contour.delay_max=5000", "contour"],
    ])
    def test_numerical_failure_leaves_no_output_directory(self, tmp_path,
                                                          capsys, argv):
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        [*NO_LIGHT, "sweep"], [*NO_LIGHT, "attack-hist"],
        [*NO_LIGHT, "partial-attack"], [*GAP, "sweep"], [*GAP, "attack-hist"],
    ], ids=["no_light-sweep", "no_light-attack-hist",
            "no_light-partial-attack", "gap-sweep", "gap-attack-hist"])
    def test_no_signal_sweep_is_one_line_failure(self, tmp_path, capsys,
                                                 argv):
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: no detections at any delay")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_gap_sweep_still_gives_partial_attack(self, tmp_path):
        # q_with_dd is defined from delayed clicks alone, q_target is not
        assert main(["--out", str(tmp_path), *GAP, "partial-attack"]) == 0
        assert (tmp_path / "partial_attack.json").exists()

    def test_empty_feasibility_temperatures_is_config_error(self, tmp_path,
                                                            capsys):
        code = run(tmp_path, "--set", "feasibility.temperatures=",
                   "feasibility")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "feasibility.temperatures" in err
        assert not (tmp_path / "feasibility_summary.json").exists()

    def test_colliding_feasibility_temperatures_is_config_error(self,
                                                                tmp_path,
                                                                capsys):
        # both would be written as feasibility_293.15K.*
        code = run(tmp_path, "--set",
                   "feasibility.temperatures=293.15, 293.1501",
                   "feasibility")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "feasibility.temperatures" in err
        assert not list(tmp_path.glob("feasibility_*"))

    @pytest.mark.parametrize("key, argv", [
        ("sweep.delay_points", ["--set", "sweep.delay_points=0", "sweep"]),
        ("gate2.delay_points", ["--set", "gate2.delay_points=0", "gate2"]),
        ("partial_attack.fraction_points",
         ["--set", "partial_attack.fraction_points=0", "partial-attack"]),
        ("feasibility.freq_points",
         ["--set", "feasibility.freq_points=0", "feasibility"]),
        ("histogram.gates", ["--set", "histogram.gates=0", "histogram"]),
        ("contour.flux_points", ["--set", "contour.flux_points=0", "contour"]),
        ("contour.delay_points",
         ["--set", "contour.delay_points=-3", "contour"]),
        ("run.workers", ["--workers", "0", "histogram"]),
        ("run.trials", ["--trials", "-1", "histogram"]),
        ("run.seed", ["--seed", "-5", "histogram"]),
        ("run.seed", ["--seed", str(2 ** 64), "histogram"]),
        # fluxes, temperatures and grid fluxes must be > 0, dead time >= 0
        ("scenario.flux_full", ["--set", "scenario.flux_full=-5", "gate2"]),
        ("scenario.signal_flux",
         ["--set", "scenario.signal_flux=-1", "partial-attack"]),
        ("scenario.attack_flux",
         ["--set", "scenario.attack_flux=-1", "feasibility"]),
        ("contour.flux_min", ["--set", "contour.flux_min=0", "contour"]),
        ("contour.flux_max", ["--set", "contour.flux_max=-2", "contour"]),
        ("feasibility.temperatures",
         ["--set", "feasibility.temperatures=-5", "feasibility"]),
        ("feasibility.temperatures",
         ["--set", "feasibility.temperatures=293.15, 0", "feasibility"]),
        ("histogram.dead_time",
         ["--set", "histogram.dead_time=-1", "histogram"]),
        # the binomial draw takes an int64 count
        ("run.trials", ["--trials", str(2 ** 63), "histogram"]),
        # a QBER threshold lies strictly between 0 and 0.5
        ("feasibility.qber_threshold",
         ["--set", "feasibility.qber_threshold=0", "contour"]),
        ("feasibility.qber_threshold",
         ["--set", "feasibility.qber_threshold=-1", "feasibility"]),
        ("feasibility.qber_threshold",
         ["--set", "feasibility.qber_threshold=0.5", "partial-attack"]),
        ("feasibility.qber_threshold",
         ["--set", "feasibility.qber_threshold=2", "sweep"]),
        # a clock so slow that its period overflows to inf
        ("detector.gating_frequency",
         ["--set", "detector.gating_frequency=1e-300", "gate2"]),
        ("detector.gating_frequency",
         ["--set", "detector.gating_frequency=1e-300", "histogram"]),
        # the lowest feasibility clock obeys the same rule
        *(("feasibility.freq_min",
           ["--set", f"feasibility.freq_min={lo}", "feasibility"])
          for lo in ("1e-300", "1e-320", "5e-324")),
        # the model objects' own range checks name their section
        ("traps.multiplication.lifetime_prefactor",
         ["--set", "traps.multiplication.lifetime_prefactor=0", "sweep"]),
        ("traps.interface.activation_energy",
         ["--set", "traps.interface.activation_energy=-1", "gate2"]),
        ("detector.detection_efficiency",
         ["--set", "detector.detection_efficiency=2", "sweep"]),
        ("detector.gain_floor", ["--set", "detector.gain_floor=0", "contour"]),
        ("detector.trigger_flat_fraction",
         ["--set", "detector.trigger_flat_fraction=0", "gate2"]),
        ("environment.temperature",
         ["--set", "environment.temperature=-5", "histogram"]),
    ])
    def test_count_and_seed_out_of_range_is_config_error(self, tmp_path,
                                                         capsys, key, argv):
        code = main(["--out", str(tmp_path), *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--set", "histogram.pulse_delay=5000"],
        ["--set", "histogram.pulse_delay=-1"],
        ["--set", "histogram.pulse_delay=1000"],
        # 2 GHz gating: the period is 500 ps
        ["--set", "detector.gating_frequency=2e9",
         "--set", "histogram.pulse_delay=600"],
    ])
    def test_pulse_delay_outside_period_is_config_error(self, tmp_path,
                                                        capsys, argv):
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv, "histogram"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "histogram.pulse_delay" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("feasibility.qber_threshold", "nan"),
        ("detector.dark_count_prob", "nan"),
        ("traps.multiplication.retention_strength", "inf"),
        ("sweep.delay_max", "inf"),
        ("feasibility.temperatures", "293.15, nan"),
    ])
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, key,
                                              value):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--set", f"{key}={value}",
                     "sweep"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi, points", [
        ("5e9", "1e7", "50"), ("0", "5e9", "50"), ("-1e7", "5e9", "50"),
        ("1e9", "1e9", "50")])
    def test_bad_frequency_range_is_config_error(self, tmp_path, capsys, lo,
                                                 hi, points):
        out = tmp_path / "out"
        code = main(["--out", str(out), "--set", f"feasibility.freq_min={lo}",
                     "--set", f"feasibility.freq_max={hi}",
                     "--set", f"feasibility.freq_points={points}",
                     "feasibility"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "feasibility.freq_min" in err and "feasibility.freq_max" in err
        assert not out.exists()

    def test_single_frequency_range_accepted(self, tmp_path):
        assert main(["--out", str(tmp_path),
                     "--set", "feasibility.freq_min=1e9",
                     "--set", "feasibility.freq_max=1e9",
                     "--set", "feasibility.freq_points=1",
                     "--set", "feasibility.temperatures=293.15",
                     "feasibility"]) == 0
        rows = (tmp_path / "feasibility_293.15K.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("1000000000,")

    @pytest.mark.parametrize("section, key", [
        ("environment", "excess_bias_fraction"),
        ("traps.interface", "capture_per_avalanche_charge"),
        ("traps.interface", "retention_strength"),
        ("traps.multiplication", "capture_fraction_photo"),
        # derived values: each command computes them from the model
        ("scenario", "flux_half"),
        ("scenario", "attack_delay"),
        ("gate2", "delay_min"),
        ("gate2", "delay_max"),
        ("partial_attack", "q_attack"),
        ("partial_attack", "q_baseline"),
    ])
    @pytest.mark.parametrize("via", ["file", "set"])
    def test_removed_inert_key_is_config_error(self, tmp_path, capsys,
                                               section, key, via):
        if via == "set":
            args = ["--set", f"{section}.{key}=0"]
        else:
            path = tmp_path / "run.ini"
            path.write_text(default_config_path().read_text().replace(
                f"[{section}]\n", f"[{section}]\n{key} = 0\n"))
            args = ["--config", str(path)]
        out = tmp_path / "out"
        assert main(["--out", str(out), *args, "sweep"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err and f"[{section}]" in err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", str(2 ** 64 - 1),
                     "--trials", "1000", "histogram"]) == 0

    @pytest.mark.parametrize("trials", [10 ** 12, 2 ** 63 - 1])
    def test_huge_trial_count_runs_in_seconds(self, tmp_path, trials):
        # the engine makes one binomial draw per gate whatever the trial
        # count, up to the int64 limit
        proc = run_child(["--out", tmp_path, "--trials", trials, "histogram"],
                         timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "histogram.csv").exists()

    def test_huge_discrimination_threshold_runs(self, tmp_path):
        # threshold counts reach 1e8 here; poisson_tail once tabulated
        # lgamma over every integer below them and ran out of memory
        proc = run_child(["--out", tmp_path, "--set",
                          "detector.discrimination_threshold=1e7", "sweep"],
                         address_space=3 << 30)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv, code, stderr", [
        (["--set", "histogram.gates=1", "attack-hist"], 1,
         "config error: attack-hist needs histogram.gates >= 2\n"),
        (["--config", "{tmp}/latin1.ini", "sweep"], 1,
         "config error: malformed config file "),
        *[(["--set", "environment.temperature=1e-3", command], 0, "")
          for command in ("sweep", "histogram", "gate2", "attack-hist",
                          "partial-attack")],
        (["--set", "feasibility.temperatures=1e-3", "feasibility"], 0, ""),
        *[(["--set", "environment.temperature=1e-322", command], 0, "")
          for command in ("sweep", "histogram")],
        (["--set", "detector.gain_floor=1e-320",
          "--set", "scenario.flux_full=1e5", "sweep"], 0, ""),
        (["--set", "feasibility.freq_max=1e300", "feasibility"], 0, ""),
    ], ids=["attack_hist_one_gate", "non_utf8_config", "cold_sweep",
            "cold_histogram", "cold_gate2", "cold_attack_hist",
            "cold_partial_attack", "cold_feasibility", "underflow_sweep",
            "underflow_histogram", "infinite_threshold_sweep",
            "huge_clock_feasibility"])
    def test_edge_input_keeps_exit_contract(self, tmp_path, argv, code,
                                            stderr):
        # these once ended in a traceback: attack-hist with one gate after
        # writing its files, 1e-3 K in trap_lifetime's math.exp and 1e-322 K
        # in its division by k_B T; a non-UTF-8 config was reported as a
        # numerical failure. A subnormal gain floor makes threshold counts
        # infinite, whose Poisson tail once read NaN; a 1e300 Hz clock once
        # overflowed the feasibility chart's cell edges.
        (tmp_path / "latin1.ini").write_bytes(b"[detector]\nunit = \xb5s\n")
        out = tmp_path / "out"
        proc = run_child(["--out", out, "--trials", "20000",
                          *[a.format(tmp=tmp_path) for a in argv]],
                         python_flags=["-W", "error"])
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(stderr)
        assert proc.stderr.count("\n") == (code != 0)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 745. GiB for an array with shape "
                    "(100000000000,) and data type float64"),
        MemoryError()])
    def test_memory_error_is_numerical_failure(self, tmp_path, capsys,
                                               monkeypatch, exc):
        import aftergate.cli as cli

        def exhausted(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "simulate_pulse_train", exhausted)
        assert main(["--out", str(tmp_path), "histogram"]) == 2
        expected = str(exc) or "MemoryError"
        assert capsys.readouterr().err == f"numerical failure: {expected}\n"
        assert not (tmp_path / "histogram.csv").exists()

    def test_set_run_output_dir(self, tmp_path):
        assert main(["--set", f"run.output_dir={tmp_path / 'set'}",
                     "--trials", "2000", *FAST, "histogram"]) == 0
        assert (tmp_path / "set" / "histogram.csv").exists()

    def test_out_flag_beats_set_run_output_dir(self, tmp_path):
        assert main(["--out", str(tmp_path / "a"),
                     "--set", f"run.output_dir={tmp_path / 'b'}",
                     "--trials", "2000", *FAST, "histogram"]) == 0
        assert (tmp_path / "a" / "histogram.csv").exists()
        assert not (tmp_path / "b").exists()


# Edge values for the keys the histogram command reads: 0, negative, NaN,
# inf, empty, text, huge and the 1000 ps period bounds of the shipped 1 GHz
# clock. histogram.gates stays at most 2000 and run.workers at most 2, so no
# case asks for a large window or many threads.
_EDGES = ["0", "-1", "nan", "inf", "-inf", "", "ten"]
_HISTOGRAM_KEYS = {
    "run.trials": [*_EDGES, "1", "1000", str(2 ** 63 - 1), str(2 ** 63),
                   "1" + "0" * 30],
    "run.seed": [*_EDGES, "1", str(2 ** 64 - 1), str(2 ** 64), "1" + "0" * 30],
    "run.workers": [*_EDGES, "1", "2"],
    "histogram.gates": [*_EDGES, "1", "2", "2000"],
    "histogram.dead_time": [*_EDGES, "-0", "5e-324", "999.9999999999999",
                            "1000", "1000.0000000000001", "1e308"],
    "histogram.pulse_delay": [*_EDGES, "-0", "5e-324", "999.9999999999999",
                              "1000", "1e308"],
    "scenario.signal_flux": [*_EDGES, "5e-324", "0.1", "1e6", "1e308"],
}


@given(st.fixed_dictionaries({key: st.none() | st.sampled_from(values)
                              for key, values in _HISTOGRAM_KEYS.items()}))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_histogram_overrides_keep_exit_contract(tmp_path, values):
    # each example writes into its own directory under tmp_path; histogram
    # computes everything before its first write, so a failure leaves none
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    argv = [arg for key, raw in values.items() if raw is not None
            for arg in ("--set", f"{key}={raw}")]
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(["--out", str(out), *argv, "histogram"])
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
    else:
        assert err == ""
    assert out.exists() == (code == 0)


_MODEL_KEYS = [f"{section}.{key}" for section in _REQUIRED_SECTIONS
               for key in _SCHEMA[section]]
_COMMANDS = ["sweep", "histogram", "gate2", "contour", "feasibility",
             "partial-attack", "attack-hist"]
# each command and [scenario] key -> the commands that read it
_SWEEP_READERS = ("sweep", "attack-hist", "partial-attack")
_COMMAND_KEYS = {
    **{f"sweep.{key}": _SWEEP_READERS for key in _SCHEMA["sweep"]},
    "gate2.delay_points": ("gate2",),
    **{f"contour.{key}": ("contour",) for key in _SCHEMA["contour"]},
    **{f"feasibility.{key}": ("feasibility",)
       for key in _SCHEMA["feasibility"]},
    "feasibility.qber_threshold": ("sweep", "contour", "feasibility"),
    "partial_attack.fraction_points": ("partial-attack",),
    "scenario.flux_full": ("sweep", "attack-hist", "gate2", "partial-attack"),
    "scenario.signal_flux": ("histogram", "feasibility", "partial-attack"),
    "scenario.attack_flux": ("feasibility",),
    "histogram.gates": ("histogram", "attack-hist"),
}
# each edge value plus the smallest subnormal, a subnormal whose reciprocal
# overflows, and a huge value
_NUMERIC_EDGES = [*_EDGES, "5e-324", "1e-320", "1e300"]


def _contract_break(out, argv) -> str | None:
    """How main(["--out", out, *argv]) breaks the exit contract, or None
    if it keeps it; a numpy warning counts as a line on stderr, as it would
    in a real run."""
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["--out", str(out), *argv])
    lines = err.getvalue() + "".join(f"{w.category.__name__}: "
                                     f"{w.message}\n" for w in caught)
    if (code not in (0, 1, 2) or out.exists() != (code == 0)
            or lines.count("\n") != (code != 0) or "Traceback" in lines):
        return f"exit {code}, stderr {lines!r}"
    return None


def _exit_contract_breaks(tmp_path, key, command, values) -> list[str]:
    """The values of `key` that, set one at a time, break the exit contract
    of `command`. Trials default to 20000; a run.trials value overrides
    that."""
    broken = []
    for raw in values:
        why = _contract_break(tmp_path / f"{raw or 'empty'}-{command}",
                              ["--set", "run.trials=20000",
                               "--set", f"{key}={raw}", command])
        if why:
            broken.append(f"{raw!r}: {why}")
    return broken


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("key", _MODEL_KEYS)
def test_model_overrides_keep_exit_contract(tmp_path, key, command):
    broken = _exit_contract_breaks(tmp_path, key, command, _NUMERIC_EDGES)
    assert not broken, "\n".join(broken)


# the [run] keys through every computing command that ignores them
@pytest.mark.parametrize("command", [c for c in _COMMANDS if c != "histogram"])
@pytest.mark.parametrize("key", ["run.seed", "run.trials", "run.workers"])
def test_run_overrides_keep_exit_contract(tmp_path, key, command):
    broken = _exit_contract_breaks(tmp_path, key, command,
                                   _HISTOGRAM_KEYS[key])
    assert not broken, "\n".join(broken)


# the histogram's pulse timing and window beside one model key; a window
# stays at most 2000 gates and a run at 20000 trials
@given(st.fixed_dictionaries({
    key: st.none() | st.sampled_from(_HISTOGRAM_KEYS[key])
    for key in ("histogram.pulse_delay", "histogram.dead_time",
                "histogram.gates")}),
       st.sampled_from(_MODEL_KEYS), st.sampled_from(_NUMERIC_EDGES))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_histogram_timing_with_model_key_keeps_exit_contract(tmp_path,
                                                             timing, key,
                                                             raw):
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    sets = {**{k: v for k, v in timing.items() if v is not None}, key: raw}
    argv = [arg for k, v in sets.items() for arg in ("--set", f"{k}={v}")]
    why = _contract_break(out, ["--trials", "20000", *argv, "histogram"])
    assert why is None, f"{sets}: {why}"


# no value here asks for a large grid: a count never parses from "1e300"
@pytest.mark.parametrize("key, command", [
    (key, command) for key, commands in _COMMAND_KEYS.items()
    for command in commands])
def test_command_overrides_keep_exit_contract(tmp_path, key, command):
    broken = _exit_contract_breaks(tmp_path, key, command,
                                   [*_NUMERIC_EDGES, "-0", "1", "2"])
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures", "logging"])
def test_import_does_not_load(module):
    code = ("import sys, aftergate, aftergate.cli; "
            "print(sorted(m for m in sys.modules "
            f"if m == {module!r} or m.startswith({module + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=child_env())
    assert out.stdout.strip() == "[]"


# Text is read and written as UTF-8 whatever the locale: an ASCII locale
# without UTF-8 mode, and a run where a default text encoding is an error.
_ENCODINGS = {
    "ascii_locale": dict(python_flags=("-X", "utf8=0"),
                         env={"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}),
    "encoding_warning": dict(python_flags=("-X", "warn_default_encoding",
                                           "-W", "error::EncodingWarning")),
}


def _utf8_config(tmp_path):
    cfg = tmp_path / "utf8.ini"
    cfg.write_bytes(default_config_path().read_bytes()
                    + "# 166 \u00b5m\n".encode("utf-8"))
    return cfg


@pytest.mark.parametrize("mode", sorted(_ENCODINGS))
def test_writing_command_under_any_locale(tmp_path, mode):
    out = tmp_path / "out"
    proc = run_child(["--config", _utf8_config(tmp_path), "--out", out,
                      *FAST, "gate2"], **_ENCODINGS[mode])
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert (out / "gate2.csv").exists() and (out / "gate2.svg").exists()


@pytest.mark.parametrize("mode", sorted(_ENCODINGS))
def test_arrhenius_under_any_locale(tmp_path, mode):
    pts = tmp_path / "pts.csv"
    pts.write_text("note,temperature_k,lifetime_ps\n\u00b5,223.15,900.5\n"
                   "\u00b5,293.15,480.0\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = run_child(["--config", _utf8_config(tmp_path), "--out", out,
                      "arrhenius", "--input", pts], **_ENCODINGS[mode])
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert (out / "arrhenius_fit.json").exists()


def test_histogram_starts_no_thread_pool(tmp_path):
    # --workers is accepted but selects nothing: the engine is one chain
    code = ("import sys\n"
            "from aftergate.cli import main\n"
            f"assert main(['--out', {str(tmp_path)!r}, '--workers', '2', "
            "'histogram']) == 0\n"
            "print('concurrent.futures' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=child_env())
    assert out.stdout.split()[-1] == "False"


def test_contour_loads_no_numpy_ma(tmp_path):
    # numpy 1.x imports numpy.ma with numpy, so compare, not require absence
    code = ("import sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from aftergate.cli import main\n"
            f"assert main(['--out', {str(tmp_path)!r}, 'contour']) == 0\n"
            "print(before, 'numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=child_env())
    before, after = out.stdout.split()[-2:]
    assert after == before
