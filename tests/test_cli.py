"""Command-line interface: artifacts, determinism, exit codes."""

import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def run(tmp_path, *args, trials=20000, seed=3):
    return main(["--out", str(tmp_path), "--trials", str(trials),
                 "--seed", str(seed), *FAST, *args])


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
        lines = ["temperature_k,lifetime_ps,excess_bias"]
        for t in (223.15, 258.15, 293.15):
            lines.append(f"{t},{50.0 * math.exp(0.030 / (KB * t))},0.5")
        pts.write_text("\n".join(lines) + "\n")
        assert run(tmp_path, "arrhenius", "--input", str(pts)) == 0
        fit = json.loads((tmp_path / "arrhenius_fit.json").read_text())
        assert fit["activation_energy_ev"] == pytest.approx(0.030, rel=1e-9)
        assert fit["tau0_ps"] == pytest.approx(50.0, rel=1e-9)
        assert fit["residual"] < 1e-10
        assert (tmp_path / "arrhenius.svg").exists()

    def test_single_temperature_is_numerical_failure(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("temperature_k,lifetime_ps,excess_bias\n"
                       "293.15,480.0,0.5\n293.15,500.0,0.5\n")
        assert run(tmp_path, "arrhenius", "--input", str(pts)) == 2
        assert "numerical failure" in capsys.readouterr().err

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


def test_import_does_not_load_scipy():
    src = str(Path(aftergate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, aftergate, aftergate.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
