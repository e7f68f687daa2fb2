"""Command-line interface: artifacts, determinism, exit codes."""

import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aftergate
from aftergate.cli import main
from aftergate.config import default_config_path

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

    def test_config_without_sweep_section_uses_default_grid(self, tmp_path):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(default_config_path())
        parser.remove_section("sweep")
        cfg = tmp_path / "no_sweep.ini"
        with cfg.open("w") as fh:
            parser.write(fh)
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "sweep"]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 961


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
        code = run(tmp_path, "--set", "gate2.delay_max=5000", "gate2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "delay grid" in err
        assert not (tmp_path / "gate2.csv").exists()

    def test_attack_delay_outside_period_is_numerical_failure(self, tmp_path,
                                                              capsys):
        code = run(tmp_path, "--set", "scenario.attack_delay=1500",
                   "attack-hist")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "outside" in err
        assert not (tmp_path / "attack_hist_full.csv").exists()

    def test_outdir_env_variable(self, tmp_path, monkeypatch):
        import aftergate.cli as cli
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envout"))
        assert main(["--trials", "2000", *FAST, "histogram"]) == 0
        assert (tmp_path / "envout" / "histogram.csv").exists()


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
