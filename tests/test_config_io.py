"""Configuration parsing and CSV/JSON serialization."""

import json

import numpy as np
import pytest

from aftergate import (ConfigError, DetectorParams, Environment,
                       GateHistogram, GateTiming, TrapKind, TrapSpecies,
                       load_config)
from aftergate.config import default_config_path
from aftergate.io import (read_arrhenius_csv, write_feasibility_csv,
                          write_histogram_csv, write_json, write_sweep_csv)


MINIMAL = """
[detector]
detection_efficiency = 0.3
discrimination_threshold = 0.5
dark_count_prob = 1e-4
afterpulse_prob = 0.02
gating_frequency = 1e9
gate_width = 166.0

[traps.interface]
activation_energy = 0.04
lifetime_prefactor = 100.0
capture_fraction_photo = 0.003

[traps.multiplication]
activation_energy = 0.11
lifetime_prefactor = 8.0
capture_per_avalanche_charge = 0.1
retention_strength = 1.0

[environment]
temperature = 293.15
excess_bias_fraction = 0.5
"""


class TestConfig:
    def test_default_config_loads(self):
        cfg = load_config()
        assert cfg.detector.detection_efficiency == 0.28
        assert cfg.environment.temperature == 293.15
        assert default_config_path().exists()

    def test_minimal_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.detector.detection_efficiency == 0.3
        assert cfg.detector.timing.gate_period == 1000.0

    def test_omitted_optional_keys_take_dataclass_defaults(self, tmp_path):
        required = "\n".join(
            line for line in MINIMAL.splitlines()
            if not line.startswith(("capture_", "retention_",
                                    "excess_bias_fraction")))
        path = tmp_path / "run.ini"
        path.write_text(required)
        cfg = load_config(path)
        assert cfg.detector == DetectorParams(
            timing=GateTiming(gating_frequency=1e9, gate_width=166.0),
            detection_efficiency=0.3, discrimination_threshold=0.5,
            dark_count_prob=1e-4, afterpulse_prob=0.02,
            interface_trap=TrapSpecies(TrapKind.INTERFACE, 0.04, 100.0),
            multiplication_trap=TrapSpecies(TrapKind.MULTIPLICATION, 0.11,
                                            8.0))
        assert cfg.environment == Environment(temperature=293.15)

    def test_missing_required_key_message(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL.replace("detection_efficiency = 0.3\n", ""))
        with pytest.raises(ConfigError,
                           match="^missing config key: 'detection_efficiency'$"):
            load_config(path)

    def test_attacked_fraction_is_unknown(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL + "\n[scenario]\nattacked_fraction = 1.0\n")
        with pytest.raises(ConfigError, match="unknown key 'attacked_fraction'"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL.replace("gate_width = 166.0",
                                        "gate_width = 166.0\nnot_a_key = 3"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_duplicate_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL + "\n[detector]\ndetection_efficiency = 0.2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[detector]\ndetection_efficiency = 0.3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL.replace("0.3", "not-a-number"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_override_applies(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        cfg = load_config(path, overrides=["detector.dark_count_prob=2e-3"])
        assert cfg.detector.dark_count_prob == 2e-3

    def test_bad_override_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        with pytest.raises(ConfigError):
            load_config(path, overrides=["detector.nope=1"])
        with pytest.raises(ConfigError):
            load_config(path, overrides=["no-equals-sign"])

    def test_physical_validation_is_config_error(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL.replace("gate_width = 166.0",
                                        "gate_width = 2000.0"))
        with pytest.raises(ConfigError):
            load_config(path)


class TestCsvFormats:
    def test_histogram_header_and_roundtrip(self, tmp_path):
        hist = GateHistogram(gate_counts=np.array([50, 3, 1, 0]), trials=100,
                             gate_period=1000.0)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "gate_index,counts,trials,probability"
        assert lines[1] == "1,50,100,0.5"

    def test_sweep_header(self, tmp_path, det, env, sweep_grid):
        from aftergate import AttackScenario, sweep_delay
        pts = sweep_delay(det, AttackScenario(flux_full=80.0, env=env),
                          sweep_grid[:5])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, pts)
        header = path.read_text().splitlines()[0]
        assert header == ("delay_ps,p_f,p_h,p_dd_f,p_dd_h,p_dd_bar,"
                          "q_target,q_with_dd")

    def test_feasibility_header(self, tmp_path):
        from aftergate import FrequencyVerdict
        verdicts = [FrequencyVerdict(1e9, 0.01, 0.2, "Suitable")]
        path = tmp_path / "f.csv"
        write_feasibility_csv(path, verdicts)
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency_hz,q_noise,q_attack,classification"
        assert lines[1].endswith("Suitable")

    def test_arrhenius_csv_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("temperature_k,lifetime_ps,excess_bias\n"
                        "293.15,480.0,0.5\n243.15,690.0,0.5\n")
        points = read_arrhenius_csv(path)
        assert len(points) == 2
        assert points[0].temperature == 293.15
        assert points[1].lifetime == 690.0

    def test_arrhenius_csv_requires_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("temp,tau\n293,480\n")
        with pytest.raises(ValueError):
            read_arrhenius_csv(path)

    def test_json_serializes_nan_as_null(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"a": float("nan"), "b": np.float64(1.5)})
        data = json.loads(path.read_text())
        assert data == {"a": None, "b": 1.5}
