"""Configuration parsing and CSV/JSON serialization."""

import configparser
import csv
import json
import math
from dataclasses import MISSING, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aftergate import (ConfigError, DetectorParams, Environment, GateTiming,
                       PulseSpec, TrapSpecies, attack_histogram,
                       contour_flux_delay, feasibility_band, gate2_vs_delay,
                       load_config, partial_attack_rates,
                       simulate_pulse_train, sweep_delay)
from aftergate import io
from aftergate.config import _SCHEMA, _float, default_config_path
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
"""


class TestConfig:
    def test_default_config_loads(self):
        cfg = load_config()
        assert cfg.detector.detection_efficiency == 0.28
        assert cfg.environment.temperature == 293.15
        assert default_config_path().exists()

    def test_schema_and_default_ini_list_the_same_keys(self):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(default_config_path())
        assert {s: set(parser[s]) for s in parser.sections()} == \
            {s: set(keys) for s, keys in _SCHEMA.items()}

    def test_detector_field_defaults_match_packaged_calibration(self):
        # a config that leaves a shape key out gets the field default, so
        # it must be the packaged [detector] value: neither copy changes
        # alone
        defaults = {f.name: f.default for f in fields(DetectorParams)
                    if f.default is not MISSING}
        shipped = load_config().values["detector"]
        assert sorted(defaults) == [
            "afterpulse_spread_gates", "gain_edge_fraction",
            "gain_flat_fraction", "gain_floor", "trigger_flat_fraction",
            "trigger_peak"]
        assert {key: (shipped[key], type(shipped[key])) for key in defaults} \
            == {key: (value, type(value)) for key, value in defaults.items()}

    def test_minimal_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.detector.detection_efficiency == 0.3
        assert cfg.detector.timing.gate_period == 1000.0

    def test_omitted_optional_keys_take_dataclass_defaults(self, tmp_path):
        required = "\n".join(
            line for line in MINIMAL.splitlines()
            if not line.startswith(("capture_", "retention_")))
        path = tmp_path / "run.ini"
        path.write_text(required)
        cfg = load_config(path)
        assert cfg.detector == DetectorParams(
            timing=GateTiming(gating_frequency=1e9, gate_width=166.0),
            detection_efficiency=0.3, discrimination_threshold=0.5,
            dark_count_prob=1e-4, afterpulse_prob=0.02,
            interface_trap=TrapSpecies(0.04, 100.0),
            multiplication_trap=TrapSpecies(0.11, 8.0))
        assert cfg.environment == Environment(temperature=293.15)

    def test_missing_required_key_message(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL.replace("detection_efficiency = 0.3\n", ""))
        with pytest.raises(ConfigError,
                           match=r"^missing config key: "
                                 r"detector\.detection_efficiency$"):
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

    def test_model_key_casters(self):
        # each model section's key -> caster map, read from the dataclass
        # fields' annotations
        floats = {
            "detector": ["gating_frequency", "gate_width",
                         "detection_efficiency", "discrimination_threshold",
                         "dark_count_prob", "afterpulse_prob", "trigger_peak",
                         "trigger_flat_fraction", "gain_flat_fraction",
                         "gain_edge_fraction", "gain_floor"],
            "traps.interface": ["activation_energy", "lifetime_prefactor",
                                "capture_fraction_photo"],
            "traps.multiplication": ["activation_energy",
                                     "lifetime_prefactor",
                                     "capture_per_avalanche_charge",
                                     "retention_strength"],
            "environment": ["temperature"],
        }
        for section, keys in floats.items():
            expected = dict.fromkeys(keys, _float)
            if section == "detector":
                expected["afterpulse_spread_gates"] = int
            # functions compare by identity: the same caster objects
            assert _SCHEMA[section] == expected, section


class TestCsvFormats:
    def test_histogram_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, np.array([50, 3, 1, 0]), trials=100)
        lines = path.read_text().splitlines()
        assert lines[0] == "gate_index,counts,trials,probability"
        assert lines[1] == "1,50,100,0.5"

    def test_sweep_header(self, tmp_path, det, env, sweep_grid):
        pts = sweep_delay(det, 80.0, sweep_grid[:5], env)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, pts)
        header = path.read_text().splitlines()[0]
        assert header == ("delay_ps,p_f,p_h,p_dd_f,p_dd_h,p_dd_bar,"
                          "q_target,q_with_dd")

    def test_feasibility_header(self, tmp_path):
        verdicts = np.rec.fromarrays(
            [[1e9], [0.01], [0.2], ["Suitable"]],
            names="frequency,q_noise,q_attack,classification")
        path = tmp_path / "f.csv"
        write_feasibility_csv(path, verdicts)
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency_hz,q_noise,q_attack,classification"
        assert lines[1].endswith("Suitable")

    def test_arrhenius_csv_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("temperature_k,lifetime_ps\n"
                        "293.15,480.0\n243.15,690.0\n")
        temps, lifetimes = read_arrhenius_csv(path)
        assert len(temps) == len(lifetimes) == 2
        assert temps[0] == 293.15
        assert lifetimes[1] == 690.0

    def test_arrhenius_csv_ignores_other_columns(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("note,lifetime_ps,bias,temperature_k\n"
                        "a,480.0,0.5,293.15\nb,690.0,0.4,243.15\n")
        temps, lifetimes = read_arrhenius_csv(path)
        assert temps.tolist() == [293.15, 243.15]
        assert lifetimes.tolist() == [480.0, 690.0]

    def test_arrhenius_csv_short_row_is_value_error(self, tmp_path):
        # a missing cell used to reach float(None), a TypeError
        path = tmp_path / "short.csv"
        path.write_text("temperature_k,lifetime_ps\n293.15,480.0\n243.15\n")
        with pytest.raises(ValueError):
            read_arrhenius_csv(path)

    def test_arrhenius_csv_requires_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("temp,tau\n293,480\n")
        with pytest.raises(ValueError):
            read_arrhenius_csv(path)

    def test_json_writes_non_finite_floats_as_null(self, tmp_path):
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")
        path = tmp_path / "x.json"
        write_json(path, {"a": float("inf"), "b": -math.inf,
                          "c": [np.float64("nan"), np.float32("-inf")],
                          "d": np.bool_(True), "e": np.float64(2.5)})
        data = json.loads(path.read_text(), parse_constant=reject)
        assert data == {"a": None, "b": None, "c": [None, None], "d": True,
                        "e": 2.5}

    def test_json_serializes_nan_as_null(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"a": float("nan"), "b": np.float64(1.5)})
        data = json.loads(path.read_text())
        assert data == {"a": None, "b": 1.5}


# The row writer the column writer replaced, kept verbatim as an oracle:
# every CSV the package writes must stay byte-identical to its output.

def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def oracle_histogram_csv(path, counts, trials=None) -> None:
    rows = [[i + 1, float(c), 0, float(c)] if trials is None
            else [i + 1, int(c), trials, float(c) / trials]
            for i, c in enumerate(counts)]
    _write_rows(path, ["gate_index", "counts", "trials", "probability"], rows)


def oracle_sweep_csv(path, points) -> None:
    rows = [[p.delay, p.p_f, p.p_h, p.p_dd_f, p.p_dd_h, p.p_dd_bar,
             p.q_target, p.q_with_dd] for p in points]
    _write_rows(path, ["delay_ps", "p_f", "p_h", "p_dd_f", "p_dd_h",
                       "p_dd_bar", "q_target", "q_with_dd"], rows)


def oracle_contour_csv(path, fluxes, delays, qber_matrix) -> None:
    rows = []
    for i, mu in enumerate(fluxes):
        for j, d in enumerate(delays):
            rows.append([float(mu), float(d), float(qber_matrix[i, j])])
    _write_rows(path, ["flux", "delay_ps", "q_target"], rows)


def oracle_gate2_csv(path, points) -> None:
    _write_rows(path, ["delay_ps", "probability"],
                [[d, p] for d, p in points])


def oracle_partial_attack_csv(path, rows) -> None:
    _write_rows(path, ["fraction", "combined_rate", "full_attack_rate"], rows)


def oracle_feasibility_csv(path, verdicts) -> None:
    rows = [[v.frequency, v.q_noise, v.q_attack, v.classification]
            for v in verdicts]
    _write_rows(path, ["frequency_hz", "q_noise", "q_attack",
                       "classification"], rows)


# -0.0 next to 0.0, NaN, infinities, subnormals, and pairs that differ but
# print the same at 12 significant digits
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
            -5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 0.3, 1 / 3,
            1.0000000000004, 1.0000000000005, 123456789012.5,
            123456789012.49998, 1e300, -1e-300]
_CLASSES = ["Noisy", "Suitable", "Vulnerable"]


@st.composite
def _table(draw):
    """(columns for the column writer, rows for the oracle)."""
    n = draw(st.integers(0, 25))
    columns, cells = [], []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "str"]),
                              min_size=1, max_size=5)):
        if kind == "float":
            values = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL),
                                             st.floats()),
                                   min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.float64))
        elif kind == "int":
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                   min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.int64))
            if draw(st.booleans()):
                values = list(columns[-1])  # numpy ints for the oracle
        else:
            values = draw(st.lists(st.sampled_from(_CLASSES),
                                   min_size=n, max_size=n))
            columns.append(np.array(values))
        cells.append(values)
    return columns, [list(row) for row in zip(*cells)]


class TestColumnWriter:
    @given(_table())
    @example(([np.array([0.0, -0.0, 0.0])], [[0.0], [-0.0], [0.0]]))
    @settings(max_examples=300, deadline=None)
    def test_matches_row_writer(self, tmp_path_factory, table):
        columns, rows = table
        tmp = tmp_path_factory.mktemp("columns")
        header = [f"c{k}" for k in range(len(columns))]
        io._write_columns(tmp / "new.csv", header, columns)
        _write_rows(tmp / "old.csv", header, rows)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    def test_cell_needing_quotes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="quoting"):
            io._write_columns(tmp_path / "q.csv", ["a"],
                              [np.array(["x,y"])])

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            io._write_columns(tmp_path / "u.csv", ["a", "b"],
                              [np.zeros(2), np.zeros(3)])

    def test_float32_column_formatted_as_float64(self, tmp_path):
        # cast to float64 first: .12g text, and -0.0 keeps its sign while
        # 0.0 does not gain one
        io._write_columns(tmp_path / "f.csv", ["a"],
                          [np.array([0.1, -0.0, 0.0], dtype=np.float32)])
        assert (tmp_path / "f.csv").read_text() == \
            "a\n" + format(float(np.float32(0.1)), ".12g") + "\n-0\n0\n"

    def test_column_not_1d_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="1-D"):
            io._write_columns(tmp_path / "m.csv", ["a", "b"],
                              [np.zeros((2, 2)), np.zeros(2)])


def oracle_contour_columns(path, fluxes, delays, qber_matrix) -> None:
    """write_contour_csv before it wrote in row blocks, kept verbatim."""
    fluxes = np.asarray(fluxes, dtype=np.float64)
    delays = np.asarray(delays, dtype=np.float64)
    io._write_columns(path, ["flux", "delay_ps", "q_target"],
                      [np.repeat(fluxes, delays.size),
                       np.tile(delays, fluxes.size),
                       np.asarray(qber_matrix, dtype=np.float64).ravel()])


@st.composite
def _contour_table(draw):
    """(block cells, fluxes, delays, matrix). Shapes put block edges
    inside and between rows; cells mix NaN, -0.0, inf and a few values
    that repeat across blocks with fresh ones."""
    block = draw(st.integers(1, 40))
    fluxes = draw(st.lists(st.floats(), min_size=0, max_size=20))
    delays = draw(st.lists(st.floats(), min_size=0, max_size=2 * block + 1))
    pool = draw(st.lists(st.sampled_from(_SPECIAL), min_size=1, max_size=4))
    cells = draw(st.lists(st.one_of(st.sampled_from(pool), st.floats()),
                          min_size=len(fluxes) * len(delays),
                          max_size=len(fluxes) * len(delays)))
    return (block, np.array(fluxes, dtype=np.float64),
            np.array(delays, dtype=np.float64),
            np.array(cells, dtype=np.float64).reshape(len(fluxes),
                                                      len(delays)))


class TestContourWriter:
    @given(_contour_table())
    @settings(max_examples=200, deadline=None)
    def test_row_blocks_match_column_writer(self, tmp_path_factory, table):
        block, fluxes, delays, matrix = table
        tmp = tmp_path_factory.mktemp("contour")
        with mock.patch.object(io, "_CSV_BLOCK_CELLS", block):
            io.write_contour_csv(tmp / "new.csv", fluxes, delays, matrix)
        oracle_contour_columns(tmp / "old.csv", fluxes, delays, matrix)
        oracle_contour_csv(tmp / "rows.csv", fluxes, delays, matrix)
        new = (tmp / "new.csv").read_bytes()
        assert new == (tmp / "old.csv").read_bytes()
        assert new == (tmp / "rows.csv").read_bytes()

    def test_shipped_block_size_matches_column_writer(self, tmp_path, det):
        # 16 rows a block on 250 x 1001, 250 not a multiple; NaN cells
        # where a dark-free detector sees the inter-gate gap
        fluxes = np.linspace(2.0, 1000.0, 250)
        delays = np.linspace(0.0, 1000.0, 1001, endpoint=False)
        matrix = contour_flux_delay(replace(det, dark_count_prob=0.0),
                                    fluxes, delays)
        matrix[::7, ::5] = -0.0
        matrix[3, :] = np.inf
        assert np.isnan(matrix).any()
        io.write_contour_csv(tmp_path / "new.csv", fluxes, delays, matrix)
        oracle_contour_columns(tmp_path / "old.csv", fluxes, delays, matrix)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    def test_mismatched_matrix_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_contour_csv(tmp_path / "sub" / "c.csv", [1.0, 2.0],
                                 [0.0, 1.0, 2.0], np.zeros((3, 2)).T[:1])
        assert not (tmp_path / "sub").exists()


@given(st.one_of(st.sampled_from(_SPECIAL), st.floats(),
                 st.integers(-2**63, 2**63 - 1).map(
                     lambda b: float(np.int64(b).view(np.float64)))))
@settings(max_examples=1000)
def test_percent_format_matches_format(x):
    # _cells formats floats with one % call; its text must be format()'s,
    # for every bit pattern: NaNs of either sign, +-inf, -0.0, subnormals
    assert "%.12g" % x == format(x, ".12g")


@pytest.fixture(scope="module")
def shipped_outputs(default_cfg):
    """Inputs of each CSV writer, computed on the shipped calibration."""
    cfg, det, env = default_cfg, default_cfg.detector, default_cfg.environment
    sc = cfg.values["scenario"]
    sweep = sweep_delay(det, sc["flux_full"], np.linspace(0.0, 240.0, 961),
                        env)
    sec = cfg.values["contour"]
    fluxes = np.linspace(sec["flux_min"], sec["flux_max"], sec["flux_points"])
    delays = np.linspace(sec["delay_min"], sec["delay_max"],
                         sec["delay_points"])
    q_dd = float(np.nanmin([p.q_with_dd for p in sweep]))
    # a non-square grid with NaN cells: a dark-free detector sees nothing
    # at delays in the inter-gate gap
    few, gap = np.geomspace(0.5, 120.0, 7), np.linspace(20.0, 900.0, 23)
    q_gap = contour_flux_delay(replace(det, dark_count_prob=0.0), few, gap)
    assert np.isnan(q_gap).any() and np.isfinite(q_gap).any()
    return {  # writer name -> argument tuples
        "histogram": [
            (simulate_pulse_train(det, [(0, PulseSpec(sc["signal_flux"]))],
                                  env, trials=20000, seed=7, window=12,
                                  dead_time=50000.0), 20000),
            (attack_histogram(det, sc["flux_full"] / 2.0, 153.25, env, 12),)],
        "sweep": [(sweep,)],
        "contour": [(fluxes, delays,
                     contour_flux_delay(det, fluxes, delays)),
                    (few, gap, q_gap)],
        "gate2": [(gate2_vs_delay(det, sc["flux_full"],
                                  np.linspace(95.0, 960.0, 200), env),)],
        "partial_attack": [(partial_attack_rates(min(q_dd, 0.5), 0.02,
                                                 np.linspace(0, 1, 101)),)],
        "feasibility": [(feasibility_band(
            np.geomspace(1e7, 5e9, 12), env, det, sc["signal_flux"],
            sc["attack_flux"], cfg.values["feasibility"]["qber_threshold"]),)],
    }


@pytest.mark.parametrize("name, writer, oracle", [
    ("histogram", io.write_histogram_csv, oracle_histogram_csv),
    ("sweep", io.write_sweep_csv, oracle_sweep_csv),
    ("contour", io.write_contour_csv, oracle_contour_csv),
    ("gate2", io.write_gate2_csv, oracle_gate2_csv),
    ("partial_attack", io.write_partial_attack_csv,
     oracle_partial_attack_csv),
    ("feasibility", io.write_feasibility_csv, oracle_feasibility_csv),
])
def test_writer_matches_row_writer_on_shipped_data(tmp_path, shipped_outputs,
                                                   name, writer, oracle):
    for args in shipped_outputs[name]:
        writer(tmp_path / "new.csv", *args)
        oracle(tmp_path / "old.csv", *args)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()
