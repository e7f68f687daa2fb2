"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line when it holds; the shipped default calibration file is the
configuration under test throughout. Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from aftergate import (Environment, PulseSpec, TrapSpecies, arrhenius_fit,
                       attack_histogram, extract_lifetime, feasibility_band,
                       key_rate, load_config, partial_attack_rates,
                       qber_target, qber_with_dd, simulate_pulse_train,
                       sweep_delay)
from aftergate.cli import main
from aftergate.detector import DetectorParams, GateTiming
from aftergate.feasibility import suitable_interval
from aftergate.montecarlo import analytic_gate_probabilities

KB = 8.617e-5


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def sweep_points(cfg):
    grid = np.linspace(0.0, 240.0, 961)
    return sweep_delay(cfg.detector, 80.0, grid, cfg.environment)


def test_criterion_1_target_qber_algebra():
    assert qber_target(1.0, 1.0) == 0.25
    grid = np.linspace(1e-6, 1.0, 1000)
    worst = max(abs(qber_target(2 * p - p * p, p) - 0.25) for p in grid)
    assert worst < 1e-12
    print(f"\n[criterion 1] target-gate QBER algebra (worst manifold "
          f"deviation {worst:.2e}): PASS")


def test_criterion_2_delayed_correction_reduction_and_worked_point():
    grid = np.linspace(0.0, 1.0, 32)
    worst = 0.0
    for p_f in grid:
        for p_h in grid:
            if p_f == 0.0 and p_h == 0.0:
                continue
            worst = max(worst, abs(qber_with_dd(p_f, p_h, 0.0, 0.0)
                                   - qber_target(p_f, p_h)))
    assert worst < 1e-12
    q = qber_with_dd(1.0, 0.1, 0.15, 0.15)
    assert q == pytest.approx(0.1376, abs=1e-4)
    print(f"[criterion 2] delayed-detection correction (reduction worst "
          f"{worst:.2e}, worked point {q:.5f}): PASS")


def test_criterion_3_dip_reproduction(cfg, sweep_points):
    det = cfg.detector
    q = np.array([p.q_target for p in sweep_points])
    q_dd = np.array([p.q_with_dd for p in sweep_points])
    i = int(np.nanargmin(q))
    dip_q, dip_delay = float(q[i]), sweep_points[i].delay
    assert 0.05 <= dip_q <= 0.10
    edge_start = det.trigger_flat_fraction * det.timing.gate_width
    assert edge_start < dip_delay < det.timing.gate_width
    min_dd = float(np.nanmin(q_dd))
    assert min_dd > 0.11
    print(f"[criterion 3] dip {dip_q:.4f} at {dip_delay:.2f} ps on the "
          f"trailing edge; corrected minimum {min_dd:.4f} > 0.11: PASS")


def test_criterion_4_histogram_ratios(cfg, sweep_points):
    det, env = cfg.detector, cfg.environment
    single = attack_histogram(det, 0.1, 0.0, env, gates=12)
    r_single = single[1] / single[0]
    assert 0.005 <= r_single <= 0.02

    q = np.array([p.q_target for p in sweep_points])
    dip_delay = sweep_points[int(np.nanargmin(q))].delay
    full = attack_histogram(det, 80.0, dip_delay, env, gates=8)
    half = attack_histogram(det, 40.0, dip_delay, env, gates=8)
    r_full = full[1] / full[0]
    assert 0.10 <= r_full <= 0.20
    assert half[1] > half[0]
    print(f"[criterion 4] gate ratios: single-photon {r_single:.4f}, "
          f"full-power {r_full:.4f}, half-power adjacent dominates: PASS")


def test_criterion_5_lifetime_round_trip():
    worst = 0.0
    for tau in (200.0, 500.0, 800.0):
        counts = [10000.0]
        for k in range(1, 8):
            counts.append(10.0 + 9990.0 * math.exp(-k * 1000.0 / tau))
        tau_hat = extract_lifetime(counts, 1000.0, background=10.0)
        worst = max(worst, abs(tau_hat - tau) / tau)
    assert worst < 0.01

    temps = np.array([223.15, 258.15, 293.15])
    fit = arrhenius_fit(temps, 50.0 * np.exp(0.030 / (KB * temps)))
    assert fit.activation_energy == pytest.approx(0.030, rel=1e-9)
    assert fit.lifetime_prefactor == pytest.approx(50.0, rel=1e-9)
    assert fit.residual_norm < 1e-10
    print(f"[criterion 5] lifetime round trip (worst extraction error "
          f"{worst:.2e}, fit residual {fit.residual_norm:.2e}): PASS")


def _random_detector(rng):
    gain_flat = rng.uniform(0.2, 0.5)
    return DetectorParams(
        timing=GateTiming(gating_frequency=1e9,
                          gate_width=rng.uniform(120.0, 300.0)),
        detection_efficiency=rng.uniform(0.1, 0.5),
        discrimination_threshold=rng.uniform(0.3, 0.7),
        dark_count_prob=rng.uniform(1e-4, 3e-3),
        afterpulse_prob=rng.uniform(0.0, 0.08),
        trigger_peak=rng.uniform(0.5, 0.95),
        trigger_flat_fraction=rng.uniform(0.3, 0.7),
        gain_flat_fraction=gain_flat,
        gain_edge_fraction=rng.uniform(0.3, min(0.6, 1.0 - gain_flat)),
        gain_floor=rng.uniform(0.08, 0.3),
        interface_trap=TrapSpecies(
            rng.uniform(0.02, 0.1), rng.uniform(20.0, 200.0),
            capture_fraction_photo=rng.uniform(0.0, 0.05)),
        multiplication_trap=TrapSpecies(
            rng.uniform(0.05, 0.13), rng.uniform(5.0, 50.0),
            capture_per_avalanche_charge=rng.uniform(0.0, 0.3),
            retention_strength=rng.uniform(0.0, 2.0)),
    )


def test_criterion_6_monte_carlo_matches_analytic():
    rng = np.random.default_rng(318008)  # master seed for the 20 configs
    trials = 100000
    worst_sigma = 0.0
    for case in range(20):
        det = _random_detector(rng)
        env = Environment(temperature=rng.uniform(220.0, 300.0))
        window = int(rng.integers(6, 11))
        pulse = PulseSpec(mean_flux=rng.uniform(0.05, 100.0),
                          delay=rng.uniform(0.0, det.timing.gate_period * 0.9))
        train = [(0, pulse)]
        counts = simulate_pulse_train(det, train, env, trials=trials,
                                      seed=int(rng.integers(0, 2 ** 63)),
                                      window=window)
        expected = analytic_gate_probabilities(det, train, env, window)
        freq = counts / trials
        se = np.sqrt(expected * (1.0 - expected) / trials)
        sigmas = np.abs(freq - expected) / np.maximum(se, 1e-12)
        worst_sigma = max(worst_sigma, float(sigmas.max()))
        assert np.all(sigmas <= 4.0), f"case {case}: {sigmas.max():.2f} sigma"
    assert worst_sigma <= 4.0
    print(f"[criterion 6] Monte Carlo vs analytic over 20 random configs "
          f"(worst deviation {worst_sigma:.2f} sigma at 1e5 trials): PASS")


def test_criterion_7_feasibility_band(cfg):
    det = cfg.detector
    sc = cfg.values["scenario"]
    scenario = (sc["signal_flux"], sc["attack_flux"],
                cfg.values["feasibility"]["qber_threshold"])
    freqs = np.geomspace(1e7, 5e9, 50)
    warm = feasibility_band(freqs, Environment(temperature=293.15), det,
                            *scenario)
    cold = feasibility_band(freqs, Environment(temperature=223.15), det,
                            *scenario)
    i_1g = int(np.argmin(np.abs(freqs - 1e9)))
    assert warm[i_1g].classification == "Suitable"
    for band in (warm, cold):
        for v in band:
            assert v.classification in ("Noisy", "Suitable", "Vulnerable")
        idx = [i for i, v in enumerate(band)
               if v.classification == "Suitable"]
        assert idx and np.all(np.diff(idx) == 1)
    lo_w, hi_w = suitable_interval(warm)
    lo_c, hi_c = suitable_interval(cold)
    mid_w, mid_c = math.sqrt(lo_w * hi_w), math.sqrt(lo_c * hi_c)
    assert mid_c < mid_w
    print(f"[criterion 7] feasibility: 1 GHz suitable at 20 C, band "
          f"midpoints {mid_c:.3e} Hz (-50 C) < {mid_w:.3e} Hz (20 C), "
          f"trichotomy and interval structure hold: PASS")


def test_criterion_8_key_rate_convexity():
    q = np.arange(0.0, 0.5001, 0.001)
    r = np.array([key_rate(v) for v in q])
    mid_gap = 0.5 * (r[:-2] + r[2:]) - r[1:-1]
    assert np.all(mid_gap >= -1e-12)

    fractions = np.arange(0.0, 1.0001, 0.01)
    rows = partial_attack_rates(0.12, 0.02, fractions)
    worst = 0.0
    for f, combined, _ in rows:
        blended = key_rate(f * 0.12 + (1.0 - f) * 0.02)
        worst = min(worst, combined - blended)
        assert combined >= blended - 1e-12
    print(f"[criterion 8] key-rate convexity (worst mixture margin "
          f"{worst:.2e}): PASS")


def test_criterion_9_deterministic_histogram_command(tmp_path):
    args = ["--trials", "30000", "--seed", "20608",
            "--set", "histogram.gates=10"]
    files = []
    for name, workers in (("a", 1), ("b", 8), ("c", 1)):
        out = tmp_path / name
        code = main(["--out", str(out), "--workers", str(workers),
                     *args, "histogram"])
        assert code == 0
        files.append((out / "histogram.csv").read_bytes())
    assert files[0] == files[1] == files[2]
    print("[criterion 9] histogram command byte-identical across reruns "
          "and worker counts 1/8: PASS")
