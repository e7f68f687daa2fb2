"""Histogram construction, lifetime extraction, Arrhenius regression."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aftergate import (Environment, GateHistogram, LifetimeExtractionError,
                       LifetimePoint, PulseSpec, TrapKind, TrapSpecies,
                       arrhenius_fit, build_histogram, extract_lifetime,
                       trap_lifetime)
from aftergate.characterization import estimate_background
from aftergate.detector import DetectorParams, GateTiming
from aftergate.montecarlo import analytic_gate_probabilities

KB = 8.617e-5


class TestBuildHistogram:
    def test_zero_dead_time_keeps_everything(self):
        records = [(0, 0), (0, 3), (1, 2), (2, 0), (2, 1)]
        hist = build_histogram(records, window=5, dead_time=0.0,
                               gate_period=1000.0)
        assert list(hist.gate_counts) == [2, 1, 1, 1, 0]

    def test_dead_time_suppresses_within_trial(self):
        # clicks at gates 0 and 3 are 3000 ps apart, inside a 50 ns dead time
        hist = build_histogram([(7, 0), (7, 3)], window=6, dead_time=50000.0,
                               gate_period=1000.0)
        assert list(hist.gate_counts) == [1, 0, 0, 0, 0, 0]

    def test_trials_never_suppress_each_other(self):
        records = [(t, 0) for t in range(50)] + [(t, 1) for t in range(50)]
        hist = build_histogram(records, window=3, dead_time=50000.0,
                               gate_period=1000.0)
        assert hist.gate_counts[0] == 50
        assert hist.gate_counts[1] == 0  # same-trial gate 1 suppressed

    def test_after_dead_time_click_accepted_and_rearms(self):
        hist = build_histogram([(0, 0), (0, 2), (0, 3)], window=5,
                               dead_time=1500.0, gate_period=1000.0)
        # gate 2 is 2000 ps after gate 0 (accepted), gate 3 only 1000 ps
        # after gate 2 (suppressed)
        assert list(hist.gate_counts) == [1, 0, 1, 0, 0]

    def test_negative_dead_time_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], window=2, dead_time=-1.0, gate_period=1000.0)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 9)),
                    max_size=60),
           st.floats(min_value=0, max_value=8000),
           st.floats(min_value=0, max_value=8000))
    @example(records=[(0, 0), (0, 5), (0, 6)], dt_a=1001.0, extra=4000.0)
    @settings(max_examples=60, deadline=None)
    def test_dead_time_monotonicity(self, records, dt_a, extra):
        # The accepted clicks of a trial are greedy: each is the first click
        # at least one dead time after the previous one. By induction the
        # i-th accepted click under a longer dead time comes no earlier than
        # under the shorter one, so the total never rises. A single gate can
        # rise (see the test below), so only the total is monotone.
        lo = build_histogram(records, window=10, dead_time=dt_a,
                             gate_period=1000.0)
        hi = build_histogram(records, window=10, dead_time=dt_a + extra,
                             gate_period=1000.0)
        assert hi.gate_counts.sum() <= lo.gate_counts.sum()

    def test_longer_dead_time_can_raise_one_gate(self):
        # the longer dead time drops the gate-5 click that blocked gate 6
        records = [(0, 0), (0, 5), (0, 6)]
        lo = build_histogram(records, window=10, dead_time=1001.0,
                             gate_period=1000.0)
        hi = build_histogram(records, window=10, dead_time=5001.0,
                             gate_period=1000.0)
        assert hi.gate_counts.sum() <= lo.gate_counts.sum()
        assert hi.gate_counts[6] > lo.gate_counts[6]


def synth_decay_histogram(tau, gate_period=1000.0, amplitude=10000.0,
                          background=10.0, gates=8):
    """Closed-form synthesis: gate 1 carries the anchor amplitude, later
    gates decay exponentially toward a flat background."""
    counts = [amplitude]
    for k in range(1, gates):
        counts.append(background + (amplitude - background)
                      * math.exp(-k * gate_period / tau))
    return GateHistogram(gate_counts=np.array(counts), trials=None,
                         gate_period=gate_period,
                         background_estimate=background)


class TestExtractLifetime:
    def test_worked_integer_example(self):
        # C1 = 10000, C3 = 193, background 10: 2000 / ln(9990/183) = 500.02
        hist = GateHistogram(gate_counts=np.array([10000., 1370., 193., 35.,
                                                   12., 10., 10., 10.]),
                             trials=None, gate_period=1000.0,
                             background_estimate=10.0)
        assert extract_lifetime(hist) == pytest.approx(500.018285818571,
                                                       rel=1e-12)

    def test_ln_ratio_of_two(self):
        # C1' = C3' * e^2 with 2000 ps separation -> tau = 1000 ps
        hist = GateHistogram(
            gate_counts=np.array([100.0 * math.e ** 2, 50.0, 100.0, 1.0]),
            trials=None, gate_period=1000.0, background_estimate=0.0)
        assert extract_lifetime(hist) == pytest.approx(1000.0, rel=1e-12)

    def test_round_trip_through_synthesis(self):
        for tau in (200.0, 500.0, 800.0):
            hist = synth_decay_histogram(tau)
            assert extract_lifetime(hist) == pytest.approx(tau, rel=1e-6)

    def test_rescaling_invariance(self):
        hist = synth_decay_histogram(430.0)
        scaled = GateHistogram(gate_counts=hist.gate_counts * 7.5,
                               trials=None, gate_period=1000.0,
                               background_estimate=75.0)
        assert extract_lifetime(scaled) == pytest.approx(
            extract_lifetime(hist), rel=1e-12)

    def test_non_decaying_input_fails(self):
        hist = GateHistogram(gate_counts=np.array([100., 50., 120., 10.]),
                             trials=None, gate_period=1000.0,
                             background_estimate=0.0)
        with pytest.raises(LifetimeExtractionError):
            extract_lifetime(hist)

    def test_zero_after_background_fails(self):
        hist = GateHistogram(gate_counts=np.array([100., 50., 5., 1.]),
                             trials=None, gate_period=1000.0,
                             background_estimate=5.0)
        with pytest.raises(LifetimeExtractionError):
            extract_lifetime(hist)

    def test_background_defaults_to_flat_tail(self):
        # gates 6+ carry a residual of the tau = 500 ps decay, so the
        # estimate sits just above the true background
        hist = synth_decay_histogram(500.0)
        est = estimate_background(hist)
        assert est == pytest.approx(10.0, rel=0.05)


def single_species_detector(ea=0.040, tau0=100.0):
    """Interface trapping only, no background: pure release decay."""
    return DetectorParams(
        timing=GateTiming(gating_frequency=1e9, gate_width=166.0),
        detection_efficiency=0.28,
        discrimination_threshold=0.5,
        dark_count_prob=0.0,
        afterpulse_prob=0.0,
        interface_trap=TrapSpecies(TrapKind.INTERFACE, ea, tau0,
                                   capture_fraction_photo=0.01),
        multiplication_trap=TrapSpecies(TrapKind.MULTIPLICATION, 0.110, 8.0,
                                        capture_per_avalanche_charge=0.0),
    )


def analytic_decay_histogram(det, env, gates=10):
    probs = analytic_gate_probabilities(det, [(0, PulseSpec(0.1, 0.0))],
                                        env, gates)
    return GateHistogram(gate_counts=probs, trials=None,
                         gate_period=det.timing.gate_period,
                         background_estimate=0.0)


class TestModelRoundTrip:
    def test_extraction_recovers_configured_lifetime(self):
        # anchor inside the release tail: gates 2 and 4 are pure decay
        det = single_species_detector()
        env = Environment(temperature=293.15)
        hist = analytic_decay_histogram(det, env)
        tau_true = trap_lifetime(det.interface_trap, env)
        tau_hat = extract_lifetime(hist, use_gates=(2, 4))
        assert tau_hat == pytest.approx(tau_true, rel=0.01)

    def test_delayed_counts_fit_single_exponential(self):
        det = single_species_detector()
        env = Environment(temperature=293.15)
        hist = analytic_decay_histogram(det, env)
        tau_true = trap_lifetime(det.interface_trap, env)
        tail = hist.gate_counts[1:8]
        ratios = tail[:-1] / tail[1:]
        taus = hist.gate_period / np.log(ratios)
        assert np.all(np.abs(taus - tau_true) / tau_true < 0.01)

    def test_arrhenius_round_trip_within_two_percent(self):
        det = single_species_detector(ea=0.040, tau0=100.0)
        points = []
        for temp in (243.15, 268.15, 293.15):
            env = Environment(temperature=temp)
            hist = analytic_decay_histogram(det, env)
            points.append(LifetimePoint(
                temperature=temp,
                lifetime=extract_lifetime(hist, use_gates=(2, 4)),
                excess_bias_fraction=0.5))
        fit = arrhenius_fit(points)
        assert fit.activation_energy == pytest.approx(0.040, rel=0.02)
        assert fit.lifetime_prefactor == pytest.approx(100.0, rel=0.05)


class TestArrheniusFit:
    def test_exact_two_point_fit(self):
        pts = [LifetimePoint(t, 50.0 * math.exp(0.030 / (KB * t)), 0.5)
               for t in (243.15, 293.15)]
        fit = arrhenius_fit(pts)
        assert fit.activation_energy == pytest.approx(0.030, rel=1e-10)
        assert fit.lifetime_prefactor == pytest.approx(50.0, rel=1e-10)
        assert fit.residual_norm < 1e-10

    def test_equal_lifetimes_give_zero_activation_energy(self):
        pts = [LifetimePoint(t, 300.0, 0.5) for t in (223.15, 263.15, 293.15)]
        fit = arrhenius_fit(pts)
        assert fit.activation_energy == pytest.approx(0.0, abs=1e-12)

    def test_exact_data_residual_below_1e10_in_log_space(self):
        pts = [LifetimePoint(t, 80.0 * math.exp(0.055 / (KB * t)), 0.5)
               for t in (223.15, 243.15, 263.15, 283.15, 303.15)]
        assert arrhenius_fit(pts).residual_norm < 1e-10

    def test_rejects_single_temperature(self):
        pts = [LifetimePoint(293.15, 400.0, 0.5),
               LifetimePoint(293.15, 410.0, 0.5)]
        with pytest.raises(ValueError):
            arrhenius_fit(pts)

    def test_rejects_mixed_excess_bias(self):
        pts = [LifetimePoint(243.15, 500.0, 0.4),
               LifetimePoint(293.15, 300.0, 0.6)]
        with pytest.raises(ValueError):
            arrhenius_fit(pts)

    def test_noisy_recovery_tolerance(self):
        # tolerance pre-calibrated: 5 points over 223-293 K with 5%
        # multiplicative noise put the slope's relative standard error
        # near 5% for a 0.1 eV barrier, so 15% covers ~3 sigma
        rng = np.random.default_rng(20260810)
        temps = np.array([223.15, 240.0, 258.0, 275.0, 293.15])
        ea_true, tau0 = 0.100, 50.0
        hits = 0
        for _ in range(100):
            noisy = tau0 * np.exp(ea_true / (KB * temps)) \
                * np.exp(rng.normal(0.0, 0.05, size=temps.size))
            pts = [LifetimePoint(t, lt, 0.5)
                   for t, lt in zip(temps, noisy)]
            fit = arrhenius_fit(pts)
            if abs(fit.activation_energy - ea_true) / ea_true < 0.15:
                hits += 1
        assert hits >= 95
