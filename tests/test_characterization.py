"""Histogram construction, lifetime extraction, Arrhenius regression."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aftergate import (Environment, LifetimeExtractionError, PulseSpec,
                       TrapSpecies, arrhenius_fit, build_histogram,
                       extract_lifetime, trap_lifetime)
from aftergate.characterization import dead_time_counts, estimate_background
from aftergate.detector import DetectorParams, GateTiming
from aftergate.montecarlo import analytic_gate_probabilities

KB = 8.617e-5


def reference_dead_time_counts(click_records, window, dead_time,
                               gate_period):
    """The record-by-record dead-time loop the vectorized filter replaced,
    kept as its oracle."""
    recs = np.asarray(click_records, dtype=np.int64).reshape(-1, 2)
    counts = np.zeros(window, dtype=np.int64)
    if recs.size:
        order = np.lexsort((recs[:, 1], recs[:, 0]))
        recs = recs[order]
        last_trial = None
        last_time = -math.inf
        for trial, gate in recs:
            t = gate * gate_period
            if trial != last_trial:
                last_trial = trial
                last_time = -math.inf
            if t - last_time < dead_time:
                continue
            counts[gate] += 1
            last_time = t
    return counts


@st.composite
def click_matrices(draw):
    trials = draw(st.integers(1, 20))
    window = draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=trials * window,
                          max_size=trials * window))
    return np.array(cells, dtype=bool).reshape(trials, window)


class TestBuildHistogram:
    def test_zero_dead_time_keeps_everything(self):
        records = [(0, 0), (0, 3), (1, 2), (2, 0), (2, 1)]
        counts = build_histogram(records, window=5, dead_time=0.0,
                                 gate_period=1000.0)
        assert list(counts) == [2, 1, 1, 1, 0]

    def test_dead_time_suppresses_within_trial(self):
        # clicks at gates 0 and 3 are 3000 ps apart, inside a 50 ns dead time
        counts = build_histogram([(7, 0), (7, 3)], window=6,
                                 dead_time=50000.0, gate_period=1000.0)
        assert list(counts) == [1, 0, 0, 0, 0, 0]

    def test_trials_never_suppress_each_other(self):
        records = [(t, 0) for t in range(50)] + [(t, 1) for t in range(50)]
        counts = build_histogram(records, window=3, dead_time=50000.0,
                                 gate_period=1000.0)
        assert counts[0] == 50
        assert counts[1] == 0  # same-trial gate 1 suppressed

    def test_after_dead_time_click_accepted_and_rearms(self):
        counts = build_histogram([(0, 0), (0, 2), (0, 3)], window=5,
                                 dead_time=1500.0, gate_period=1000.0)
        # gate 2 is 2000 ps after gate 0 (accepted), gate 3 only 1000 ps
        # after gate 2 (suppressed)
        assert list(counts) == [1, 0, 1, 0, 0]

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
        assert hi.sum() <= lo.sum()

    @given(click_matrices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_vectorized_filter_matches_record_loop(self, clicked, data):
        # 1, 1.25 and 3 GHz gate periods (ps)
        period = data.draw(st.sampled_from([1000.0, 800.0, 1000.0 / 3]))
        span = clicked.shape[1] * period
        dead_time = data.draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=period, exclude_min=True,
                      exclude_max=True),
            st.sampled_from([period, 2 * period, 2.5 * period]),
            st.floats(min_value=span, max_value=10 * span)))
        records = np.argwhere(clicked)
        expected = reference_dead_time_counts(records, clicked.shape[1],
                                              dead_time, period)
        assert np.array_equal(dead_time_counts(clicked, dead_time, period),
                              expected)
        counts = build_histogram(records, window=clicked.shape[1],
                                 dead_time=dead_time, gate_period=period)
        assert np.array_equal(counts, expected)

    def test_repeated_record_counts_once(self):
        counts = build_histogram([(0, 1), (0, 1), (3, 1)], window=3,
                                 dead_time=0.0, gate_period=1000.0)
        assert list(counts) == [0, 2, 0]

    def test_nan_dead_time_rejected(self):
        with pytest.raises(ValueError):
            dead_time_counts(np.ones((2, 3), dtype=bool), math.nan, 1000.0)

    def test_longer_dead_time_can_raise_one_gate(self):
        # the longer dead time drops the gate-5 click that blocked gate 6
        records = [(0, 0), (0, 5), (0, 6)]
        lo = build_histogram(records, window=10, dead_time=1001.0,
                             gate_period=1000.0)
        hi = build_histogram(records, window=10, dead_time=5001.0,
                             gate_period=1000.0)
        assert hi.sum() <= lo.sum()
        assert hi[6] > lo[6]


def synth_decay_histogram(tau, gate_period=1000.0, amplitude=10000.0,
                          background=10.0, gates=8):
    """Closed-form synthesis: gate 1 carries the anchor amplitude, later
    gates decay exponentially toward a flat background."""
    counts = [amplitude]
    for k in range(1, gates):
        counts.append(background + (amplitude - background)
                      * math.exp(-k * gate_period / tau))
    return np.array(counts)


class TestExtractLifetime:
    @pytest.mark.parametrize("arg, value, message", [
        ("counts", [100.0, math.nan, 20.0], "counts"),
        ("counts", [math.inf, 50.0, 20.0], "counts"),
        ("counts", [100.0, -1.0, 20.0], "counts"),
        ("counts", [[100.0, 50.0, 20.0]], "counts"),
        ("gate_period", math.nan, "gate_period"),
        ("gate_period", math.inf, "gate_period"),
        ("gate_period", 0.0, "gate_period"),
        ("background", math.nan, "background"),
        ("background", math.inf, "background"),
        ("background", -1.0, "background"),
        ("use_gates", (1.0, 3.0), "use_gates"),
        ("use_gates", (1, 2.5), "use_gates")],
        ids=["counts-nan", "counts-inf", "counts-negative", "counts-2d",
             "gate_period-nan", "gate_period-inf", "gate_period-zero",
             "background-nan", "background-inf", "background-negative",
             "use_gates-float", "use_gates-fraction"])
    def test_bad_argument_rejected(self, arg, value, message):
        # unchecked, a NaN background returned NaN, an inf anchor count a
        # lifetime of 0.0 ps, an inf gate_period an inf lifetime and float
        # use_gates raised numpy's IndexError
        args = {"counts": [100.0, 50.0, 20.0], "gate_period": 1000.0,
                "background": 1.0}
        with pytest.raises(ValueError, match=message):
            extract_lifetime(**{**args, arg: value})

    def test_worked_integer_example(self):
        # C1 = 10000, C3 = 193, background 10: 2000 / ln(9990/183) = 500.02
        counts = [10000., 1370., 193., 35., 12., 10., 10., 10.]
        tau = extract_lifetime(counts, 1000.0, background=10.0)
        assert tau == pytest.approx(500.018285818571, rel=1e-12)

    def test_ln_ratio_of_two(self):
        # C1' = C3' * e^2 with 2000 ps separation -> tau = 1000 ps
        counts = [100.0 * math.e ** 2, 50.0, 100.0, 1.0]
        tau = extract_lifetime(counts, 1000.0, background=0.0)
        assert tau == pytest.approx(1000.0, rel=1e-12)

    def test_round_trip_through_synthesis(self):
        for tau in (200.0, 500.0, 800.0):
            tau_hat = extract_lifetime(synth_decay_histogram(tau), 1000.0,
                                       background=10.0)
            assert tau_hat == pytest.approx(tau, rel=1e-6)

    def test_rescaling_invariance(self):
        counts = synth_decay_histogram(430.0)
        scaled = extract_lifetime(counts * 7.5, 1000.0, background=75.0)
        assert scaled == pytest.approx(
            extract_lifetime(counts, 1000.0, background=10.0), rel=1e-12)

    def test_non_decaying_input_fails(self):
        with pytest.raises(LifetimeExtractionError):
            extract_lifetime([100., 50., 120., 10.], 1000.0, background=0.0)

    def test_zero_after_background_fails(self):
        with pytest.raises(LifetimeExtractionError):
            extract_lifetime([100., 50., 5., 1.], 1000.0, background=5.0)

    def test_background_defaults_to_flat_tail(self):
        # gates 6+ carry a residual of the tau = 500 ps decay, so the
        # estimate sits just above the true background
        est = estimate_background(synth_decay_histogram(500.0))
        assert est == pytest.approx(10.0, rel=0.05)


def single_species_detector(ea=0.040, tau0=100.0):
    """Interface trapping only, no background: pure release decay."""
    return DetectorParams(
        timing=GateTiming(gating_frequency=1e9, gate_width=166.0),
        detection_efficiency=0.28,
        discrimination_threshold=0.5,
        dark_count_prob=0.0,
        afterpulse_prob=0.0,
        interface_trap=TrapSpecies(ea, tau0, capture_fraction_photo=0.01),
        multiplication_trap=TrapSpecies(0.110, 8.0,
                                        capture_per_avalanche_charge=0.0),
    )


def analytic_decay_histogram(det, env, gates=10):
    return analytic_gate_probabilities(det, [(0, PulseSpec(0.1, 0.0))],
                                       env, gates)


class TestModelRoundTrip:
    def test_extraction_recovers_configured_lifetime(self):
        # anchor inside the release tail: gates 2 and 4 are pure decay
        det = single_species_detector()
        env = Environment(temperature=293.15)
        probs = analytic_decay_histogram(det, env)
        tau_true = trap_lifetime(det.interface_trap, env)
        tau_hat = extract_lifetime(probs, det.timing.gate_period,
                                   use_gates=(2, 4), background=0.0)
        assert tau_hat == pytest.approx(tau_true, rel=0.01)

    def test_delayed_counts_fit_single_exponential(self):
        det = single_species_detector()
        env = Environment(temperature=293.15)
        probs = analytic_decay_histogram(det, env)
        tau_true = trap_lifetime(det.interface_trap, env)
        tail = probs[1:8]
        ratios = tail[:-1] / tail[1:]
        taus = det.timing.gate_period / np.log(ratios)
        assert np.all(np.abs(taus - tau_true) / tau_true < 0.01)

    def test_arrhenius_round_trip_within_two_percent(self):
        det = single_species_detector(ea=0.040, tau0=100.0)
        temps = (243.15, 268.15, 293.15)
        lifetimes = []
        for temp in temps:
            env = Environment(temperature=temp)
            probs = analytic_decay_histogram(det, env)
            lifetimes.append(extract_lifetime(
                probs, det.timing.gate_period, use_gates=(2, 4),
                background=0.0))
        fit = arrhenius_fit(temps, lifetimes)
        assert fit.activation_energy == pytest.approx(0.040, rel=0.02)
        assert fit.lifetime_prefactor == pytest.approx(100.0, rel=0.05)


class TestArrheniusFit:
    def test_exact_two_point_fit(self):
        temps = np.array([243.15, 293.15])
        fit = arrhenius_fit(temps, 50.0 * np.exp(0.030 / (KB * temps)))
        assert fit.activation_energy == pytest.approx(0.030, rel=1e-10)
        assert fit.lifetime_prefactor == pytest.approx(50.0, rel=1e-10)
        assert fit.residual_norm < 1e-10

    def test_equal_lifetimes_give_zero_activation_energy(self):
        fit = arrhenius_fit([223.15, 263.15, 293.15], [300.0] * 3)
        assert fit.activation_energy == pytest.approx(0.0, abs=1e-12)

    def test_exact_data_residual_below_1e10_in_log_space(self):
        temps = np.array([223.15, 243.15, 263.15, 283.15, 303.15])
        lifetimes = 80.0 * np.exp(0.055 / (KB * temps))
        assert arrhenius_fit(temps, lifetimes).residual_norm < 1e-10

    def test_rejects_single_temperature(self):
        with pytest.raises(ValueError):
            arrhenius_fit([293.15, 293.15], [400.0, 410.0])
        with pytest.raises(ValueError):
            arrhenius_fit([293.15], [400.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("column", ["temperatures", "lifetimes"])
    def test_rejects_value_not_finite_and_positive(self, column, bad):
        # 1/T = 0 for an infinite temperature: it used to fit silently
        arrays = {"temperatures": [223.15, 293.15, 258.15],
                  "lifetimes": [600.0, 300.0, 400.0]}
        arrays[column][2] = bad
        with pytest.raises(ValueError, match=f"{column} must be finite"):
            arrhenius_fit(arrays["temperatures"], arrays["lifetimes"])

    @pytest.mark.parametrize("temps, lifetimes", [
        ([223.15, 293.15], [600.0]), ([[223.15, 293.15]], [[600.0, 300.0]])])
    def test_rejects_unequal_or_not_1d(self, temps, lifetimes):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            arrhenius_fit(temps, lifetimes)

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
            fit = arrhenius_fit(temps, noisy)
            if abs(fit.activation_energy - ea_true) / ea_true < 0.15:
                hits += 1
        assert hits >= 95
