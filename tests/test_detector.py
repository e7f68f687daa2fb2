"""Detector-model unit tests.

Frozen reference values were evaluated independently at 30-digit precision
(Arrhenius exponentials and Poisson tail sums by direct series).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftergate import (Environment, PulseSpec, TrapSpecies,
                       click_probability, trap_lifetime, trap_loading)
from aftergate.attack import (attack_histogram, contour_flux_delay,
                              gate2_vs_delay, sweep_delay)
from aftergate.detector import (DetectorParams, GateTiming,
                                click_probability_array,
                                delayed_click_probability_arrays,
                                delayed_release_mean, poisson_tail)
from aftergate.feasibility import feasibility_band, rescale_detector
from aftergate.montecarlo import (analytic_gate_probabilities,
                                  simulate_pulse_train)


def species(ea, tau0, **kw):
    return TrapSpecies(activation_energy=ea, lifetime_prefactor=tau0, **kw)


ROOM = Environment(temperature=293.15)
COLD = Environment(temperature=243.15)


class TestTrapLifetime:
    def test_zero_activation_energy_returns_prefactor(self):
        assert trap_lifetime(species(0.0, 100.0), ROOM) == 100.0

    def test_room_temperature_value(self):
        # 50 * exp(0.030 / (8.617e-5 * 293.15)) = 163.96235872...
        tau = trap_lifetime(species(0.030, 50.0), ROOM)
        assert tau == pytest.approx(163.962358725926, rel=1e-12)

    def test_cold_value_and_monotonicity(self):
        # 50 * exp(0.030 / (8.617e-5 * 243.15)) = 209.31726746...
        sp = species(0.030, 50.0)
        cold = trap_lifetime(sp, COLD)
        assert cold == pytest.approx(209.317267462083, rel=1e-12)
        assert cold > trap_lifetime(sp, ROOM)

    def test_lower_activation_energy_gives_shorter_lifetime_everywhere(self):
        # two excess-bias settings map to two barrier heights
        low, high = species(0.020, 50.0), species(0.045, 50.0)
        for t in (193.15, 243.15, 293.15, 333.15):
            e = Environment(temperature=t)
            assert trap_lifetime(low, e) < trap_lifetime(high, e)

    def test_underflowing_temperature_is_the_cold_limit(self):
        # k_B * 1e-322 K underflows to 0: a positive barrier never releases,
        # a zero barrier keeps its prefactor
        tiny = Environment(temperature=1e-322)
        assert trap_lifetime(species(0.030, 50.0), tiny) == math.inf
        assert trap_lifetime(species(0.0, 100.0), tiny) == 100.0

    def test_rejects_nonfinite_environment(self):
        with pytest.raises(ValueError):
            Environment(temperature=float("nan"))
        with pytest.raises(ValueError):
            Environment(temperature=-10.0)


def make_detector(dark=0.0, q_disc=0.5, gain_floor=0.10, eta=0.28,
                  afterpulse=0.0):
    return DetectorParams(
        timing=GateTiming(gating_frequency=1e9, gate_width=166.0),
        detection_efficiency=eta,
        discrimination_threshold=q_disc,
        dark_count_prob=dark,
        afterpulse_prob=afterpulse,
        interface_trap=TrapSpecies(0.040, 100.0,
                                   capture_fraction_photo=0.0034),
        multiplication_trap=TrapSpecies(0.110, 8.0,
                                        capture_per_avalanche_charge=0.10,
                                        retention_strength=1.0),
    )


class TestClickProbability:
    def test_no_light_no_darks(self):
        d = make_detector()
        assert click_probability(d, PulseSpec(0.0, 20.0)) == 0.0

    def test_single_threshold_poisson_tail(self):
        # N_th = 1 at mid gate; lam = mu * eta = 0.1 -> 1 - e^-0.1
        d = make_detector(eta=1.0)
        p = click_probability(d, PulseSpec(0.1, 20.0))
        assert p == pytest.approx(0.095162581964040, rel=1e-12)

    def test_fourfold_threshold_superlinearity(self):
        # engineer N_th = 4: with gain floor 0.1 and threshold 0.4,
        # any delay past the gain edge has ceil(0.4 / 0.1) = 4
        d = make_detector(q_disc=0.4, eta=1.0)
        delay = 165.0
        assert float(d.threshold_count(delay)) == 4.0
        shape = float(d.trigger_shape(delay))
        mu_h = 1.0 / shape  # lam_h = 1
        p_h = click_probability(d, PulseSpec(mu_h, delay))
        p_f = click_probability(d, PulseSpec(2 * mu_h, delay))
        # Poisson upper tails P[n>=4] at lam=1 and lam=2
        assert p_h == pytest.approx(0.018988156876154, rel=1e-10)
        assert p_f == pytest.approx(0.142876539501453, rel=1e-10)
        assert p_f > 2 * p_h

    def test_dark_counts_combine_independently(self):
        d = make_detector(dark=0.01, eta=1.0)
        p_light = click_probability(make_detector(eta=1.0), PulseSpec(0.1, 20.0))
        p = click_probability(d, PulseSpec(0.1, 20.0))
        assert p == pytest.approx(1 - (1 - p_light) * 0.99, rel=1e-12)

    def test_threshold_tie_counts_as_click(self):
        # threshold 0.5 with gain exactly 0.5 -> a single avalanche clicks
        d = make_detector(q_disc=0.5)
        width = d.timing.gate_width
        flat = d.gain_flat_fraction * width
        edge = d.gain_edge_fraction * width
        # raised cosine hits (0.5 - 0.1)/0.9 at u where cos = -1/9
        u = math.acos(2 * (0.5 - 0.1) / 0.9 - 1.0) / math.pi
        t_half = flat + u * edge
        assert float(d.gain(t_half)) == pytest.approx(0.5, abs=1e-12)
        assert float(d.threshold_count(t_half)) == 1.0

    def test_delay_outside_period_rejected(self):
        with pytest.raises(ValueError):
            click_probability(make_detector(), PulseSpec(1.0, 1000.0))

    @given(st.floats(min_value=1e-3, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_regime_identity(self, mu):
        # wherever N_th = 1 and darks are off: p(2mu) = 2 p(mu) - p(mu)^2
        d = make_detector(eta=1.0)
        p1 = click_probability(d, PulseSpec(mu, 10.0))
        p2 = click_probability(d, PulseSpec(2 * mu, 10.0))
        assert p2 == pytest.approx(2 * p1 - p1 * p1, abs=1e-12)


@pytest.fixture(scope="module")
def scipy_poisson():
    return pytest.importorskip("scipy.stats").poisson


# Outputs below the smallest normal double carry fewer than 12 digits in
# either implementation, so they are compared absolutely.
TINY = np.finfo(float).tiny


class TestPoissonTail:
    @given(st.integers(1, 50),
           st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=60.0)))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_oracle(self, scipy_poisson, k, lam):
        assert float(poisson_tail(k, lam)) == pytest.approx(
            scipy_poisson.sf(k - 1, lam), rel=1e-12, abs=TINY)

    def test_mean_equal_to_threshold(self, scipy_poisson):
        k = np.arange(1, 51)
        np.testing.assert_allclose(poisson_tail(k, k.astype(float)),
                                   scipy_poisson.sf(k - 1, k), rtol=1e-12)

    # e^-lam is subnormal or 0 past lam ~ 708; (700, 690) sits just below
    @pytest.mark.parametrize("k, lam", [(800, 790.0), (800, 820.0),
                                        (760, 750.0), (5, 1400.0),
                                        (700, 690.0)])
    def test_large_mean_matches_scipy_oracle(self, scipy_poisson, k, lam):
        assert float(poisson_tail(k, lam)) == pytest.approx(
            scipy_poisson.sf(k - 1, lam), rel=1e-12)

    # the range the first term's underflow once split between code paths
    @given(st.integers(1, 1000),
           st.one_of(st.just(0.0),
                     st.floats(min_value=1e-12, max_value=1500.0)))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_oracle_to_k_1000(self, scipy_poisson, k, lam):
        assert float(poisson_tail(k, lam)) == pytest.approx(
            scipy_poisson.sf(k - 1, lam), rel=1e-11, abs=TINY)

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            poisson_tail(1, -0.5)

    def test_grid_equals_elementwise_evaluation(self):
        # first terms are tabulated once per distinct value, then scattered
        k = np.array([[1.0], [3.0], [3.0], [200.0]])
        lam = np.array([0.0, 2.0, 3.0, 40.0])
        grid = poisson_tail(k, lam)
        assert grid.shape == (4, 4)
        assert grid.tolist() == [[float(poisson_tail(ki, li)) for li in lam]
                                 for ki in k[:, 0]]


class TestTrapLoading:
    def test_zero_flux_zero_populations(self):
        pop_if, pop_m = trap_loading(make_detector(), 0.0, [20.0, 100.0])
        assert np.all(pop_if == 0.0)
        assert np.all(pop_m == 0.0)

    def test_linear_in_flux(self):
        d = make_detector()
        delays = np.array([20.0, 150.0, 400.0])
        for one, two in zip(trap_loading(d, 10.0, delays),
                            trap_loading(d, 20.0, delays)):
            np.testing.assert_allclose(two, 2 * one, rtol=1e-12)

    def test_end_of_gate_retention_exceeds_mid_gate_at_equal_charge(self):
        # same expected avalanche charge lam*g, later gate position:
        # retention 1 + k(1-g) with k=1 gives exactly 1.75 at g = 0.25
        d = make_detector()
        w = d.timing.gate_width
        u = math.acos(2 * (0.25 - 0.1) / 0.9 - 1.0) / math.pi
        t_end = d.gain_flat_fraction * w + u * d.gain_edge_fraction * w
        assert float(d.gain(t_end)) == pytest.approx(0.25, abs=1e-12)
        mu_mid = 10.0
        lam_g_mid = mu_mid * d.detection_efficiency * 1.0 * 1.0
        shape_end = float(d.trigger_shape(t_end))
        mu_end = lam_g_mid / (d.detection_efficiency * shape_end * 0.25)
        pop_mid = trap_loading(d, mu_mid, 20.0)[1]
        pop_end = trap_loading(d, mu_end, t_end)[1]
        assert pop_end / pop_mid == pytest.approx(1.75, rel=1e-9)
        assert pop_end > pop_mid


class ReferenceTrapState:
    def __init__(self, interface_population, multiplication_population,
                 loaded_at):
        self.interface_population = interface_population
        self.multiplication_population = multiplication_population
        self.loaded_at = loaded_at


def reference_trap_loading(det, pulse, env=None):
    """The scalar trap loading the vectorized kernel replaced, kept verbatim
    (apart from its state class) as the oracle."""
    det.timing.delays(pulse.delay)
    carriers = pulse.mean_flux * det.detection_efficiency
    uncrossed = 1.0 - float(det.trigger_probability(pulse.delay))
    pop_if = carriers * det.interface_trap.capture_fraction_photo * uncrossed

    lam = float(det.mean_avalanches(pulse.mean_flux, pulse.delay))
    g = float(det.gain(pulse.delay))
    mult = det.multiplication_trap
    retention = 1.0 + mult.retention_strength * (1.0 - g)
    pop_mult = mult.capture_per_avalanche_charge * lam * g * retention
    return ReferenceTrapState(pop_if, pop_mult, pulse.delay)


def reference_delayed_release_mean(det, state, env, gate_offset):
    offs = np.asarray(gate_offset, dtype=float)
    period = det.timing.gate_period
    width = det.timing.gate_width
    start = offs * period - state.loaded_at
    total = np.zeros_like(offs, dtype=float)
    for species, pop in ((det.interface_trap, state.interface_population),
                         (det.multiplication_trap, state.multiplication_population)):
        if pop == 0.0:
            continue
        tau = trap_lifetime(species, env)
        total += pop * (np.exp(-start / tau) - np.exp(-(start + width) / tau))
    return total * det.trigger_peak


class TestDelayedClickProbability:
    @given(flux=st.floats(min_value=0.0, max_value=200.0),
           delay=st.floats(min_value=0.0, max_value=999.999),
           offsets=st.lists(st.integers(1, 20), min_size=1, max_size=6),
           temperature=st.floats(min_value=200.0, max_value=320.0),
           species=st.sampled_from(["interface", "multiplication", "both"]))
    @settings(max_examples=200, deadline=None)
    def test_kernel_equals_scalar_reference(self, flux, delay, offsets,
                                            temperature, species):
        d = make_detector()
        if species == "interface":
            d = replace(d, multiplication_trap=replace(
                d.multiplication_trap, capture_per_avalanche_charge=0.0))
        elif species == "multiplication":
            d = replace(d, interface_trap=replace(
                d.interface_trap, capture_fraction_photo=0.0))
        env = Environment(temperature=temperature)
        state = reference_trap_loading(d, PulseSpec(flux, delay))
        pop_if, pop_m = trap_loading(d, flux, delay)
        assert float(pop_if) == state.interface_population
        assert float(pop_m) == state.multiplication_population
        expected = reference_delayed_release_mean(d, state, env, offsets)
        got = delayed_release_mean(d, flux, delay, env, offsets)
        assert np.array_equal(got, expected)
        # a delay grid at one offset matches the same scalar reference
        grid = delayed_release_mean(d, flux, [delay, 0.0], env, offsets[0])
        assert grid[0] == expected[0]

    def test_empty_state_gives_darks_exactly(self):
        d = make_detector(dark=3e-4)
        d = replace(d, interface_trap=replace(d.interface_trap,
                                              capture_fraction_photo=0.0),
                    multiplication_trap=replace(
                        d.multiplication_trap,
                        capture_per_avalanche_charge=0.0))
        delays = np.array([0.0, 150.0, 500.0])
        assert np.all(delayed_release_mean(d, 80.0, delays, ROOM) == 0.0)
        np.testing.assert_allclose(
            delayed_click_probability_arrays(d, 80.0, delays, ROOM), 3e-4,
            rtol=1e-12)

    def test_rejects_offset_zero(self):
        with pytest.raises(ValueError):
            delayed_click_probability_arrays(make_detector(), 80.0, [150.0],
                                             ROOM, gate_offset=0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            delayed_click_probability_arrays(make_detector(), 80.0, [150.0],
                                             ROOM, gate_offset=-1)

    def test_offsets_non_increasing(self):
        d = make_detector(dark=1e-4)
        probs = delayed_click_probability_arrays(d, 80.0, 150.0, ROOM,
                                                 np.arange(1, 6))
        assert np.all(np.diff(probs) <= 0.0)


def _last_pulse(d):
    """The last delay of a grid as one pulse."""
    return PulseSpec(mean_flux=80.0, delay=d[-1])


@pytest.mark.parametrize("clocks, delays, period", [
    (None, [-50.0, 1500.0], 1000), (None, [float("nan")], 1000),
    (None, [1000.0], 1000),
    # 800 ps lies within the 1 GHz clock but not the 2 GHz one; the message
    # names the shortest period
    ([1e9, 2e9], [800.0], 500),
], ids=["outside", "nan", "period", "array_clock"])
@pytest.mark.parametrize("kernel", [
    lambda det, env, d: click_probability_array(det, 80.0, d),
    lambda det, env, d: trap_loading(det, 80.0, d),
    lambda det, env, d: delayed_release_mean(det, 80.0, d, env),
    lambda det, env, d: delayed_click_probability_arrays(det, 80.0, d, env),
    lambda det, env, d: click_probability(det, _last_pulse(d)),
    lambda det, env, d: sweep_delay(det, 80.0, d, env),
    lambda det, env, d: gate2_vs_delay(det, 80.0, d, env),
    lambda det, env, d: contour_flux_delay(det, [20.0, 80.0], d),
    lambda det, env, d: analytic_gate_probabilities(
        det, [(0, _last_pulse(d))], env, window=4),
    lambda det, env, d: simulate_pulse_train(
        det, [(0, _last_pulse(d))], env, trials=10, seed=1, window=4),
], ids=["click_probability_array", "trap_loading", "delayed_release_mean",
        "delayed_click_probability_arrays", "click_probability",
        "sweep_delay", "gate2_vs_delay", "contour_flux_delay",
        "analytic_gate_probabilities", "simulate_pulse_train"])
def test_kernels_reject_delay_outside_period(det, env, kernel, clocks,
                                             delays, period):
    if clocks is not None:
        det = rescale_detector(det, np.array(clocks))
    with pytest.raises(ValueError, match=rf"within \[0, {period}\) ps"):
        kernel(det, env, delays)


@pytest.mark.parametrize("entry", [
    lambda det, env, p: click_probability(det, p),
    lambda det, env, p: analytic_gate_probabilities(det, [(0, p)], env,
                                                    window=4),
    lambda det, env, p: attack_histogram(det, p.mean_flux, p.delay, env,
                                         gates=4),
    lambda det, env, p: simulate_pulse_train(det, [(0, p)], env, trials=10,
                                             seed=1, window=4),
], ids=["click_probability", "analytic_gate_probabilities",
        "attack_histogram", "simulate_pulse_train"])
def test_scalar_entry_points_reject_array_clock(det, env, entry):
    # 80 ps lies within both periods, so only the number of clocks is wrong
    det = rescale_detector(det, np.array([1e9, 2e9]))
    with pytest.raises(ValueError, match="takes one gating clock"):
        entry(det, env, PulseSpec(mean_flux=80.0, delay=80.0))


@pytest.mark.parametrize("flux", [-5.0, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("kernel", [
    lambda det, env, f: click_probability_array(det, f, [100.0, 120.0]),
    lambda det, env, f: trap_loading(det, f, [100.0, 120.0]),
    lambda det, env, f: delayed_release_mean(det, f, [100.0, 120.0], env),
    lambda det, env, f: delayed_click_probability_arrays(det, f,
                                                         [100.0, 120.0], env),
    lambda det, env, f: gate2_vs_delay(det, f, [100.0, 120.0], env),
], ids=["click_probability_array", "trap_loading", "delayed_release_mean",
        "delayed_click_probability_arrays", "gate2_vs_delay"])
def test_kernels_reject_bad_flux(det, env, kernel, flux):
    with pytest.raises(ValueError, match="mean flux must be finite and >= 0"):
        kernel(det, env, flux)


class TestProfiles:
    def test_trigger_zero_outside_gate(self, det):
        assert float(det.trigger_shape(-1.0)) == 0.0
        assert float(det.trigger_shape(det.timing.gate_width)) == 0.0
        assert float(det.trigger_shape(500.0)) == 0.0

    def test_gain_minimal_outside_gate(self, det):
        assert float(det.gain(-1.0)) == det.gain_floor
        assert float(det.gain(600.0)) == det.gain_floor

    def test_profiles_non_increasing_over_trailing_edge(self, det):
        t = np.linspace(0.0, det.timing.gate_width, 500)
        assert np.all(np.diff(det.trigger_shape(t)) <= 1e-15)
        assert np.all(np.diff(det.gain(t)) <= 1e-15)

    def test_degenerate_gate_rejected(self):
        with pytest.raises(ValueError):
            GateTiming(gating_frequency=1e9, gate_width=1000.0)
        with pytest.raises(ValueError):
            GateTiming(gating_frequency=1e9, gate_width=0.0)

    def test_clock_array_checked_elementwise(self):
        # a scalar clock names its own period; an array names the first
        # clock that fails
        with pytest.raises(ValueError, match=r"^gate_width must lie in "
                           r"\(0, period=1000 ps\), got 1000\.0$"):
            GateTiming(gating_frequency=1e9, gate_width=1000.0)
        with pytest.raises(ValueError, match=r"period=500 ps\), got 600\.0$"):
            GateTiming(gating_frequency=np.array([[1e9], [2e9], [4e9]]),
                       gate_width=np.array([[166.0], [600.0], [600.0]]))
        with pytest.raises(ValueError, match="gating_frequency must be > 0"):
            GateTiming(gating_frequency=np.array([[1e9], [0.0]]),
                       gate_width=166.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_frequency_named(self, det, env, bad):
        # not blamed on the width, whose period it would make NaN or 0
        match = r"^gating_frequency must be finite and > 0$"
        with pytest.raises(ValueError, match=match):
            GateTiming(gating_frequency=bad, gate_width=166.0)
        with pytest.raises(ValueError, match=match):
            feasibility_band([1e9, bad], env, det)

    def test_gate_period_derived_exactly(self):
        timing = GateTiming(gating_frequency=1e9, gate_width=166.0)
        assert timing.gate_period == 1000.0

    def test_interface_species_cannot_capture_avalanche_charge(self, det):
        with pytest.raises(ValueError, match="capture_per_avalanche_charge"):
            replace(det, interface_trap=TrapSpecies(
                0.04, 100.0, capture_per_avalanche_charge=0.1))

    @pytest.mark.parametrize("slot, unread", [
        ("interface_trap", "retention_strength"),
        ("multiplication_trap", "capture_fraction_photo"),
    ], ids=["interface", "multiplication"])
    def test_slot_rejects_capture_parameter_it_never_reads(self, det, slot,
                                                            unread):
        species = replace(getattr(det, slot), **{unread: 0.1})
        with pytest.raises(ValueError, match=f"^{slot} never reads {unread};"):
            replace(det, **{slot: species})

    @pytest.mark.parametrize("owner, field", [
        ("multiplication_trap", "lifetime_prefactor"),
        ("multiplication_trap", "capture_per_avalanche_charge"),
        ("multiplication_trap", "retention_strength"),
        (None, "discrimination_threshold"),
        (None, "afterpulse_spread_gates")])
    def test_nan_parameter_rejected(self, det, owner, field):
        # a NaN once passed its `<` bound and made the model's outputs NaN
        params = det if owner is None else getattr(det, owner)
        with pytest.raises(ValueError, match=field):
            replace(params, **{field: math.nan})


class TestDefaultCalibration:
    def test_interface_lifetime_subnanosecond_at_room_temperature(self, det):
        tau = trap_lifetime(det.interface_trap, ROOM)
        assert 100.0 < tau < 1000.0

    def test_multiplication_lifetime_longer_when_cold(self, det):
        # deep traps: comparable at room temperature, 2-3x longer at -30 C
        t_if_room = trap_lifetime(det.interface_trap, ROOM)
        t_m_room = trap_lifetime(det.multiplication_trap, ROOM)
        assert 0.5 < t_m_room / t_if_room < 2.0
        cold = Environment(temperature=243.15)
        ratio = trap_lifetime(det.multiplication_trap, cold) / \
            trap_lifetime(det.interface_trap, cold)
        assert 2.0 < ratio < 3.0

    def test_single_photon_efficiency(self, det):
        # click probability at optimum is 1 - exp(-mu * efficiency)
        p = click_probability(det, PulseSpec(0.1, 0.0))
        dark = det.dark_count_prob
        expected = 1 - (1 - (1 - math.exp(-0.1 * 0.28))) * (1 - dark)
        assert p == pytest.approx(expected, rel=1e-12)

    def test_superlinearity_localized_to_gate_end(self, det):
        delays = np.linspace(0.0, 239.0, 480)
        p_f = click_probability_array(det, 80.0, delays)
        p_h = click_probability_array(det, 40.0, delays)
        violation = p_f > 2 * p_h
        mid = delays < det.gain_flat_fraction * det.timing.gate_width
        assert not violation[mid].any()
        tail = delays > det.trigger_flat_fraction * det.timing.gate_width
        assert violation[tail].any()
