"""Monte Carlo engine: determinism, analytic agreement, dead time."""

from dataclasses import replace

import numpy as np
import pytest

from aftergate import (Environment, PulseSpec, montecarlo,
                       simulate_pulse_train)
from aftergate.detector import (GateTiming, poisson_tail, trap_lifetime,
                                trap_loading)
from aftergate.montecarlo import analytic_gate_probabilities
from dead_time_reference import dead_time_counts


def pulses(mu=0.1, delay=0.0):
    return [(0, PulseSpec(mean_flux=mu, delay=delay))]


def next_eligible(gate, window, dead_time, period):
    """First gate after an accepted click at `gate` that the dead time lets
    through, compared as the reference filter dead_time_counts does."""
    nxt = gate + 1
    while nxt < window and nxt * period - gate * period < dead_time:
        nxt += 1
    return nxt


def expected_accepted_counts(p, dead_time, period):
    """Expected accepted clicks per gate and trial, for independent gates
    clicking with probabilities p behind a non-paralyzable dead time.

    reach[s] is the probability that a trial is eligible again from gate s
    (a trial starts eligible at gate 0). From s the next accepted click is
    the first click at j >= s, with probability
    p_j * prod_{s<=i<j}(1 - p_i); it makes the trial eligible again at the
    first gate the dead time lets through."""
    window = p.size
    reach = np.zeros(window + 1)
    reach[0] = 1.0
    counts = np.zeros(window)
    for s in range(window):
        survive = np.concatenate([[1.0], np.cumprod(1.0 - p[s:])[:-1]])
        counts[s:] += reach[s] * p[s:] * survive
        # counts[s] is complete now: every start <= s has been added
        reach[next_eligible(s, window, dead_time, period)] += counts[s]
    return counts


class TestDeterminism:
    def test_identical_seeds_identical_histograms(self, det, env):
        a = simulate_pulse_train(det, pulses(), env, trials=20000, seed=42,
                                 window=8)
        b = simulate_pulse_train(det, pulses(), env, trials=20000, seed=42,
                                 window=8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, det, env):
        a = simulate_pulse_train(det, pulses(mu=40.0, delay=150.0), env,
                                 trials=20000, seed=1, window=8)
        b = simulate_pulse_train(det, pulses(mu=40.0, delay=150.0), env,
                                 trials=20000, seed=2, window=8)
        assert not np.array_equal(a, b)


class TestEdgeCases:
    def test_dark_free_zero_flux_is_all_zero(self, det, env):
        quiet = replace(det, dark_count_prob=0.0, afterpulse_prob=0.0)
        counts = simulate_pulse_train(quiet, pulses(mu=0.0), env, trials=5000,
                                      seed=3, window=6)
        assert int(counts.sum()) == 0

    def test_zero_trials_rejected(self, det, env):
        with pytest.raises(ValueError):
            simulate_pulse_train(det, pulses(), env, trials=0, seed=1,
                                 window=8)

    def test_window_too_small_rejected(self, det, env):
        with pytest.raises(ValueError):
            simulate_pulse_train(det, [(4, PulseSpec(0.1, 0.0))], env,
                                 trials=10, seed=1, window=4)

    def test_gate_indices_must_increase(self, det, env):
        specs = [(2, PulseSpec(0.1, 0.0)), (2, PulseSpec(0.1, 0.0))]
        with pytest.raises(ValueError):
            simulate_pulse_train(det, specs, env, trials=10, seed=1, window=8)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_uint64_rejected(self, det, env, seed):
        with pytest.raises(ValueError, match="seed"):
            simulate_pulse_train(det, pulses(), env, trials=10, seed=seed,
                                 window=8)

    @pytest.mark.parametrize("gate, window", [(4, 4), (5, 4), (-1, 4)])
    def test_pulse_gate_outside_window_rejected(self, det, env, gate, window):
        train = [(gate, PulseSpec(0.1, 0.0))]
        with pytest.raises(ValueError, match="window"):
            analytic_gate_probabilities(det, train, env, window)
        with pytest.raises(ValueError, match="window"):
            simulate_pulse_train(det, train, env, trials=10, seed=1,
                                 window=window)

    def test_negative_dead_time_rejected(self, det, env):
        with pytest.raises(ValueError):
            simulate_pulse_train(det, pulses(), env, trials=10, seed=1,
                                 window=8, dead_time=-1.0)

    @pytest.mark.parametrize("arg, value", [
        ("trials", 1000.9), ("trials", 1000.0), ("seed", 1.9),
        ("seed", np.float64(1.0))])
    def test_non_integral_count_rejected(self, det, env, arg, value):
        # trials=1000.9 once returned the counts of trials=1000 and
        # seed=1.9 those of seed 1
        args = {"trials": 1000, "seed": 1, arg: value}
        with pytest.raises(ValueError, match="integers"):
            simulate_pulse_train(det, pulses(), env, window=8, **args)

    @pytest.mark.parametrize("gate, window", [
        (0, 8.5), (0, np.float64(8.0)), (0.5, 8), (0.0, 8)])
    def test_non_integral_gate_rejected(self, det, env, gate, window):
        # a float window raised numpy's TypeError, a float gate its
        # IndexError
        train = [(gate, PulseSpec(0.1, 0.0))]
        with pytest.raises(ValueError, match="integers"):
            analytic_gate_probabilities(det, train, env, window)
        with pytest.raises(ValueError, match="integers"):
            simulate_pulse_train(det, train, env, trials=10, seed=1,
                                 window=window)

    def test_numpy_integers_accepted(self, det, env):
        expected = simulate_pulse_train(det, pulses(), env, trials=1000,
                                        seed=1, window=8)
        got = simulate_pulse_train(det, pulses(), env, trials=np.int64(1000),
                                   seed=np.uint64(1), window=np.int32(8))
        assert np.array_equal(got, expected)


class TestDeadTime:
    @pytest.mark.parametrize("dead_time", [0.0, 2500.0])
    def test_stream_is_documented_binomial_recursion(self, det, env,
                                                     dead_time):
        # the documented stream: one Philox stream keyed by (seed, 0) for
        # all trials, here more than 65,536 (up to which the counts match
        # earlier chunked releases); gate by gate, the live trials click as one
        # Binomial(live, p_j) draw, and the trials that clicked are live
        # again at the first gate the dead time lets through
        train = pulses(mu=40.0, delay=150.0)
        trials, window, seed = (1 << 16) + 5000, 6, 11
        period = det.timing.gate_period
        p = analytic_gate_probabilities(det, train, env, window)
        expected = np.zeros(window, dtype=np.int64)
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64)))
        live = trials
        returning = np.zeros(window + 1, dtype=np.int64)
        for j in range(window):
            live += returning[j]
            clicks = rng.binomial(live, p[j])
            expected[j] = clicks
            live -= clicks
            returning[next_eligible(j, window, dead_time, period)] += clicks
        counts = simulate_pulse_train(det, train, env, trials=trials,
                                      seed=seed, window=window,
                                      dead_time=dead_time)
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("mu, delay", [(0.1, 0.0), (40.0, 150.0)])
    def test_long_dead_time_follows_first_click_law(self, det, env, mu,
                                                    delay):
        # a dead time at least the window span keeps only each trial's
        # first click: gate g counts with probability p_g * prod_{j<g}(1-p_j)
        trials, window = 100000, 10
        train = pulses(mu=mu, delay=delay)
        counts = simulate_pulse_train(
            det, train, env, trials=trials, seed=31, window=window,
            dead_time=window * det.timing.gate_period)
        p = analytic_gate_probabilities(det, train, env, window)
        first = p * np.concatenate([[1.0], np.cumprod(1.0 - p)[:-1]])
        freq = counts / trials
        se = np.sqrt(first * (1 - first) / trials)
        assert np.all(np.abs(freq - first) <= 4 * se + 1e-12)


TRAINS = {
    "single": [(0, PulseSpec(40.0, 150.0))],
    "multi": [(0, PulseSpec(40.0, 150.0)), (3, PulseSpec(0.5, 10.0)),
              (5, PulseSpec(80.0, 160.0))],
}


class TestExactLaw:
    @pytest.mark.parametrize("dead_time, window, trials", [
        (0.0, 12, 100000), (2500.0, 12, 100000), (12000.0, 12, 100000),
        (50000.0, 1000, 100000), (50000.0, 1000, 2 ** 62)],
        ids=["0.0", "2500.0", "12000.0", "long_window", "long_window_2**62"])
    @pytest.mark.parametrize("train", sorted(TRAINS))
    def test_counts_follow_dead_time_law(self, det, env, train, dead_time,
                                         window, trials):
        # 12000 ps is the 12-gate window's span: only each trial's first
        # click counts; the long window spans twenty 50-gate dead times.
        # 2**62 trials take the binomial draw near its int64 limit
        counts = simulate_pulse_train(det, TRAINS[train], env, trials=trials,
                                      seed=404, window=window,
                                      dead_time=dead_time)
        p = analytic_gate_probabilities(det, TRAINS[train], env, window)
        expected = expected_accepted_counts(p, dead_time,
                                            det.timing.gate_period)
        freq = counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)

    @pytest.mark.parametrize("dead_time", [0.0, 2500.0])
    def test_certain_and_impossible_gates(self, det, env, monkeypatch,
                                          dead_time):
        # gates 0 and 3 always click, gates 2 and 5 never do; with a
        # 2500 ps dead time the click at gate 0 keeps gates 1 and 2 dark
        p = np.array([1.0, 0.5, 0.0, 1.0, 0.3, 0.0])
        monkeypatch.setattr(montecarlo, "analytic_gate_probabilities",
                            lambda *args: p)
        trials = 20000
        counts = simulate_pulse_train(det, pulses(), env, trials=trials,
                                      seed=8, window=p.size,
                                      dead_time=dead_time)
        assert counts[0] == counts[3] == trials
        assert counts[2] == counts[5] == 0
        if dead_time:
            assert counts[1] == counts[4] == 0
        else:
            assert 0 < counts[1] < trials and 0 < counts[4] < trials

    def test_certain_gate_counts_every_eligible_trial(self, det, env,
                                                      monkeypatch):
        # with a 1500 ps dead time only an accepted click at gate 1 keeps
        # gate 2 inside the dead time; a click at gate 0 has ended by then
        p = np.array([0.3, 0.4, 1.0, 0.0, 0.2])
        monkeypatch.setattr(montecarlo, "analytic_gate_probabilities",
                            lambda *args: p)
        trials = 20000
        counts = simulate_pulse_train(det, pulses(), env, trials=trials,
                                      seed=9, window=p.size, dead_time=1500.0)
        assert 0 < counts[1] and counts[2] == trials - counts[1]
        assert counts[3] == 0

    @pytest.mark.parametrize("dead_time", [0.0, 2500.0])
    def test_count_dispersion_matches_click_matrix_filter(self, det, env,
                                                          monkeypatch,
                                                          dead_time):
        # the 4-sigma tests check only means; here the engine's per-gate
        # mean and variance over many small runs must match those of an
        # independent oracle, a Bernoulli (trial, gate) click matrix
        # filtered by dead_time_counts
        p = np.array([0.6, 0.3, 0.5, 0.9, 0.2, 0.45, 0.05, 0.7])
        monkeypatch.setattr(montecarlo, "analytic_gate_probabilities",
                            lambda *args: p)
        runs, trials, period = 2000, 10, det.timing.gate_period
        engine = np.array([simulate_pulse_train(
            det, pulses(), env, trials=trials, seed=seed, window=p.size,
            dead_time=dead_time) for seed in range(runs)])
        rng = np.random.default_rng(2011)
        oracle = np.array([dead_time_counts(rng.random((trials, p.size)) < p,
                                            dead_time, period)
                           for _ in range(runs)])

        def moments(x):
            mean, var = x.mean(axis=0), x.var(axis=0)
            fourth = ((x - mean) ** 4).mean(axis=0)
            return mean, var, var / runs, (fourth - var ** 2) / runs

        m_e, v_e, se2_m_e, se2_v_e = moments(engine)
        m_o, v_o, se2_m_o, se2_v_o = moments(oracle)
        assert np.all(np.abs(m_e - m_o) <= 4 * np.sqrt(se2_m_e + se2_m_o))
        assert np.all(np.abs(v_e - v_o) <= 4 * np.sqrt(se2_v_e + se2_v_o))

    @pytest.mark.parametrize("k, j", [(1, 59), (2, 59), (4, 59), (7, 3),
                                      (3, 0)])
    def test_dead_time_edges_match_click_matrix_filter(self, det, env,
                                                       monkeypatch, k, j):
        # at 3 GHz, i*T - l*T against a dead time of (j+k)*T - j*T rounds
        # either way for some gates l; with every gate certain, each trial
        # keeps the clicks dead_time_counts keeps of an all-click matrix
        fast = replace(det, timing=GateTiming(3e9, det.timing.gate_width))
        period, window, trials = fast.timing.gate_period, 80, 3
        dead_time = (j + k) * period - j * period
        monkeypatch.setattr(montecarlo, "analytic_gate_probabilities",
                            lambda *args: np.ones(window))
        counts = simulate_pulse_train(fast, pulses(), env, trials=trials,
                                      seed=1, window=window,
                                      dead_time=dead_time)
        clicked = np.ones((trials, window), dtype=bool)
        assert np.array_equal(counts,
                              dead_time_counts(clicked, dead_time, period))


class TestAnalyticAgreement:
    def test_recovers_detection_efficiency_at_million_trials(self, det, env):
        # the calibrated efficiency is 0.28: with mu = 0.1 at the optimal
        # delay the illuminated-gate click fraction estimates it through
        # eta_hat = -ln(1 - f) / mu; delta-method standard error applies
        trials = 1_000_000
        counts = simulate_pulse_train(det, pulses(mu=0.1, delay=0.0), env,
                                      trials=trials, seed=2808, window=4)
        # remove the dark/background contribution measured off-gate
        f_click = counts[0] / trials
        p_bg = analytic_gate_probabilities(det, pulses(0.1, 0.0), env, 4)[-1]
        f_light = 1 - (1 - f_click) / (1 - p_bg)
        eta_hat = -np.log(1 - f_light) / 0.1
        p = analytic_gate_probabilities(det, pulses(0.1, 0.0), env, 4)[0]
        se_f = np.sqrt(p * (1 - p) / trials)
        se_eta = se_f / (0.1 * (1 - f_light) * (1 - p_bg))
        assert abs(eta_hat - 0.28) <= 3 * se_eta

    def test_single_photon_frequencies_within_four_sigma(self, det, env):
        trials = 100000
        counts = simulate_pulse_train(det, pulses(), env, trials=trials,
                                      seed=99, window=10)
        expected = analytic_gate_probabilities(det, pulses(), env, 10)
        freq = counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)

    def test_attack_flux_frequencies_within_four_sigma(self, det, env):
        trials = 100000
        p = pulses(mu=80.0, delay=153.0)
        counts = simulate_pulse_train(det, p, env, trials=trials, seed=99,
                                      window=10)
        expected = analytic_gate_probabilities(det, p, env, 10)
        freq = counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)

    def test_multi_pulse_train(self, det, env):
        trials = 60000
        train = [(0, PulseSpec(40.0, 150.0)), (3, PulseSpec(0.5, 10.0)),
                 (5, PulseSpec(80.0, 160.0))]
        counts = simulate_pulse_train(det, train, env, trials=trials, seed=5,
                                      window=12)
        expected = analytic_gate_probabilities(det, train, env, 12)
        freq = counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)


@pytest.mark.parametrize("temperature", [293.15, 223.15])
def test_release_from_every_earlier_gate_has_closed_form(det, temperature):
    # a pulse in each of 3,000 gates, no dark counts or afterpulsing: the
    # last gate's release mean is the sum over offsets m >= 1 of
    # pop (e^{-(mT-d)/tau} - e^{-(mT-d+w)/tau}) trigger_peak, per species,
    # a geometric series in e^{-T/tau}
    quiet = replace(det, dark_count_prob=0.0, afterpulse_prob=0.0)
    env = Environment(temperature=temperature)
    flux, d = 80.0, 153.25
    train = [(g, PulseSpec(flux, d)) for g in range(3000)]
    p_last = analytic_gate_probabilities(quiet, train, env, 3000)[-1]
    p_light = poisson_tail(quiet.threshold_count(d),
                           quiet.mean_avalanches(flux, d))
    release = -np.log((1.0 - p_last) / (1.0 - p_light))
    period, width = quiet.timing.gate_period, quiet.timing.gate_width
    closed = 0.0
    for species, pop in zip((quiet.interface_trap, quiet.multiplication_trap),
                            trap_loading(quiet, flux, d)):
        tau = trap_lifetime(species, env)
        closed += (pop * np.exp(-(period - d) / tau) * -np.expm1(-width / tau)
                   / -np.expm1(-period / tau))
    np.testing.assert_allclose(release, closed * quiet.trigger_peak,
                               rtol=1e-12)
