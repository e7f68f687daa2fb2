"""Monte Carlo engine: determinism, analytic agreement, dead time."""

import numpy as np
import pytest

from aftergate import PulseSpec, simulate_pulse_train
from aftergate.io import write_histogram_csv
from aftergate.montecarlo import _CHUNK, analytic_gate_probabilities


def pulses(mu=0.1, delay=0.0):
    return [(0, PulseSpec(mean_flux=mu, delay=delay))]


class TestDeterminism:
    def test_identical_seeds_identical_histograms(self, det, env):
        a = simulate_pulse_train(det, pulses(), env, trials=20000, seed=42,
                                 window=8)
        b = simulate_pulse_train(det, pulses(), env, trials=20000, seed=42,
                                 window=8)
        assert np.array_equal(a.gate_counts, b.gate_counts)

    def test_worker_count_does_not_change_result(self, det, env):
        counts = []
        for workers in (1, 4, 8):
            h = simulate_pulse_train(det, pulses(mu=40.0, delay=150.0), env,
                                     trials=30000, seed=7, window=8,
                                     workers=workers)
            counts.append(h.gate_counts)
        assert np.array_equal(counts[0], counts[1])
        assert np.array_equal(counts[0], counts[2])

    def test_different_seeds_differ(self, det, env):
        a = simulate_pulse_train(det, pulses(mu=40.0, delay=150.0), env,
                                 trials=20000, seed=1, window=8)
        b = simulate_pulse_train(det, pulses(mu=40.0, delay=150.0), env,
                                 trials=20000, seed=2, window=8)
        assert not np.array_equal(a.gate_counts, b.gate_counts)


class TestEdgeCases:
    def test_dark_free_zero_flux_is_all_zero(self, det, env):
        from dataclasses import replace
        quiet = replace(det, dark_count_prob=0.0, afterpulse_prob=0.0)
        h = simulate_pulse_train(quiet, pulses(mu=0.0), env, trials=5000,
                                 seed=3, window=6)
        assert int(h.gate_counts.sum()) == 0

    def test_zero_trials_rejected(self, det, env):
        with pytest.raises(ValueError):
            simulate_pulse_train(det, pulses(), env, trials=0, seed=1)

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
            simulate_pulse_train(det, pulses(), env, trials=10, seed=seed)

    def test_negative_dead_time_rejected(self, det, env):
        with pytest.raises(ValueError):
            simulate_pulse_train(det, pulses(), env, trials=10, seed=1,
                                 dead_time=-1.0)


class TestDeadTime:
    def test_zero_dead_time_equals_unfiltered_counts(self, det, env):
        # the documented stream: chunk i draws one uniform per (trial, gate)
        # cell from Philox keyed by (seed, i) against the oracle's vector
        train = pulses(mu=40.0, delay=150.0)
        trials, window, seed = 20000, 6, 11
        p = analytic_gate_probabilities(det, train, env, window)
        expected = np.zeros(window, dtype=np.int64)
        for i, start in enumerate(range(0, trials, _CHUNK)):
            rng = np.random.Generator(np.random.Philox(
                key=np.array([seed, i], dtype=np.uint64)))
            n = min(_CHUNK, trials - start)
            expected += (rng.random((n, window)) < p).sum(axis=0)
        h = simulate_pulse_train(det, train, env, trials=trials, seed=seed,
                                 window=window, dead_time=0.0)
        assert np.array_equal(h.gate_counts, expected)

    def test_histogram_bytes_identical_across_workers(self, det, env,
                                                      tmp_path):
        files = []
        for workers in (1, 2, 3):
            h = simulate_pulse_train(det, pulses(mu=40.0, delay=150.0), env,
                                     trials=30000, seed=7, window=8,
                                     workers=workers, dead_time=2500.0)
            path = tmp_path / f"w{workers}.csv"
            write_histogram_csv(path, h)
            files.append(path.read_bytes())
        assert files[0] == files[1] == files[2]

    @pytest.mark.parametrize("mu, delay", [(0.1, 0.0), (40.0, 150.0)])
    def test_long_dead_time_follows_first_click_law(self, det, env, mu,
                                                    delay):
        # a dead time at least the window span keeps only each trial's
        # first click: gate g counts with probability p_g * prod_{j<g}(1-p_j)
        trials, window = 100000, 10
        train = pulses(mu=mu, delay=delay)
        h = simulate_pulse_train(det, train, env, trials=trials, seed=31,
                                 window=window,
                                 dead_time=window * det.timing.gate_period)
        p = analytic_gate_probabilities(det, train, env, window)
        first = p * np.concatenate([[1.0], np.cumprod(1.0 - p)[:-1]])
        freq = h.gate_counts / trials
        se = np.sqrt(first * (1 - first) / trials)
        assert np.all(np.abs(freq - first) <= 4 * se + 1e-12)


class TestAnalyticAgreement:
    def test_recovers_detection_efficiency_at_million_trials(self, det, env):
        # the calibrated efficiency is 0.28: with mu = 0.1 at the optimal
        # delay the illuminated-gate click fraction estimates it through
        # eta_hat = -ln(1 - f) / mu; delta-method standard error applies
        trials = 1_000_000
        h = simulate_pulse_train(det, pulses(mu=0.1, delay=0.0), env,
                                 trials=trials, seed=2808, window=4,
                                 workers=4)
        # remove the dark/background contribution measured off-gate
        f_click = h.gate_counts[0] / trials
        p_bg = analytic_gate_probabilities(det, pulses(0.1, 0.0), env, 4)[-1]
        f_light = 1 - (1 - f_click) / (1 - p_bg)
        eta_hat = -np.log(1 - f_light) / 0.1
        p = analytic_gate_probabilities(det, pulses(0.1, 0.0), env, 4)[0]
        se_f = np.sqrt(p * (1 - p) / trials)
        se_eta = se_f / (0.1 * (1 - f_light) * (1 - p_bg))
        assert abs(eta_hat - 0.28) <= 3 * se_eta

    def test_single_photon_frequencies_within_four_sigma(self, det, env):
        trials = 100000
        h = simulate_pulse_train(det, pulses(), env, trials=trials, seed=99,
                                 window=10)
        expected = analytic_gate_probabilities(det, pulses(), env, 10)
        freq = h.gate_counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)

    def test_attack_flux_frequencies_within_four_sigma(self, det, env):
        trials = 100000
        p = pulses(mu=80.0, delay=153.0)
        h = simulate_pulse_train(det, p, env, trials=trials, seed=99,
                                 window=10)
        expected = analytic_gate_probabilities(det, p, env, 10)
        freq = h.gate_counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)

    def test_multi_pulse_train(self, det, env):
        trials = 60000
        train = [(0, PulseSpec(40.0, 150.0)), (3, PulseSpec(0.5, 10.0)),
                 (5, PulseSpec(80.0, 160.0))]
        h = simulate_pulse_train(det, train, env, trials=trials, seed=5,
                                 window=12)
        expected = analytic_gate_probabilities(det, train, env, 12)
        freq = h.gate_counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)
