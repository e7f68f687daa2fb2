"""Gating-frequency classification tests.

The monotonicity checks run below the release-window turnover (near
T_gap ~ 0.9 * lifetime the per-gate capture window starts shrinking faster
than inter-gate survival grows), where the pure-survival intuition holds.
"""

from dataclasses import replace

import numpy as np
import pytest

from aftergate import (Environment, TrapSpecies,
                       attack_qber_at_frequency, feasibility_band,
                       noise_qber, rescale_detector, sweep_delay)
from aftergate.feasibility import classify, suitable_interval


class TestNoiseQber:
    def test_zero_without_capture_and_background(self, det, env):
        quiet = replace(det, dark_count_prob=0.0, afterpulse_prob=0.0,
                        interface_trap=TrapSpecies(
                            0.040, 100.0, capture_fraction_photo=0.0))
        assert noise_qber(quiet, env) == 0.0

    def test_below_threshold_at_default_operating_point(self, det, env):
        assert noise_qber(det, env) < 0.11

    def test_non_decreasing_in_frequency(self, det, env):
        freqs = np.geomspace(1e7, 2e9, 40)  # below the 20 C turnover
        q = [noise_qber(rescale_detector(det, f), env) for f in freqs]
        assert np.all(np.diff(q) >= -1e-15)

    def test_colder_is_noisier_in_survival_regime(self, det, env, cold_env):
        for f in np.geomspace(2e8, 1.2e9, 12):
            d = rescale_detector(det, f)
            assert noise_qber(d, cold_env) > noise_qber(d, env)

    def test_rejects_zero_flux(self, det, env):
        with pytest.raises(ValueError):
            noise_qber(det, env, signal_flux=0.0)


class TestAttackQber:
    def test_high_frequency_detectable(self, det, env):
        d = rescale_detector(det, 2e9)
        assert attack_qber_at_frequency(d, env) > 0.11

    def test_low_frequency_vulnerable_matches_bare_dip(self, det, env):
        # at 10 MHz the traps are empty by the next gate: the corrected
        # QBER collapses to the target-gate dip (plus dark floor)
        d = rescale_detector(det, 1e7)
        q = attack_qber_at_frequency(d, env)
        assert q < 0.11
        delays = np.linspace(0.0, 1.05 * d.timing.gate_width, 512)
        pts = sweep_delay(d, 20.0, delays, env)
        bare_dip = np.nanmin([p.q_target for p in pts])
        assert q == pytest.approx(bare_dip, abs=0.02)

    def test_non_decreasing_in_frequency(self, det, env):
        freqs = np.geomspace(1e7, 1.6e9, 30)  # below the 20 C turnover
        q = [attack_qber_at_frequency(rescale_detector(det, f), env)
             for f in freqs]
        assert np.all(np.diff(q) >= -1e-12)


class TestClassification:
    def test_trichotomy_is_pure_function(self):
        assert classify(0.12, 0.20) == "Noisy"
        assert classify(0.05, 0.08) == "Vulnerable"
        assert classify(0.05, 0.20) == "Suitable"
        # noise dominates when both fail
        assert classify(0.12, 0.08) == "Noisy"

    def test_threshold_is_configurable_and_shifts_both_edges(self, det, env):
        freqs = np.geomspace(1e8, 2e9, 12)
        loose = feasibility_band(freqs, env, det, threshold=0.20)
        tight = feasibility_band(freqs, env, det, threshold=0.05)
        loose_s = [v.frequency for v in loose if v.classification == "Suitable"]
        tight_s = [v.frequency for v in tight if v.classification == "Suitable"]
        assert loose_s != tight_s


@pytest.fixture(scope="module")
def freqs():
    return np.geomspace(1e7, 5e9, 50)


@pytest.fixture(scope="module")
def band20(det, env, freqs):
    return feasibility_band(freqs, env, det)


@pytest.fixture(scope="module")
def band50(det, cold_env, freqs):
    return feasibility_band(freqs, cold_env, det)


class TestBand:
    def test_one_ghz_suitable_at_room_temperature(self, band20):
        i = int(np.argmin(np.abs(np.array([v.frequency for v in band20])
                                 - 1e9)))
        assert band20[i].classification == "Suitable"

    def test_every_point_classified_exactly_once(self, band20, band50):
        for band in (band20, band50):
            for v in band:
                assert v.classification in ("Noisy", "Suitable", "Vulnerable")
                assert v.classification == classify(v.q_noise, v.q_attack)

    def test_suitable_set_is_interval(self, band20, band50):
        for band in (band20, band50):
            idx = [i for i, v in enumerate(band)
                   if v.classification == "Suitable"]
            assert idx, "suitable band must be non-empty"
            assert np.all(np.diff(idx) == 1)

    def test_no_interleaving_in_room_temperature_sequence(self, band20):
        # ascending grid: vulnerable block, then suitable, then (possibly
        # empty) noisy block
        seq = "".join({"Vulnerable": "V", "Suitable": "S",
                       "Noisy": "N"}[v.classification] for v in band20)
        assert "SV" not in seq and "NV" not in seq and "NS" not in seq

    def test_cold_band_sits_at_lower_frequencies(self, band20, band50):
        lo20, hi20 = suitable_interval(band20)
        lo50, hi50 = suitable_interval(band50)
        assert np.sqrt(lo50 * hi50) < np.sqrt(lo20 * hi20)

    def test_rejects_unsorted_grid(self, det, env):
        with pytest.raises(ValueError):
            feasibility_band([1e9, 1e8], env, det)


class TestBroadcastBand:
    @pytest.mark.parametrize("points", [None, 1], ids=["default", "one"])
    def test_equals_per_frequency_calls(self, default_cfg, points):
        # one pass over the clock array gives exactly what one scalar
        # clock per frequency gives, at every shipped temperature
        det = default_cfg.detector
        sec = default_cfg.values["feasibility"]
        sc = default_cfg.values["scenario"]
        freqs = np.geomspace(sec["freq_min"], sec["freq_max"],
                             points or sec["freq_points"])
        for temp in sec["temperatures"]:
            env = replace(default_cfg.environment, temperature=temp)
            band = feasibility_band(freqs, env, det, sc["signal_flux"],
                                    sc["attack_flux"])
            dets = [rescale_detector(det, f) for f in freqs]
            assert np.array_equal(band.q_noise, [
                noise_qber(d, env, sc["signal_flux"]) for d in dets])
            assert np.array_equal(band.q_attack, [
                attack_qber_at_frequency(d, env, sc["attack_flux"])
                for d in dets])


class TestRescale:
    def test_duty_cycle_preserved(self, det):
        d2 = rescale_detector(det, 2e9)
        duty0 = det.timing.gate_width / det.timing.gate_period
        duty2 = d2.timing.gate_width / d2.timing.gate_period
        assert duty2 == pytest.approx(duty0, rel=1e-12)
        assert d2.timing.gate_period == pytest.approx(500.0, rel=1e-12)
