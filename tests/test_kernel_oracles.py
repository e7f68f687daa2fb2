"""Bit-identity of the analytic kernels against the versions they replaced.

The attack sweep once ran the kernel stack once per power, and the Poisson
tail once called lgamma on every cell of the broadcast grid. Both are kept
verbatim below as oracles, as is the flux x delay contour's pair of
whole-grid passes, which any blocked or fused contour must still match, and
the private array twins the three QBER formulas once had beside their
scalar wrappers. The current kernels must reproduce them to the last bit,
compared as int64 bit patterns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftergate import Environment
from aftergate.attack import (_delay_grid, _grid, _sweep_arrays,
                              contour_flux_delay, mean_delayed, qber_target,
                              qber_with_dd)
from aftergate.detector import (_series, click_probability_array,
                                delayed_click_probability_arrays,
                                poisson_tail)
from aftergate.feasibility import rescale_detector


def _qber_array(p_f, p_h):
    """Target-gate QBER (2 p_h - p_h^2) / (2 p_f + 2 (2 p_h - p_h^2));
    NaN where both probabilities vanish."""
    s = 2.0 * p_h - p_h * p_h
    denom = 2.0 * p_f + 2.0 * s
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, s / denom, np.nan)


def _mean_delayed_array(p_dd_f, p_dd_h):
    return 0.25 * p_dd_f + 0.5 * p_dd_h


def _qber_with_dd_array(p_f, p_h, p_bar):
    return _qber_array(np.minimum(p_f + p_bar, 1.0),
                       np.minimum(p_h + p_bar, 1.0))


def oracle_sweep_arrays(det, flux, delays, env):
    p_f = click_probability_array(det, flux, delays)
    p_h = click_probability_array(det, flux / 2.0, delays)
    p_ddf = delayed_click_probability_arrays(det, flux, delays, env)
    p_ddh = delayed_click_probability_arrays(det, flux / 2.0, delays, env)
    p_bar = _mean_delayed_array(p_ddf, p_ddh)
    return (p_f, p_h, p_ddf, p_ddh, p_bar, _qber_array(p_f, p_h),
            _qber_with_dd_array(p_f, p_h, p_bar))


def oracle_contour(det, fluxes, delays):
    f = _grid(fluxes, "flux")
    if np.any(f <= 0):
        raise ValueError("flux grid must be positive")
    d = _delay_grid(det, delays)
    p_f = click_probability_array(det, f[:, None], d)
    p_h = click_probability_array(det, f[:, None] / 2.0, d)
    return _qber_array(p_f, p_h)


def oracle_poisson_tail(k, lam):
    k, lam = np.broadcast_arrays(np.asarray(k, dtype=float),
                                 np.asarray(lam, dtype=float))
    if np.any(lam < 0):
        raise ValueError("Poisson mean must be >= 0")
    down = lam >= k
    first = np.where(down, k - 1.0, k)
    distinct, index = np.unique(first, return_inverse=True)
    log_fact = np.array([math.lgamma(n + 1.0) for n in distinct.tolist()])
    with np.errstate(divide="ignore"):
        pmf = np.exp(first * np.log(lam) - lam
                     - log_fact[index].reshape(first.shape))
    out = np.empty(k.shape)
    k_d, lam_d = k[down], lam[down]
    out[down] = 1.0 - oracle_series(pmf[down], lambda j: (k_d - j) / lam_d)
    k_u, lam_u = k[~down], lam[~down]
    out[~down] = oracle_series(pmf[~down], lambda j: lam_u / (k_u + j))
    return out


def oracle_series(term, ratio):
    total = term
    j = 1
    while np.any(term > 1e-17 * total):
        term = term * ratio(j)
        total = total + term
        j += 1
    return total


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _edges(det):
    """Delays on and next to every profile edge of the gate, and the gap."""
    w, period = det.timing.gate_width, det.timing.gate_period
    knots = [0.0, det.trigger_flat_fraction * w, det.gain_flat_fraction * w,
             (det.gain_flat_fraction + det.gain_edge_fraction) * w, w,
             period]
    near = [np.nextafter(x, s) for x in knots for s in (-np.inf, np.inf)]
    return [float(x) for x in knots + near if 0.0 <= x < period]


_FLUX = st.one_of(st.sampled_from([0.0, 0.1, 1.0, 40.0, 80.0]),
                  st.floats(0.0, 500.0))
_TEMPERATURE = st.floats(200.0, 320.0)


@st.composite
def _delays(draw, det):
    period = det.timing.gate_period
    delays = st.one_of(st.sampled_from(_edges(det)),
                       st.floats(0.0, period, exclude_max=True))
    return np.array(draw(st.lists(delays, min_size=1, max_size=40)))


class TestSweepArrays:
    @given(data=st.data(), flux=_FLUX, temperature=_TEMPERATURE)
    @settings(max_examples=150, deadline=None)
    def test_one_pass_matches_per_power_passes(self, det, data, flux,
                                               temperature):
        delays = data.draw(_delays(det))
        env = Environment(temperature=temperature)
        for got, expected in zip(_sweep_arrays(det, flux, delays, env),
                                 oracle_sweep_arrays(det, flux, delays, env),
                                 strict=True):
            assert_same_bits(got, expected)

    @given(freqs=st.lists(st.floats(1e8, 4e9), min_size=1, max_size=6),
           fractions=st.lists(st.floats(0.0, 0.999), min_size=1,
                              max_size=30),
           flux=_FLUX, temperature=_TEMPERATURE)
    @settings(max_examples=100, deadline=None)
    def test_array_clock_matches_per_power_passes(self, det, freqs,
                                                  fractions, flux,
                                                  temperature):
        clocks = rescale_detector(det, np.array(freqs))
        # (delay, clock) as in attack_qber_at_frequency, plus the gate edge
        delays = np.concatenate([
            np.array(fractions)[:, None] * clocks.timing.gate_period,
            np.linspace(0.0, clocks.timing.gate_width, 9)])
        env = Environment(temperature=temperature)
        for got, expected in zip(_sweep_arrays(clocks, flux, delays, env),
                                 oracle_sweep_arrays(clocks, flux, delays,
                                                     env),
                                 strict=True):
            assert_same_bits(got, expected)


# probabilities with exact 0 and 1 likely, so no-signal cells and the
# clamp at 1 both occur
_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 0.5]),
                         st.floats(0.0, 1.0))


class TestQberFormulas:
    @given(st.lists(st.tuples(*[_PROBABILITY] * 4), min_size=1,
                    max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_grids_match_array_oracles(self, cells):
        p_f, p_h, p_ddf, p_ddh = np.array(cells).T
        p_bar = _mean_delayed_array(p_ddf, p_ddh)
        assert_same_bits(qber_target(p_f, p_h), _qber_array(p_f, p_h))
        assert_same_bits(mean_delayed(p_ddf, p_ddh), p_bar)
        assert_same_bits(qber_with_dd(p_f, p_h, p_ddf, p_ddh),
                         _qber_with_dd_array(p_f, p_h, p_bar))


@st.composite
def _contour_grid(draw, det):
    """(fluxes, delays): 1-300 fluxes and 1-129 delays, edge and random."""
    fluxes = draw(st.lists(st.one_of(st.sampled_from([0.1, 1.0, 40.0, 80.0,
                                                      1000.0]),
                                     st.floats(1e-3, 2000.0)),
                           min_size=1, max_size=300))
    period = det.timing.gate_period
    delays = draw(st.lists(st.one_of(st.sampled_from(_edges(det)),
                                     st.floats(0.0, period,
                                               exclude_max=True)),
                           min_size=1, max_size=129))
    return np.array(fluxes), np.array(delays)


class TestContour:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_grids_match_oracle(self, det, data):
        fluxes, delays = data.draw(_contour_grid(det))
        assert_same_bits(contour_flux_delay(det, fluxes, delays),
                         oracle_contour(det, fluxes, delays))

    @pytest.mark.parametrize("flux_points, delay_points", [
        (250, 1001),
        (3, 2 ** 15 + 1),
        (1, 1),
    ])
    def test_fixed_grids_match_oracle(self, det, flux_points, delay_points):
        fluxes = np.linspace(2.0, 1000.0, flux_points)
        delays = np.linspace(0.0, 200.0, delay_points)
        assert_same_bits(contour_flux_delay(det, fluxes, delays),
                         oracle_contour(det, fluxes, delays))


@st.composite
def _tail_grid(draw):
    """Threshold counts (repeats likely) and means that include 0 and
    means equal to, or above, some of the counts."""
    k = draw(st.lists(st.integers(1, 300), min_size=1, max_size=12))
    lam = draw(st.lists(st.one_of(st.just(0.0), st.sampled_from(k),
                                  st.integers(1, 400),
                                  st.floats(0.0, 400.0)),
                        min_size=1, max_size=12))
    return np.array(k, dtype=float), np.array(lam, dtype=float)


class TestPoissonTail:
    @given(_tail_grid())
    @settings(max_examples=200, deadline=None)
    def test_broadcast_grid_matches_per_cell_lgamma(self, grid):
        k, lam = grid
        assert_same_bits(poisson_tail(k[:, None], lam[None, :]),
                         oracle_poisson_tail(k[:, None], lam[None, :]))
        assert_same_bits(poisson_tail(k[0], lam),
                         oracle_poisson_tail(k[0], lam))
        assert_same_bits(poisson_tail(k[0], lam[0]),
                         oracle_poisson_tail(k[0], lam[0]))


_SERIES_PAIR = st.integers(1, 60).flatmap(lambda k: st.tuples(
    st.just(float(k)),
    st.one_of(st.just(0.0), st.just(float(k)), st.floats(0.0, 200.0))))


class TestSeries:
    @given(st.lists(_SERIES_PAIR, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_batched_series_matches_each_element_alone(self, pairs):
        # both branches of poisson_tail, on (k, lam) pairs whose elements
        # converge after different numbers of terms: the terms an element
        # takes while the others converge change none of its bits
        k, lam = np.array(pairs).T
        down = lam >= k
        first = np.where(down, k - 1.0, k)
        log_fact = np.array([math.lgamma(n + 1.0) for n in first.tolist()])
        with np.errstate(divide="ignore"):
            pmf = np.exp(first * np.log(lam) - lam - log_fact)
        for branch, ratio in ((down, lambda j, k, lam: (k - j) / lam),
                              (~down, lambda j, k, lam: lam / (k + j))):
            k_b, lam_b = k[branch], lam[branch]
            pmf_b = pmf[branch]
            alone = [_series(pmf_b[i:i + 1], ratio, k_b[i:i + 1],
                             lam_b[i:i + 1])[0] for i in range(pmf_b.size)]
            assert_same_bits(_series(pmf_b, ratio, k_b, lam_b), alone)


def test_heatmap_ticks_match_np_unique():
    for n in range(1, 300):
        cells = np.linspace(0, n - 1, 5)
        assert sorted({round(t) for t in cells.tolist()}) == \
            np.unique(cells.round().astype(int)).tolist()
