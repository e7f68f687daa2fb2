"""QBER equations, sweeps, attack histograms, contour, key-rate convexity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftergate import (NoSignalError, attack_histogram, binary_entropy,
                       contour_flux_delay, gate2_vs_delay, key_rate,
                       mean_delayed, partial_attack_rates, qber_target,
                       qber_with_dd, sweep_delay)
from aftergate.attack import sub_threshold_region
from aftergate.detector import click_probability_array
from aftergate.feasibility import feasibility_band


class TestQberTarget:
    def test_saturated_point(self):
        assert qber_target(1.0, 1.0) == 0.25

    def test_linear_manifold_gives_quarter(self):
        for p_h in np.linspace(1e-6, 1.0, 1000):
            p_f = 2 * p_h - p_h * p_h
            assert abs(qber_target(p_f, p_h) - 0.25) < 1e-12

    def test_worked_superlinear_point(self):
        # 0.19 / 2.38
        assert qber_target(1.0, 0.1) == pytest.approx(0.079831932773109,
                                                      rel=1e-12)

    def test_no_signal_raises(self):
        with pytest.raises(NoSignalError):
            qber_target(0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            qber_target(1.2, 0.1)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_range(self, p_f, p_h):
        q = qber_target(p_f, p_h)
        assert 0.0 < q <= 0.5

    def test_superlinearity_marker_threshold(self):
        # q < 0.21 iff p_f exceeds the linear combination by the exact
        # factor 0.58/0.42 implied by the QBER form (brute-force verified)
        rng = np.random.default_rng(7)
        factor = 0.58 / 0.42
        for p_f, p_h in rng.random((2000, 2)):
            if p_f == 0.0 and p_h == 0.0:
                continue
            s = 2 * p_h - p_h * p_h
            assert (qber_target(p_f, p_h) < 0.21) == (p_f > factor * s)


class TestMeanDelayed:
    def test_zero(self):
        assert mean_delayed(0.0, 0.0) == 0.0

    def test_worked(self):
        assert mean_delayed(0.2, 0.1) == pytest.approx(0.1, rel=1e-15)

    def test_weight_sum(self):
        assert mean_delayed(1.0, 1.0) == 0.75


class TestQberWithDd:
    def test_reduces_to_target_without_delayed_terms(self):
        grid = np.linspace(0.0, 1.0, 41)
        for p_f in grid:
            for p_h in grid:
                if p_f == 0.0 and p_h == 0.0:
                    continue
                assert abs(qber_with_dd(p_f, p_h, 0.0, 0.0)
                           - qber_target(p_f, p_h)) < 1e-12

    def test_worked_point_with_clamping(self):
        # p_bar = 0.1125 pushes p_f' past 1 (clamped); Q' = 0.1376401...
        q = qber_with_dd(1.0, 0.1, 0.15, 0.15)
        assert q == pytest.approx(0.137640131355452, abs=1e-9)

    def test_clamped_full_probability_never_lowers_qber(self):
        # with p_f' pinned at 1 the correction only raises the half term
        for p_h in np.linspace(0.0, 0.8, 30):
            for p_dd in np.linspace(1e-4, 0.5, 30):
                q0 = qber_target(1.0, p_h)
                q1 = qber_with_dd(1.0, p_h, p_dd, p_dd)
                assert q1 >= q0 - 1e-12


class TestFormulaGrids:
    """Each formula on a grid equals its scalar call in every cell."""

    @staticmethod
    def grids(seed):
        # (4, 7, 5) grids with exact zeros and ones sprinkled in
        rng = np.random.default_rng(seed)
        p = rng.random((4, 7, 5))
        p[rng.random(p.shape) < 0.5] = 0.0
        p[rng.random(p.shape) < 0.1] = 1.0
        return p

    @staticmethod
    def scalar_or_nan(formula, *args):
        try:
            return formula(*args)
        except NoSignalError:
            return math.nan

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("formula", [qber_target, mean_delayed,
                                         qber_with_dd])
    def test_each_cell_equals_scalar_call(self, formula, seed):
        p_f, p_h, p_dd_f, p_dd_h = self.grids(seed)
        args = {qber_target: (p_f, p_h), mean_delayed: (p_dd_f, p_dd_h),
                qber_with_dd: (p_f, p_h, p_dd_f, p_dd_h)}[formula]
        grid = formula(*args)
        assert isinstance(grid, np.ndarray) and grid.shape == p_f.shape
        cells = [self.scalar_or_nan(formula, *(float(a[i]) for a in args))
                 for i in np.ndindex(p_f.shape)]
        assert all(type(c) is float for c in cells)
        expected = np.array(cells).reshape(p_f.shape)
        assert np.array_equal(grid.view(np.int64), expected.view(np.int64))
        zero = np.logical_and.reduce([a == 0.0 for a in args])
        nan = zero if formula is not mean_delayed else np.zeros_like(zero)
        assert np.array_equal(np.isnan(grid), nan)

    @pytest.mark.parametrize("bad", [-1e-12, 1.0000000000000002, 1.2,
                                     math.nan, math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_any_cell_out_of_range_raises(self, bad, position):
        args = list(self.grids(0))
        args[position] = args[position].copy()
        args[position][3, 1] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            qber_with_dd(*args)
        if position < 2:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                qber_target(*args[:2])
        else:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                mean_delayed(*args[2:])

    def test_scalar_calls_return_floats(self):
        assert type(qber_target(np.float64(1.0), 0.1)) is float
        assert type(mean_delayed(0.2, np.array(0.1))) is float
        assert type(qber_with_dd(1.0, 0.1, 0.15, 0.15)) is float
        with pytest.raises(NoSignalError):
            qber_with_dd(0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def points(det, env, sweep_grid):
    return sweep_delay(det, 80.0, sweep_grid, env)


class TestSweep:
    def test_flat_region_at_quarter(self, points):
        flat = [p for p in points if p.delay <= 50.0]
        assert all(abs(p.q_target - 0.25) < 1e-3 for p in flat)

    def test_dip_in_band_on_trailing_edge(self, det, points):
        q = np.array([p.q_target for p in points])
        i = int(np.nanargmin(q))
        assert 0.05 <= q[i] <= 0.10
        edge_start = det.trigger_flat_fraction * det.timing.gate_width
        assert edge_start < points[i].delay < det.timing.gate_width

    def test_dip_is_first_delay_past_a_threshold_step(self, det, points):
        # every avalanche of a pulse shares one gain, so the click law steps
        # in delay; the dip lands on the grid delay just past a step
        i = int(np.nanargmin(points.q_target))
        before, dip = det.threshold_count(points.delay[i - 1:i + 1])
        assert dip == before + 1

    def test_delayed_detection_reveals_attack(self, points):
        q_dd = np.array([p.q_with_dd for p in points])
        assert np.nanmin(q_dd) > 0.11

    def test_points_self_consistent(self, points):
        for p in points:
            assert p.p_dd_bar == pytest.approx(
                0.25 * p.p_dd_f + 0.5 * p.p_dd_h, abs=1e-12)
            if not math.isnan(p.q_target):
                assert p.q_target == pytest.approx(
                    qber_target(p.p_f, p.p_h), abs=1e-12)
                assert p.q_with_dd == pytest.approx(
                    qber_with_dd(p.p_f, p.p_h, p.p_dd_f, p.p_dd_h), abs=1e-12)

    def test_qber_bounded(self, points):
        for p in points:
            if not math.isnan(p.q_target):
                assert 0.0 <= p.q_target <= 0.5
                assert 0.0 <= p.q_with_dd <= 0.5

    def test_no_signal_cells_are_nan_not_dropped(self, det, env, sweep_grid):
        from dataclasses import replace
        dark_free = replace(det, dark_count_prob=0.0)
        pts = sweep_delay(dark_free, 80.0, np.array([20.0, 500.0, 900.0]),
                          env)
        assert len(pts) == 3
        assert math.isnan(pts[1].q_target) and math.isnan(pts[2].q_target)

    def test_grid_outside_period_rejected(self, det, env):
        with pytest.raises(ValueError):
            sweep_delay(det, 80.0, np.array([0.0, 1200.0]), env)


class TestDelayGridValidation:
    BAD = (-50.0, 5000.0)

    @pytest.mark.parametrize("bad", BAD)
    def test_sweep_rejects_delay_outside_period(self, det, env, bad):
        with pytest.raises(ValueError, match="delay grid"):
            sweep_delay(det, 80.0, [20.0, bad], env)

    @pytest.mark.parametrize("bad", BAD)
    def test_gate2_rejects_delay_outside_period(self, det, env, bad):
        with pytest.raises(ValueError, match="delay grid"):
            gate2_vs_delay(det, 80.0, [20.0, bad], env)

    @pytest.mark.parametrize("bad", BAD)
    def test_contour_rejects_delay_outside_period(self, det, env, bad):
        with pytest.raises(ValueError, match="delay grid"):
            contour_flux_delay(det, [20.0, 80.0], [20.0, bad])

    @pytest.mark.parametrize("delays", [[20.0, math.nan], [[20.0, 40.0]]])
    def test_non_finite_or_not_1d_rejected(self, det, env, delays):
        with pytest.raises(ValueError, match="delay grid"):
            gate2_vs_delay(det, 80.0, delays, env)

    def test_sweep_keeps_caller_order(self, det, env):
        pts = sweep_delay(det, 80.0, [150.0, 20.0], env)
        assert [p.delay for p in pts] == [150.0, 20.0]
        forward = sweep_delay(det, 80.0, [20.0, 150.0], env)
        assert pts.tolist() == forward[::-1].tolist()


@pytest.mark.parametrize("grid, call", [
    ("flux", lambda det, env: contour_flux_delay(det, [[1.0, 2.0]], [10.0])),
    ("frequency",
     lambda det, env: feasibility_band([[1e8, 1e9]], env, det, 0.1, 20.0,
                                       0.11)),
    ("fraction", lambda det, env: partial_attack_rates(0.2, 0.02, [[0.1]])),
])
def test_grid_not_1d_rejected(det, env, grid, call):
    # every grid follows the delay grid's rule: 1-D, or a one-line error
    # that names it
    with pytest.raises(ValueError, match=rf"^{grid} grid must be a 1-D"):
        call(det, env)


def dip_delay(det, env, grid):
    points = sweep_delay(det, 80.0, grid, env)
    q = np.array([p.q_target for p in points])
    return points[int(np.nanargmin(q))].delay


@pytest.fixture(scope="module")
def dip(det, env, sweep_grid):
    return dip_delay(det, env, sweep_grid)


class TestAttackHistogram:
    def test_single_photon_reference_ratio(self, det, env):
        probs = attack_histogram(det, 0.1, 0.0, env, gates=12)
        ratio = probs[1] / probs[0]
        assert 0.005 <= ratio <= 0.02

    def test_full_power_ratio_at_dip(self, det, env, dip):
        probs = attack_histogram(det, 80.0, dip, env, gates=8)
        ratio = probs[1] / probs[0]
        assert 0.10 <= ratio <= 0.20

    def test_half_power_adjacent_gate_dominates(self, det, env, dip):
        probs = attack_histogram(det, 40.0, dip, env, gates=8)
        assert probs[1] > probs[0]

    def test_rejects_zero_gates(self, det, env):
        with pytest.raises(ValueError, match="window"):
            attack_histogram(det, 80.0, 0.0, env, gates=0)


class TestGate2VsDelay:
    def grid(self, det):
        lo = det.trigger_flat_fraction * det.timing.gate_width
        return np.linspace(lo, 0.96 * det.timing.gate_period, 300)

    def test_two_species_competition_single_interior_minimum(self, det, env):
        pts = gate2_vs_delay(det, 80.0, self.grid(det), env)
        probs = np.array([p for _, p in pts])
        i = int(np.argmin(probs))
        assert 0 < i < len(probs) - 1
        diffs = np.diff(probs)
        signs = np.sign(diffs[np.abs(diffs) > 1e-15])
        transitions = int(np.sum(signs[:-1] != signs[1:]))
        assert transitions == 1

    def test_interface_only_monotone_increasing(self, det, env):
        from dataclasses import replace
        from aftergate import TrapSpecies
        no_mult = replace(det, multiplication_trap=TrapSpecies(
            0.110, 8.0, capture_per_avalanche_charge=0.0))
        pts = gate2_vs_delay(no_mult, 80.0, self.grid(det), env)
        probs = np.array([p for _, p in pts])
        assert np.all(np.diff(probs) >= -1e-15)

    def test_multiplication_only_monotone_decreasing(self, det, env):
        from dataclasses import replace
        from aftergate import TrapSpecies
        no_if = replace(det, interface_trap=TrapSpecies(
            0.040, 100.0, capture_fraction_photo=0.0))
        pts = gate2_vs_delay(no_if, 80.0, self.grid(det), env)
        probs = np.array([p for _, p in pts])
        assert np.all(np.diff(probs) <= 1e-15)


@pytest.fixture(scope="module")
def grids():
    return np.arange(2.0, 101.0, 2.0), np.arange(0.0, 200.5, 0.5)


@pytest.fixture(scope="module")
def matrix(det, env, grids):
    return contour_flux_delay(det, *grids)


class TestContour:
    def test_saturated_region_at_quarter(self, det, env, grids, matrix):
        fluxes, delays = grids
        i = np.where(fluxes == 100.0)[0][0]
        j = np.where(delays == 20.0)[0][0]
        assert matrix[i, j] == pytest.approx(0.25, abs=1e-3)

    def test_consistent_with_sweep(self, det, env, grids, matrix):
        # the contour's per-power kernel and the sweep's stacked kernel
        # agree bit for bit on every row
        fluxes, delays = grids
        for flux, row in zip(fluxes, matrix):
            q_target = sweep_delay(det, flux, delays, env).q_target
            assert row.tobytes() == q_target.tobytes(), flux

    def test_grid_equals_row_by_row_evaluation(self, det, grids, matrix):
        fluxes, delays = grids
        rows = [qber_target(click_probability_array(det, mu, delays),
                            click_probability_array(det, mu / 2.0, delays))
                for mu in fluxes]
        np.testing.assert_array_equal(matrix, np.array(rows))

    def test_sub_threshold_region_includes_flux_20(self, grids, matrix):
        fluxes, _ = grids
        region = sub_threshold_region(matrix, 0.11)
        i20 = np.where(fluxes == 20.0)[0][0]
        assert region[i20].any()

    def test_min_flux_attained_strictly_inside_trailing_edge(self, det, grids,
                                                             matrix):
        fluxes, delays = grids
        region = sub_threshold_region(matrix, 0.11)
        rows = np.where(region.any(axis=1))[0]
        assert rows.size > 0
        best_row = rows[0]
        qualifying = delays[region[best_row]]
        edge_start = det.trigger_flat_fraction * det.timing.gate_width
        edge_end = det.timing.gate_width
        assert np.all(qualifying > edge_start)
        assert np.all(qualifying < edge_end)

    def test_rejects_nonpositive_flux(self, det, env):
        with pytest.raises(ValueError):
            contour_flux_delay(det, [0.0, 10.0], [0.0, 50.0])


def entropy_with_endpoint_rule(q):
    """binary_entropy as it was when it wrote 0 log 0 = 0 three times."""
    arr = np.asarray(q, dtype=float)
    log_q = np.log2(arr, out=np.zeros_like(arr), where=arr > 0)
    log_p = np.log2(1 - arr, out=np.zeros_like(arr), where=arr < 1)
    h = -np.where(arr > 0, arr * log_q, 0.0) \
        - np.where(arr < 1, (1 - arr) * log_p, 0.0)
    return np.where((arr == 0) | (arr == 1), 0.0, h)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)
        # +0.0, not -0.0, for a scalar and an array alike
        for q in (0.0, 1.0, [0.0, 1.0]):
            assert not np.any(np.signbit(binary_entropy(q)))

    def test_bits_match_endpoint_rule(self):
        edges = [0.0, 1.0, 0.5, 1e-300, 5e-324, 1 - 1e-16]
        q = np.concatenate([edges, np.random.default_rng(24).random(10 ** 5)])
        got = binary_entropy(q)
        assert np.array_equal(got.view(np.int64),
                              entropy_with_endpoint_rule(q).view(np.int64))
        for e in edges:
            assert (np.float64(binary_entropy(e)).view(np.int64)
                    == entropy_with_endpoint_rule(e).view(np.int64))

    def test_worked_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528,
                                                     rel=1e-12)

    def test_symmetry(self):
        for q in np.linspace(0.01, 0.99, 99):
            assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q),
                                                      rel=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        # a QBER with no detections must not read as a perfect key rate
        with pytest.raises(ValueError):
            binary_entropy(math.nan)
        with pytest.raises(ValueError):
            binary_entropy([0.1, math.nan])
        with pytest.raises(ValueError):
            key_rate(math.nan)

    def test_key_rate_domain_enforced(self):
        # an always-wrong channel must not read as a full key
        assert key_rate(0.5) == 0.0
        for q in (0.9, 1.0, -0.1):
            with pytest.raises(ValueError, match="QBER"):
                key_rate(q)


class TestPartialAttack:
    def test_endpoints_reduce_to_pure_rates(self):
        rows = partial_attack_rates(0.12, 0.02, [0.0, 1.0])
        r_base = key_rate(0.02)
        r_attack = key_rate(0.12)
        assert rows[0][1] == pytest.approx(r_base, rel=1e-12)
        assert rows[1][1] == pytest.approx(r_attack, rel=1e-12)

    def test_worked_half_fraction(self):
        # r(0.12) clamps to 0; r(0.02) = 1 - 2 h2(0.02) = 0.7171189...
        assert key_rate(0.12) == 0.0
        assert key_rate(0.02) == pytest.approx(0.717118914916359, rel=1e-12)
        rows = partial_attack_rates(0.12, 0.02, [0.5])
        assert rows[0][1] == pytest.approx(0.358559457458179, rel=1e-12)

    def test_midpoint_convexity_of_rate(self):
        q = np.arange(0.0, 0.5001, 0.001)
        r = np.array([key_rate(v) for v in q])
        mid = 0.5 * (r[:-2] + r[2:])
        assert np.all(mid >= r[1:-1] - 1e-12)

    def test_mixture_dominates_blended_rate(self):
        fractions = np.arange(0.0, 1.0001, 0.01)
        rows = partial_attack_rates(0.12, 0.02, fractions)
        for f, combined, _ in rows:
            blended = key_rate(f * 0.12 + (1 - f) * 0.02)
            assert combined >= blended - 1e-12

    def test_equals_per_fraction_loop(self):
        # the loop the vectorized mixture replaced, same float64 operations
        fractions = np.linspace(0.0, 1.0, 101)
        r_attack, r_base = key_rate(0.05), key_rate(0.02)
        expected = [(f, f * r_attack + (1.0 - f) * r_base, r_attack)
                    for f in fractions]
        assert partial_attack_rates(0.05, 0.02, fractions).tolist() == expected

    def test_rejects_out_of_range_qber(self):
        with pytest.raises(ValueError):
            partial_attack_rates(0.6, 0.02, [0.5])

    @pytest.mark.parametrize("fractions", [[-1.0, 2.0], [0.5, 1.01],
                                           [math.nan]])
    def test_rejects_fraction_outside_unit_interval(self, fractions):
        with pytest.raises(ValueError, match="fractions"):
            partial_attack_rates(0.1, 0.02, fractions)
