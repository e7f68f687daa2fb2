"""SVG heatmap: run-merged rects round-trip onto the cell grid."""

import re

import numpy as np
import pytest

from aftergate import contour_flux_delay
from aftergate import svg
from aftergate.svg import _H, _MB, _ML, _MR, _MT, _W

_RECT = re.compile(r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" '
                   r'height="([\d.]+)" fill="([^"]+)"/>')


def cell_fill(v, lo, hi) -> str:
    """The per-cell fill the heatmap drew before it merged runs."""
    if not np.isfinite(v):
        return "#dddddd"
    frac = (v - lo) / (hi - lo) if hi > lo else 0.0
    r = int(60 + frac * (250 - 60))
    g = int(20 + frac * (240 - 20))
    b = int(90 + frac * (120 - 90))
    return f"rgb({r},{g},{b})"


def four_branch_outline(matrix, iso) -> list[str]:
    """The iso outline as the per-cell loop drew it before the mask version."""
    sx = svg._scale(0, matrix.shape[1], _ML, _W - _MR)
    sy = svg._scale(0, matrix.shape[0], _H - _MB, _MT)
    parts = []
    with np.errstate(invalid="ignore"):
        mask = matrix < iso
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            if not mask[i, j]:
                continue
            if i + 1 >= matrix.shape[0] or not mask[i + 1, j]:
                parts.append(f'<line x1="{sx(j):.1f}" y1="{sy(i + 1):.1f}" '
                             f'x2="{sx(j + 1):.1f}" y2="{sy(i + 1):.1f}" '
                             f'stroke="white" stroke-dasharray="3,2"/>')
            if i == 0 or not mask[i - 1, j]:
                parts.append(f'<line x1="{sx(j):.1f}" y1="{sy(i):.1f}" '
                             f'x2="{sx(j + 1):.1f}" y2="{sy(i):.1f}" '
                             f'stroke="white" stroke-dasharray="3,2"/>')
            if j == 0 or not mask[i, j - 1]:
                parts.append(f'<line x1="{sx(j):.1f}" y1="{sy(i):.1f}" '
                             f'x2="{sx(j):.1f}" y2="{sy(i + 1):.1f}" '
                             f'stroke="white" stroke-dasharray="3,2"/>')
            if j + 1 >= matrix.shape[1] or not mask[i, j + 1]:
                parts.append(f'<line x1="{sx(j + 1):.1f}" y1="{sy(i):.1f}" '
                             f'x2="{sx(j + 1):.1f}" y2="{sy(i + 1):.1f}" '
                             f'stroke="white" stroke-dasharray="3,2"/>')
    return parts


def raster(text, shape) -> list[list[str]]:
    """Fill of every cell, read back from the rects; each cell exactly once."""
    rows, cols = shape
    cw = (_W - _MR - _ML) / cols
    ch = (_H - _MB - _MT) / rows
    grid = [[None] * cols for _ in range(rows)]
    for x, y, width, _, fill in _RECT.findall(text):
        i = round((_H - _MB - float(y)) / ch) - 1
        j0 = round((float(x) - _ML) / cw)
        j1 = round((float(x) + float(width) - 0.5 - _ML) / cw)
        assert j1 > j0
        for j in range(j0, j1):
            assert grid[i][j] is None, f"cell {i},{j} drawn twice"
            grid[i][j] = fill
    return grid


@pytest.fixture(scope="module")
def default_grid(default_cfg):
    sec = default_cfg.values["contour"]
    fluxes = np.linspace(sec["flux_min"], sec["flux_max"], sec["flux_points"])
    delays = np.linspace(sec["delay_min"], sec["delay_max"],
                         sec["delay_points"])
    return contour_flux_delay(default_cfg.detector, fluxes, delays)


def _with_nan(matrix):
    m = matrix.copy()
    m[::7, ::5] = np.nan
    m[10:14, 150:160] = np.nan
    m[3, :] = np.inf
    return m


@pytest.mark.parametrize("make, iso", [
    (lambda m: m, 0.11),
    (_with_nan, 0.11),
    (lambda m: np.full((7, 13), 0.08), 0.11),
    (lambda m: np.full((7, 13), 0.08), None),
])
def test_heatmap_round_trip(tmp_path, default_grid, make, iso):
    matrix = make(default_grid)
    path = tmp_path / "h.svg"
    svg.heatmap(path, np.arange(matrix.shape[1]), np.arange(matrix.shape[0]),
                matrix, "t", "x", "y", iso=iso)
    text = path.read_text()
    finite = matrix[np.isfinite(matrix)]
    lo, hi = float(finite.min()), float(finite.max())
    grid = raster(text, matrix.shape)
    want = [[cell_fill(v, lo, hi) for v in row] for row in matrix]
    assert grid == want
    # runs are maximal: neighbouring rects in a row differ in fill
    fills = [(round(float(y), 1), f) for _, y, _, _, f in _RECT.findall(text)]
    assert all(a != b for a, b in zip(fills, fills[1:]))
    lines = {line for line in text.splitlines()
             if 'stroke="white"' in line}
    expected = four_branch_outline(matrix, iso) if iso is not None else []
    assert len(expected) == len(set(expected))
    assert lines == set(expected)
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")



_TICK = re.compile(r'<text x="([\d.]+)" y="([\d.]+)" text-anchor="(middle|end)" '
                   r'font-family="sans-serif" font-size="10">([^<]+)</text>')


def test_heatmap_ticks_label_grid_values_at_cell_centres(tmp_path,
                                                         default_cfg,
                                                         default_grid):
    sec = default_cfg.values["contour"]
    fluxes = np.linspace(sec["flux_min"], sec["flux_max"], sec["flux_points"])
    delays = np.linspace(sec["delay_min"], sec["delay_max"],
                         sec["delay_points"])
    path = tmp_path / "contour.svg"
    svg.heatmap(path, delays, fluxes, default_grid, "t", "delay (ps)",
                "flux (photons/pulse)", iso=0.11)
    ticks = _TICK.findall(path.read_text())
    x_labels = [(float(x), text) for x, _, anchor, text in ticks
                if anchor == "middle"]
    y_labels = [(float(y), text) for _, y, anchor, text in ticks
                if anchor == "end"]
    assert [t for _, t in x_labels] == ["0", "50", "100", "150", "200"]
    assert [t for _, t in y_labels] == ["2", "26", "50", "76", "100"]
    cw = (_W - _MR - _ML) / len(delays)
    ch = (_H - _MB - _MT) / len(fluxes)
    assert x_labels[0][0] == pytest.approx(_ML + cw / 2, abs=0.1)
    assert x_labels[-1][0] == pytest.approx(_W - _MR - cw / 2, abs=0.1)
    assert y_labels[0][0] - 3 == pytest.approx(_H - _MB - ch / 2, abs=0.1)
    assert y_labels[-1][0] - 3 == pytest.approx(_MT + ch / 2, abs=0.1)


def test_bar_chart_labels_every_bar_slot(tmp_path):
    # a gate with no counts draws no bar but keeps its x label
    svg.bar_chart(tmp_path / "b.svg", ["1", "2", "3"], [5, 0, 2], "t", "x",
                  "y")
    text = (tmp_path / "b.svg").read_text()
    # the count axis's tick labels are right-aligned ("end")
    labels = re.findall(r'text-anchor="middle" font-family="sans-serif" '
                        r'font-size="10">([^<]*)</text>', text)
    assert labels == ["1", "2", "3"]
    assert len(re.findall(r'<rect x=', text)) == 2


def _ticks(path):
    """(x labels, y labels) of an SVG, each as [(pixel, text)]."""
    ticks = _TICK.findall(path.read_text())
    return ([(float(x), t) for x, _, anchor, t in ticks if anchor == "middle"],
            [(float(y) - 3, t) for _, y, anchor, t in ticks if anchor == "end"])


def test_bar_chart_count_axis_has_decade_ticks(tmp_path):
    # counts 5..2000: the axis runs 2.5..3000, so three decades fall inside
    svg.bar_chart(tmp_path / "b.svg", ["1", "2", "3"], [5, 0, 2000], "t",
                  "x", "y")
    _, y_labels = _ticks(tmp_path / "b.svg")
    assert [t for _, t in y_labels] == ["10", "100", "1e+03"]
    sy = svg._scale(2.5, 3000.0, _H - _MB, _MT, log=True)
    for (py, _), value in zip(y_labels, (10.0, 100.0, 1000.0)):
        assert py == pytest.approx(sy(value), abs=0.06)
    # equal steps per decade
    steps = np.diff([py for py, _ in y_labels])
    assert steps[0] == pytest.approx(steps[1], abs=0.1) and steps[0] < 0


@pytest.mark.parametrize("lo, hi, expected", [
    (1e7, 5e9, [1e7, 1e8, 1e9]),
    (0.5, 3000.0, [1.0, 10.0, 100.0, 1000.0]),
    # fewer than two decades: five log-spaced values, or one for a point
    (2.0, 32.0, [2.0, 4.0, 8.0, 16.0, 32.0]),
    (5.0, 5.0, [5.0]),
])
def test_log_ticks(lo, hi, expected):
    assert svg._log_ticks(lo, hi) == pytest.approx(expected, rel=1e-12)


def test_band_chart_has_ticks_and_legend(tmp_path):
    freqs = np.geomspace(1e7, 5e9, 50)
    q_noise = np.linspace(0.01, 0.2, 50)
    q_attack = np.linspace(0.15, 0.05, 50)
    classes = ["Vulnerable"] * 10 + ["Suitable"] * 30 + ["Noisy"] * 10
    path = tmp_path / "band.svg"
    svg.band_chart(path, freqs, q_noise, q_attack, classes, "t", 0.11)
    x_labels, y_labels = _ticks(path)
    assert [t for _, t in x_labels] == ["1e+07", "1e+08", "1e+09"]
    sx = svg._scale(1e7, 5e9, _ML, _W - _MR, log=True)
    for (px, _), f in zip(x_labels, (1e7, 1e8, 1e9)):
        assert px == pytest.approx(sx(f), abs=0.06)
    # QBER from 0 to 1.1 x the largest curve value, bottom to top
    hi = 0.2 * 1.1
    assert [t for _, t in y_labels] == [f"{v:.3g}"
                                        for v in np.linspace(0, hi, 5)]
    assert y_labels[0][0] == pytest.approx(_H - _MB, abs=0.06)
    assert y_labels[-1][0] == pytest.approx(_MT, abs=0.06)
    legend = re.findall(r'font-size="11" fill="([^"]+)">([^<]+)</text>',
                        path.read_text())
    assert legend == [(svg._COLORS[0], "self-noise QBER"),
                      (svg._COLORS[1], "attack QBER")]


def test_heatmap_rejects_axes_that_do_not_match_the_matrix(tmp_path):
    with pytest.raises(ValueError, match="xs and ys"):
        svg.heatmap(tmp_path / "h.svg", np.arange(4), np.arange(3),
                    np.zeros((3, 5)), "t", "x", "y")
