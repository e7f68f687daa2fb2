"""Minimal hand-built SVG output.

These plots are verification aids, not presentation graphics; emitting the
markup directly keeps the package free of a plotting stack and the output
byte-stable for determinism checks.
"""

from __future__ import annotations

import math

import numpy as np

from .io import write_text

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 45

_COLORS = ["#1f3b73", "#b22222", "#2e7d32", "#e69500", "#6a1b9a"]


def _open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="14" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]


def _axes(parts, xlab, ylab):
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 f'stroke="black"/>')
    parts.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{_H - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlab}</text>')
    parts.append(f'<text x="14" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">{ylab}</text>')


def _scale(lo, hi, pixel_lo, pixel_hi, log=False):
    """Linear (or log10) map of data values in [lo, hi] onto pixels."""
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    return lambda v: pixel_lo + ((math.log10(v) if log else v) - lo) \
        / (hi - lo) * (pixel_hi - pixel_lo)


def _polyline(points, color) -> str:
    """Polyline through pixel (x, y) pairs."""
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>')


def _tick_labels(parts, xticks, yticks):
    """Tick marks labelled with their values, from (pixel, value) pairs
    along each axis."""
    y0 = _H - _MB
    for px, tx in xticks:
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" '
                     f'y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{y0 + 17}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">'
                     f'{tx:.3g}</text>')
    for py, ty in yticks:
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 7}" y="{py + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">'
                     f'{ty:.3g}</text>')


def _log_ticks(lo, hi) -> list[float]:
    """Tick values for a log axis over [lo, hi]: its decades, or five
    log-spaced values (one if lo == hi) when fewer than two decades fall
    inside."""
    k = range(math.ceil(math.log10(lo)), math.floor(math.log10(hi)) + 1)
    return ([10.0 ** e for e in k] if len(k) > 1
            else np.geomspace(lo, hi, 5 if hi > lo else 1).tolist())


def _legend(parts, k, name, color):
    """The k-th series name, top right, in the series' colour."""
    parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 14 + 14 * k}" '
                 f'text-anchor="end" font-family="sans-serif" '
                 f'font-size="11" fill="{color}">{name}</text>')


def bar_chart(path, labels, values, title, xlab, ylab) -> None:
    """One bar per label on a log count axis; a zero draws no bar."""
    values = np.asarray(values, dtype=float)
    positive = values[values > 0]
    floor = float(positive.min()) * 0.5 if positive.size else 1e-6
    top = float(values.max()) * 1.5 if values.max() > 0 else 1.0
    parts = _open(title)
    sy = _scale(floor, top, _H - _MB, _MT, log=True)
    sx = _scale(-0.5, len(values) - 0.5, _ML, _W - _MR)
    width = (sx(1) - sx(0)) * 0.7
    for i, v in enumerate(values):
        if v > 0:
            px = sx(i) - width / 2
            py = sy(v)
            parts.append(f'<rect x="{px:.1f}" y="{py:.1f}" '
                         f'width="{width:.1f}" height="{_H - _MB - py:.1f}" '
                         f'fill="{_COLORS[0]}"/>')
        parts.append(f'<text x="{sx(i):.1f}" y="{_H - _MB + 14}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{labels[i]}</text>')
    _tick_labels(parts, [], [(sy(t), t) for t in _log_ticks(floor, top)])
    _write(path, parts, xlab, ylab)


def line_chart(path, x, series: dict, title, xlab, ylab, hline=None) -> None:
    x = np.asarray(x, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    finite = all_y[np.isfinite(all_y)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if hline is not None:
        lo, hi = min(lo, hline), max(hi, hline)
    pad = 0.06 * (hi - lo or 1.0)
    sx = _scale(float(x.min()), float(x.max()), _ML, _W - _MR)
    sy = _scale(lo - pad, hi + pad, _H - _MB, _MT)
    parts = _open(title)
    if hline is not None:
        py = sy(hline)
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" '
                     f'y2="{py:.1f}" stroke="#888" stroke-dasharray="6,4"/>')
    for k, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        color = _COLORS[k % len(_COLORS)]
        parts.append(_polyline([(sx(xv), sy(yv)) for xv, yv in zip(x, ys)
                                if np.isfinite(yv)], color))
        _legend(parts, k, name, color)
    _tick_labels(parts,
                 [(sx(t), t) for t in np.linspace(x.min(), x.max(), 5)],
                 [(sy(t), t) for t in np.linspace(lo, hi, 5)])
    _write(path, parts, xlab, ylab)


def heatmap(path, xs, ys, matrix, title, xlab, ylab, iso=None) -> None:
    """Raster-style heatmap; matrix[i, j] maps row i -> ys[i], col j -> xs[j].
    Each horizontal run of cells with one fill is drawn as one rect. iso, if
    given, is a threshold: cells strictly below it get an outline. Each axis
    gets up to 5 tick labels, at the grid values of evenly spaced cells."""
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != (cols,) or ys.shape != (rows,):
        raise ValueError("xs and ys must match the matrix columns and rows")
    finite = np.isfinite(matrix)
    lo = float(matrix[finite].min()) if finite.any() else 0.0
    hi = float(matrix[finite].max()) if finite.any() else 1.0
    sx = _scale(0, cols, _ML, _W - _MR)
    sy = _scale(0, rows, _H - _MB, _MT)
    px = [f"{sx(j):.1f}" for j in range(cols + 1)]
    py = [f"{sy(i):.1f}" for i in range(rows + 1)]
    cw, ch = sx(1) - sx(0), sy(0) - sy(1)
    width = [f"{n * cw + 0.5:.1f}" for n in range(cols + 1)]
    frac = (np.where(finite, matrix, lo) - lo) / (hi - lo) if hi > lo \
        else np.zeros(matrix.shape)
    # dark purple -> pale yellow, packed as r << 16 | g << 8 | b; -1 for NaN
    r, g, b = ((base + frac * (top - base)).astype(np.int64)
               for base, top in ((60, 250), (20, 240), (90, 120)))
    packed = np.where(finite, r << 16 | g << 8 | b, -1)
    # a run starts at each row's first cell and where the fill changes
    # (no fill is -2)
    starts = np.flatnonzero(np.diff(packed, axis=1, prepend=-2))
    fills, key = np.unique(packed.ravel()[starts], return_inverse=True)
    fills = ["#dddddd" if k < 0 else f"rgb({k >> 16},{k >> 8 & 255},{k & 255})"
             for k in fills.tolist()]
    parts = _open(title)
    height = f"{ch + 0.5:.1f}"
    for start, n, k in zip(starts.tolist(),
                           np.diff(starts, append=packed.size).tolist(),
                           key.tolist()):
        i, j = divmod(start, cols)
        parts.append(f'<rect x="{px[j]}" y="{py[i + 1]}" width="{width[n]}" '
                     f'height="{height}" fill="{fills[k]}"/>')
    if iso is not None:
        # dash each cell edge where `matrix < iso` flips: row, then column
        edge = np.pad(matrix < iso, 1)
        dash = 'stroke="white" stroke-dasharray="3,2"/>'
        for i, j in zip(*np.nonzero(edge[:-1, 1:-1] != edge[1:, 1:-1])):
            parts.append(f'<line x1="{px[j]}" y1="{py[i]}" '
                         f'x2="{px[j + 1]}" y2="{py[i]}" {dash}')
        for i, j in zip(*np.nonzero(edge[1:-1, :-1] != edge[1:-1, 1:])):
            parts.append(f'<line x1="{px[j]}" y1="{py[i]}" '
                         f'x2="{px[j]}" y2="{py[i + 1]}" {dash}')
    # a set, not np.unique: on numpy 2.x np.unique imports numpy.ma
    jx, iy = (sorted({round(t) for t in np.linspace(0, n - 1, 5).tolist()})
              for n in (cols, rows))
    _tick_labels(parts, [(sx(j + 0.5), xs[j]) for j in jx],
                 [(sy(i + 0.5), ys[i]) for i in iy])
    _write(path, parts, xlab, ylab)


def band_chart(path, freqs, q_noise, q_attack, classes, title,
               threshold) -> None:
    """Feasibility curves with shaded Noisy/Vulnerable columns, a legend
    and ticks at the decades of the log frequency axis."""
    freqs = np.asarray(freqs, dtype=float)
    sx = _scale(float(freqs.min()), float(freqs.max()), _ML, _W - _MR, log=True)
    hi = max(float(np.max(q_noise)), float(np.max(q_attack)), threshold) * 1.1
    sy = _scale(0.0, hi, _H - _MB, _MT)
    parts = _open(title)
    shade = {"Vulnerable": "#f6d0d0", "Noisy": "#d0d8f6"}
    # geometric means, without a product that can overflow
    edges = np.sqrt(freqs[:-1]) * np.sqrt(freqs[1:])
    lows = np.concatenate([[freqs[0]], edges])
    highs = np.concatenate([edges, [freqs[-1]]])
    for f0, f1, cls in zip(lows, highs, classes):
        if cls in shade:
            parts.append(f'<rect x="{sx(f0):.1f}" y="{_MT}" '
                         f'width="{sx(f1) - sx(f0):.1f}" '
                         f'height="{_H - _MB - _MT}" fill="{shade[cls]}"/>')
    py = sy(threshold)
    parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" '
                 f'y2="{py:.1f}" stroke="#888" stroke-dasharray="6,4"/>')
    for k, (name, ys) in enumerate((("self-noise QBER", q_noise),
                                    ("attack QBER", q_attack))):
        parts.append(_polyline([(sx(f), sy(min(y, hi)))
                                for f, y in zip(freqs, ys)], _COLORS[k]))
        _legend(parts, k, name, _COLORS[k])
    _tick_labels(parts,
                 [(sx(t), t) for t in _log_ticks(freqs.min(), freqs.max())],
                 [(sy(t), t) for t in np.linspace(0.0, hi, 5)])
    _write(path, parts, "gating frequency (Hz)", "QBER")


def _write(path, parts, xlab, ylab) -> None:
    """Draw the axes, close the document and write it."""
    _axes(parts, xlab, ylab)
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
