"""Minimal deterministic SVG emission for grids and step curves.

Hand-rolled on purpose: outputs must be byte-identical across runs with the
same inputs, so no plotting library with embedded ids, dates or hashes is
used. Colors and layout are fixed.
"""

from __future__ import annotations

import numpy as np

from .density import IntensityGrid

# anchor stops for the sequential ramp (low -> high), loosely viridis
_SEQ_STOPS = [
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
]
# diverging ramp for residual / log-ratio surfaces
_DIV_STOPS = [
    (0.0, (33, 102, 172)),
    (0.5, (247, 247, 247)),
    (1.0, (178, 24, 43)),
]

ENVELOPE_COLOR = "#000000"
OBSERVED_COLOR = "#e6701b"
BAND_COLOR = "#bbbbbb"
REFLINE_COLOR = "#cc0000"


def _ramp_colors(values: np.ndarray, stops) -> list[str]:
    """Hex colour of every value on the ramp through ``stops``, flattened.

    A value is clamped to [0, 1] and coloured on the first segment whose
    upper stop it does not exceed, as ``a + t * (b - a)`` per channel,
    rounded half to even; NaN takes the last stop's colour. Stops must be
    strictly increasing.
    """
    pos = np.array([p for p, _ in stops])
    rgb = np.array([c for _, c in stops], dtype=float)
    value = np.clip(np.asarray(values, dtype=float).ravel(), 0.0, 1.0)
    seg = np.searchsorted(pos[1:], value)  # NaN sorts past the last segment
    nan = seg == len(stops) - 1
    seg[nan] = 0
    t = (value - pos[seg]) / (pos[seg + 1] - pos[seg])
    a, b = rgb[seg], rgb[seg + 1]
    channels = np.rint(a + t[:, None] * (b - a))
    channels[nan] = rgb[-1]
    codes = channels.astype(np.int64) @ np.array([1 << 16, 1 << 8, 1])
    return [f"#{code:06x}" for code in codes.tolist()]


def _text(title: str) -> str:
    """``title`` as SVG text: ``&`` and ``<`` escaped; ``>`` needs no escape
    and keeps its byte, as in the transition name ``1->2``."""
    return title.replace("&", "&amp;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _fmt_columns(values) -> np.ndarray:
    """``_fmt`` of each value as one column of ASCII codes, 0 where no byte is.

    A value in [0, 1e6) is written from its cents ``np.rint(v * 100)``.
    Those equal the correctly rounded cents of ``f"{v:.2f}"`` unless the
    product lies within rounding of a half-cent tie, so such values, and
    negative (``-0.0`` included), huge or non-finite ones, take ``_fmt``.
    """
    v = np.asarray(values, dtype=float)
    slow = np.signbit(v) | ~(v < 1e6)
    cents = np.where(slow, 0.0, v) * 100.0
    k = np.rint(cents).astype(np.int64)
    slow |= (np.abs(cents - np.floor(cents) - 0.5) < 1e-6) | (k >= 10**8)
    texts = [_fmt(x).encode("ascii") for x in v[slow].tolist()]
    cols = np.zeros((max([9] + [len(t) for t in texts]), len(v)), dtype=np.uint8)
    # rows 0-5 hold the integer digits, 6 the point, 7-8 the decimals
    rest = k
    for row in (8, 7, 5, 4, 3, 2, 1, 0):
        rest, digit = np.divmod(rest, 10)
        cols[row] = ord("0") + digit
    decimals = k % 100 > 0
    cols[6] = np.where(decimals, ord("."), 0)
    cols[7] *= decimals
    cols[8] *= k % 10 > 0
    for row, place in enumerate((10**7, 10**6, 10**5, 10**4, 10**3)):
        cols[row] *= k >= place  # no leading zeros; the units digit always shows
    cols[:, slow] = 0
    for i, text in zip(np.flatnonzero(slow).tolist(), texts):
        cols[: len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return cols


def _points(xs, ys) -> str:
    """SVG ``points`` text ``"x,y x,y ..."``, each number as ``_fmt`` writes it."""
    n = len(xs)
    if n == 0:
        return ""
    comma = np.full((1, n), ord(","), dtype=np.uint8)
    space = np.full((1, n), ord(" "), dtype=np.uint8)
    codes = np.concatenate([_fmt_columns(xs), comma, _fmt_columns(ys), space]).T.ravel()
    return codes[codes != 0].tobytes()[:-1].decode("ascii")


def heatmap_svg(grid: IntensityGrid, title: str = "", diverging: bool = False) -> str:
    """Grid surface as colored cells, y axis pointing down (image convention)."""
    values = np.asarray(grid.values, dtype=float)
    if diverging:
        scale = float(np.max(np.abs(values))) or 1.0
        norm = 0.5 + values / (2.0 * scale)
        stops = _DIV_STOPS
    else:
        lo, hi = float(values.min()), float(values.max())
        norm = (values - lo) / ((hi - lo) or 1.0)
        stops = _SEQ_STOPS

    width, height = 480.0, 480.0 * grid.window.height / grid.window.width
    cw, ch = width / grid.nx, height / grid.ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height + 24)}" viewBox="0 0 {_fmt(width)} {_fmt(height + 24)}">',
        f'<text x="4" y="14" font-family="sans-serif" font-size="12">{_text(title)}</text>',
        '<g transform="translate(0,24)">',
    ]
    xs = [_fmt(ix * cw) for ix in range(grid.nx)]
    size = f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}"'
    colors = _ramp_colors(norm, stops)
    for iy in range(grid.ny):
        y = _fmt(iy * ch)
        row = colors[iy * grid.nx : (iy + 1) * grid.nx]
        for x, color in zip(xs, row):
            parts.append(f'<rect x="{x}" y="{y}" {size} fill="{color}"/>')
    parts.append("</g></svg>")
    return "\n".join(parts)


def _panel(
    x,
    series,
    band=None,
    refline=None,
    title: str = "",
    width: float = 320.0,
    height: float = 240.0,
) -> str:
    """One cartesian panel as a <g> fragment. series: list of (values, color, width).

    Every coordinate is written as ``_fmt`` writes it: two decimals, trailing
    zeros dropped. The points of the band and of each series are formatted
    by ``_points`` in array passes, not one Python call per number.
    """
    x = np.asarray(x, dtype=float)
    finite_vals = [np.asarray(v, dtype=float) for v, _, _ in series]
    if band is not None:
        finite_vals += [np.asarray(band[0], dtype=float), np.asarray(band[1], dtype=float)]
    chunks = [v[np.isfinite(v)] for v in finite_vals if np.isfinite(v).any()]
    pool = np.concatenate(chunks) if chunks else np.empty(0)
    if refline is not None:
        pool = np.append(pool, refline)
    y_lo, y_hi = (float(pool.min()), float(pool.max())) if pool.size else (0.0, 1.0)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    m_left, m_bottom, m_top = 46.0, 26.0, 20.0
    pw, ph = width - m_left - 8.0, height - m_bottom - m_top

    def sx(v):
        return m_left + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return m_top + (y_hi - v) / (y_hi - y_lo) * ph

    def poly(xs, ys):
        keep = np.isfinite(ys)
        return _points(sx(xs[keep]), sy(ys[keep]))

    parts = [
        f'<text x="{_fmt(m_left)}" y="14" font-family="sans-serif" font-size="11">'
        f'{_text(title)}</text>',
        f'<rect x="{_fmt(m_left)}" y="{_fmt(m_top)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
        'fill="none" stroke="#888888" stroke-width="0.5"/>',
    ]
    if band is not None:
        lower, upper = band
        ring = poly(np.concatenate([x, x[::-1]]), np.concatenate([lower, upper[::-1]]))
        if ring:
            parts.append(f'<polygon points="{ring}" fill="{BAND_COLOR}" fill-opacity="0.6"/>')
    if refline is not None and y_lo <= refline <= y_hi:
        parts.append(
            f'<line x1="{_fmt(m_left)}" y1="{_fmt(sy(refline))}" x2="{_fmt(m_left + pw)}" '
            f'y2="{_fmt(sy(refline))}" stroke="{REFLINE_COLOR}" stroke-width="1"/>'
        )
    for values, color, stroke in series:
        pts = poly(x, np.asarray(values, dtype=float))
        if pts:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{_fmt(stroke)}"/>'
            )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{_fmt(sx(xv))}" y="{_fmt(height - 8.0)}" font-family="sans-serif" '
            f'font-size="9" text-anchor="middle">{xv:.6g}</text>'
        )
        parts.append(
            f'<text x="{_fmt(m_left - 4.0)}" y="{_fmt(sy(yv) + 3.0)}" font-family="sans-serif" '
            f'font-size="9" text-anchor="end">{yv:.6g}</text>'
        )
    return "\n".join(parts)


def panel_grid_svg(panels: list[dict], ncols: int = 2, panel_w: float = 320.0, panel_h: float = 240.0) -> str:
    """Arrange panels (kwargs for :func:`_panel`) in a fixed grid."""
    nrows = (len(panels) + ncols - 1) // ncols
    total_w, total_h = ncols * panel_w, nrows * panel_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(total_w)}" '
        f'height="{_fmt(total_h)}" viewBox="0 0 {_fmt(total_w)} {_fmt(total_h)}">'
    ]
    for i, opts in enumerate(panels):
        r, c = divmod(i, ncols)
        parts.append(f'<g transform="translate({_fmt(c * panel_w)},{_fmt(r * panel_h)})">')
        parts.append(_panel(width=panel_w, height=panel_h, **opts))
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def envelope_panel(grid, lower, upper, observed, title: str, thin: float, thick: float) -> dict:
    """A :func:`panel_grid_svg` panel: the ``observed`` curves in orange,
    stroked ``thin``, then the envelope's bounds in black, stroked ``thick``."""
    series = [(v, OBSERVED_COLOR, thin) for v in observed]
    series += [(lower, ENVELOPE_COLOR, thick), (upper, ENVELOPE_COLOR, thick)]
    return dict(x=grid, series=series, title=title)


def shift_plot_svg(curve, title: str = "") -> str:
    """Shift estimate with band and the equal-distributions reference line."""
    panel = dict(x=curve.abscissae, series=[(curve.delta, "#000000", 1.5)],
                 band=(curve.lower, curve.upper), refline=0.0, title=title)
    return panel_grid_svg([panel], ncols=1, panel_w=480.0, panel_h=360.0)
