"""Functional summaries of a fixation sequence.

Each summary is evaluated every time a new fixation appears and carried as
a right-continuous step curve on [0, trial end], which is what the envelope
construction consumes. Times are fixation onsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DataError, FixationSequence, StepCurve, Window, quadrant_of


def _step(times, values, domain_end: float, initial: float) -> StepCurve:
    """Assemble a StepCurve guaranteed to start at t=0 (value ``initial``)."""
    times = list(times)
    values = list(values)
    if not times or times[0] > 0.0:
        times.insert(0, 0.0)
        values.insert(0, initial)
    return StepCurve(np.asarray(times, float), np.asarray(values, float), float(domain_end))


def _domain_end(seq: FixationSequence, domain_end: float | None) -> float:
    if domain_end is not None:
        return float(domain_end)
    return float(seq.fixations[-1].end) if len(seq) else 0.0


# Bound on the rounding error of the float orientation determinant below,
# relative to its two products (Shewchuk 1997, "Adaptive precision
# floating-point arithmetic and fast robust geometric predicates",
# ccwerrboundA); the absolute term covers products that underflow.
_EPS = 2.0**-53
_ORIENT_REL_ERR = (3.0 + 16.0 * _EPS) * _EPS
_ORIENT_ABS_ERR = 2.0**-1074


def _cross(o, a, b) -> float | Fraction:
    """Orientation of o -> a -> b: > 0 left turn, < 0 right turn, 0 collinear.

    The sign is exact: the float determinant is returned when it clears the
    error bound, and recomputed in rationals of the coordinates otherwise.
    """
    left = (a[0] - o[0]) * (b[1] - o[1])
    right = (a[1] - o[1]) * (b[0] - o[0])
    det = left - right
    if abs(det) > _ORIENT_REL_ERR * (abs(left) + abs(right)) + _ORIENT_ABS_ERR:
        return det
    (ox, oy), (ax, ay), (bx, by) = (map(Fraction, p) for p in (o, a, b))
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Hull vertices by the monotone chain, counterclockwise, no repeats."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    # distinct points in lexicographic (x, y) order
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])]
    if len(pts) <= 2:
        return pts
    rows = pts.tolist()
    lower: list[list[float]] = []
    for p in rows:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(rows):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area; zero for fewer than three vertices."""
    if len(vertices) < 3:
        return 0.0
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def _inside_convex(hull: np.ndarray, edges: np.ndarray, p: np.ndarray) -> bool:
    """Point-in-convex-polygon for counterclockwise hull vertices (closed test).

    ``edges[i]`` is the vector from vertex i to vertex i+1 (cyclically).
    """
    if len(hull) < 3:
        return False
    cross = edges[:, 0] * (p[1] - hull[:, 1]) - edges[:, 1] * (p[0] - hull[:, 0])
    return bool(np.all(cross >= 0.0) or np.all(cross <= 0.0))


def convex_hull_coverage(
    seq: FixationSequence, w: Window, domain_end: float | None = None
) -> StepCurve:
    """Relative area of the convex hull of all fixations seen so far.

    Zero until at least three non-collinear fixations have appeared. The
    hull is updated only when a new fixation falls outside the current one
    (an interior point cannot change any later hull), and then from the
    current hull's vertices plus that fixation, since
    hull(prefix + p) = hull(hull(prefix) + p). Each update costs the size of
    the hull, not of the prefix.
    """
    locs = seq.locations()
    hull = locs[:2]  # fewer than three points stand in for their own hull
    edges = np.empty((0, 2))
    area = 0.0
    values = []
    for i, p in enumerate(locs):
        if i >= 2 and not _inside_convex(hull, edges, p):
            hull = convex_hull(np.vstack([hull, p]))
            edges = np.roll(hull, -1, axis=0) - hull
            area = polygon_area(hull)
        values.append(area / w.area)
    return _step(seq.onsets(), values, _domain_end(seq, domain_end), 0.0)


def ball_union_coverage(
    seq: FixationSequence,
    w: Window,
    radius: float = 35.0,
    raster: float = 1.0,
    domain_end: float | None = None,
) -> StepCurve:
    """Relative area of the union of radius-R discs around fixations so far.

    Rasterizes the window at roughly ``raster`` px cells; a cell counts as
    covered once its center lies within ``radius`` of any fixation. The
    raster must not be coarser than the disc radius. A running count of
    covered cells is kept: each fixation adds only the cells of its disc's
    bounding box that were not covered before, so an update costs the size
    of the disc, not of the raster.
    """
    if radius <= 0:
        raise DataError("radius must be positive")
    if raster > radius:
        raise DataError(f"raster cell {raster} coarser than radius {radius}")
    nx = max(1, int(np.ceil(w.width / raster)))
    ny = max(1, int(np.ceil(w.height / raster)))
    cw, ch = w.width / nx, w.height / ny
    covered = np.zeros((ny, nx), dtype=bool)
    total = nx * ny
    count = 0

    values = []
    for f in seq.fixations:
        ix_lo = max(0, int((f.x - radius - w.x_min) / cw) - 1)
        ix_hi = min(nx, int((f.x + radius - w.x_min) / cw) + 2)
        iy_lo = max(0, int((f.y - radius - w.y_min) / ch) - 1)
        iy_hi = min(ny, int((f.y + radius - w.y_min) / ch) + 2)
        cxs = w.x_min + (np.arange(ix_lo, ix_hi) + 0.5) * cw
        cys = w.y_min + (np.arange(iy_lo, iy_hi) + 0.5) * ch
        within = (cxs[None, :] - f.x) ** 2 + (cys[:, None] - f.y) ** 2 <= radius**2
        box = covered[iy_lo:iy_hi, ix_lo:ix_hi]
        count += int(np.count_nonzero(within & ~box))
        box |= within
        values.append(count / total)
    return _step(seq.onsets(), values, _domain_end(seq, domain_end), 0.0)


def scanpath_length(seq: FixationSequence, domain_end: float | None = None) -> StepCurve:
    """Cumulative saccade length; jumps at the onset of the arriving fixation."""
    locs = seq.locations()
    onsets = seq.onsets()
    if len(locs) == 0:
        return _step([], [], domain_end if domain_end is not None else 0.0, 0.0)
    steps = np.hypot(*(np.diff(locs, axis=0).T)) if len(locs) > 1 else np.empty(0)
    times = onsets
    values = np.concatenate([[0.0], np.cumsum(steps)])
    return _step(times, values, _domain_end(seq, domain_end), 0.0)


@dataclass
class TransitionCurves:
    """Running quadrant transition-probability estimates.

    ``curves[a][b]`` (0-based indices for states a+1, b+1) tracks
    N_ab(t)/N_a(t); rows not yet visited hold NaN. ``counts``/``row_counts``
    are the final tallies.
    """

    curves: list[list[StepCurve]]
    counts: np.ndarray
    row_counts: np.ndarray

    def to_dict(self) -> dict:
        out: dict = {"counts": [[int(v) for v in row] for row in self.counts]}
        for a in range(4):
            for b in range(4):
                c = self.curves[a][b]
                out[f"{a + 1}->{b + 1}"] = {
                    "knots": [float(t) for t in c.knots],
                    "values": [float(v) for v in c.values],
                    "domain_end": c.domain_end,
                }
        return out


def transition_curves(
    seq: FixationSequence, w: Window, domain_end: float | None = None
) -> TransitionCurves:
    """Quadrant-to-quadrant transition frequencies, updated per fixation.

    States 1..4 run from the upper-left to the lower-right quarter of the
    window. The estimate at time t is the cumulative N_ab(t)/N_a(t).
    """
    if len(seq) < 2:
        raise DataError("need at least 2 fixations for transitions")
    states = [quadrant_of(f.x, f.y, w) - 1 for f in seq.fixations]
    onsets = seq.onsets()
    end = _domain_end(seq, domain_end)

    times = onsets[1:]
    # one-hot transitions, accumulated into the running counts N_ab(t), N_a(t)
    steps = np.zeros((len(times), 4, 4), dtype=int)
    steps[np.arange(len(times)), states[:-1], states[1:]] = 1
    n_ab = np.cumsum(steps, axis=0)
    n_a = n_ab.sum(axis=2, keepdims=True)
    with np.errstate(invalid="ignore"):
        table = n_ab / np.where(n_a == 0, np.nan, n_a)

    curves = [
        [_step(times, table[:, a, b], end, np.nan) for b in range(4)] for a in range(4)
    ]
    return TransitionCurves(curves=curves, counts=n_ab[-1], row_counts=n_a[-1, :, 0])


def resample_curve(curve: StepCurve, grid) -> np.ndarray:
    """Right-continuous evaluation of a step curve on a time grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < 0 or grid.max() > curve.domain_end):
        raise DataError("grid extends outside [0, domain_end]")
    return np.asarray(curve(grid), dtype=float)


def curve_to_csv(curve: StepCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("time_ms,value\n")
        for t, v in zip(curve.knots, curve.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def curve_to_dict(curve: StepCurve) -> dict:
    return {
        "knots": [float(t) for t in curve.knots],
        "values": [float(v) for v in curve.values],
        "domain_end": curve.domain_end,
    }
