"""Functional summaries of a fixation sequence.

Each summary is evaluated every time a new fixation appears, at its onset.
The public functions carry it as a right-continuous step curve on
[0, trial end]; :func:`curve_rows` evaluates a sequence's summaries on a
time grid in one pass, as the rows that the envelope construction consumes,
and :class:`RunCurves` holds those rows of many runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .core import DataError, FixationSequence, StepCurve, Window, _positive, quadrants
from .ingest import write_csv

#: Summary statistics :func:`curve_rows` can evaluate, in their row order.
STATS = ("hull", "ball", "scanpath")
#: Names of the 16 quadrant transition curves, in their row order.
TRANSITIONS = tuple(f"{a}->{b}" for a in range(1, 5) for b in range(1, 5))


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
    return float(seq.onsets[-1] + seq.durations[-1]) if len(seq) else 0.0


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


def _hull_chain(points: list) -> list:
    """Monotone chain over [x, y] lists: hull vertices counterclockwise, no repeats."""
    rows = sorted(points)
    # distinct points in lexicographic (x, y) order
    rows = rows[:1] + [p for p, q in zip(rows[1:], rows) if p != q]
    if len(rows) <= 2:
        return rows
    lower: list = []
    for p in rows:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(rows):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Hull vertices by the monotone chain, counterclockwise, no repeats; shape (k, 2)."""
    rows = np.asarray(points, dtype=float).reshape(-1, 2).tolist()
    return np.array(_hull_chain(rows), dtype=float).reshape(-1, 2)


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area; zero for fewer than three vertices."""
    if len(vertices) < 3:
        return 0.0
    x = vertices[:, 0]
    y = vertices[:, 1]
    # the next vertex's coordinates, cyclically
    y_next = np.concatenate((y[1:], y[:1]))
    x_next = np.concatenate((x[1:], x[:1]))
    return 0.5 * abs(float(x @ y_next - y @ x_next))


def convex_hull_coverage(
    seq: FixationSequence, w: Window, domain_end: float | None = None
) -> StepCurve:
    """Relative area of the convex hull of all fixations seen so far.

    Zero until at least three non-collinear fixations have appeared.
    """
    values = _hull_values(seq.locations, w)
    return _step(seq.onsets, values, _domain_end(seq, domain_end), 0.0)


# Hull edges times fixations tested in one array operation after a rebuild.
_HULL_BLOCK = 4096


def _hull_values(locs: np.ndarray, w: Window) -> np.ndarray:
    """Hull coverage after each of the (n, 2) fixation locations ``locs``.

    The hull is rebuilt only when a fixation falls outside the current one
    (an interior point cannot change any later hull), and then from the
    current hull's vertices plus that fixation, since
    hull(prefix + p) = hull(hull(prefix) + p). After each rebuild the later
    fixations are tested against every hull edge in blocks of one array
    operation, and every fixation before the first one not surely inside
    repeats the current area. A fixation is surely inside when it lies left
    of every counterclockwise edge by more than :func:`_cross`'s error
    bound; one outside, on an edge or too close to call takes the exact
    rebuild, which leaves the hull as it was unless the fixation is outside.
    While the hull has fewer than three vertices, every fixation rebuilds.
    """
    rows = locs.tolist()
    n = len(rows)
    values = np.zeros(n)
    hull = rows[:2]  # fewer than three points stand in for their own hull
    i = 2
    while i < n:
        hull = _hull_chain(hull + [rows[i]])
        vertices = np.array(hull)
        area = polygon_area(vertices)
        start = i
        i += 1
        if len(hull) >= 3:
            edges = np.concatenate((vertices[1:], vertices[:1])) - vertices
            step = max(1, _HULL_BLOCK // len(hull))
            while i < n:
                rest = locs[i : i + step]
                # _cross(vertex, next vertex, fixation) per edge and fixation
                left = edges[:, :1] * (rest[:, 1] - vertices[:, 1:])
                right = edges[:, 1:] * (rest[:, 0] - vertices[:, :1])
                bound = np.abs(left)
                bound += np.abs(right)
                bound *= _ORIENT_REL_ERR
                bound += _ORIENT_ABS_ERR
                left -= right
                unsure = ~(left > bound).all(axis=0)
                if unsure.any():
                    i += int(unsure.argmax())
                    break
                i += len(rest)
        values[start:i] = area / w.area
    return values


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
    radius and raster must be positive and finite, and the raster must not
    be coarser than the radius.
    """
    values = _ball_values(seq.locations, w, radius, raster)
    return _step(seq.onsets, values, _domain_end(seq, domain_end), 0.0)


# Bytes of the float (fixations x box cells) array that one batch of disc
# masks is computed in.
_MASK_BYTES = 2**19


def _ball_values(locs: np.ndarray, w: Window, radius: float, raster: float) -> np.ndarray:
    """Disc-union coverage after each of the (n, 2) fixation locations ``locs``.

    A running count of covered cells is kept: each fixation ORs its disc
    into the cells of its bounding box and adds the growth of the box's
    count, so an update costs the size of the disc, not of the raster. The
    boxes of all fixations are one vector computation, and the discs'
    masks are built for batches of fixations at a time, each batch's float
    array kept under ``_MASK_BYTES``. A box that lies wholly outside the
    window is empty.
    """
    if not _positive(radius):
        raise DataError(f"radius must be positive and finite, got {radius}")
    if not _positive(raster):
        raise DataError(f"raster must be positive and finite, got {raster}")
    if raster > radius:
        raise DataError(f"raster cell {raster} coarser than radius {radius}")
    if not np.isfinite(locs).all():
        raise DataError("fixation locations must be finite")
    nx = max(1, int(np.ceil(w.width / raster)))
    ny = max(1, int(np.ceil(w.height / raster)))
    cw, ch = w.width / nx, w.height / ny
    xs, ys = locs[:, 0], locs[:, 1]
    # astype(int) truncates toward zero, as int() does
    x_lo = np.clip(((xs - radius - w.x_min) / cw).astype(int) - 1, 0, nx)
    x_hi = np.clip(((xs + radius - w.x_min) / cw).astype(int) + 2, x_lo, nx)
    y_lo = np.clip(((ys - radius - w.y_min) / ch).astype(int) - 1, 0, ny)
    y_hi = np.clip(((ys + radius - w.y_min) / ch).astype(int) + 2, y_lo, ny)
    box_w = int((x_hi - x_lo).max(initial=0))
    box_h = int((y_hi - y_lo).max(initial=0))
    # cell centres, padded so that every box's slice of them is box_w long
    cx = w.x_min + (np.arange(nx + box_w) + 0.5) * cw
    cy = w.y_min + (np.arange(ny + box_h) + 0.5) * ch
    batch = max(1, _MASK_BYTES // (8 * max(1, box_w * box_h)))
    covered = np.zeros((ny, nx), dtype=bool)
    total = nx * ny
    count = 0
    values = np.empty(len(locs))
    bounds = list(zip(x_lo.tolist(), x_hi.tolist(), y_lo.tolist(), y_hi.tolist()))
    for start in range(0, len(locs), batch):
        part = slice(start, start + batch)
        dx2 = (cx[x_lo[part, None] + np.arange(box_w)] - xs[part, None]) ** 2
        dy2 = (cy[y_lo[part, None] + np.arange(box_h)] - ys[part, None]) ** 2
        # dy2 + dx2 per cell (addition commutes exactly); adding into the
        # repeated rows is cheaper than one broadcast sum
        sums = np.repeat(dy2, box_w, axis=1).reshape(-1, box_h, box_w)
        sums += dx2[:, None, :]
        masks = sums <= radius**2
        for i, (x0, x1, y0, y1) in enumerate(bounds[part], start):
            box = covered[y0:y1, x0:x1]
            before = np.count_nonzero(box)
            box |= masks[i - start, : y1 - y0, : x1 - x0]
            count += np.count_nonzero(box) - before
            values[i] = count / total
    return values


def scanpath_length(seq: FixationSequence, domain_end: float | None = None) -> StepCurve:
    """Cumulative saccade length; jumps at the onset of the arriving fixation."""
    values = _scanpath_values(seq.locations)
    return _step(seq.onsets, values, _domain_end(seq, domain_end), 0.0)


def _scanpath_values(locs: np.ndarray) -> np.ndarray:
    """Scanpath length after each of the (n, 2) fixation locations ``locs``."""
    if len(locs) == 0:
        return np.empty(0)
    steps = np.hypot(*(np.diff(locs, axis=0).T))
    return np.concatenate([[0.0], np.cumsum(steps)])


@dataclass
class TransitionCurves:
    """Running quadrant transition-probability estimates.

    ``curves[a][b]`` (0-based indices for states a+1, b+1) tracks
    N_ab(t)/N_a(t); rows not yet visited hold NaN. ``counts`` holds the
    final tallies N_ab.
    """

    curves: list[list[StepCurve]]
    counts: np.ndarray

    def to_dict(self) -> dict:
        """``counts`` and each transition's ``StepCurve`` under its name
        (``"a->b"``), for ``ingest.write_json``."""
        out: dict = {"counts": self.counts}
        out.update(zip(TRANSITIONS, (c for row in self.curves for c in row)))
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
    states = quadrants(seq.locations, w)
    # knot i is the onset of fixation i + 1
    knots = np.arange(1, len(states))[None, :]
    starts = np.array([0, len(states)])
    times = seq.onsets[1:]
    end = _domain_end(seq, domain_end)
    curves = [
        [_step(times, _transition_estimates(states, starts, knots, 4 * a + b)[0], end, np.nan)
         for b in range(4)]
        for a in range(4)
    ]
    counts = np.bincount(4 * states[:-1] + states[1:], minlength=16).reshape(4, 4)
    return TransitionCurves(curves=curves, counts=counts)


def _transition_estimates(
    states: np.ndarray, starts: np.ndarray, at: np.ndarray, j: int, runs=slice(None)
) -> np.ndarray:
    """Running estimate N_ab/N_a of transition ``TRANSITIONS[j]`` of runs of quadrant states.

    Run i's states are ``states[starts[i]:starts[i + 1]]``. Row r of the
    result is run ``i = runs[r]`` (every run by default): entry (r, g) is
    the estimate after fixation ``at[i, g]`` of run i, counting its
    transitions into fixations 1 to ``at[i, g]``. The estimate is NaN while
    N_a is 0, and so for an index below 1.

    The prefix counts are int32 per fixation. Besides the float result, at
    most two (runs, grid) arrays are held at a time: int32 positions and
    counts (int64 positions for an int64 ``at``).
    """
    a, b = divmod(j, 4)
    first = starts[:-1][np.diff(starts) > 0]
    # leaves_a[p + 1]: the transition into fixation p leaves state a
    leaves_a = np.zeros(states.size + 1, dtype=bool)
    leaves_a[2:] = states[:-1] == a
    leaves_a[first + 1] = False  # no transition into a run's first fixation
    enters_b = leaves_a.copy()
    enters_b[1:] &= states == b
    # prefix counts before fixation q; a run's counts are differences from its start
    n_a = np.cumsum(leaves_a, dtype=np.int32)
    n_ab = np.cumsum(enters_b, dtype=np.int32)
    del leaves_a, enters_b
    base = starts[:-1][runs, None]
    pos = at[runs] + (base + 1).astype(np.int32)
    counts_a = n_a[pos]
    counts_a -= n_a[base]
    counts_ab = n_ab[pos]
    del pos
    counts_ab -= n_ab[base]
    estimates = counts_ab.astype(float)
    del counts_ab
    with np.errstate(invalid="ignore"):
        estimates /= counts_a
    estimates[counts_a == 0] = np.nan  # 0/0 there, whose NaN has the sign bit set
    return estimates


@dataclass
class RunCurves:
    """The :func:`curve_rows` of many runs on one time grid, held compactly.

    Built by :meth:`from_sequences`, for observed subjects and simulated runs
    alike, with the ``grid`` and ``stats`` it holds. ``curves[j]`` is the
    (runs, grid) array of row j of every run's ``curve_rows``, bit for bit.
    Statistic rows are stored as floats in ``stat_rows``. The 16 transition
    rows are ratios of small counts, so only integers are stored: each
    fixation's quadrant state (``states``, uint8, runs back to back, run i from
    ``starts[i]`` to ``starts[i + 1]``) and each grid time's fixation index
    (``at``, -1 before the first fixation). A transition row is built when it
    is indexed. ``np.asarray(curves)`` is the whole (rows, runs, grid) matrix,
    and ``defined(j)`` is row j over the runs of :meth:`defined_runs` only.
    """

    stat_rows: np.ndarray
    states: np.ndarray
    starts: np.ndarray
    at: np.ndarray
    grid: np.ndarray
    stats: tuple[str, ...]

    @classmethod
    def from_sequences(
        cls, sequences, n: int, window: Window, grid, stats=STATS,
        radius: float = 35.0, raster: float = 1.0,
    ) -> RunCurves:
        """The store of exactly ``n`` sequences, taken one at a time from an
        iterable that is read no further than item n + 1: ``ValueError`` if it
        yields fewer or more. Only the requested ``stats`` are computed and named."""
        grid = np.asarray(grid, dtype=float)
        values_of = {
            "hull": lambda locs: _hull_values(locs, window),
            "ball": lambda locs: _ball_values(locs, window, radius, raster),
            "scanpath": _scanpath_values,
        }
        stat_rows = np.empty((len(stats), n, grid.size))
        at = np.empty((n, grid.size), dtype=np.int32)
        states = []
        sequences = iter(sequences)
        for i, seq in enumerate(islice(sequences, n)):
            # the last fixation with onset <= t, or -1 before the first one
            at[i] = last = np.searchsorted(seq.onsets, grid, side="right") - 1
            for k, stat in enumerate(stats):
                # 0 before the first fixation
                stat_rows[k, i] = np.concatenate([[0.0], values_of[stat](seq.locations)])[last + 1]
            states.append(quadrants(seq.locations, window))
        if len(states) < n or next(sequences, None) is not None:
            got = len(states) if len(states) < n else f"more than {n}"
            raise ValueError(f"{n} sequences expected, got {got}")
        starts = np.cumsum([0] + [len(s) for s in states])
        states = np.concatenate([np.empty(0, np.uint8), *states])
        return cls(stat_rows, states, starts, at, grid, tuple(stats))

    def __len__(self) -> int:
        return len(self.stat_rows) + len(TRANSITIONS)

    def __getitem__(self, j: int) -> np.ndarray:
        return self._row(j, slice(None))

    def defined_runs(self, j: int) -> np.ndarray:
        """Runs row j is defined on: all for a stat, those of >= 2 fixations for a transition."""
        if range(len(self))[j] < len(self.stat_rows):
            return np.arange(len(self.at))
        return np.flatnonzero(self.counts >= 2)

    def defined(self, j: int) -> np.ndarray:
        """Row j of the :meth:`defined_runs`; a statistic's stored row is not copied."""
        return self._row(j, self.defined_runs(j))

    def _row(self, j: int, transition_runs) -> np.ndarray:
        j = range(len(self))[j]  # IndexError past either end
        n_stats = len(self.stat_rows)
        if j < n_stats:
            return self.stat_rows[j]
        return _transition_estimates(
            self.states, self.starts, self.at, j - n_stats, transition_runs
        )

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape)
        for j in range(len(self)):
            out[j] = self[j]
        return out if dtype is None else out.astype(dtype, copy=False)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self), *self.at.shape)

    @property
    def counts(self) -> np.ndarray:
        """Each run's fixation count."""
        return np.diff(self.starts)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.stat_rows, self.states, self.starts, self.at))


def curve_rows(
    seq: FixationSequence,
    window: Window,
    grid,
    stats=STATS,
    radius: float = 35.0,
    raster: float = 1.0,
) -> np.ndarray:
    """A sequence's summaries on a time grid, one row per curve.

    The rows are the requested ``stats`` (names from :data:`STATS`) and
    then the 16 transition curves in :data:`TRANSITIONS` order. Each row
    equals its step curve evaluated on the grid, bit for bit, at grid times
    >= 0. A sequence of fewer than 2 fixations has all-NaN transition rows.
    Only the requested statistics are computed. The rows are those of the
    one-run store :meth:`RunCurves.from_sequences` builds.
    """
    one = RunCurves.from_sequences([seq], 1, window, grid, stats, radius, raster)
    return np.asarray(one)[:, 0]


def resample_curve(curve: StepCurve, grid) -> np.ndarray:
    """Right-continuous evaluation of a step curve on a time grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < 0 or grid.max() > curve.domain_end):
        raise DataError("grid extends outside [0, domain_end]")
    return np.asarray(curve(grid), dtype=float)


def curve_to_csv(curve: StepCurve, path) -> None:
    write_csv(path, ("time_ms", "value"), [(curve.knots, curve.values)])
