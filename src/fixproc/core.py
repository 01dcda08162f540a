"""Domain types and elementary geometry shared by the whole pipeline.

Coordinates are continuous pixels in image convention: the y axis points
down, so "upper" quadrants have *smaller* y. Times are milliseconds since
trial start. ``Window``, ``FixationSequence`` and ``Saccades`` are immutable
value objects, safe to share between threads: a sequence holds its
fixations as three read-only columns (locations, onsets, durations), as a
spatio-temporal point pattern, plus which jumps between them are real
saccades, and ``Saccades`` is the derived per-jump view. ``quadrants`` and
``corner_offsets`` state the window's midline and farthest-corner rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NOVICE = "novice"
NON_NOVICE = "non_novice"
GROUPS = (NOVICE, NON_NOVICE)


class DataError(ValueError):
    """Invalid or inconsistent input data."""


class NumericError(ArithmeticError):
    """A numeric procedure failed (non-convergence, degenerate input)."""


def _positive(value) -> bool:
    """True for a finite number above 0; NaN fails both tests."""
    return value > 0 and math.isfinite(value)


@dataclass(frozen=True)
class Window:
    """Rectangular observation region (the painting extent) in pixels."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise DataError(f"non-finite window {self!r}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise DataError(f"degenerate window {self!r}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y) -> np.ndarray | bool:
        """Closed-rectangle membership test on floats, numpy scalars or arrays."""
        return (x >= self.x_min) & (x <= self.x_max) & (y >= self.y_min) & (y <= self.y_max)


#: Extent of the reference painting image (770 x 768 px).
REFERENCE_WINDOW = Window(0.0, 0.0, 770.0, 768.0)

#: Trials in the reference experiment last three minutes.
DEFAULT_TRIAL_LENGTH_MS = 180_000.0

#: Separators of :func:`sequence_name`: ``_`` in file names, ``:`` in envelope JSON keys.
NAME_SEPARATORS = ("_", ":")

#: Fixations shorter than this are treated as spurious and excluded.
MIN_FIXATION_MS = 40.0


def read_only(values, dtype=np.float64) -> np.ndarray:
    """A C-ordered copy of ``values`` as ``dtype``, made read-only."""
    column = np.array(values, dtype=dtype, order="C")
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class FixationSequence:
    """One subject's fixations on one painting, in onset order, as columns.

    ``locations`` is the (n, 2) array of (x, y) in px, ``onsets`` and
    ``durations`` the (n,) arrays in ms. ``valid_jumps`` is the bool
    (max(n - 1, 0),) array whose entry k says whether the jump from
    fixation k to k + 1 is one real saccade; it is all true by default, and
    false where ingest dropped a fixation between the two. The columns are
    copied (to float64, the flags to bool) and made read-only. Every value
    must be finite, every duration positive and the onsets strictly
    increasing. Two sequences are equal when their ids and every column are.
    """

    subject_id: str
    group: str
    painting_id: str
    locations: np.ndarray = ()
    onsets: np.ndarray = ()
    durations: np.ndarray = ()
    valid_jumps: np.ndarray | None = None

    def __post_init__(self):
        if self.group not in GROUPS:
            raise DataError(f"unknown group {self.group!r}, expected one of {GROUPS}")
        locations, onsets, durations = map(read_only, (self.locations, self.onsets, self.durations))
        if locations.size == 0:
            locations = locations.reshape(0, 2)
        n = onsets.size
        jumps = (max(n - 1, 0),)
        valid = np.ones(jumps, bool) if self.valid_jumps is None else self.valid_jumps
        columns = locations, onsets, durations, read_only(valid, bool)
        if tuple(c.shape for c in columns) != ((n, 2), (n,), (n,), jumps):
            raise DataError(
                f"columns of subject {self.subject_id!r} need shapes (n, 2), (n,), (n,),"
                f" (max(n - 1, 0),); got {', '.join(str(c.shape) for c in columns)}"
            )
        for name, column in zip(("locations", "onsets", "durations", "valid_jumps"), columns):
            if column.dtype != bool and not np.isfinite(column).all():
                raise DataError(f"non-finite {name} for subject {self.subject_id!r}")
            object.__setattr__(self, name, column)
        if not (durations > 0).all():
            bad = float(durations[np.argmin(durations > 0)])
            raise DataError(f"fixation duration must be positive, got {bad}")
        if not (onsets[1:] > onsets[:-1]).all():
            raise DataError(
                f"onsets not strictly increasing for subject {self.subject_id!r}"
            )

    def _columns(self) -> tuple:
        return self.locations, self.onsets, self.durations, self.valid_jumps

    def __eq__(self, other) -> bool:
        if not isinstance(other, FixationSequence):
            return NotImplemented
        ids = (self.subject_id, self.group, self.painting_id)
        return ids == (other.subject_id, other.group, other.painting_id) and all(
            map(np.array_equal, self._columns(), other._columns())
        )

    def __len__(self) -> int:
        return len(self.onsets)


@dataclass(frozen=True, eq=False)
class Saccades:
    """One sequence's jumps as read-only columns, jump k from fixation k to k + 1:
    float64 ``lengths`` (px) and ``durations`` (the gaps, ms), and bool ``valid``,
    False where a jump spans an excluded fixation and so is no single real saccade."""

    lengths: np.ndarray = ()
    durations: np.ndarray = ()
    valid: np.ndarray = ()

    def __post_init__(self):
        columns = read_only(self.lengths), read_only(self.durations), read_only(self.valid, bool)
        if any(c.shape != (columns[0].size,) for c in columns):
            raise DataError(f"saccade columns need shape (n,), got {[c.shape for c in columns]}")
        for name, column in zip(("lengths", "durations", "valid"), columns):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.lengths)


#: The most intervals a trial may be cut into: ``residuals`` estimates one
#: nx x ny surface and writes one CSV per interval.
MAX_INTERVALS = 1_000


def check_limits(limits, error: type[Exception] = DataError) -> None:
    """Raise ``error`` for the first ``(what, amount, least, most)`` limit whose
    ``amount`` is not in [least, most]: "<what>; need at most <most>" (NaN
    included), or "<what>; need at least <least>"."""
    for what, amount, least, most in limits:
        if not amount <= most:
            raise error(f"{what}; need at most {most}")
        if amount < least:
            raise error(f"{what}; need at least {least}")


def interval_limit(trial_length: float, interval: float) -> tuple[str, float, int, int]:
    """The :func:`check_limits` limit on how many intervals of ``interval`` ms, a
    trailing shorter one included, cut a trial of ``trial_length`` ms: from 2 (one
    interval has nothing to be compared with) to :data:`MAX_INTERVALS`. Its amount
    is the count, or the ratio of the two lengths where that is above the bound."""
    cut = f"interval_ms {interval} cuts trial_length {trial_length} into"
    ratio = trial_length / interval
    if not ratio <= MAX_INTERVALS:  # an infinite ratio has no ceiling
        return f"{cut} more than {MAX_INTERVALS} intervals", ratio, 2, MAX_INTERVALS
    k = math.ceil(ratio)
    return f"{cut} {k} interval(s)", k, 2, MAX_INTERVALS


def interval_count(trial_length: float, interval: float) -> int:
    """The count of :func:`interval_limit`, which :meth:`Dataset.interval_masks` cuts by.

    ``DataError`` unless ``interval`` is positive and the count is within its limit.
    """
    if not interval > 0:
        raise DataError("interval must be positive")
    limit = interval_limit(trial_length, interval)
    check_limits([limit])
    return limit[1]


@dataclass
class Dataset:
    """A window plus the fixation sequences recorded on it."""

    window: Window
    sequences: list[FixationSequence]
    trial_length: float = DEFAULT_TRIAL_LENGTH_MS

    def by_painting(self) -> dict[str, Dataset]:
        """Per painting, first seen first, its sequences with this window and trial length."""
        seqs: dict[str, list[FixationSequence]] = {}
        for s in self.sequences:
            seqs.setdefault(s.painting_id, []).append(s)
        return {p: Dataset(self.window, v, self.trial_length) for p, v in seqs.items()}

    def require_one_painting(self) -> None:
        """Raise DataError when the sequences come from more than one painting."""
        paintings = list(self.by_painting())
        if len(paintings) > 1:
            raise DataError(f"multiple paintings {paintings}; pick one with --painting")

    def two_groups(self) -> tuple[list[FixationSequence], list[FixationSequence]]:
        """The novice and the non-novice sequences of a two-group comparison.

        DataError unless there is one painting and each group has at least 2
        subjects, each with a fixation: a check of the design alone."""
        self.require_one_painting()
        seqs1, seqs2 = self.by_group(NOVICE), self.by_group(NON_NOVICE)
        n1, n2 = len(seqs1), len(seqs2)
        if n1 < 2 or n2 < 2:
            raise DataError(f"need at least 2 subjects per group, got {n1} and {n2}")
        if any(len(s) == 0 for s in seqs1 + seqs2):
            raise DataError("every subject needs at least one fixation")
        return seqs1, seqs2

    def by_group(self, group: str | None) -> list[FixationSequence]:
        """The sequences of ``group`` in dataset order; every sequence for None."""
        if group is None:
            return self.sequences
        if group not in GROUPS:
            raise DataError(f"unknown group {group!r}")
        return [s for s in self.sequences if s.group == group]

    # pooled arrays follow dataset order; the leading empty array fixes the empty shape
    def pooled_locations(self, group: str | None = None) -> np.ndarray:
        return np.vstack([np.empty((0, 2))] + [s.locations for s in self.by_group(group)])

    def pooled_durations(self, group: str | None = None) -> np.ndarray:
        return np.concatenate([np.empty(0)] + [s.durations for s in self.by_group(group)])

    def pooled_onsets(self) -> np.ndarray:
        return np.concatenate([np.empty(0)] + [s.onsets for s in self.sequences])

    def interval_masks(self, interval: float) -> list[np.ndarray]:
        """Masks over :meth:`pooled_onsets`, mask j of the onsets in [j, j + 1) * interval,
        for :func:`interval_count` intervals; the last may be shorter."""
        k = interval_count(self.trial_length, interval)
        onsets = self.pooled_onsets()
        return [(onsets >= j * interval) & (onsets < (j + 1) * interval) for j in range(k)]


def sequence_name(subject_id: str, painting_id: str, sep: str) -> str:
    """The name of one subject's outputs on one painting: the ids joined by ``sep``."""
    return f"{subject_id}{sep}{painting_id}"


@dataclass
class StepCurve:
    """Right-continuous piecewise-constant function of time on [0, domain_end].

    ``values[i]`` holds on [knots[i], knots[i+1]); evaluation exactly at a
    knot returns the post-jump value. Before the first knot the curve is
    undefined; constructors in this package always emit a knot at t=0.
    """

    knots: np.ndarray
    values: np.ndarray
    domain_end: float

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.knots.shape != self.values.shape:
            raise DataError("knots and values must have equal length")
        if self.knots.size and np.any(np.diff(self.knots) <= 0):
            raise DataError("knots must be strictly increasing")

    def __call__(self, t) -> np.ndarray:
        """Evaluate at time(s) t; NaN before the first knot."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.knots, t, side="right") - 1
        out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], np.nan)
        return out if out.ndim else float(out)


def _require_inside(w: Window, x: np.ndarray, y: np.ndarray) -> None:
    """DataError naming the lowest-index point (x[i], y[i]) outside ``w``."""
    outside = np.flatnonzero(~w.contains(x, y))
    if outside.size:
        i = outside[0]
        raise DataError(f"point ({float(x[i])}, {float(y[i])}) outside window")


def quadrants(locs: np.ndarray, w: Window) -> np.ndarray:
    """Quadrant index minus 1 of each (x, y) row of ``locs``, as uint8: 0
    upper-left, 1 upper-right, 2 lower-left, 3 lower-right.

    The window's midlines split it. Image convention: upper means smaller
    y. A point exactly on a midline belongs to the larger-index side. The
    first location outside the window raises ``DataError``.
    """
    xs, ys = locs[:, 0], locs[:, 1]
    _require_inside(w, xs, ys)
    right = xs >= (w.x_min + w.x_max) / 2.0
    lower = ys >= (w.y_min + w.y_max) / 2.0
    return right.astype(np.uint8) + 2 * lower.astype(np.uint8)


def corner_offsets(w: Window, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Offsets ``(dx, dy)`` from each point to its farthest window corner.

    ``np.hypot(dx, dy)`` is the longest jump the gaze can take from the
    point without leaving the window, and the truncation point for
    saccade-length sampling. The lowest point outside the window raises
    ``DataError``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_inside(w, x, y)
    dx = np.where(x - w.x_min > w.x_max - x, w.x_min, w.x_max) - x
    dy = np.where(y - w.y_min > w.y_max - y, w.y_min, w.y_max) - y
    return dx, dy
