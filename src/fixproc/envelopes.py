"""Global rank envelopes for functional summaries.

A simultaneous envelope is cut from pointwise order statistics of simulated
curves: each curve gets an extreme rank (its most extreme depth over the
whole grid, from below or above, mid-ranks on ties), and the envelope depth
k is pushed as far as possible while keeping at least 1 - alpha of the
simulations entirely inside.

That level is a share of the simulations, not the chance that a new
same-law curve stays inside. With many grid points most curves tie at
extreme rank 1, k falls to 1, and the band is the simulations' min/max. A
held-out curve against 200 simulations on 361 points at alpha = 0.05 left
it in 16.0 % of 300 trials for independent Brownian paths and in 96.3 % for
white noise (measured at commit 8f8f9e6). ROADMAP item 1 (extreme rank
length ordering) is the fix.

:func:`judge` is where an observed curve meets its envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, StepCurve
from .ingest import write_csv
from .summaries import TRANSITIONS, RunCurves, resample_curve


# columns per tile of the column sort: a tile's sort order, mid-ranks and
# depths, about four (curves, tile) arrays, are all the ranks hold beside the
# curves and their sorted copy. At 200 curves on 361 times, rank_envelope's
# traced peak is 1.5 curve matrices, against 4.25 for one sort of every
# column, and no slower; wider tiles cost more, narrower ones time
_TILE_COLUMNS = 32


@dataclass
class CurveMatrix:
    """Simulated curves resampled onto one common time grid (rows = curves)."""

    grid: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.grid.size:
            raise DataError(
                f"rows shape {self.rows.shape} incompatible with grid of {self.grid.size}"
            )

    @classmethod
    def from_curves(cls, curves: list[StepCurve], grid) -> "CurveMatrix":
        grid = np.asarray(grid, dtype=float)
        return cls(grid, np.vstack([resample_curve(c, grid) for c in curves]))


@dataclass
class RankEnvelope:
    """Pointwise k-th order-statistic bounds forming a global band.

    The bounds lie on the time grid of the curves they were cut from, which
    the caller holds, as it holds the level it asked for.
    """

    lower: np.ndarray
    upper: np.ndarray
    k: int

    def _exits(self, values) -> np.ndarray:
        """Mask of the grid points where ``values`` violates a bound.

        NaN (undefined) observed values or bounds never count as
        violations: there is nothing to compare. ``DataError`` unless
        ``values`` has the bounds' shape.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.lower.shape:
            raise DataError(
                f"curve of shape {values.shape} does not match bounds of shape {self.lower.shape}"
            )
        return (values < self.lower) | (values > self.upper)

    def contains(self, values: np.ndarray) -> bool:
        """True when no grid point violates a bound (see ``_exits``)."""
        return not self._exits(values).any()

    def to_csv(self, path, grid) -> None:
        """``time_ms,lower,upper`` rows, ``grid`` being the curves' time grid."""
        write_csv(path, ("time_ms", "lower", "upper"), [(grid, self.lower, self.upper)])


def default_grid(trial_length: float = 180_000.0, n: int = 361) -> np.ndarray:
    """Uniform grid on [0, trial_length]; 0.5 s spacing at the defaults."""
    return np.linspace(0.0, trial_length, n)


def _finite_or_nan(rows: np.ndarray) -> np.ndarray:
    """``rows``, or a copy with NaN for +-inf when it holds any."""
    infinite = np.isinf(rows)
    return np.where(infinite, np.nan, rows) if infinite.any() else rows


def _sorted_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's sort order and its sorted values; NaN sorts last."""
    order = np.argsort(rows, axis=0)
    return order, np.take_along_axis(rows, order, axis=0)


def _sorted_mid_ranks(ordered: np.ndarray) -> np.ndarray:
    """Mid-rank of each entry of the sorted columns ``ordered``.

    A run of c ties from sorted position lo shares the rank lo + (c + 1) / 2.
    Every NaN is a run of its own; its rank means nothing.
    """
    pos = np.arange(len(ordered), dtype=np.int32)[:, None]
    starts = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    lo = np.where(starts, pos, 0)
    np.maximum.accumulate(lo, axis=0, out=lo)
    ends = starts  # a run ends where the next one starts, and at the last row
    ends[:-1] = starts[1:]
    ends[-1] = True
    span = np.minimum.accumulate(np.where(ends, pos, len(ordered))[::-1], axis=0)[::-1]
    span -= lo
    span += 2  # the run's length plus 1
    ranks = span / 2
    del span
    ranks += lo
    return ranks


def _unsorted(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``values`` of sorted columns, moved back to the rows ``order`` took them from."""
    out = np.empty(values.shape)
    np.put_along_axis(out, order, values, axis=0)
    return out


def _sorted_extreme_ranks(
    order: np.ndarray, ordered: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """:func:`extreme_ranks` from the column sort of rows without infinities.

    ``counts`` are the columns' numbers of finite entries.
    """
    depth = _sorted_mid_ranks(ordered)
    high = (counts + 1) - depth
    np.fmin(depth, high, out=depth)
    del high
    # a column's non-finite entries sort after its finite ones
    depth[np.arange(len(ordered))[:, None] >= counts] = np.inf
    return _unsorted(depth, order).min(axis=1)


def extreme_ranks(rows: np.ndarray, ordered: np.ndarray | None = None) -> np.ndarray:
    """Per-curve extreme rank: min over the grid of depth from below/above.

    Mid-ranks are used on ties so mass ties (e.g. many curves at zero early
    on) do not pin every curve at rank 1. Non-finite entries (NaN for a
    curve undefined at that time, as for not-yet-visited transition rows,
    and likewise +-inf) contribute no depth; an everywhere-undefined curve
    gets rank +inf.

    The columns are sorted ``_TILE_COLUMNS`` at a time. Each tile's sorted
    columns, non-finite entries as NaN and last, go to the same columns of
    ``ordered`` when it is given. Every other array is sized to one tile,
    and ``rows`` is only read.
    """
    ranks = np.full(len(rows), np.inf)
    for start in range(0, rows.shape[1], _TILE_COLUMNS):
        cols = slice(start, start + _TILE_COLUMNS)
        order, tile = _sorted_columns(_finite_or_nan(rows[:, cols]))
        counts = np.isfinite(rows[:, cols]).sum(axis=0)
        np.minimum(ranks, _sorted_extreme_ranks(order, tile, counts), out=ranks)
        if ordered is not None:
            ordered[:, cols] = tile
    return ranks


def min_curves(alpha: float) -> int:
    """The fewest simulated curves :func:`rank_envelope` accepts at level ``alpha``."""
    return int(np.ceil(1.0 / alpha))


def rank_envelope(curves: CurveMatrix, alpha: float = 0.05) -> RankEnvelope:
    """Global envelope holding at least 1-alpha of the simulated curves.

    k is the largest order-statistic depth for which at least a (1-alpha)
    share of the simulations stays fully inside the [k-th smallest, k-th
    largest] band. A new same-law curve may leave the band far more often
    than alpha (see the module docstring). Grid points where all curves are
    undefined get NaN bounds (no constraint); points with fewer than k
    defined values fall back to the min/max of what is defined. Infinite
    entries count as undefined, like NaN.

    The columns are sorted once, for the ranks and the bounds, a tile of
    columns at a time; besides the curves, their sorted copy and about four
    arrays of one tile's size are held at a time. A bound drawn from a tie
    of 0.0 and -0.0 may carry either sign.
    """
    s = curves.rows.shape[0]
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    if s < min_curves(alpha):
        raise DataError(f"need at least {min_curves(alpha)} curves, got {s}")

    counts = np.isfinite(curves.rows).sum(axis=0)
    ordered = np.empty(curves.rows.shape)
    ranks = extreme_ranks(curves.rows, ordered)
    need = int(np.ceil((1.0 - alpha) * s - 1e-9))
    # largest integer k with #{R_j >= k} >= need, i.e. floor of the
    # need-th largest extreme rank
    k = int(np.floor(min(np.sort(ranks)[s - need], (s + 1) / 2) + 1e-9))
    k = max(k, 1)

    cols = np.arange(ordered.shape[1])
    # depth per column, capped so short columns keep lower <= upper
    k_eff = np.minimum(k, (np.maximum(counts, 1) + 1) // 2)
    lower = np.where(counts > 0, ordered[k_eff - 1, cols], np.nan)
    upper = np.where(counts > 0, ordered[np.maximum(counts - k_eff, 0), cols], np.nan)
    return RankEnvelope(lower=lower, upper=upper, k=k)


def envelope_report(observed: list[np.ndarray], env: RankEnvelope, grid) -> list[dict]:
    """Inside/outside verdict and first exit time for each observed curve.

    ``grid`` is the time grid of the curves and of ``env``'s bounds; the
    first exit is the earliest of its times at which a curve violates a
    bound. ``DataError`` when a curve or the grid has another shape.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.shape != env.lower.shape:
        raise DataError(
            f"grid of shape {grid.shape} does not match bounds of shape {env.lower.shape}"
        )
    out = []
    for values in observed:
        exits = np.flatnonzero(env._exits(values))
        exit_time = float(grid[exits[0]]) if exits.size else None
        out.append({"inside": exit_time is None, "first_exit_time": exit_time})
    return out


def judge(observed: RunCurves, keys, simulated: RunCurves, alpha: float = 0.05) -> dict:
    """Envelope, observed curves and verdicts of each summary curve.

    Row j of both stores (their ``stats``, then the 16 transitions, on their
    ``grid``) gets the :func:`rank_envelope` of the simulated runs it is
    defined on, and the curves and :func:`envelope_report` of the observed runs
    it is defined on (``RunCurves.defined_runs``), keyed by ``keys``, one
    distinct key per observed run. Returns the stores' ``grid`` and ``alpha``
    once, and these blocks by curve name under ``"stats"`` and
    ``"transitions"``, each holding its ``RankEnvelope`` itself, ready for
    ``write_json``. One simulated row is held at a time. ``DataError`` says
    where the stores differ, or names a row with too few simulated runs.
    """
    grid, stats = simulated.grid, simulated.stats
    if observed.stats != stats:
        raise DataError(f"observed statistics {observed.stats} differ from simulated {stats}")
    if not np.array_equal(observed.grid, grid):
        raise DataError("observed and simulated curves lie on different time grids")
    keys = list(keys)
    n = observed.shape[1]
    if len(keys) != n or len(set(keys)) != n:
        raise DataError(
            f"{n} observed runs need {n} distinct keys, got {len(keys)} ({len(set(keys))} distinct)"
        )
    result: dict = {"grid": grid, "alpha": alpha, "stats": {}, "transitions": {}}
    for j, name in enumerate([*stats, *TRANSITIONS]):
        try:
            env = rank_envelope(CurveMatrix(grid, simulated.defined(j)), alpha)
        except DataError as exc:
            raise DataError(f"{name}: {exc}") from exc
        names = [keys[i] for i in observed.defined_runs(j)]
        curves = observed.defined(j)
        result["stats" if j < len(stats) else "transitions"][name] = {
            "envelope": env,
            "observed": dict(zip(names, curves)),
            "report": dict(zip(names, envelope_report(curves, env, grid))),
        }
    return result
