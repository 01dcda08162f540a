"""Generative reference model for the fixation process.

A run starts from a draw off the first-fixation intensity surface, then
alternates gamma fixation durations with jumps: the jump length comes from
a truncated gamma (or, with small probability, a uniform long jump into the
upper half of the feasible range) and the landing point is picked on the
circle of that radius around the current fixation, weighted by the group's
intensity surface. All model components are stationary over the trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DataError,
    Dataset,
    FixationSequence,
    MIN_FIXATION_MS,
    Window,
    corner_offsets,
    read_only,
)
from .density import IntensityGrid, estimate_intensity
from .fitdist import FIT_SOURCES, GammaFit, fit_law
from .ingest import write_json
from .rng import substream
from .summaries import STATS, RunCurves


@dataclass
class FixationModel:
    """Everything needed to simulate one group's fixation process, in its surfaces' window."""

    intensity_all: IntensityGrid
    intensity_first: IntensityGrid
    dur_fix: GammaFit
    dur_sac: GammaFit
    len_sac: GammaFit
    trial_length: float
    p_long: float = 0.2
    n_angles: int = 720
    min_fix_dur: float = MIN_FIXATION_MS
    group: str = "novice"
    painting_id: str = "model"
    use_first_surface: bool = True

    _cos: np.ndarray = field(init=False, repr=False)
    _sin: np.ndarray = field(init=False, repr=False)
    _initial_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.p_long <= 1.0:
            raise DataError(f"p_long must be in [0, 1], got {self.p_long}")
        if self.n_angles < 4:
            raise DataError("need at least 4 circle directions")
        if not self.intensity_all.same_geometry(self.intensity_first):
            raise DataError("intensity surfaces must share window and resolution")
        for grid in (self.intensity_all, self.intensity_first):
            # candidate weights and start cells are drawn by cumulative mass
            if not (np.isfinite(grid.values).all() and (grid.values >= 0).all()):
                raise DataError("intensity surfaces must be finite and non-negative")
        theta = 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles
        self._cos = np.cos(theta)
        self._sin = np.sin(theta)
        surface = self.intensity_first if self.use_first_surface else self.intensity_all
        masses = np.cumsum(surface.values.ravel())
        if not masses[-1] > 0:
            raise DataError("the surface that seeds first fixations has zero mass")
        self._initial_cdf = masses / masses[-1]

    @property
    def window(self) -> Window:
        return self.intensity_all.window

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "painting_id": self.painting_id,
            "trial_length": self.trial_length,
            "p_long": self.p_long,
            "n_angles": self.n_angles,
            "min_fix_dur": self.min_fix_dur,
            "use_first_surface": self.use_first_surface,
            "bandwidth": self.intensity_all.bandwidth,
            "dur_fix": self.dur_fix,
            "dur_sac": self.dur_sac,
            "len_sac": self.len_sac,
        }


@dataclass(frozen=True, eq=False)
class SimRun:
    """One simulated trial and, as read-only columns, its jumps: jump k, from fixation k
    to k + 1, is ``jump_lengths[k]`` px long and ``long_jump[k]`` on the uniform branch."""

    sequence: FixationSequence
    jump_lengths: np.ndarray
    long_jump: np.ndarray

    def __post_init__(self):
        if not isinstance(self.sequence, FixationSequence):
            raise DataError(f"a run's sequence must be a FixationSequence, "
                            f"got {type(self.sequence).__name__}")
        columns = read_only(self.jump_lengths), read_only(self.long_jump, bool)
        jumps = (max(len(self.sequence) - 1, 0),)
        if any(c.shape != jumps for c in columns):
            raise DataError(f"jump columns need shape {jumps}, got {[c.shape for c in columns]}")
        object.__setattr__(self, "jump_lengths", columns[0])
        object.__setattr__(self, "long_jump", columns[1])


def build_model(
    dataset: Dataset,
    group: str,
    h: float,
    nx: int = 128,
    ny: int = 128,
    p_long: float | None = None,
    n_angles: int = 720,
    use_first_surface: bool = True,
    min_fix_dur: float = MIN_FIXATION_MS,
) -> FixationModel:
    """Fit the reference model to one group of a (filtered) dataset.

    Both intensity surfaces (all fixations, first fixations) use the one
    bandwidth ``h``. To cross-validate it, pass the ``.h`` of
    ``select_bandwidth_cv`` of ``dataset.pooled_locations(group)``. Each
    law is :func:`~fixproc.fitdist.fit_law` of ``group``, which states its
    sample; a given ``p_long`` is held fixed in the jump mixture.
    Simulated durations are truncated below at ``min_fix_dur``, the
    threshold ingest filtered the dataset with. A dataset of several
    paintings gives one model fitted over all of them, whose ``painting_id``
    is ``"pooled"``; ``report`` builds its group models this way.
    """
    seqs = dataset.by_group(group)
    if not seqs:
        raise DataError(f"no sequences for group {group!r}")
    all_pts = dataset.pooled_locations(group)
    first_pts = np.array([s.locations[0] for s in seqs if len(s)])
    if len(first_pts) < 1:
        raise DataError("no first fixations to build the initial surface from")

    dur_fix, dur_sac, len_sac = (fit_law(dataset, group, s, p_long) for s in FIT_SOURCES)

    paintings = list(dataset.by_painting())
    return FixationModel(
        intensity_all=estimate_intensity(all_pts, dataset.window, h, nx, ny),
        intensity_first=estimate_intensity(first_pts, dataset.window, h, nx, ny),
        dur_fix=dur_fix.fit,
        dur_sac=dur_sac.fit,
        len_sac=len_sac.fit,
        trial_length=dataset.trial_length,
        p_long=len_sac.p_long,
        n_angles=n_angles,
        min_fix_dur=min_fix_dur,
        group=group,
        painting_id=paintings[0] if len(paintings) == 1 else "pooled",
        use_first_surface=use_first_surface,
    )


def sample_initial(model: FixationModel, rng: np.random.Generator) -> tuple[float, float]:
    """First fixation location: a cell drawn by intensity mass, jittered uniformly."""
    grid = model.intensity_all  # both surfaces share their cells
    idx = int(np.searchsorted(model._initial_cdf, rng.random(), side="right"))
    idx = min(idx, grid.nx * grid.ny - 1)
    iy, ix = divmod(idx, grid.nx)
    x = grid.window.x_min + (ix + rng.random()) * grid.cell_width
    y = grid.window.y_min + (iy + rng.random()) * grid.cell_height
    return float(x), float(y)


# Candidate landing points per lockstep block: a block of runs advances one
# fixation at a time, and its (runs x candidates) work set stays in cache.
_BLOCK_CANDIDATES = 12_000


def _block_runs(model: FixationModel) -> int:
    """Runs per lockstep block: ``max(1, _BLOCK_CANDIDATES // (n_angles + 1))``."""
    return max(1, _BLOCK_CANDIDATES // (model.n_angles + 1))


def _clamp(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``min(max(v, lo), hi)`` elementwise, with the builtins' tie rules."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _landings(
    model: FixationModel, xs, ys, dx, dy, lengths, u_pick
) -> tuple[np.ndarray, np.ndarray]:
    """Landing point of one jump per row, on the circle of its radius.

    The circle is discretized into equal arcs; candidates outside the
    window get weight zero, the rest are weighted by the interpolated
    intensity surface. The direction toward the furthest corner, at offsets
    ``(dx, dy)`` from :func:`corner_offsets`, is always added, so a feasible
    radius always has at least one candidate. The rows' candidates form one
    (rows, n_angles + 1) array; one ``interp`` call weighs the in-window
    candidates only. Row i takes the first candidate whose cumulative weight
    exceeds ``u_pick[i]`` times its total weight.
    """
    w = model.window
    n = model.n_angles
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    length = np.array(lengths, dtype=float)
    # the circle's n candidates per row, then the guaranteed one
    cand_x = np.empty((len(x), n + 1))
    cand_y = np.empty((len(x), n + 1))
    np.multiply(model._cos, length[:, None], out=cand_x[:, :n])
    np.add(cand_x[:, :n], x[:, None], out=cand_x[:, :n])
    np.multiply(model._sin, length[:, None], out=cand_y[:, :n])
    np.add(cand_y[:, :n], y[:, None], out=cand_y[:, :n])

    far = np.hypot(dx, dy)
    # clamp the guaranteed candidate: convexity puts it inside, floating
    # rounding may not
    cand_x[:, n] = _clamp(x + length * (dx / far), w.x_min, w.x_max)
    cand_y[:, n] = _clamp(y + length * (dy / far), w.y_min, w.y_max)

    inside = w.contains(cand_x, cand_y)
    weights = np.zeros(cand_x.shape)
    weights[inside] = model.intensity_all.interp(cand_x[inside], cand_y[inside])
    total = weights.sum(axis=1)
    failed = np.flatnonzero(~(total > 0))
    if failed.size:  # the lowest failing row's error, as a row-by-row loop would raise it
        i = int(failed[0])
        if not inside[i].any():
            raise DataError(
                f"jump of {float(length[i])} px from ({float(x[i])}, {float(y[i])})"
                " cannot stay in window"
            )
        raise DataError("all candidate landing points have zero weight")
    # weights are >= 0, so the cumulative sums are sorted and this count is
    # searchsorted(..., side="right") of each row's target
    below = np.cumsum(weights, axis=1) <= (np.array(u_pick) * total)[:, None]
    pick = np.minimum(np.count_nonzero(below, axis=1), n)
    rows = np.arange(len(x))
    return cand_x[rows, pick], cand_y[rows, pick]


def next_location(
    model: FixationModel, x: float, y: float, length: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Landing point of a jump from (x, y); one row of :func:`_landings`.

    It lies on the circle of radius ``length``, picked by the intensity
    surface's weights. A start outside the window raises ``DataError``.
    """
    dx, dy = corner_offsets(model.window, [x], [y])
    to_x, to_y = _landings(model, [x], [y], dx, dy, [length], [rng.random()])
    return float(to_x[0]), float(to_y[0])


# Uniforms of one fixation step, in the order a step uses them:
# u_dur, u_plong, u_len, u_pick, u_sac
_STEP_UNIFORMS = 5
# Steps whose uniforms a run takes from its stream at once. PCG64's
# random(k) equals k calls of random(), so this changes no output.
_CHUNK_STEPS = 32


def _simulate_block(model: FixationModel, rngs: list, subject_ids: list) -> list[SimRun]:
    """Runs of one block, advanced together one fixation at a time.

    Every run is alive from step 0 until it ends, so row s of the step
    tables holds fixation s of each run that reaches it (x, y, onset,
    duration), and the length and long-jump flag of its jump s for each run
    that goes on to fixation s + 1. There is one table per chunk of steps;
    after the block, each run's columns are sliced out of them.
    """
    n = len(rngs)
    horizon = model.trial_length
    tables = []
    counts = np.zeros(n, dtype=int)  # fixations per run

    if horizon > 0 and n:
        x, y = np.array([sample_initial(model, rng) for rng in rngs]).T
        clock = np.zeros(n)
        live = np.arange(n)
        uniforms = np.empty((n, _CHUNK_STEPS, _STEP_UNIFORMS))
        step = 0
        while live.size:
            row = step % _CHUNK_STEPS
            if row == 0:
                for r in live.tolist():
                    uniforms[r] = rngs[r].random((_CHUNK_STEPS, _STEP_UNIFORMS))
                # u_dur and u_sac become the chunk's durations, one elementwise
                # quantile call each, with the bits of one call per step
                uniforms[live, :, 0] = model.dur_fix.truncated_quantile(
                    uniforms[live, :, 0], model.min_fix_dur, np.inf
                )
                uniforms[live, :, 4] = model.dur_sac.quantile(uniforms[live, :, 4])
                tables.append(np.empty((6, _CHUNK_STEPS, n)))
            table = tables[-1]
            u = uniforms[live, row]
            dur = u[:, 0]
            counts[live] = step + 1
            table[:4, row, live] = x, y, clock, np.minimum(dur, horizon - clock)
            clock = clock + dur
            moving = ~(clock >= horizon)
            if not moving.any():
                break
            live, x, y, clock, u = live[moving], x[moving], y[moving], clock[moving], u[moving]
            _, u_plong, u_len, u_pick, gap = u.T
            dx, dy = corner_offsets(model.window, x, y)
            l_max = np.hypot(dx, dy)
            long = u_plong < model.p_long
            half = l_max / 2.0
            # rng.uniform(l_max / 2, l_max)'s arithmetic
            lengths = half + (l_max - half) * u_len
            # rows in run order: a top without mass names the lowest run's
            lengths[~long] = model.len_sac.truncated_quantile(u_len[~long], 0.0, l_max[~long])
            to_x, to_y = _landings(model, x, y, dx, dy, lengths, u_pick)
            table[4:, row, live] = lengths, long
            clock = clock + gap
            kept = ~(clock >= horizon)
            live, x, y, clock = live[kept], to_x[kept], to_y[kept], clock[kept]
            step += 1

    steps = np.concatenate(tables, axis=1) if tables else np.empty((6, 0, n))
    del tables
    runs = []
    for r, (subject_id, count) in enumerate(zip(subject_ids, counts.tolist())):
        column = steps[:, :count, r]
        sequence = FixationSequence(
            subject_id, model.group, model.painting_id, column[:2].T, *column[2:4])
        # a run's last fixation has no kept jump; SimRun copies the columns
        runs.append(SimRun(sequence, *column[4:, : max(count - 1, 0)]))
    return runs


def simulate_runs(model: FixationModel, rngs, subject_ids) -> list[SimRun]:
    """Trials of the fixation process, run i drawing only from ``rngs[i]``.

    Each run draws uniforms from its own generator in a fixed order: three
    for the start (cell, x and y jitter), then five per fixation step,
    ``u_dur, u_plong, u_len, u_pick, u_sac``. The fixation duration is the
    quantile of ``u_dur`` of the duration law truncated below; a long jump
    (``u_plong < p_long``) has length ``l_max/2 + (l_max - l_max/2) * u_len``,
    otherwise ``u_len`` is the quantile level of the length law truncated at
    ``l_max``, the distance to the farthest window corner; ``u_pick`` picks
    the landing point and the saccade duration is the quantile of ``u_sac``.
    Every draw is an inverse CDF, so outputs do not depend on numpy's gamma
    sampler, and a run takes its uniforms in chunks of ``_CHUNK_STEPS``
    steps, which changes no output. A run's output does not depend on which
    or how many runs are simulated with it. The runs advance in lockstep
    blocks of :func:`_block_runs` runs, one fixation step at a time, each
    step a few array operations over the block's live runs.

    Fixation durations are gamma draws truncated below at the short-fixation
    threshold (the fit excluded shorter ones, and emitting them would only
    get them filtered back out). A fixation that starts before the horizon
    is kept with its duration clipped there; a non-positive horizon yields
    empty runs. Failures of one step raise the lowest failing run's error,
    by kind: start outside the window, no jump length mass, no landing.
    """
    rngs = list(rngs)
    subject_ids = list(subject_ids)
    if len(rngs) != len(subject_ids):
        raise ValueError(f"{len(rngs)} generators for {len(subject_ids)} subject ids")
    if len({id(rng) for rng in rngs}) != len(rngs):
        raise ValueError("each run needs its own generator")
    block = _block_runs(model)
    runs: list[SimRun] = []
    for start in range(0, len(rngs), block):
        stop = start + block
        runs += _simulate_block(model, rngs[start:stop], subject_ids[start:stop])
    return runs


def simulate_many(model: FixationModel, n_runs: int, seed: int, first: int = 0) -> list[SimRun]:
    """Runs ``sim{i:04d}`` on sub-streams ``substream(seed, "run", i)``, i from ``first``.

    :func:`simulate_runs` keeps each run on its own stream in the stated
    draw order, so run i equals the same run simulated on its own, or in
    any other call that covers it.
    """
    ids = range(first, first + n_runs)
    return simulate_runs(
        model, [substream(seed, "run", i) for i in ids], [f"sim{i:04d}" for i in ids]
    )


def simulate_curves(
    model: FixationModel,
    n_runs: int,
    seed: int,
    grid,
    stats=STATS,
    radius: float = 35.0,
    raster: float = 1.0,
) -> RunCurves:
    """Summary curves of the runs of :func:`simulate_many`, without the runs.

    ``curves[j]`` of the result is the ``(n_runs, len(grid))`` array of row
    j of :func:`~fixproc.summaries.curve_rows` of every run (``curves.stats``,
    then the 16 transitions), and ``curves.counts[i]`` is run i's fixation
    count. :meth:`~fixproc.summaries.RunCurves.from_sequences` stores the
    runs' sequences as a generator yields them: the runs are simulated one
    lockstep block at a time, each block through :func:`simulate_many`,
    and a block's runs are dropped before the next block is simulated.
    What grows with ``n_runs`` is the store: float rows of the stats, and
    for the transitions one byte per fixation plus one index per grid time.
    """

    def sequences():
        block = _block_runs(model)
        for first in range(0, n_runs, block):
            runs = simulate_many(model, min(block, n_runs - first), seed, first)
            for run in runs:
                yield run.sequence
            del runs, run  # before the next block is simulated, not after

    return RunCurves.from_sequences(sequences(), n_runs, model.window, grid, stats, radius, raster)


def runs_to_dataset(runs: list[SimRun], window: Window, trial_length: float) -> Dataset:
    """Simulated runs as an ingest-compatible dataset (round-trips the CSV schema)."""
    return Dataset(window=window, sequences=[r.sequence for r in runs], trial_length=trial_length)


def provenance_to_json(runs: list[SimRun], path, meta: dict | None = None) -> None:
    """Each run's jump lengths, and its branches as ``"uniform_long"`` or ``"gamma"``."""
    write_json(path, {"meta": meta or {}, "runs": [
        {"subject_id": r.sequence.subject_id,
         "jump_provenance": np.where(r.long_jump, "uniform_long", "gamma").tolist(),
         "jump_lengths": r.jump_lengths}
        for r in runs
    ]})
