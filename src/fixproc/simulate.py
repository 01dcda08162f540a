"""Generative reference model for the fixation process.

A run starts from a draw off the first-fixation intensity surface, then
alternates gamma fixation durations with jumps: the jump length comes from
a truncated gamma (or, with small probability, a uniform long jump into the
upper half of the feasible range) and the landing point is picked on the
circle of that radius around the current fixation, weighted by the group's
intensity surface. All model components are stationary over the trial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DataError,
    Dataset,
    Fixation,
    FixationSequence,
    MIN_FIXATION_MS,
    Window,
    farthest_corner,
    max_corner_distance,
)
from .density import IntensityGrid, estimate_intensity
from .fitdist import GammaFit, fit_gamma_mle, sample_gamma, sample_truncated_gamma
from .ingest import derive_saccades, valid_saccade_values
from .rng import substream


@dataclass
class FixationModel:
    """Everything needed to simulate one group's fixation process."""

    intensity_all: IntensityGrid
    intensity_first: IntensityGrid
    dur_fix: GammaFit
    dur_sac: GammaFit
    len_sac: GammaFit
    window: Window
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
        theta = 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles
        self._cos = np.cos(theta)
        self._sin = np.sin(theta)
        surface = self.intensity_first if self.use_first_surface else self.intensity_all
        masses = np.cumsum(surface.values.ravel())
        self._initial_cdf = masses / masses[-1]

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
            "dur_fix": self.dur_fix.to_dict(),
            "dur_sac": self.dur_sac.to_dict(),
            "len_sac": self.len_sac.to_dict(),
        }


@dataclass
class SimRun:
    """One simulated trial plus per-saccade sampling provenance."""

    sequence: FixationSequence
    jump_provenance: list[str]
    jump_lengths: list[float]


def build_model(
    dataset: Dataset,
    group: str,
    h: float,
    nx: int = 128,
    ny: int = 128,
    p_long: float = 0.2,
    n_angles: int = 720,
    use_first_surface: bool = True,
    saccades=None,
) -> FixationModel:
    """Fit the reference model to one group of a (filtered) dataset.

    Both intensity surfaces (all fixations, first fixations) use the one
    bandwidth ``h``. To cross-validate it, pass ``select_bandwidth_cv`` of
    ``dataset.pooled_locations(group)``. Fixation durations and saccade
    lengths are fitted per group; saccade durations pool every subject of
    both groups, since saccades are involuntary. Pass the ``saccades``
    mapping from ingest to exclude jumps that span removed fixations;
    otherwise saccades are re-derived assuming no exclusions.
    """
    seqs = dataset.by_group(group)
    if not seqs:
        raise DataError(f"no sequences for group {group!r}")
    all_pts = dataset.pooled_locations(group)
    first_pts = np.array([s.locations()[0] for s in seqs if len(s)])
    if len(first_pts) < 1:
        raise DataError("no first fixations to build the initial surface from")

    if saccades is None:
        saccades = {
            (s.subject_id, s.painting_id): derive_saccades(s) for s in dataset.sequences
        }
    dur_fix = fit_gamma_mle(dataset.pooled_durations(group), "fixation_duration")
    dur_sac = fit_gamma_mle(
        valid_saccade_values(dataset.sequences, saccades, "duration"), "saccade_duration"
    )
    len_sac = fit_gamma_mle(valid_saccade_values(seqs, saccades, "length"), "saccade_length")

    paintings = dataset.painting_ids()
    return FixationModel(
        intensity_all=estimate_intensity(all_pts, dataset.window, h, nx, ny),
        intensity_first=estimate_intensity(first_pts, dataset.window, h, nx, ny),
        dur_fix=dur_fix,
        dur_sac=dur_sac,
        len_sac=len_sac,
        window=dataset.window,
        trial_length=dataset.trial_length,
        p_long=p_long,
        n_angles=n_angles,
        group=group,
        painting_id=paintings[0] if len(paintings) == 1 else "pooled",
        use_first_surface=use_first_surface,
    )


def sample_initial(model: FixationModel, rng: np.random.Generator) -> tuple[float, float]:
    """First fixation location: a cell drawn by intensity mass, jittered uniformly."""
    grid = model.intensity_first if model.use_first_surface else model.intensity_all
    idx = int(np.searchsorted(model._initial_cdf, rng.random(), side="right"))
    idx = min(idx, grid.nx * grid.ny - 1)
    iy, ix = divmod(idx, grid.nx)
    x = grid.window.x_min + (ix + rng.random()) * grid.cell_width
    y = grid.window.y_min + (iy + rng.random()) * grid.cell_height
    return float(x), float(y)


def sample_saccade_length(
    model: FixationModel, x: float, y: float, rng: np.random.Generator
) -> tuple[float, str]:
    """Next jump length from the truncated-gamma / uniform-long-jump mixture.

    The truncation point is the distance to the furthest window corner, so
    a jump can always land inside the window.
    """
    l_max = max_corner_distance(x, y, model.window)
    if rng.random() < model.p_long:
        return float(rng.uniform(l_max / 2.0, l_max)), "uniform_long"
    return (
        float(sample_truncated_gamma(model.len_sac, upper=l_max, rng=rng)),
        "gamma",
    )


def next_location(
    model: FixationModel, x: float, y: float, length: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Landing point on the circle of the sampled radius around (x, y).

    The circle is discretized into equal arcs; candidates outside the
    window get weight zero, the rest are weighted by the interpolated
    intensity surface. The direction toward the furthest corner is always
    added, so a feasible radius always has at least one candidate.
    """
    w = model.window
    n = model.n_angles
    # the circle's n candidates, then the guaranteed one, filled in place
    cand_x = np.empty(n + 1)
    cand_y = np.empty(n + 1)
    np.multiply(model._cos, length, out=cand_x[:n])
    np.add(cand_x[:n], x, out=cand_x[:n])
    np.multiply(model._sin, length, out=cand_y[:n])
    np.add(cand_y[:n], y, out=cand_y[:n])

    fx, fy = farthest_corner(x, y, w)
    far_dist = np.hypot(fx - x, fy - y)
    ux, uy = (fx - x) / far_dist, (fy - y) / far_dist
    # clamp the guaranteed candidate: convexity puts it inside, floating
    # rounding may not
    cand_x[n] = min(max(x + length * ux, w.x_min), w.x_max)
    cand_y[n] = min(max(y + length * uy, w.y_min), w.y_max)

    inside = (cand_x >= w.x_min) & (cand_x <= w.x_max) & (cand_y >= w.y_min) & (cand_y <= w.y_max)
    if not inside.any():
        raise DataError(f"jump of {length} px from ({x}, {y}) cannot stay in window")
    weights = np.where(inside, model.intensity_all.interp(cand_x, cand_y), 0.0)
    total = weights.sum()
    if not total > 0:
        raise DataError("all candidate landing points have zero weight")
    pick = int(np.searchsorted(np.cumsum(weights), rng.random() * total, side="right"))
    pick = min(pick, len(weights) - 1)
    return float(cand_x[pick]), float(cand_y[pick])


def simulate_run(
    model: FixationModel,
    seed: int | np.random.Generator,
    subject_id: str = "sim",
    painting_id: str | None = None,
) -> SimRun:
    """One trial of the fixation process; deterministic given the seed.

    Fixation durations are gamma draws truncated below at the short-fixation
    threshold (the fit excluded shorter ones, and emitting them would only
    get them filtered back out). A fixation that starts before the horizon
    is kept with its duration clipped there; a non-positive horizon yields
    an empty run.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    horizon = model.trial_length
    fixations: list[Fixation] = []
    provenance: list[str] = []
    lengths: list[float] = []

    if horizon > 0:
        x, y = sample_initial(model, rng)
        clock = 0.0
        while True:
            dur = sample_truncated_gamma(
                model.dur_fix, upper=np.inf, rng=rng, lower=model.min_fix_dur
            )
            fixations.append(Fixation(x, y, onset=clock, duration=min(dur, horizon - clock)))
            clock += dur
            if clock >= horizon:
                break
            jump, branch = sample_saccade_length(model, x, y, rng)
            to_x, to_y = next_location(model, x, y, jump, rng)
            clock += float(sample_gamma(model.dur_sac, rng))
            if clock >= horizon:
                break
            provenance.append(branch)
            lengths.append(jump)
            x, y = to_x, to_y

    seq = FixationSequence(
        subject_id, model.group, painting_id or model.painting_id, fixations
    )
    return SimRun(sequence=seq, jump_provenance=provenance, jump_lengths=lengths)


def simulate_many(model: FixationModel, n_runs: int, seed: int) -> list[SimRun]:
    """Independent runs on sub-streams derived from (seed, run index)."""
    return [
        simulate_run(model, substream(seed, "run", i), subject_id=f"sim{i:04d}")
        for i in range(n_runs)
    ]


def runs_to_dataset(runs: list[SimRun], window: Window, trial_length: float) -> Dataset:
    """Simulated runs as an ingest-compatible dataset (round-trips the CSV schema)."""
    return Dataset(window=window, sequences=[r.sequence for r in runs], trial_length=trial_length)


def provenance_to_json(runs: list[SimRun], path, meta: dict | None = None) -> None:
    payload = {
        "meta": meta or {},
        "runs": [
            {
                "subject_id": r.sequence.subject_id,
                "jump_provenance": r.jump_provenance,
                "jump_lengths": [float(v) for v in r.jump_lengths],
            }
            for r in runs
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
