"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from scipy.special import gammainc, gammaincinv

from fixproc import (
    Dataset,
    FixationModel,
    FixationSequence,
    GammaFit,
    Window,
    simulate_runs,
)
from fixproc.compare import _subject_surfaces, log_density_ratio, ratio_statistic
from fixproc.core import (
    DataError,
    NumericError,
    StepCurve,
)
from fixproc.density import IntensityGrid, _grid_factors, edge_correction
from fixproc.envelopes import CurveMatrix, envelope_report, rank_envelope
from fixproc.ingest import write_fixations
from fixproc.rng import substream
from fixproc.simulate import SimRun, sample_initial
from fixproc.svgplot import _fmt
from fixproc.summaries import (
    TRANSITIONS,
    _cross,
    _domain_end,
    _step,
    ball_union_coverage,
    convex_hull_coverage,
    polygon_area,
    resample_curve,
    scanpath_length,
    transition_curves,
)

WINDOW = Window(0.0, 0.0, 770.0, 768.0)


def sequence(subject_id: str, group: str, painting_id: str, rows) -> FixationSequence:
    """A sequence from ``(x, y, onset, duration)`` rows, in the given order."""
    columns = np.array(rows, dtype=float).reshape(-1, 4)
    return FixationSequence(
        subject_id, group, painting_id, columns[:, :2], columns[:, 2], columns[:, 3]
    )


def hotspot_grid(
    w: Window = WINDOW,
    nx: int = 64,
    ny: int = 64,
    center=(400.0, 350.0),
    sd: float = 120.0,
    background: float = 0.05,
    bandwidth: float = 17.0,
) -> IntensityGrid:
    xs = w.x_min + (np.arange(nx) + 0.5) * (w.width / nx)
    ys = w.y_min + (np.arange(ny) + 0.5) * (w.height / ny)
    ex, ey = np.meshgrid(xs, ys)
    vals = np.exp(-((ex - center[0]) ** 2 + (ey - center[1]) ** 2) / (2 * sd**2)) + background
    return IntensityGrid(w, nx, ny, vals, bandwidth)


def toy_model(
    trial_length: float = 180_000.0,
    n_angles: int = 360,
    p_long: float = 0.2,
    center=(400.0, 350.0),
    dur_fix: GammaFit | None = None,
    len_sac: GammaFit | None = None,
    nx: int = 64,
    ny: int = 64,
) -> FixationModel:
    grid = hotspot_grid(center=center, nx=nx, ny=ny)
    return FixationModel(
        intensity_all=grid,
        intensity_first=grid,
        dur_fix=dur_fix or GammaFit(2.0, 1.0 / 150.0, 1000, "fixation_duration"),
        dur_sac=GammaFit(2.5, 1.0 / 20.0, 1000, "saccade_duration"),
        len_sac=len_sac or GammaFit(1.8, 1.0 / 80.0, 1000, "saccade_length"),
        trial_length=trial_length,
        p_long=p_long,
        n_angles=n_angles,
    )


def simulated_dataset(
    model: FixationModel,
    n_subjects: int = 20,
    seed: int = 0,
    painting_id: str = "koli",
) -> Dataset:
    """Subjects simulated from one model, first half novice, second half not."""
    runs = simulate_runs(
        model,
        [substream(seed, "subject", i) for i in range(n_subjects)],
        [f"s{i:02d}" for i in range(n_subjects)],
    )
    seqs = []
    for i, run in enumerate(runs):
        group = "novice" if i < n_subjects // 2 else "non_novice"
        seqs.append(replace(run.sequence, group=group, painting_id=painting_id))
    return Dataset(window=model.window, sequences=seqs, trial_length=model.trial_length)


def write_csv(dataset: Dataset, path) -> str:
    write_fixations(dataset, path)
    return str(path)


def mixture_points(rng: np.random.Generator, n: int, cx: float, cy: float,
                   sd: float = 90.0, w: Window = WINDOW) -> np.ndarray:
    """n points from 60% Gaussian hotspot + 40% uniform, truncated to the window."""
    pts = np.empty((n, 2))
    filled = 0
    while filled < n:
        m = n - filled
        hot = rng.random(m) < 0.6
        x = np.where(hot, rng.normal(cx, sd, m), rng.uniform(w.x_min, w.x_max, m))
        y = np.where(hot, rng.normal(cy, sd, m), rng.uniform(w.y_min, w.y_max, m))
        ok = w.contains(x, y)
        take = int(ok.sum())
        pts[filled : filled + take] = np.column_stack([x[ok], y[ok]])
        filled += take
    return pts


def derive_saccades_reference(seq: FixationSequence, exclusions=()) -> list[tuple]:
    """``(length, gap, valid)`` of each jump, one jump at a time: jump k joins
    retained fixations k and k + 1, and is valid when no original fixation
    (retained or in ``exclusions``) lies between them."""
    kept = [i for i in range(len(seq) + len(exclusions)) if i not in exclusions]
    xy, onsets, durations = seq.locations.tolist(), seq.onsets.tolist(), seq.durations.tolist()
    jumps = []
    for k in range(len(seq) - 1):
        (x0, y0), (x1, y1) = xy[k], xy[k + 1]
        length = float(np.hypot(x1 - x0, y1 - y0))
        gap = onsets[k + 1] - (onsets[k] + durations[k])
        jumps.append((length, gap, kept[k + 1] == kept[k] + 1))
    return jumps


def valid_saccade_values_reference(sequences, jumps: dict, attr: str) -> list[float]:
    """The positive lengths (``attr`` "length") or gaps ("duration") of the
    valid jumps of :func:`derive_saccades_reference`, sequence by sequence;
    ``jumps`` is keyed by (subject, painting)."""
    column = {"length": 0, "duration": 1}[attr]
    values = []
    for s in sequences:
        for jump in jumps.get((s.subject_id, s.painting_id), []):
            if jump[2] and jump[column] > 0:
                values.append(jump[column])
    return values


def jump_sample_reference(sequences, jumps: dict, w: Window) -> tuple[list, list]:
    """The lengths of :func:`valid_saccade_values_reference` and, for each, the
    :func:`far_corner_distance` of the fixation the jump starts from."""
    lengths, l_max = [], []
    for s in sequences:
        for k, (length, _, valid) in enumerate(jumps.get((s.subject_id, s.painting_id), [])):
            if valid and length > 0:
                lengths.append(length)
                l_max.append(far_corner_distance(*s.locations[k].tolist(), w))
    return lengths, l_max


def sequence_from_points(pts: np.ndarray, subject_id: str, group: str,
                         painting_id: str = "koli") -> FixationSequence:
    n = len(pts)
    return FixationSequence(
        subject_id, group, painting_id, pts, 1000.0 * np.arange(n), np.full(n, 200.0)
    )


# Reference summaries. The whole-recount ones recompute each value in full
# at every fixation; the per-point ones are the loops that the skip-ahead
# hull and the batched disc masks in fixproc.summaries replaced. The code
# must reproduce all of them bit for bit.


def disc_raster(w, raster) -> tuple[int, int, float, float]:
    """Cells per axis and cell sizes of the disc-coverage raster."""
    nx = max(1, int(np.ceil(w.width / raster)))
    ny = max(1, int(np.ceil(w.height / raster)))
    return nx, ny, w.width / nx, w.height / ny


def disc_box_reference(x, y, w, radius, raster) -> tuple[int, int, int, int]:
    """Cell bounds (x_lo, x_hi, y_lo, y_hi) of one disc's bounding box, by int()."""
    nx, ny, cw, ch = disc_raster(w, raster)
    ix_lo = max(0, int((x - radius - w.x_min) / cw) - 1)
    ix_hi = min(nx, int((x + radius - w.x_min) / cw) + 2)
    iy_lo = max(0, int((y - radius - w.y_min) / ch) - 1)
    iy_hi = min(ny, int((y + radius - w.y_min) / ch) + 2)
    return ix_lo, ix_hi, iy_lo, iy_hi


def _disc_mask(x, y, w, radius, raster):
    """Box bounds of the disc around (x, y) and the disc's mask over that box."""
    _, _, cw, ch = disc_raster(w, raster)
    ix_lo, ix_hi, iy_lo, iy_hi = disc_box_reference(x, y, w, radius, raster)
    cxs = w.x_min + (np.arange(ix_lo, ix_hi) + 0.5) * cw
    cys = w.y_min + (np.arange(iy_lo, iy_hi) + 0.5) * ch
    within = (cxs[None, :] - x) ** 2 + (cys[:, None] - y) ** 2 <= radius**2
    return (slice(iy_lo, iy_hi), slice(ix_lo, ix_hi)), within


def ball_union_coverage_recount(seq, w, radius=35.0, raster=1.0, domain_end=None) -> StepCurve:
    """Disc-union coverage, counting the whole raster after every fixation."""
    nx, ny, _, _ = disc_raster(w, raster)
    covered = np.zeros((ny, nx), dtype=bool)
    total = nx * ny
    values = []
    for x, y in seq.locations.tolist():
        box, within = _disc_mask(x, y, w, radius, raster)
        covered[box] |= within
        values.append(covered.sum() / total)
    return _step(seq.onsets, values, _domain_end(seq, domain_end), 0.0)


def ball_values_reference(seq, w, radius, raster) -> list[float]:
    """Disc-union coverage, one fixation at a time with a running count."""
    nx, ny, _, _ = disc_raster(w, raster)
    covered = np.zeros((ny, nx), dtype=bool)
    total = nx * ny
    count = 0
    values = []
    for x, y in seq.locations.tolist():
        box, within = _disc_mask(x, y, w, radius, raster)
        count += int(np.count_nonzero(within & ~covered[box]))
        covered[box] |= within
        values.append(count / total)
    return values


def convex_hull_unique(points) -> np.ndarray:
    """Monotone chain over np.unique's sorted rows, on numpy rows throughout."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def convex_hull_exact(points) -> np.ndarray:
    """Monotone chain with every orientation test in exact rationals."""
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = (map(Fraction, p) for p in (o, a, b))
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    rows = pts.tolist()
    lower: list = []
    for p in rows:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(rows):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def _inside_convex_rolled(hull, p) -> bool:
    """Closed point-in-hull test with exact orientation signs."""
    if len(hull) < 3:
        return False
    cross = [_cross(a, b, p) for a, b in zip(hull, np.roll(hull, -1, axis=0))]
    return all(c >= 0 for c in cross) or all(c <= 0 for c in cross)


def convex_hull_coverage_prefix(seq, w, domain_end=None) -> StepCurve:
    """Hull coverage, re-hulling the whole prefix whenever a point falls outside."""
    locs = seq.locations
    values = []
    hull = np.empty((0, 2))
    area = 0.0
    for i in range(1, len(locs) + 1):
        if i < 3:
            values.append(0.0)
            continue
        if not _inside_convex_rolled(hull, locs[i - 1]):
            hull = convex_hull_unique(locs[:i])
            area = polygon_area(hull)
        values.append(area / w.area)
    return _step(seq.onsets, values, _domain_end(seq, domain_end), 0.0)


def hull_values_reference(seq, w) -> list[float]:
    """Hull coverage, testing each fixation against the current hull on its
    own and rebuilding from the hull's vertices plus an outside fixation."""
    locs = seq.locations
    hull = locs[:2]
    area = 0.0
    values = []
    for i, p in enumerate(locs):
        if i >= 2 and not _inside_convex_rolled(hull, p):
            hull = convex_hull_unique(np.vstack([hull, p]))
            x, y = hull[:, 0], hull[:, 1]
            area = 0.0
            if len(hull) >= 3:
                area = 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))
        values.append(area / w.area)
    return values


def transition_table_per_step(seq, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running N_ab/N_a after each transition, updated one step at a time.

    Returns the (steps, 4, 4) table (NaN rows not yet visited) and the final
    N_ab and N_a counts.
    """
    if len(seq) < 2:
        raise DataError("need at least 2 fixations for transitions")
    states = [quadrant_reference(x, y, w) for x, y in seq.locations.tolist()]
    n_ab = np.zeros((4, 4), dtype=int)
    n_a = np.zeros(4, dtype=int)
    table = np.full((len(states) - 1, 4, 4), np.nan)
    for i, (a, b) in enumerate(zip(states[:-1], states[1:])):
        n_ab[a, b] += 1
        n_a[a] += 1
        with np.errstate(invalid="ignore"):
            table[i] = n_ab / np.where(n_a[:, None] == 0, np.nan, n_a[:, None])
    return table, n_ab, n_a


def curve_rows_reference(seq, w, grid, stats, radius=35.0, raster=1.0) -> np.ndarray:
    """Summary rows by the step-curve route that ``curve_rows`` replaced:
    each summary's StepCurve, then ``resample_curve`` on the grid. Transition
    rows are NaN for a sequence of fewer than 2 fixations."""
    grid = np.asarray(grid, dtype=float)
    end = float(grid.max())
    curves = {
        "hull": lambda: convex_hull_coverage(seq, w, domain_end=end),
        "ball": lambda: ball_union_coverage(seq, w, radius, raster, domain_end=end),
        "scanpath": lambda: scanpath_length(seq, domain_end=end),
    }
    rows = [resample_curve(curves[stat](), grid) for stat in stats]
    if len(seq) >= 2:
        table = transition_curves(seq, w, domain_end=end).curves
        rows += [resample_curve(c, grid) for row in table for c in row]
    else:
        rows += [np.full(grid.size, np.nan)] * 16
    return np.array(rows)


def interp_reference(grid: IntensityGrid, x, y):
    """Bilinear lookup written with np.clip/np.floor, as a bit-level oracle."""
    fx = (np.asarray(x, dtype=float) - grid.window.x_min) / grid.cell_width - 0.5
    fy = (np.asarray(y, dtype=float) - grid.window.y_min) / grid.cell_height - 0.5
    fx = np.clip(fx, 0.0, grid.nx - 1.0)
    fy = np.clip(fy, 0.0, grid.ny - 1.0)
    if grid.nx > 1:
        ix = np.clip(np.floor(fx).astype(int), 0, grid.nx - 2)
        tx = fx - ix
    else:
        ix = np.zeros_like(fx, dtype=int)
        tx = np.zeros_like(fx)
    if grid.ny > 1:
        iy = np.clip(np.floor(fy).astype(int), 0, grid.ny - 2)
        ty = fy - iy
    else:
        iy = np.zeros_like(fy, dtype=int)
        ty = np.zeros_like(fy)
    v = grid.values
    ix1 = np.minimum(ix + 1, grid.nx - 1)
    iy1 = np.minimum(iy + 1, grid.ny - 1)
    return (
        v[iy, ix] * (1 - tx) * (1 - ty)
        + v[iy, ix1] * tx * (1 - ty)
        + v[iy1, ix] * (1 - tx) * ty
        + v[iy1, ix1] * tx * ty
    )


def _kernel_sum(points: np.ndarray, ex: np.ndarray, ey: np.ndarray, h: float) -> np.ndarray:
    """Sum over data points of h^-2 K((e - x_i)/h) at evaluation points."""
    inv2h2 = 1.0 / (2.0 * h * h)
    norm = 1.0 / (2.0 * np.pi * h * h)
    flat_x = ex.ravel()
    flat_y = ey.ravel()
    acc = np.zeros(flat_x.size, dtype=float)
    for start in range(0, len(points), 512):
        chunk = points[start : start + 512]
        d2 = (flat_x[:, None] - chunk[None, :, 0]) ** 2 + (
            flat_y[:, None] - chunk[None, :, 1]
        ) ** 2
        acc += np.exp(-d2 * inv2h2).sum(axis=1)
    return (norm * acc).reshape(ex.shape)


def intensity_at(points, xs, ys, w: Window, h: float) -> np.ndarray:
    """Pointwise edge-corrected estimate at arbitrary locations, as an oracle
    for the separable grid route."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    num = _kernel_sum(points, xs, ys, h)
    return np.maximum(num / edge_correction(xs, ys, w, h), np.finfo(float).tiny)


def lscv_score_reference(points: np.ndarray, w: Window, h: float, nx: int, ny: int) -> float:
    """LSCV score of one bandwidth, all n^2 pairs recomputed for each h: the
    per-bandwidth route that the one-pass engine replaced."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    cell = (w.width / nx) * (w.height / ny)
    ax, ay = _grid_factors(points, w, h, nx, ny)
    lam_grid = ay @ ax.T
    point_mass = ax.sum(axis=0) * ay.sum(axis=0) * cell
    total_mass = point_mass.sum()

    corr_pts = edge_correction(points[:, 0], points[:, 1], w, h)
    lam_at_pts = _kernel_sum(points, points[:, 0], points[:, 1], h) / corr_pts
    self_term = 1.0 / (2.0 * np.pi * h * h) / corr_pts
    loo_lam = lam_at_pts - self_term
    loo_mass = total_mass - point_mass
    with np.errstate(divide="ignore", invalid="ignore"):
        loo_density = loo_lam / loo_mass
    int_f2 = float(((lam_grid / total_mass) ** 2).sum() * cell)
    return int_f2 - 2.0 / n * float(loo_density.sum())


def _require_inside_reference(x: float, y: float, w: Window) -> None:
    """Raise ``DataError`` unless (x, y) is in the closed window ``w``; NaN is outside."""
    if not (w.x_min <= x <= w.x_max and w.y_min <= y <= w.y_max):
        raise DataError(f"point ({float(x)}, {float(y)}) outside window")


def quadrant_reference(x: float, y: float, w: Window) -> int:
    """Quadrant index minus 1 of one point, by scalar midline comparisons: 0
    upper-left, 1 upper-right, 2 lower-left, 3 lower-right (upper is smaller
    y); a point on a midline goes to the larger index."""
    _require_inside_reference(x, y, w)
    return int(x >= (w.x_min + w.x_max) / 2.0) + 2 * int(y >= (w.y_min + w.y_max) / 2.0)


def farthest_corner(x: float, y: float, w: Window) -> tuple[float, float]:
    """The window corner farthest from (x, y), by scalar comparisons; a point
    outside the window raises."""
    _require_inside_reference(x, y, w)
    cx = w.x_min if (x - w.x_min) > (w.x_max - x) else w.x_max
    cy = w.y_min if (y - w.y_min) > (w.y_max - y) else w.y_max
    return cx, cy


def far_corner_distance(x: float, y: float, w: Window) -> float:
    """Distance from (x, y) to its :func:`farthest_corner`: the longest jump
    that stays in the window."""
    cx, cy = farthest_corner(x, y, w)
    return math.hypot(cx - x, cy - y)


def next_location_reference(model, x, y, length, rng) -> tuple[float, float]:
    """Landing point with np.append, Window.contains and interp_reference."""
    w = model.window
    cand_x = x + length * model._cos
    cand_y = y + length * model._sin
    fx, fy = farthest_corner(x, y, w)
    far_dist = np.hypot(fx - x, fy - y)
    ux, uy = (fx - x) / far_dist, (fy - y) / far_dist
    cand_x = np.append(cand_x, min(max(x + length * ux, w.x_min), w.x_max))
    cand_y = np.append(cand_y, min(max(y + length * uy, w.y_min), w.y_max))
    inside = w.contains(cand_x, cand_y)
    if not inside.any():
        raise DataError(f"jump of {length} px from ({x}, {y}) cannot stay in window")
    weights = np.where(inside, interp_reference(model.intensity_all, cand_x, cand_y), 0.0)
    total = weights.sum()
    if not total > 0:
        raise DataError("all candidate landing points have zero weight")
    pick = int(np.searchsorted(np.cumsum(weights), rng.random() * total, side="right"))
    pick = min(pick, len(weights) - 1)
    return float(cand_x[pick]), float(cand_y[pick])


# Reference (one run at a time) simulator: the per-run loop the lockstep
# engine in fixproc.simulate replaced. Its runs must equal the engine's bit
# for bit, run by run.


def sample_truncated_gamma_reference(fit, upper, rng, lower=0.0) -> float:
    """One inverse-CDF draw of the gamma law conditioned on (lower, upper]."""
    if not upper > lower:
        raise DataError(f"need upper > lower, got ({lower}, {upper}]")
    c_lo = float(gammainc(fit.shape, fit.rate * lower)) if lower > 0 else 0.0
    c_hi = float(gammainc(fit.shape, fit.rate * upper)) if np.isfinite(upper) else 1.0
    mass = c_hi - c_lo
    if mass <= 0.0:
        raise NumericError(f"truncation region ({lower}, {upper}] has no representable mass")
    draw = gammaincinv(fit.shape, c_lo + rng.random() * mass) / fit.rate
    if np.isfinite(upper):
        draw = np.minimum(draw, upper)
    if lower > 0.0:
        draw = np.maximum(draw, np.nextafter(lower, np.inf))
    return float(draw)


def sample_saccade_length_reference(model, x, y, rng) -> tuple[float, str]:
    """Jump length from the truncated-gamma / uniform-long-jump mixture.

    Two draws: ``u_plong``, then the uniform long length or the gamma level.
    """
    fx, fy = farthest_corner(x, y, model.window)  # a start outside the window raises
    l_max = float(np.hypot(fx - x, fy - y))
    if rng.random() < model.p_long:
        return float(rng.uniform(l_max / 2.0, l_max)), "uniform_long"
    return sample_truncated_gamma_reference(model.len_sac, upper=l_max, rng=rng), "gamma"


def simulate_run_reference(model, rng, subject_id="sim") -> SimRun:
    """One trial, one fixation and one scalar draw at a time.

    Per fixation: ``u_dur``; then, while the trial goes on, ``u_plong``,
    ``u_len``, ``u_pick`` and the saccade duration's level ``u_sac``.
    """
    horizon = model.trial_length
    fixations, branches, lengths = [], [], []  # fixations: (x, y, onset, duration) rows
    if horizon > 0:
        x, y = sample_initial(model, rng)
        clock = 0.0
        while True:
            dur = sample_truncated_gamma_reference(
                model.dur_fix, upper=np.inf, rng=rng, lower=model.min_fix_dur
            )
            fixations.append((x, y, clock, min(dur, horizon - clock)))
            clock += dur
            if clock >= horizon:
                break
            jump, branch = sample_saccade_length_reference(model, x, y, rng)
            to_x, to_y = next_location_reference(model, x, y, jump, rng)
            sac = model.dur_sac
            clock += float(gammaincinv(sac.shape, rng.random()) / sac.rate)
            if clock >= horizon:
                break
            branches.append(branch)
            lengths.append(jump)
            x, y = to_x, to_y
    seq = sequence(subject_id, model.group, model.painting_id, fixations)
    long_jump = [branch == "uniform_long" for branch in branches]
    return SimRun(sequence=seq, jump_lengths=lengths, long_jump=long_jump)


def labeled_statistic(rows1, rows2, idx1, idx2, w: Window, nx: int, ny: int):
    """``(T, r_grid)`` of the groups whose kernel rows ``idx1`` and ``idx2``
    pick, through the public ``log_density_ratio`` and ``ratio_statistic``."""
    r_grid = log_density_ratio(
        IntensityGrid(w, nx, ny, rows1[idx1].sum(axis=0).reshape(ny, nx), float("nan")),
        IntensityGrid(w, nx, ny, rows2[idx2].sum(axis=0).reshape(ny, nx), float("nan")),
    )
    return ratio_statistic(r_grid), r_grid


def permutation_test_reference(dataset: Dataset, *, h1, h2, m, seed, nx, ny) -> tuple[int, float]:
    """k and T0 from the one-draw-at-a-time loop that the block engine replaced.

    Each draw sums its subjects' rows in sorted index order, so a draw of the
    observed partition reproduces T0 bit for bit and ties count by float
    comparison.
    """
    seqs1, seqs2 = dataset.two_groups()
    n1, n2 = len(seqs1), len(seqs2)
    subject_pts = [s.locations for s in seqs1 + seqs2]
    w = dataset.window
    rows_h1 = _subject_surfaces(subject_pts, w, h1, nx, ny)
    rows_h2 = _subject_surfaces(subject_pts, w, h2, nx, ny)
    T0, _ = labeled_statistic(rows_h1, rows_h2, np.arange(n1), np.arange(n1, n1 + n2), w, nx, ny)
    k = 0
    for j in range(1, m + 1):
        perm = substream(seed, "perm", j).permutation(n1 + n2)
        T_j, _ = labeled_statistic(
            rows_h1, rows_h2, np.sort(perm[:n1]), np.sort(perm[n1:]), w, nx, ny
        )
        if T_j >= T0:
            k += 1
    return k, T0


def ramp_reference(value: float, stops) -> str:
    """One value's hex colour by the per-cell loop that ``svgplot._ramp_colors`` replaced."""
    value = min(max(value, 0.0), 1.0)
    for (p0, c0), (p1, c1) in zip(stops, stops[1:]):
        if value <= p1:
            t = 0.0 if p1 == p0 else (value - p0) / (p1 - p0)
            rgb = [round(a + t * (b - a)) for a, b in zip(c0, c1)]
            return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"
    r, g, b = stops[-1][1]
    return f"#{r:02x}{g:02x}{b:02x}"


def write_json_reference(path, payload) -> None:
    """The ``json.dump`` writer that the streaming ``ingest.write_json`` replaced."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv_reference(path, header, blocks) -> None:
    """The per-row f-string writer that ``ingest.write_csv`` replaced: text
    as it is, an integer by its ``int`` text, any other number as
    ``repr(float(v))``, fields joined by ``,`` and rows ended by LF."""

    def text(v) -> str:
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return f"{int(v)}"
        return f"{float(v)!r}"

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            for row in zip(*block):
                fh.write(",".join(text(v) for v in row) + "\n")


def points_reference(xs, ys) -> str:
    """SVG points text by the ``_fmt``-per-point loop that ``svgplot._points`` replaced."""
    px = np.asarray(xs, dtype=float).tolist()
    py = np.asarray(ys, dtype=float).tolist()
    return " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))


def mid_ranks_reference(rows: np.ndarray) -> np.ndarray:
    """Column mid-ranks of the finite entries, NaN elsewhere, by one flat
    pass over the runs of ties: the reference for ``envelopes._sorted_mid_ranks``
    on a column sort, and under ``extreme_ranks_reference``."""
    finite = np.isfinite(rows)
    columns = np.where(finite, rows, np.nan).T
    order = np.argsort(columns, axis=1)  # NaN sorts last
    ordered = np.take_along_axis(columns, order, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    lo = np.flatnonzero(starts)
    counts = np.diff(lo, append=starts.size)
    ranks = np.empty(columns.shape)
    mid = np.repeat(lo % len(rows) + (counts + 1) / 2, counts)
    np.put_along_axis(ranks, order, mid.reshape(columns.shape), axis=1)
    ranks = ranks.T
    ranks[~finite] = np.nan
    return ranks


def extreme_ranks_reference(rows: np.ndarray) -> np.ndarray:
    """``envelopes.extreme_ranks`` from :func:`mid_ranks_reference` of the
    whole matrix."""
    finite = np.isfinite(rows)
    low = mid_ranks_reference(rows)
    high = finite.sum(axis=0)[None, :] + 1 - low
    return np.where(finite, np.fmin(low, high), np.inf).min(axis=1)


def rank_envelope_reference(rows: np.ndarray, alpha: float) -> tuple[int, np.ndarray, np.ndarray]:
    """``(k, lower, upper)`` of ``rank_envelope`` as it was computed with
    :func:`extreme_ranks_reference` and a second sort of the columns."""
    rows = np.where(np.isfinite(rows), rows, np.nan)
    s = rows.shape[0]
    finite = np.isfinite(rows)
    ranks = extreme_ranks_reference(rows)
    need = int(np.ceil((1.0 - alpha) * s - 1e-9))
    k = max(int(np.floor(min(np.sort(ranks)[s - need], (s + 1) / 2) + 1e-9)), 1)
    ordered = np.sort(rows, axis=0)
    counts = finite.sum(axis=0)
    cols = np.arange(rows.shape[1])
    k_eff = np.minimum(k, (np.maximum(counts, 1) + 1) // 2)
    lower = np.where(counts > 0, ordered[k_eff - 1, cols], np.nan)
    upper = np.where(counts > 0, ordered[np.maximum(counts - k_eff, 0), cols], np.nan)
    return k, lower, upper


def judge_reference(observed, keys, simulated, grid, alpha: float, stats) -> dict:
    """``envelopes.judge`` by the row loop of the CLI's ``_group_envelopes``
    that it replaced, with ``grid`` and ``alpha`` placed once."""
    result: dict = {"grid": grid, "alpha": alpha, "stats": {}, "transitions": {}}
    families = ["stats"] * len(stats) + ["transitions"] * len(TRANSITIONS)
    for j, (family, name) in enumerate(zip(families, list(stats) + list(TRANSITIONS))):
        env = rank_envelope(CurveMatrix(grid, simulated.defined(j)), alpha)
        names = [keys[i] for i in observed.defined_runs(j)]
        curves = observed.defined(j)
        result[family][name] = {
            "envelope": env,
            "observed": dict(zip(names, curves)),
            "report": dict(zip(names, envelope_report(curves, env, grid))),
        }
    return result


def transition_estimates_reference(
    states: np.ndarray, starts: np.ndarray, at: np.ndarray, j: int
) -> np.ndarray:
    """``summaries._transition_estimates`` over every run, as it was computed
    with intp prefix counts and int64 (runs, grid) count arrays."""
    a, b = divmod(j, 4)
    first = starts[:-1][np.diff(starts) > 0]
    from_a = np.zeros(states.size + 1, dtype=np.intp)
    from_a[2:] = states[:-1] == a
    from_a[first + 1] = 0
    to_b = from_a.copy()
    to_b[1:] &= states == b
    n_a = np.cumsum(from_a)
    n_ab = np.cumsum(to_b)
    base = starts[:-1, None]
    pos = at + 1
    pos += base
    n_a, n_ab = n_a[pos] - n_a[base], n_ab[pos] - n_ab[base]
    with np.errstate(invalid="ignore"):
        estimates = np.where(n_a == 0, np.nan, n_a)
        return np.divide(n_ab, estimates, out=estimates)


def transition_estimates_whole(
    states: np.ndarray, starts: np.ndarray, at: np.ndarray, j: int, runs=slice(None)
) -> np.ndarray:
    """``summaries._transition_estimates`` as it was before its result was
    filled in tiles of runs: int32 positions and counts of all ``runs`` at
    once, as (runs, grid) arrays."""
    a, b = divmod(j, 4)
    first = starts[:-1][np.diff(starts) > 0]
    leaves_a = np.zeros(states.size + 1, dtype=bool)
    leaves_a[2:] = states[:-1] == a
    leaves_a[first + 1] = False
    enters_b = leaves_a.copy()
    enters_b[1:] &= states == b
    n_a = np.cumsum(leaves_a, dtype=np.int32)
    n_ab = np.cumsum(enters_b, dtype=np.int32)
    base = starts[:-1][runs, None]
    pos = at[runs] + (base + 1).astype(np.int32)
    counts_a = n_a[pos]
    counts_a -= n_a[base]
    counts_ab = n_ab[pos]
    counts_ab -= n_ab[base]
    estimates = counts_ab.astype(float)
    with np.errstate(invalid="ignore"):
        estimates /= counts_a
    estimates[counts_a == 0] = np.nan
    return estimates
