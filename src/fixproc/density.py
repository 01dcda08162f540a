"""Kernel intensity estimation on a rectangular window.

The estimator divides a Gaussian kernel sum by the kernel mass retained
inside the window, so the surface is unbiased for a constant intensity all
the way to the boundary. For a rectangle the retained mass factorizes into
a product of two 1-D Gaussian CDF differences, which we evaluate in closed
form instead of by quadrature. The Gaussian kernel factors over x and y in
the same way, so on a grid the edge-corrected surface of any point subset
is one matrix product of two small 1-D factor matrices (see _grid_factors).

Least-squares cross-validation scores a whole bandwidth grid in one pass
over the point pairs (see _lscv_scores): each tile of the upper triangle
has its squared distances computed once, and every bandwidth takes its
kernel values from them. Only the grid term is computed once per bandwidth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .core import DataError, NumericError, Window, _positive
from .ingest import write_csv

# Rows per tile of the pair sums in cross-validation. Two (rows x n) buffers
# are allocated once per call, reused by every tile and every bandwidth, and
# freed before the grid term.
_TILE = 128

# Floor on the exponent of a pair's kernel value in cross-validation. numpy's
# vectorised exp leaves its fast path on lanes that underflow to 0 or to a
# subnormal, as most far pairs do at small h (about 10x slower per element
# on an AVX-512 Xeon). n floored values, each e^-700 < 1e-304, vanish below
# half an ulp of a pair sum, which is at least 1 (the self pair).
_EXP_FLOOR = -700.0

# Smallest representable positive normal; guards log() of far-field cells.
_TINY = np.finfo(float).tiny


def _centres(lo: float, extent: float, n: int) -> np.ndarray:
    """Midpoints of n equal cells covering [lo, lo + extent]."""
    return lo + (np.arange(n) + 0.5) * (extent / n)


@dataclass
class IntensityGrid:
    """Intensity surface sampled at the centers of a regular nx-by-ny grid.

    ``values`` has shape (ny, nx), row index along y, in points per px^2.
    Residual surfaces reuse this container and may hold negative values.
    """

    window: Window
    nx: int
    ny: int
    values: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.ny, self.nx):
            raise DataError(
                f"values shape {self.values.shape} != (ny={self.ny}, nx={self.nx})"
            )

    @property
    def cell_width(self) -> float:
        return self.window.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.window.height / self.ny

    @property
    def cell_area(self) -> float:
        return self.cell_width * self.cell_height

    def centers_x(self) -> np.ndarray:
        return _centres(self.window.x_min, self.window.width, self.nx)

    def centers_y(self) -> np.ndarray:
        return _centres(self.window.y_min, self.window.height, self.ny)

    def integral(self) -> float:
        """Midpoint Riemann sum of the surface over the window."""
        return float(self.values.sum() * self.cell_area)

    def same_geometry(self, other: "IntensityGrid") -> bool:
        return (
            self.window == other.window
            and self.nx == other.nx
            and self.ny == other.ny
        )

    def interp(self, x, y) -> np.ndarray:
        """Bilinear interpolation between cell centers, clamped at the rim.

        The inputs are left unmodified; scalar and 0-d inputs give 0-d
        values. The corner terms are added left to right,
        ((v00 sx sy + v10 tx sy) + v01 sx ty) + v11 tx ty, into one buffer.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        fx = np.subtract(x, self.window.x_min, out=np.empty(x.shape))
        fx /= self.cell_width
        fx -= 0.5
        np.minimum(np.maximum(fx, 0.0, out=fx), self.nx - 1.0, out=fx)
        fy = np.subtract(y, self.window.y_min, out=np.empty(y.shape))
        fy /= self.cell_height
        fy -= 0.5
        np.minimum(np.maximum(fy, 0.0, out=fy), self.ny - 1.0, out=fy)
        # fx >= 0, so truncation is floor (the lower bound only keeps a NaN
        # indexable); the lower cell stops one short of the last column (row)
        # unless the grid has a single one
        ix = fx.astype(int)
        np.minimum(np.maximum(ix, 0, out=ix), max(self.nx - 2, 0), out=ix)
        iy = fy.astype(int)
        np.minimum(np.maximum(iy, 0, out=iy), max(self.ny - 2, 0), out=iy)
        tx = np.subtract(fx, ix, out=fx)
        ty = np.subtract(fy, iy, out=fy)
        sx = 1 - tx
        sy = 1 - ty
        # flat offsets of the right and lower neighbours (none on a 1-cell axis)
        dx = 1 if self.nx > 1 else 0
        dy = self.nx if self.ny > 1 else 0
        v = self.values.ravel()
        k = iy * self.nx + ix
        out = np.take(v, k)
        out *= sx
        out *= sy
        term = np.empty_like(out)
        for offset, wx, wy in ((dx, tx, sy), (dy - dx, sx, ty), (dx, tx, ty)):
            k += offset
            np.take(v, k, out=term)
            term *= wx
            term *= wy
            out += term
        return out[()]

    def to_csv(self, path) -> None:
        """One row per cell: cx, cy, value (x fastest)."""
        cx = np.tile(self.centers_x(), self.ny)
        cy = np.repeat(self.centers_y(), self.nx)
        write_csv(path, ("cx", "cy", "value"), [(cx, cy, self.values.ravel())])


@dataclass
class QuadratTestResult:
    """Chi-square test of constant intensity over a q-by-q quadrat grid."""

    statistic: float
    df: int
    p: float
    counts: np.ndarray


def _retained_mass(v, lo: float, hi: float, h: float) -> np.ndarray:
    """1-D Gaussian mass of scale h centred at v that falls inside [lo, hi]."""
    return ndtr((hi - v) / h) - ndtr((lo - v) / h)


def edge_correction(x, y, w: Window, h: float) -> np.ndarray:
    """Kernel mass retained inside the window for a Gaussian of scale h at (x, y).

    Product of 1-D CDF differences; lies in (0, 1], ~1/4 at a corner and
    ~1/2 at an edge midpoint when h is small against the window.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _retained_mass(x, w.x_min, w.x_max, h) * _retained_mass(y, w.y_min, w.y_max, h)


def _grid_factors(
    points: np.ndarray, w: Window, h: float, nx: int, ny: int
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-corrected 1-D kernel factors at the grid's cell centres.

    Returns ``ax`` (nx, n) and ``ay`` (ny, n) such that, for any subset S of
    the points, ``ay[:, S] @ ax[:, S].T`` is the subset's edge-corrected
    kernel sum on the (ny, nx) grid: both the kernel and the retained mass
    are products of an x part and a y part.
    """
    inv2h2 = 1.0 / (2.0 * h * h)
    norm = 1.0 / (2.0 * np.pi * h * h)
    cx = _centres(w.x_min, w.width, nx)
    cy = _centres(w.y_min, w.height, ny)
    factors = []
    for c, v in ((cx, points[:, 0]), (cy, points[:, 1])):
        # exp(-(c - v)^2 / 2h^2), each step into one buffer; negating the
        # factor instead of the square gives the same bits
        f = np.subtract(c[:, None], v[None, :])
        np.square(f, out=f)
        f *= -inv2h2
        np.exp(f, out=f)
        factors.append(f)
    ax, ay = factors
    ax /= _retained_mass(cx, w.x_min, w.x_max, h)[:, None]
    ay *= (norm / _retained_mass(cy, w.y_min, w.y_max, h))[:, None]
    return ax, ay


def _check_points(points, w: Window) -> np.ndarray:
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if points.shape[0] == 0:
        raise DataError("empty point set")
    if not np.all(w.contains(points[:, 0], points[:, 1])):
        raise DataError("points outside window")
    return points


def estimate_intensity(
    points, w: Window, h: float, nx: int = 128, ny: int = 128
) -> IntensityGrid:
    """Edge-corrected Gaussian kernel intensity on an nx-by-ny grid.

    At each cell center the kernel sum is divided by the retained kernel
    mass, so the surface integrates to roughly the point count when the
    pattern stays away from the boundary.
    """
    if not _positive(h):
        raise DataError(f"bandwidth must be positive and finite, got {h}")
    points = _check_points(points, w)
    ax, ay = _grid_factors(points, w, h, nx, ny)
    # Far-field cells can underflow to exactly 0 in float64; keep the surface
    # strictly positive so downstream logs stay finite.
    return IntensityGrid(w, nx, ny, np.maximum(ay @ ax.T, _TINY), h)


@dataclass
class BandwidthCV:
    """Cross-validation table: the candidates, their LSCV scores and the choice.

    ``at_edge`` is true when the chosen h is the smallest or largest of
    several distinct candidates, so the optimum may lie outside the grid.
    """

    h_grid: tuple[float, ...]
    scores: np.ndarray
    h: float
    at_edge: bool

    def to_dict(self) -> dict:
        return {
            "h_grid": list(self.h_grid),
            # JSON has no NaN or inf; a non-finite score is written as null
            "scores": [float(s) if math.isfinite(s) else None for s in self.scores],
            "h": self.h,
            "at_edge": self.at_edge,
        }


def select_bandwidth_cv(points, w: Window, h_grid, nx: int = 128, ny: int = 128) -> BandwidthCV:
    """Least-squares cross-validation bandwidth over a candidate list.

    Minimizes LSCV(h) = int f^2 - (2/n) sum_i f_{-i}(x_i) where f is the
    edge-corrected estimate normalized to a density; the integral is a
    midpoint Riemann sum on the nx-by-ny grid. Every candidate is scored in
    one pass over the point pairs: each pair's squared distance is computed
    once and shared by all of h_grid. Warns, naming them, about candidates
    whose score is not finite (h far below the cell size), which are
    skipped. Warns when the chosen h is the smallest or largest of several
    distinct candidates: the optimum may then lie outside the grid.

    Returns the whole BandwidthCV table: candidates, scores, the chosen
    ``h`` and the edge flag.
    """
    n = len(np.asarray(points).reshape(-1, 2))
    if n < 10:
        raise DataError(f"need at least 10 points for cross-validation, got {n}")
    points = _check_points(points, w)
    h_grid = tuple(float(h) for h in h_grid)
    if not h_grid or not all(_positive(h) for h in h_grid):
        raise DataError("h_grid must be a non-empty list of positive, finite bandwidths")

    scores = _lscv_scores(points, w, h_grid, nx, ny)
    if not np.any(np.isfinite(scores)):
        raise NumericError("all cross-validation scores non-finite")
    skipped = [f"{h:g}" for h, score in zip(h_grid, scores) if not math.isfinite(score)]
    if skipped:
        warnings.warn(f"cross-validation score is not finite at h = {', '.join(skipped)}; skipped")
    h = h_grid[int(np.argmin(np.where(np.isfinite(scores), scores, np.inf)))]
    lo, hi = min(h_grid), max(h_grid)
    at_edge = lo < hi and h in (lo, hi)
    if at_edge:
        warnings.warn(f"cross-validated bandwidth {h:g} is at the edge of h_grid [{lo:g}, {hi:g}]")
    return BandwidthCV(h_grid, scores, h, at_edge)


def _lscv_scores(points: np.ndarray, w: Window, h_grid, nx: int, ny: int) -> np.ndarray:
    """LSCV score of every bandwidth in h_grid (see select_bandwidth_cv).

    The leave-one-out term needs, for each point i and each h, the pair sum
    sum_j exp(-d_ij^2 / 2h^2) over all j, the self pair included as
    exp(0) = 1 and subtracted afterwards. Row tiles of the upper triangle
    (rows a:b against columns a:n) hold each pair once: a tile's row sums
    go to its rows and the column sums right of its diagonal block go to
    those columns, so the block's own pairs are counted from both ends by
    its row sums alone.
    """
    n = len(points)
    cell = (w.width / nx) * (w.height / ny)
    x = points[:, 0]
    y = points[:, 1]
    inv2h2 = [1.0 / (2.0 * h * h) for h in h_grid]
    pair_sums = np.zeros((len(h_grid), n))
    rows = min(_TILE, n)
    d2_buf = np.empty(rows * n)
    kern_buf = np.empty(rows * n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        shape = (b - a, n - a)
        d2 = d2_buf[: shape[0] * shape[1]].reshape(shape)
        kern = kern_buf[: shape[0] * shape[1]].reshape(shape)
        np.subtract(x[a:b, None], x[None, a:], out=d2)
        np.square(d2, out=d2)
        np.subtract(y[a:b, None], y[None, a:], out=kern)
        np.square(kern, out=kern)
        d2 += kern
        for k, c in enumerate(inv2h2):
            np.multiply(d2, -c, out=kern)
            np.maximum(kern, _EXP_FLOOR, out=kern)
            np.exp(kern, out=kern)
            pair_sums[k, a:b] += kern.sum(axis=1)
            pair_sums[k, b:] += kern[:, b - a :].sum(axis=0)
    del d2_buf, kern_buf, d2, kern  # the grid factors below take their place

    scores = np.empty(len(h_grid))
    for k, h in enumerate(h_grid):
        ax, ay = _grid_factors(points, w, h, nx, ny)
        lam_grid = ay @ ax.T
        point_mass = ax.sum(axis=0) * ay.sum(axis=0) * cell  # each point's term over the window
        del ax, ay  # before the next h's are built
        total_mass = point_mass.sum()

        norm = 1.0 / (2.0 * np.pi * h * h)
        corr_pts = edge_correction(x, y, w, h)
        loo_lam = norm * pair_sums[k] / corr_pts - norm / corr_pts
        loo_mass = total_mass - point_mass
        # at h far below the cell size every grid factor underflows, both
        # masses are 0 and the score is NaN; select_bandwidth_cv names it
        with np.errstate(divide="ignore", invalid="ignore"):
            loo_density = loo_lam / loo_mass
            int_f2 = float(((lam_grid / total_mass) ** 2).sum() * cell)
        scores[k] = int_f2 - 2.0 / n * float(loo_density.sum())
    return scores


def residual_intensities(
    dataset, interval: float = 30_000.0, *, h: float, nx: int = 128, ny: int = 128
) -> list[IntensityGrid]:
    """Interval-wise intensity minus the mean over intervals, at a common h.

    ``h`` has no default: the caller picks it, as ``fixproc residuals`` does
    with ``--h`` or cross-validation of the pooled fixations.

    Fixations are binned by onset as :meth:`~fixproc.core.Dataset.interval_masks`
    bins them, which refuses fewer than 2 intervals. An interval with no
    fixations contributes an all-zero surface (with a warning) so the
    residuals remain well-defined. The returned grids sum pointwise to zero.
    """
    pooled = dataset.pooled_locations()
    surfaces = []
    for j, mask in enumerate(dataset.interval_masks(interval)):
        if not mask.any():
            lo, hi = j * interval, (j + 1) * interval
            warnings.warn(f"interval {j} ({lo:.0f}-{hi:.0f} ms) has no fixations")
            surfaces.append(IntensityGrid(dataset.window, nx, ny, np.zeros((ny, nx)), h))
        else:
            surfaces.append(estimate_intensity(pooled[mask], dataset.window, h, nx, ny))

    mean = np.mean([g.values for g in surfaces], axis=0)
    return [
        IntensityGrid(dataset.window, nx, ny, g.values - mean, h) for g in surfaces
    ]


def quadrat_chisq(points, w: Window, q: int = 5) -> QuadratTestResult:
    """Chi-square test of constant intensity on a q-by-q partition of the window."""
    if q < 2:
        raise DataError("need q >= 2 quadrats per side")
    points = _check_points(points, w)
    n = len(points)
    if n < 5 * q * q:
        warnings.warn(
            f"only {n} points for {q * q} quadrats; chi-square approximation is rough"
        )
    ix = np.minimum(((points[:, 0] - w.x_min) / w.width * q).astype(int), q - 1)
    iy = np.minimum(((points[:, 1] - w.y_min) / w.height * q).astype(int), q - 1)
    counts = np.zeros((q, q), dtype=int)
    np.add.at(counts, (iy, ix), 1)
    expected = n / (q * q)
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = q * q - 1
    return QuadratTestResult(stat, df, chisq_sf(stat, df), counts)


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if x < 0 or df < 1:
        raise DataError(f"need x >= 0 and df >= 1, got x={x}, df={df}")
    return float(chdtrc(df, x))
