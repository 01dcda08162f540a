"""Kernel intensity estimation on a rectangular window.

The estimator divides a Gaussian kernel sum by the kernel mass retained
inside the window, so the surface is unbiased for a constant intensity all
the way to the boundary. For a rectangle the retained mass factorizes into
a product of two 1-D Gaussian CDF differences, which we evaluate in closed
form instead of by quadrature. The Gaussian kernel factors over x and y in
the same way, so on a grid the edge-corrected surface of any point subset
is one matrix product of two small 1-D factor matrices (see _grid_factors).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .core import DataError, NumericError, Window

# Chunk size for point loops; keeps the (cells x points) work set in cache.
_CHUNK = 512

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
        """Bilinear interpolation between cell centers, clamped at the rim."""
        fx = (np.asarray(x, dtype=float) - self.window.x_min) / self.cell_width - 0.5
        fy = (np.asarray(y, dtype=float) - self.window.y_min) / self.cell_height - 0.5
        fx = np.minimum(np.maximum(fx, 0.0), self.nx - 1.0)
        fy = np.minimum(np.maximum(fy, 0.0), self.ny - 1.0)
        # fx >= 0, so truncation is floor (the lower bound only keeps a NaN
        # indexable); the lower cell stops one short of the last column (row)
        # unless the grid has a single one
        ix = np.minimum(np.maximum(fx.astype(int), 0), max(self.nx - 2, 0))
        iy = np.minimum(np.maximum(fy.astype(int), 0), max(self.ny - 2, 0))
        tx = fx - ix
        ty = fy - iy
        sx = 1 - tx
        sy = 1 - ty
        # flat offsets of the right and lower neighbours (none on a 1-cell axis)
        dx = 1 if self.nx > 1 else 0
        dy = self.nx if self.ny > 1 else 0
        v = self.values.ravel()
        k = iy * self.nx + ix
        return (
            v[k] * sx * sy
            + v[k + dx] * tx * sy
            + v[k + dy] * sx * ty
            + v[k + dx + dy] * tx * ty
        )

    def to_csv(self, path) -> None:
        """One row per cell: cx, cy, value (x fastest)."""
        cx = self.centers_x()
        cy = self.centers_y()
        with open(path, "w", newline="") as fh:
            fh.write("cx,cy,value\n")
            for iy in range(self.ny):
                for ix in range(self.nx):
                    fh.write(
                        f"{float(cx[ix])!r},{float(cy[iy])!r},{float(self.values[iy, ix])!r}\n"
                    )

    def to_dict(self) -> dict:
        w = self.window
        return {
            "window": {"x_min": w.x_min, "y_min": w.y_min, "x_max": w.x_max, "y_max": w.y_max},
            "nx": self.nx,
            "ny": self.ny,
            "bandwidth": self.bandwidth,
            "values": [[float(v) for v in row] for row in self.values],
        }


@dataclass
class QuadratTestResult:
    """Chi-square test of constant intensity over a q-by-q quadrat grid."""

    statistic: float
    df: int
    p: float
    counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": self.df,
            "p": self.p,
            "counts": [[int(c) for c in row] for row in self.counts],
        }


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


def _kernel_sum(points: np.ndarray, ex: np.ndarray, ey: np.ndarray, h: float) -> np.ndarray:
    """Sum over data points of h^-2 K((e - x_i)/h) at evaluation points."""
    inv2h2 = 1.0 / (2.0 * h * h)
    norm = 1.0 / (2.0 * np.pi * h * h)
    flat_x = ex.ravel()
    flat_y = ey.ravel()
    acc = np.zeros(flat_x.size, dtype=float)
    for start in range(0, len(points), _CHUNK):
        chunk = points[start : start + _CHUNK]
        d2 = (flat_x[:, None] - chunk[None, :, 0]) ** 2 + (
            flat_y[:, None] - chunk[None, :, 1]
        ) ** 2
        acc += np.exp(-d2 * inv2h2).sum(axis=1)
    return (norm * acc).reshape(ex.shape)


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
    ax = np.exp(-((cx[:, None] - points[None, :, 0]) ** 2) * inv2h2)
    ay = np.exp(-((cy[:, None] - points[None, :, 1]) ** 2) * inv2h2)
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
    if h <= 0:
        raise DataError(f"bandwidth must be positive, got {h}")
    points = _check_points(points, w)
    ax, ay = _grid_factors(points, w, h, nx, ny)
    # Far-field cells can underflow to exactly 0 in float64; keep the surface
    # strictly positive so downstream logs stay finite.
    return IntensityGrid(w, nx, ny, np.maximum(ay @ ax.T, _TINY), h)


def intensity_at(points, xs, ys, w: Window, h: float) -> np.ndarray:
    """Exact (non-interpolated) edge-corrected estimate at arbitrary locations."""
    points = _check_points(points, w)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    num = _kernel_sum(points, xs, ys, h)
    return np.maximum(num / edge_correction(xs, ys, w, h), _TINY)


def select_bandwidth_cv(
    points, w: Window, h_grid, nx: int = 128, ny: int = 128
) -> float:
    """Least-squares cross-validation bandwidth over a candidate list.

    Minimizes LSCV(h) = int f^2 - (2/n) sum_i f_{-i}(x_i) where f is the
    edge-corrected estimate normalized to a density; the integral is a
    midpoint Riemann sum on the nx-by-ny grid. Warns when the chosen h is
    the smallest or largest of several distinct candidates: the optimum
    may then lie outside the grid.
    """
    n = len(np.asarray(points).reshape(-1, 2))
    if n < 10:
        raise DataError(f"need at least 10 points for cross-validation, got {n}")
    points = _check_points(points, w)
    h_grid = [float(h) for h in h_grid]
    if not h_grid or any(h <= 0 for h in h_grid):
        raise DataError("h_grid must be a non-empty list of positive bandwidths")

    scores = np.array([_lscv_score(points, w, h, nx, ny) for h in h_grid])
    if not np.any(np.isfinite(scores)):
        raise NumericError("all cross-validation scores non-finite")
    h = h_grid[int(np.nanargmin(np.where(np.isfinite(scores), scores, np.inf)))]
    lo, hi = min(h_grid), max(h_grid)
    if lo < hi and h in (lo, hi):
        warnings.warn(f"cross-validated bandwidth {h:g} is at the edge of h_grid [{lo:g}, {hi:g}]")
    return h


def _lscv_score(points: np.ndarray, w: Window, h: float, nx: int, ny: int) -> float:
    n = len(points)
    cell = (w.width / nx) * (w.height / ny)
    ax, ay = _grid_factors(points, w, h, nx, ny)
    lam_grid = ay @ ax.T
    point_mass = ax.sum(axis=0) * ay.sum(axis=0) * cell  # each point's term over the window
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


def residual_intensities(
    dataset, interval: float = 30_000.0, h: float = 17.0, nx: int = 128, ny: int = 128
) -> list[IntensityGrid]:
    """Interval-wise intensity minus the mean over intervals, at a common h.

    Fixations are binned by onset into consecutive windows of ``interval``
    ms; a trailing shorter interval is kept. An interval with no fixations
    contributes an all-zero surface (with a warning) so the residuals remain
    well-defined. The returned grids sum pointwise to zero.
    """
    if interval <= 0:
        raise DataError("interval must be positive")
    k = int(np.ceil(dataset.trial_length / interval))
    if k < 1:
        raise DataError("trial shorter than one interval")
    pooled = dataset.pooled_locations()
    onsets = dataset.pooled_onsets()

    surfaces = []
    for j in range(k):
        lo, hi = j * interval, (j + 1) * interval
        mask = (onsets >= lo) & (onsets < hi)
        if not mask.any():
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
