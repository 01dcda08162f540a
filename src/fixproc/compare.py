"""Two-group comparison: shift functions and the intensity-ratio test.

The shift function says how far one sample's distribution must be moved at
each abscissa to match another's; its simultaneous band inverts the
two-sample Kolmogorov-Smirnov acceptance region. The intensity comparison
integrates the squared log ratio of the two groups' normalized surfaces and
calibrates it by permuting subject labels, so within-subject dependence is
preserved under the null.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import kolmogi

from .core import DataError, Dataset, Window, _positive
from .density import _TINY, IntensityGrid, _grid_factors, chisq_sf
from .rng import permutations

# draws per permutation block, and grid cells per tile: a block's two
# (tile, draws) surface buffers take 512 KiB and stay in one core's L2
# cache, and a tile's matrix product (128 x 256 x 20 multiply-adds at the
# paper's 20 subjects) is small enough for OpenBLAS to run it on the
# calling thread
_BLOCK_DRAWS = 128
_TILE_CELLS = 256


@dataclass
class ShiftCurve:
    """Empirical shift estimate with a simultaneous confidence band."""

    abscissae: np.ndarray
    delta: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float

    def zero_inside(self) -> bool:
        """Whether the equal-distributions line lies fully inside the band."""
        return bool(np.all(self.lower <= 0.0) and np.all(self.upper >= 0.0))


@dataclass
class RatioTestResult:
    """Observed squared-log-ratio statistic with its permutation p-value."""

    T0: float
    p: float
    m: int
    h1: float
    h2: float
    r_grid: IntensityGrid
    k: int
    distinct_partitions: int

    @property
    def mc_se(self) -> float:
        """Monte Carlo standard error of p, sqrt(p(1 - p)/m)."""
        return float(np.sqrt(self.p * (1.0 - self.p) / self.m))

    def to_dict(self) -> dict:
        """The test's numbers with ``mc_se``, and the ``window``, ``nx``, ``ny``
        and ``values`` (as ``log_ratio``) of ``r_grid``, flattened into one block."""
        grid = self.r_grid
        return {"T0": self.T0, "p": self.p, "m": self.m, "k": self.k, "mc_se": self.mc_se,
                "distinct_partitions": self.distinct_partitions, "h1": self.h1, "h2": self.h2,
                "window": grid.window, "nx": grid.nx, "ny": grid.ny, "log_ratio": grid.values}


class FisherResult(NamedTuple):
    chi2: float
    df: int
    p: float


def _quantile_index(p_times_m, m: int) -> np.ndarray:
    """Left-continuous inverse-CDF index (1-based ceil), clipped to [1, m]."""
    idx = np.ceil(np.asarray(p_times_m) - 1e-12).astype(int)
    return np.clip(idx, 1, m)


def shift_function(x_sample, y_sample, alpha: float = 0.05) -> ShiftCurve:
    """Shift estimate G^(-1)(F(x)) - x at every x of the first sample.

    Conventions: the ECDF is right-continuous with steps k/n, the quantile
    is its left-continuous generalized inverse, and the band half-width on
    the probability scale is the asymptotic two-sample KS critical value
    scaled by sqrt((m+n)/(mn)). These make shift_function(x, x) exactly
    zero. Where F(x) +/- d leaves (0, 1) the corresponding band side is
    unconstrained (+/- inf): the KS acceptance region says nothing about
    quantiles beyond the observed probability range.
    """
    x = np.sort(np.asarray(x_sample, dtype=float).ravel())
    y = np.sort(np.asarray(y_sample, dtype=float).ravel())
    n, m = len(x), len(y)
    if n < 2 or m < 2:
        raise DataError(f"both samples need size >= 2, got {n} and {m}")

    ranks = np.searchsorted(x, x, side="right")  # k with F(x) = k/n, right-continuous
    # exact integer ceil of (k/n)*m avoids float rank drift
    delta_idx = -(-(ranks * m) // n)
    delta = y[np.clip(delta_idx, 1, m) - 1] - x

    d = kolmogi(alpha) * np.sqrt((n + m) / (n * m))
    p = ranks / n
    p_lo = p - d
    p_hi = p + d
    lower = np.where(
        p_lo > 0.0, y[_quantile_index(p_lo * m, m) - 1] - x, -np.inf
    )
    upper = np.where(
        p_hi < 1.0, y[_quantile_index(p_hi * m, m) - 1] - x, np.inf
    )
    return ShiftCurve(x, delta, lower, upper, alpha)


def log_density_ratio(g1: IntensityGrid, g2: IntensityGrid) -> IntensityGrid:
    """Cellwise log of the ratio of the two normalized surfaces.

    Each grid is first clamped at the smallest positive float and scaled to
    integrate to one, so the result does not depend on the two point counts.
    The returned carrier has no bandwidth of its own (two went in); its
    bandwidth field is NaN.
    """
    if not g1.same_geometry(g2):
        raise DataError("grids differ in window or resolution")
    lam1 = np.maximum(g1.values, _TINY)
    lam2 = np.maximum(g2.values, _TINY)
    area = g1.cell_area
    r = np.log(lam1 / (lam1.sum() * area)) - np.log(lam2 / (lam2.sum() * area))
    return IntensityGrid(g1.window, g1.nx, g1.ny, r, float("nan"))


def ratio_statistic(r_grid: IntensityGrid) -> float:
    """Squared log ratio integrated over the window (midpoint Riemann sum)."""
    return float((r_grid.values**2).sum() * r_grid.cell_area)


def _subject_surfaces(
    subjects: list[np.ndarray], w: Window, h: float, nx: int, ny: int
) -> np.ndarray:
    """Per-subject edge-corrected kernel terms on the grid, stacked (s, ny*nx).

    Summing any subset of rows gives that subset's intensity estimate, which
    is what makes label permutations cheap.
    """
    rows = np.empty((len(subjects), nx * ny))
    for i, pts in enumerate(subjects):
        ax, ay = _grid_factors(pts, w, h, nx, ny)
        rows[i] = (ay @ ax.T).ravel()
    return rows


def _block_statistic(
    labels: np.ndarray, rows1: np.ndarray, rows2: np.ndarray,
    mass1: np.ndarray, mass2: np.ndarray, cell_area: float,
) -> np.ndarray:
    """T for each row of a (B, s) 0/1 label matrix; ones mark the first group.

    ``log_density_ratio`` row by row, in one pass over tiles of grid cells. A
    tile's two group surfaces are matrix products into (tile, B)
    buffers reused by every tile; they are clamped at _TINY and logged
    separately, since their ratio overflows where one side is clamped. The
    normalisers come from the per-subject masses ``mass1`` and ``mass2``
    (the row sums of ``rows1`` and ``rows2``) plus the most the clamp can
    add, cells * _TINY, which is exact when a whole surface underflows and
    lost in rounding otherwise. The second group is summed from its own
    rows, not taken as total minus the first, which would cancel in the
    far field.
    """
    first = np.ascontiguousarray(labels.T)
    second = 1.0 - first
    cells = rows1.shape[1]
    clamped = cells * _TINY
    shift = np.log((mass1 @ first + clamped) * cell_area)
    shift -= np.log((mass2 @ second + clamped) * cell_area)
    lam1 = np.empty((_TILE_CELLS, len(labels)))
    lam2 = np.empty_like(lam1)
    T = np.zeros(len(labels))
    for start in range(0, cells, _TILE_CELLS):
        stop = min(start + _TILE_CELLS, cells)
        t1, t2 = lam1[: stop - start], lam2[: stop - start]
        np.matmul(rows1[:, start:stop].T, first, out=t1)
        np.matmul(rows2[:, start:stop].T, second, out=t2)
        for t in (t1, t2):
            np.maximum(t, _TINY, out=t)
            np.log(t, out=t)
        t1 -= t2
        t1 -= shift
        T += np.einsum("ij,ij->j", t1, t1)
    return T * cell_area


def _workers() -> int:
    """Cores this process may run on: one permutation block is scored per core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _first_groups(seed: int, m: int, total: int, n1: int) -> np.ndarray:
    """The (m, total) bool first-group flags of draws 1..m: row j - 1 marks the
    first n1 entries of ``substream(seed, "perm", j).permutation(total)``. The calling
    thread makes ``_BLOCK_DRAWS`` draws per ``permutations`` call and sets their flags
    in one assignment. The matrix takes m x total bytes, which the CLI bounds
    by its held-bytes limit (``cli.MAX_HELD_BYTES``) before the test starts."""
    first = np.zeros((m, total), dtype=bool)
    for start in range(0, m, _BLOCK_DRAWS):
        stop = min(start + _BLOCK_DRAWS, m)
        drawn = permutations(seed, "perm", range(start + 1, stop + 1), total)[:, :n1]
        first[np.arange(start, stop)[:, None], drawn] = True
    return first


def _draw_statistics(
    first: np.ndarray, rows1: np.ndarray, rows2: np.ndarray, cell_area: float
) -> np.ndarray:
    """T for every row of the bool first-group matrix ``first``.

    Blocks of ``_BLOCK_DRAWS`` rows, each made float on its own, are scored
    by ``_block_statistic`` on a pool of ``_workers()`` threads, thread w
    taking every ``_workers()``-th block from block w, so the pool holds one
    task a thread, not one a block, and each block writes its slice of T.
    Block boundaries depend on the row count alone, so a row's T does not
    depend on the worker count.
    """
    mass1, mass2 = rows1.sum(axis=1), rows2.sum(axis=1)
    T = np.empty(len(first))
    workers = _workers()
    starts = range(0, len(first), _BLOCK_DRAWS)

    def score(w: int) -> None:
        for start in starts[w::workers]:
            labels = first[start : start + _BLOCK_DRAWS].astype(float)
            T[start : start + _BLOCK_DRAWS] = _block_statistic(labels, rows1, rows2, mass1,
                                                               mass2, cell_area)

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(score, range(workers)))
    return T


def permutation_test(
    dataset: Dataset,
    *,
    h1: float,
    h2: float,
    m: int = 10_000,
    seed: int,
    nx: int = 128,
    ny: int = 128,
) -> RatioTestResult:
    """Monte Carlo test of equal intensity surfaces between the two groups.

    Subject labels (not individual fixations) are reassigned uniformly at
    random m times; the statistic is recomputed with the same fixed
    bandwidths h1/h2 applied to the first/second group slot, and
    p = (k+1)/(m+1) with k the count of permuted statistics >= the observed
    one. The label source ``_first_groups`` makes draw j from
    ``substream(seed, "perm", j).permutation(n1 + n2)``, whose first n1
    entries form the first group, a chunk of draws per ``rng.permutations``
    call. The scorer ``_draw_statistics`` scores 128 draws at a time, one
    block per available core: a block's first-group labels form a 0/1
    matrix, and each group's surfaces are matrix products of it with the
    per-subject kernel rows, over tiles of 256 grid cells that stay in cache
    while they are clamped, logged and summed. A draw's T does not depend on
    the number of threads.

    A matrix product need not round like the observed statistic's row sums,
    so ties are decided on the partition, not on the floats: a draw whose
    first group is the observed one always counts, and when h1 == h2 so does
    one whose first group is the observed second group (possible only when
    n1 == n2), which gives the same T. Every other draw counts when its
    T >= T0. The result also reports the Monte Carlo standard error of p and
    the number of distinct first-group sets drawn.

    To cross-validate the bandwidths, pass the ``.h`` of
    ``select_bandwidth_cv`` of each observed group's pooled fixations
    (novice for h1, non-novice for h2). Deterministic given ``seed``.
    """
    seqs1, seqs2 = dataset.two_groups()
    n1, n2 = len(seqs1), len(seqs2)
    subject_pts = [s.locations for s in seqs1 + seqs2]
    w = dataset.window
    if not all(_positive(h) for h in (h1, h2)):
        raise DataError(f"bandwidths must be positive and finite, got h1={h1}, h2={h2}")
    if m < 1:
        raise DataError(f"need at least one permutation, got m={m}")

    rows = {h: _subject_surfaces(subject_pts, w, h, nx, ny) for h in {h1, h2}}  # distinct h only
    rows_h1, rows_h2 = rows[h1], rows[h2]

    # the observed groups' surfaces, summed from row slices: views, not copies
    r_grid = log_density_ratio(
        IntensityGrid(w, nx, ny, rows_h1[:n1].sum(axis=0).reshape(ny, nx), h1),
        IntensityGrid(w, nx, ny, rows_h2[n1:].sum(axis=0).reshape(ny, nx), h2),
    )
    T0 = ratio_statistic(r_grid)

    first = _first_groups(seed, m, n1 + n2, n1)
    T = _draw_statistics(first, rows_h1, rows_h2, r_grid.cell_area)
    # each draw's partition as packed bits, ceil(total / 8) bytes a draw
    packed = np.packbits(first, axis=1)
    del first
    observed = np.arange(n1 + n2) < n1
    ties = (packed == np.packbits(observed)).all(axis=1)
    if h1 == h2:
        ties |= (packed == np.packbits(~observed)).all(axis=1)
    k = int(np.count_nonzero(ties | (T >= T0)))
    distinct = len(np.unique(packed, axis=0))

    return RatioTestResult(
        T0=T0, p=(k + 1) / (m + 1), m=m, h1=float(h1), h2=float(h2), r_grid=r_grid, k=k,
        distinct_partitions=distinct,
    )


def fisher_combine(p_values) -> FisherResult:
    """Fisher's combination of independent p-values: -2 sum(ln p) ~ chi2(2k)."""
    p_values = np.asarray(p_values, dtype=float).ravel()
    if len(p_values) == 0:
        raise DataError("no p-values to combine")
    if np.any(p_values <= 0.0) or np.any(p_values > 1.0):
        raise DataError("p-values must lie in (0, 1]")
    chi2 = float(-2.0 * np.log(p_values).sum())
    df = 2 * len(p_values)
    return FisherResult(chi2, df, chisq_sf(chi2, df))
