import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from fixproc import (
    DataError,
    Dataset,
    chisq_sf,
    edge_correction,
    estimate_intensity,
    quadrat_chisq,
    residual_intensities,
    select_bandwidth_cv,
)
from fixproc.density import _TILE, IntensityGrid, _lscv_scores
from helpers import (
    WINDOW,
    intensity_at,
    interp_reference,
    lscv_score_reference,
    mixture_points,
    sequence,
)

W = WINDOW


def brute_force_intensity(points, w, h, nx, ny, quad_n=401):
    """Direct evaluation of the edge-corrected estimator.

    Numerator by an explicit double loop; denominator by 2-D composite
    Simpson quadrature of the scaled Gaussian over the window. Independent
    of the closed-form CDF route used by the implementation.
    """
    points = np.asarray(points, float)
    xs = w.x_min + (np.arange(nx) + 0.5) * (w.width / nx)
    ys = w.y_min + (np.arange(ny) + 0.5) * (w.height / ny)
    qx = np.linspace(w.x_min, w.x_max, quad_n)
    qy = np.linspace(w.y_min, w.y_max, quad_n)
    wx = np.ones(quad_n)
    wx[1:-1:2] = 4.0
    wx[2:-1:2] = 2.0
    wx *= (qx[1] - qx[0]) / 3.0
    wy = wx * (qy[1] - qy[0]) / (qx[1] - qx[0])

    out = np.empty((ny, nx))
    for iy, cy in enumerate(ys):
        for ix, cx in enumerate(xs):
            num = 0.0
            for px, py in points:
                num += np.exp(-((cx - px) ** 2 + (cy - py) ** 2) / (2 * h * h))
            num /= 2 * np.pi * h * h
            gx = np.exp(-((cx - qx) ** 2) / (2 * h * h))
            gy = np.exp(-((cy - qy) ** 2) / (2 * h * h))
            den = (wx @ gx) * (wy @ gy) / (2 * np.pi * h * h)
            out[iy, ix] = num / den
    return out


class TestEstimateIntensity:
    def test_peak_value_single_point(self):
        # evaluated at the point itself, far from edges, the estimate is the
        # kernel peak 1/(2 pi h^2)
        h = 10.0
        val = intensity_at([[385.0, 384.0]], 385.0, 384.0, W, h)
        assert val == pytest.approx(1.0 / (2 * np.pi * h * h), rel=1e-9)

    def test_doubling_h_smooths(self, rng):
        pts = rng.uniform([100, 100], [600, 600], size=(40, 2))
        g1 = estimate_intensity(pts, W, 10.0, 64, 64)
        g2 = estimate_intensity(pts, W, 20.0, 64, 64)
        assert g2.values.max() < g1.values.max()

    def test_corner_point_corrected_4x(self):
        h = 5.0
        raw = 1.0 / (2 * np.pi * h * h)
        val = intensity_at([[0.0, 0.0]], 0.0, 0.0, W, h)
        assert val == pytest.approx(4 * raw, rel=2e-2)

    def test_positive_everywhere(self, rng):
        pts = rng.uniform([300, 300], [400, 400], size=(10, 2))
        g = estimate_intensity(pts, W, 5.0, 64, 64)
        assert np.all(g.values > 0)

    def test_mass_matches_count_away_from_edges(self, rng):
        h = 12.0
        pts = rng.uniform([5 * h + 10, 5 * h + 10], [770 - 5 * h - 10, 768 - 5 * h - 10],
                          size=(60, 2))
        g = estimate_intensity(pts, W, h, 128, 128)
        assert g.integral() == pytest.approx(60.0, rel=0.01)

    @settings(max_examples=40)
    @given(
        st.integers(32, 96),
        st.integers(32, 96),
        st.floats(0.0, 1.0),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=30),
    )
    def test_integrates_to_n_away_from_the_rim(self, nx, ny, unit_h, unit_pts):
        # a kernel at least 4h from every side keeps all but ~3e-5 of its
        # mass, and a midpoint sum over cells no wider than h/2 is far finer
        # than 2 %; h runs from 2 cell widths to 90 px, so 8h fits the window
        two_cells = 2 * max(W.width / nx, W.height / ny)
        h = two_cells + unit_h * (90.0 - two_cells)
        lo = np.array([W.x_min, W.y_min]) + 4 * h
        hi = np.array([W.x_max, W.y_max]) - 4 * h
        pts = lo + np.array(unit_pts) * (hi - lo)
        g = estimate_intensity(pts, W, h, nx, ny)
        assert g.integral() == pytest.approx(len(pts), rel=0.02)

    def test_brute_force_equivalence(self, rng):
        pts = rng.uniform([30, 30], [740, 738], size=(20, 2))
        h = 40.0
        g = estimate_intensity(pts, W, h, 20, 20)
        ref = brute_force_intensity(pts, W, h, 20, 20)
        assert np.max(np.abs(g.values - ref) / ref) < 1e-6

    def test_grid_matches_pointwise_at_paper_size(self):
        # the grid surface and the pointwise kernel sum are separate code
        # paths; near every edge and corner the edge correction matters most
        rng = np.random.default_rng(128)
        lo = np.array([W.x_min, W.y_min])
        hi = np.array([W.x_max, W.y_max])
        # the four corners and the four edge midpoints, 10 points near each
        anchors = np.array(
            [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0], [0.5, 1], [0, 0.5], [1, 0.5]]
        ).repeat(10, axis=0)
        for h in (8.0, 24.0, 64.0):
            near_rim = lo + anchors * (hi - lo) + rng.uniform(-2 * h, 2 * h, anchors.shape)
            pts = np.vstack([rng.uniform(lo, hi, (220, 2)), near_rim.clip(lo, hi)])
            g = estimate_intensity(pts, W, h, 128, 128)
            ex, ey = np.meshgrid(g.centers_x(), g.centers_y())
            ref = intensity_at(pts, ex, ey, W, h)
            assert np.max(np.abs(g.values - ref) / ref) <= 1e-12

    def test_errors(self):
        with pytest.raises(DataError):
            estimate_intensity([[1, 1]], W, -1.0)
        with pytest.raises(DataError):
            estimate_intensity(np.empty((0, 2)), W, 5.0)
        with pytest.raises(DataError):
            estimate_intensity([[9999, 1]], W, 5.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_bandwidth_rejected(self, h):
        with pytest.raises(DataError, match="bandwidth"):
            estimate_intensity([[100.0, 100.0]], W, h)


def _probe_points(grid: IntensityGrid, rng) -> tuple[np.ndarray, np.ndarray]:
    """Random, rim, cell-centre, cell-edge and out-of-window probe points."""
    w = grid.window
    xs = [rng.uniform(w.x_min, w.x_max, 400)]
    ys = [rng.uniform(w.y_min, w.y_max, 400)]
    # rim, corners and points just inside and outside it
    rim_x = np.array([w.x_min, w.x_max, np.nextafter(w.x_max, -np.inf), w.x_min - 1e-9,
                      w.x_max + 1e-9, w.x_min - 50.0, w.x_max + 50.0, -1e6, 1e6])
    rim_y = np.array([w.y_min, w.y_max, np.nextafter(w.y_max, -np.inf), w.y_min - 1e-9,
                      w.y_max + 1e-9, w.y_min - 50.0, w.y_max + 50.0, -1e6, 1e6])
    gx, gy = np.meshgrid(rim_x, rim_y)
    xs += [gx.ravel(), rng.choice(rim_x, 200)]
    ys += [gy.ravel(), rng.uniform(w.y_min, w.y_max, 200)]
    xs += [rng.uniform(w.x_min, w.x_max, 200)]
    ys += [rng.choice(rim_y, 200)]
    # cell centres and cell edges, where the bilinear weights are 0 or 1
    cx, cy = grid.centers_x(), grid.centers_y()
    ex = w.x_min + np.arange(grid.nx + 1) * grid.cell_width
    ey = w.y_min + np.arange(grid.ny + 1) * grid.cell_height
    xs += [rng.choice(np.concatenate([cx, ex]), 300)]
    ys += [rng.choice(np.concatenate([cy, ey]), 300)]
    return np.concatenate(xs), np.concatenate(ys)


class TestInterp:
    """IntensityGrid.interp against the np.clip/np.floor reference, bit for bit."""

    @pytest.mark.parametrize("nx, ny", [(128, 128), (37, 20), (1, 16), (16, 1), (1, 1), (2, 2)])
    def test_bit_equal_to_reference(self, rng, nx, ny):
        grid = IntensityGrid(W, nx, ny, rng.gamma(2.0, 1.0, (ny, nx)), 20.0)
        x, y = _probe_points(grid, rng)
        got = grid.interp(x, y)
        assert got.shape == x.shape
        assert np.array_equal(got, interp_reference(grid, x, y))

    def test_negative_values_bit_equal(self, rng):
        # residual surfaces reuse the container and may be negative
        grid = IntensityGrid(W, 24, 30, rng.normal(0.0, 1.0, (30, 24)), 20.0)
        x, y = _probe_points(grid, rng)
        assert np.array_equal(grid.interp(x, y), interp_reference(grid, x, y))

    @pytest.mark.parametrize("nx, ny", [(64, 64), (1, 8), (8, 1)])
    def test_scalar_and_zero_d_input(self, rng, nx, ny):
        grid = IntensityGrid(W, nx, ny, rng.gamma(2.0, 1.0, (ny, nx)), 20.0)
        for x, y in [(123.4, 567.8), (0.0, 768.0), (-5.0, 900.0), (385, 384)]:
            for args in [(x, y), (np.array(x), np.array(y))]:
                got = grid.interp(*args)
                ref = interp_reference(grid, *args)
                assert np.ndim(got) == 0
                assert got == ref

    def test_inputs_left_unmodified(self, rng):
        grid = IntensityGrid(W, 37, 20, rng.gamma(2.0, 1.0, (20, 37)), 20.0)
        x, y = _probe_points(grid, rng)
        for args in [(x, y), (x[0], y[0]), (np.array(x[0]), np.array(y[0])),
                     (x.astype(int), y.astype(int))]:
            before = [np.copy(a) for a in args]
            grid.interp(*args)
            for a, b in zip(args, before):
                assert np.array_equal(a, b, equal_nan=True)

    def test_corner_and_centre_values(self):
        vals = np.arange(12.0).reshape(3, 4)
        grid = IntensityGrid(W, 4, 3, vals, 20.0)
        cx, cy = grid.centers_x(), grid.centers_y()
        assert grid.interp(cx[2], cy[1]) == vals[1, 2]
        # clamped at the rim: the window corner takes the corner cell's value
        assert grid.interp(W.x_max, W.y_max) == vals[2, 3]
        assert grid.interp(W.x_min - 10.0, W.y_min - 10.0) == vals[0, 0]
        # halfway between two centres
        assert grid.interp((cx[0] + cx[1]) / 2, cy[0]) == pytest.approx(0.5)


class TestEdgeCorrection:
    def test_bounds(self, rng):
        xs = rng.uniform(0, 770, 200)
        ys = rng.uniform(0, 768, 200)
        c = edge_correction(xs, ys, W, 15.0)
        assert np.all(c > 0) and np.all(c <= 1.0)

    def test_corner_and_edge_limits(self):
        h = W.width / 50.0
        assert edge_correction(0.0, 0.0, W, h) == pytest.approx(0.25, abs=0.005)
        assert edge_correction(0.0, 384.0, W, h) == pytest.approx(0.5, abs=0.005)
        assert edge_correction(385.0, 0.0, W, h) == pytest.approx(0.5, abs=0.005)


def brute_force_lscv(points, w, h, nx, ny):
    """Literal leave-one-out evaluation of the cross-validation score.

    Every leave-one-out density is rebuilt and renormalized from scratch by
    explicit grid sums, independent of the incremental bookkeeping in the
    implementation.
    """
    points = np.asarray(points, float)
    n = len(points)
    xs = w.x_min + (np.arange(nx) + 0.5) * (w.width / nx)
    ys = w.y_min + (np.arange(ny) + 0.5) * (w.height / ny)
    ex, ey = np.meshgrid(xs, ys)
    cell = (w.width / nx) * (w.height / ny)

    def lam(pts_subset, at_x, at_y):
        total = np.zeros(np.shape(at_x), dtype=float)
        for px, py in pts_subset:
            d2 = (at_x - px) ** 2 + (at_y - py) ** 2
            total += np.exp(-d2 / (2 * h * h))
        total /= 2 * np.pi * h * h
        return total / edge_correction(at_x, at_y, w, h)

    full = lam(points, ex, ey)
    int_f2 = float(((full / (full.sum() * cell)) ** 2).sum() * cell)
    loo_sum = 0.0
    for i in range(n):
        rest = np.delete(points, i, axis=0)
        mass = float(lam(rest, ex, ey).sum() * cell)
        loo_sum += float(lam(rest, points[i, 0], points[i, 1])) / mass
    return int_f2 - 2.0 / n * loo_sum


class TestBandwidthCV:
    def test_peak_memory_under_three_factor_matrices(self):
        # the pair-tile buffers are freed before the grid factors are built,
        # and each h's factors before the next h's; it peaked at 6.9 of these
        n = 1_300
        pts = mixture_points(np.random.default_rng(8), n, 400.0, 350.0)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                select_bandwidth_cv(pts, W, np.geomspace(8.0, 64.0, 9), 128, 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 128 * n * 8

    def test_score_matches_brute_force(self, rng):
        pts = rng.uniform([100, 100], [650, 650], size=(30, 2))
        h_grid = (8.0, 15.0, 60.0)
        fast = _lscv_scores(pts, W, h_grid, 24, 24)
        for h, score in zip(h_grid, fast):
            assert score == pytest.approx(brute_force_lscv(pts, W, h, 24, 24), rel=1e-9)

    def test_single_candidate_returned(self, rng):
        pts = rng.uniform([100, 100], [600, 600], size=(50, 2))
        assert select_bandwidth_cv(pts, W, [23.0], 48, 48).h == 23.0

    def test_moderate_beats_tiny_on_uniform(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform([0, 0], [770, 768], size=(500, 2))
        tiny, moderate = 2.0, 60.0
        s_tiny, s_mod = _lscv_scores(pts, W, (tiny, moderate), 64, 64)
        assert s_mod < s_tiny
        with pytest.warns(UserWarning, match="edge of h_grid"):
            assert select_bandwidth_cv(pts, W, [tiny, moderate], 64, 64).h == moderate

    def test_warns_at_either_edge_of_the_grid(self):
        # a tight cluster wants a small h, a uniform spread a large one
        rng = np.random.default_rng(3)
        cluster = rng.normal([385, 384], 4.0, size=(60, 2))
        uniform = rng.uniform([0, 0], [770, 768], size=(300, 2))
        with pytest.warns(UserWarning, match=r"bandwidth 40 is at the edge of h_grid \[40, 80\]"):
            assert select_bandwidth_cv(cluster, W, [80.0, 40.0, 60.0], 48, 48).h == 40.0
        with pytest.warns(UserWarning, match=r"bandwidth 6 is at the edge of h_grid \[2, 6\]"):
            assert select_bandwidth_cv(uniform, W, [2.0, 6.0, 4.0], 48, 48).h == 6.0

    def test_interior_or_single_choice_is_silent(self):
        rng = np.random.default_rng(3)
        clusters = np.vstack([
            rng.normal([200, 200], 35, size=(100, 2)),
            rng.normal([560, 540], 35, size=(100, 2)),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_bandwidth_cv(clusters, W, [400.0, 20.0, 2.0], 48, 48).h == 20.0
            assert select_bandwidth_cv(clusters, W, [6.0, 6.0], 48, 48).h == 6.0
            assert select_bandwidth_cv(clusters, W, [23.0], 48, 48).h == 23.0

    def test_clusters_prefer_smaller_h_than_uniform(self):
        rng = np.random.default_rng(7)
        n = 400
        uniform = rng.uniform([0, 0], [770, 768], size=(n, 2))
        half = n // 2
        clusters = np.vstack(
            [
                rng.normal([200, 200], 35, size=(half, 2)),
                rng.normal([560, 540], 35, size=(n - half, 2)),
            ]
        ).clip([0, 0], [770, 768])
        h_grid = [8.0, 16.0, 32.0, 64.0, 128.0]
        with pytest.warns(UserWarning, match="edge of h_grid"):
            h_uni = select_bandwidth_cv(uniform, W, h_grid, 64, 64).h
        h_clu = select_bandwidth_cv(clusters, W, h_grid, 64, 64).h
        assert h_clu < h_uni

    @pytest.mark.parametrize("h_grid", [[np.nan, 20.0, 40.0], [20.0, np.inf], [-np.inf, 20.0]])
    def test_non_finite_candidate_rejected(self, h_grid):
        # a leading NaN used to be dropped by the argmin and to hide the edge
        # warning, and inf scored with divide warnings
        pts = np.random.default_rng(4).uniform([100, 100], [600, 600], size=(50, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="h_grid"):
                select_bandwidth_cv(pts, W, h_grid, 24, 24)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            select_bandwidth_cv(np.ones((5, 2)) * 100, W, [10.0])
        with pytest.raises(DataError, match="at least 10 points .* got 0"):
            select_bandwidth_cv(np.empty((0, 2)), W, [10.0])


def _rim_and_duplicates(rng, n):
    """n points: corners, edge points, exact duplicates and a uniform rest."""
    rim = np.array([[W.x_min, W.y_min], [W.x_max, W.y_max], [W.x_min, W.y_max],
                    [W.x_max, 300.0], [250.0, W.y_min], [W.x_min, 400.0]])
    base = np.vstack([rim, rng.uniform([0, 0], [770, 768], size=(max(n, 12), 2))])[:n]
    base[-4:] = base[:4]  # duplicates of corner points: d^2 = 0 off the diagonal
    base[n // 2] = base[n // 2 - 1]
    return base


def _reference_choice(points, h_grid, nx, ny):
    scores = np.array([lscv_score_reference(points, W, h, nx, ny) for h in h_grid])
    h = h_grid[int(np.argmin(scores))]
    return h, min(h_grid) < max(h_grid) and h in (min(h_grid), max(h_grid))


class TestLscvEngine:
    """The one-pass grid engine against the per-bandwidth route it replaced."""

    @pytest.mark.parametrize("n", [10, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    def test_matches_reference_around_the_tile(self, rng, n):
        pts = _rim_and_duplicates(rng, n)
        h_grid = (40.0, 6.0, 40.0, 120.0, 15.0)  # unsorted, with a repeat
        got = _lscv_scores(pts, W, h_grid, 32, 24)
        ref = [lscv_score_reference(pts, W, h, 32, 24) for h in h_grid]
        assert got.shape == (len(h_grid),)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert got[0] == got[2]

    def test_pairs_beyond_the_exp_floor_leave_no_trace(self):
        # 80 px apart at h <= 3, every pair but the self pair is floored at
        # e^-700 where the reference underflows to 0: the scores must agree
        # as if those pairs were 0
        g = np.arange(40.0, 740.0, 80.0)
        pts = np.array([(x, y) for x in g for y in g])
        h_grid = (2.0, 3.0, 30.0)
        got = _lscv_scores(pts, W, h_grid, 32, 32)
        ref = [lscv_score_reference(pts, W, h, 32, 32) for h in h_grid]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_single_bandwidth(self, rng):
        pts = _rim_and_duplicates(rng, _TILE + 5)
        got = _lscv_scores(pts, W, (23.0,), 48, 48)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(lscv_score_reference(pts, W, 23.0, 48, 48), rel=1e-12)

    @pytest.mark.parametrize("layout", ["clusters", "uniform"])
    def test_bench_sized_choice_matches_reference(self, layout):
        # 1 296 points per group, as in the benchmark's compare workload; the
        # clusters pick an interior h and the uniform set the grid's top
        rng = np.random.default_rng(741)
        if layout == "clusters":
            centres = rng.uniform(140, 630, size=(4, 2))
            pts = np.vstack([mixture_points(rng, 324, cx, cy, sd=45.0) for cx, cy in centres])
        else:
            pts = rng.uniform([0, 0], [770, 768], size=(1296, 2))
        h_grid = tuple(np.geomspace(8.0, 64.0, 9))
        h_ref, edge_ref = _reference_choice(pts, h_grid, 128, 128)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cv = select_bandwidth_cv(pts, W, h_grid)
        assert cv.h == h_ref
        assert cv.at_edge == edge_ref == (layout == "uniform")
        assert len(caught) == int(edge_ref)
        np.testing.assert_allclose(
            cv.scores, [lscv_score_reference(pts, W, h, 128, 128) for h in h_grid],
            rtol=1e-12, atol=0,
        )

    def test_full_output_table(self):
        rng = np.random.default_rng(3)
        cluster = rng.normal([385, 384], 4.0, size=(60, 2))
        with pytest.warns(UserWarning, match="edge of h_grid"):
            cv = select_bandwidth_cv(cluster, W, [80.0, 40.0, 60.0], 48, 48)
        assert cv.h_grid == (80.0, 40.0, 60.0)
        assert (cv.h, cv.at_edge) == (40.0, True)
        assert int(np.argmin(cv.scores)) == 1
        d = cv.to_dict()
        assert d == {"h_grid": [80.0, 40.0, 60.0], "scores": [float(v) for v in cv.scores],
                     "h": 40.0, "at_edge": True}

    def test_non_finite_score_is_written_as_null(self, rng):
        # at h far below the cell size every grid factor underflows and the
        # score is NaN; JSON has no NaN, so the table writes null. The NaN is
        # named in a warning of its own, and no numpy warning leaks
        pts = rng.uniform([100, 100], [600, 600], size=(40, 2))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cv = select_bandwidth_cv(pts, W, [0.01, 30.0], 4, 4)
        messages = sorted(str(r.message) for r in record)
        assert [r.category for r in record] == [UserWarning, UserWarning]
        assert messages[0] == "cross-validated bandwidth 30 is at the edge of h_grid [0.01, 30]"
        assert messages[1] == "cross-validation score is not finite at h = 0.01; skipped"
        assert np.isnan(cv.scores[0]) and cv.h == 30.0
        assert cv.to_dict()["scores"] == [None, float(cv.scores[1])]


class TestResiduals:
    def _dataset(self, point_sets, interval=30_000.0):
        # one sequence per interval, its fixations early in that interval
        seqs = []
        for i, pts in enumerate(point_sets):
            rows = [(x, y, i * interval + j * 100.0, 50.0) for j, (x, y) in enumerate(pts)]
            seqs.append(sequence(f"s{i}", "novice", "koli", rows))
        return Dataset(window=W, sequences=seqs,
                       trial_length=interval * len(point_sets))

    def test_identical_intervals_give_zero(self, rng):
        pts = rng.uniform([100, 100], [600, 600], size=(30, 2))
        d = self._dataset([pts, pts, pts])
        grids = residual_intensities(d, 30_000.0, h=20.0, nx=32, ny=32)
        for g in grids:
            assert np.max(np.abs(g.values)) < 1e-12

    def test_two_intervals_antisymmetric(self, rng):
        d = self._dataset(
            [rng.uniform([50, 50], [300, 300], (25, 2)),
             rng.uniform([400, 400], [700, 700], (25, 2))]
        )
        g1, g2 = residual_intensities(d, 30_000.0, h=25.0, nx=32, ny=32)
        assert np.allclose(g1.values, -g2.values, atol=1e-12)

    def test_six_intervals_sum_to_zero(self, rng):
        d = self._dataset([rng.uniform([20, 20], [750, 748], (20, 2)) for _ in range(6)])
        grids = residual_intensities(d, 30_000.0, h=20.0, nx=32, ny=32)
        assert len(grids) == 6
        total = sum(g.values for g in grids)
        assert np.max(np.abs(total)) < 1e-9

    def test_empty_interval_warns(self, rng):
        pts = rng.uniform([100, 100], [600, 600], size=(10, 2))
        d = self._dataset([pts])
        d.trial_length = 60_000.0  # second interval has no fixations
        with pytest.warns(UserWarning, match="no fixations"):
            residual_intensities(d, 30_000.0, h=20.0, nx=16, ny=16)

    def test_one_interval_rejected(self, rng):
        # one interval has no mean to differ from: its residual would be all zeros
        d = self._dataset([rng.uniform([100, 100], [600, 600], size=(10, 2))])
        with pytest.raises(DataError, match="30000.0"):
            residual_intensities(d, 30_000.0, h=20.0, nx=16, ny=16)

    def test_bandwidth_is_required(self, rng):
        # h used to default to 17 px, whatever the data
        d = self._dataset([rng.uniform([100, 100], [600, 600], size=(10, 2))] * 2)
        with pytest.raises(TypeError):
            residual_intensities(d, 30_000.0, nx=16, ny=16)


class TestQuadrat:
    def test_balanced_counts(self):
        # one point per quadrat center of a 2x2 partition
        pts = [[192, 192], [578, 192], [192, 576], [578, 576]]
        with pytest.warns(UserWarning, match="chi-square approximation"):
            res = quadrat_chisq(pts, W, 2)
        assert res.statistic == 0.0
        assert res.p == 1.0
        assert res.df == 3

    def test_hand_computed_statistic(self):
        pts = np.tile([[100.0, 100.0]], (100, 1))
        res = quadrat_chisq(pts, W, 2)
        # 75^2/25 + 3 * 25^2/25 = 300
        assert res.statistic == pytest.approx(300.0)
        assert res.p < 0.001

    def test_clustered_pattern_rejects(self, rng):
        pts = rng.normal([300, 300], 40, size=(300, 2)).clip([0, 0], [770, 768])
        res = quadrat_chisq(pts, W, 3)
        assert res.p < 0.001

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            quadrat_chisq(np.empty((0, 2)), W, 2)

    def test_uniform_p_values_under_csr(self):
        rng = np.random.default_rng(99)
        ps = []
        for _ in range(200):
            n = rng.poisson(300)
            pts = rng.uniform([0, 0], [770, 768], size=(n, 2))
            ps.append(quadrat_chisq(pts, W, 3).p)
        assert kstest(ps, "uniform").pvalue > 0.01


class TestChisqSf:
    def test_zero_statistic(self):
        assert chisq_sf(0.0, 5) == 1.0

    def test_reference_fisher_value(self):
        assert chisq_sf(12.685, 12) == pytest.approx(0.392, abs=1e-3)

    def test_exponential_special_case(self):
        assert chisq_sf(2.0, 2) == pytest.approx(np.exp(-1), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DataError):
            chisq_sf(-1.0, 2)
