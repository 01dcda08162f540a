import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fixproc import (
    DataError,
    StepCurve,
    Window,
    ball_union_coverage,
    convex_hull,
    convex_hull_coverage,
    curve_rows,
    polygon_area,
    resample_curve,
    scanpath_length,
    transition_curves,
)
from fixproc import summaries
from fixproc.core import quadrants
from fixproc.summaries import STATS
from helpers import (
    WINDOW,
    ball_union_coverage_recount,
    ball_values_reference,
    convex_hull_coverage_prefix,
    convex_hull_exact,
    convex_hull_unique,
    curve_rows_reference,
    disc_box_reference,
    disc_raster,
    hull_values_reference,
    quadrant_reference,
    sequence,
    transition_estimates_reference,
    transition_estimates_whole,
    transition_table_per_step,
)

W = WINDOW


def seq_at(points, dt=500.0):
    rows = [(x, y, i * dt, 200.0) for i, (x, y) in enumerate(points)]
    return sequence("s", "novice", "koli", rows)


def hull_area_by_enumeration(points):
    """Max shoelace area over all point subsets in convex position.

    The largest-area convex polygon with vertices among the points is the
    convex hull, so exhaustive enumeration is an independent oracle.
    """
    points = np.asarray(points, float)
    n = len(points)
    best = 0.0
    for r in range(3, n + 1):
        for combo in itertools.combinations(range(n), r):
            sub = points[list(combo)]
            center = sub.mean(axis=0)
            order = np.argsort(np.arctan2(sub[:, 1] - center[1], sub[:, 0] - center[0]))
            poly = sub[order]
            # convex position: all cross products share a sign
            rolled = np.roll(poly, -1, axis=0)
            rolled2 = np.roll(poly, -2, axis=0)
            cross = (rolled[:, 0] - poly[:, 0]) * (rolled2[:, 1] - rolled[:, 1]) - (
                rolled[:, 1] - poly[:, 1]
            ) * (rolled2[:, 0] - rolled[:, 0])
            if np.all(cross >= -1e-12) or np.all(cross <= 1e-12):
                best = max(best, polygon_area(poly))
    return best


def _coordinate(hi: float, dyadic: bool):
    """Rim, centre-line, integer-lattice or other in-window coordinate.

    With ``dyadic`` the other coordinates are multiples of 2**-10 px. In a
    window under 1024 px every hull orientation test on such points is then
    computed exactly, so the hull is the exact one however it is built.
    """
    free = (
        st.integers(0, int(hi * 1024)).map(lambda k: k / 1024.0)
        if dyadic
        else st.floats(0.0, hi, allow_nan=False, allow_infinity=False)
    )
    return st.one_of(
        st.sampled_from([0.0, hi / 2.0, hi]), st.integers(0, int(hi)).map(float), free
    )


@st.composite
def fixation_paths(draw, min_size=1, max_size=25, dyadic=False):
    """Point sequences with duplicates and, optionally, a collinear start."""
    point = st.tuples(_coordinate(W.width, dyadic), _coordinate(W.height, dyadic))
    pts = draw(st.lists(point, min_size=min_size, max_size=max_size))
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(0, 400)), draw(st.integers(300, 460))
        dx, dy = draw(st.integers(0, 30)), draw(st.integers(-30, 30))
        count = draw(st.integers(1, 9))
        pts = [(float(x0 + k * dx), float(y0 + k * dy)) for k in range(count)] + pts
    for _ in range(draw(st.integers(0, 3)) if pts else 0):
        i = draw(st.integers(0, len(pts) - 1))
        pts.insert(draw(st.integers(i, len(pts))), pts[i])
    return pts


def _same_curve(a: StepCurve, b: StepCurve) -> bool:
    return (
        np.array_equal(a.knots, b.knots)
        and np.array_equal(a.values, b.values, equal_nan=True)
        and a.domain_end == b.domain_end
    )


_CORNERS = [(0.0, 0.0), (770.0, 0.0), (770.0, 768.0), (0.0, 768.0)]


class TestIncrementalMatchesRecount:
    """The incremental summaries equal the whole-recount references exactly."""

    @settings(max_examples=100)
    @given(fixation_paths(), st.sampled_from([1.0, 4.0]))
    @example([(385.0, 384.0)], 1.0)
    @example(_CORNERS + [(385.0, 0.0), (0.0, 384.0)], 1.0)
    @example([(10.0, 10.0), (10.0, 10.0), (10.0, 10.0)], 4.0)
    def test_ball_union_coverage(self, pts, raster):
        seq = seq_at(pts)
        for radius in (raster, 35.0):
            fast = ball_union_coverage(seq, W, radius, raster, domain_end=1e6)
            slow = ball_union_coverage_recount(seq, W, radius, raster, domain_end=1e6)
            assert _same_curve(fast, slow)

    @settings(max_examples=200)
    @given(fixation_paths(max_size=40))
    @example([(5.0, 5.0), (5.0, 5.0)])
    def test_convex_hull_vertices(self, pts):
        hull = convex_hull(pts)
        ref = convex_hull_unique(pts)
        assert hull.shape == ref.shape and np.array_equal(hull, ref)

    # Exact for points whose orientation tests are exact. With arbitrary
    # floats, a point within rounding distance of a hull edge can make the
    # prefix hull and the incremental hull differ in the last bit of the
    # area; neither is then the exact hull.
    @settings(max_examples=200)
    @given(fixation_paths(dyadic=True))
    @example([(100.0, 100.0)])
    @example(_CORNERS + [(385.0, 384.0), (770.0, 384.0)])
    @example([(0.0, 0.0), (10.0, 10.0), (20.0, 20.0), (5.0, 5.0), (30.0, 0.0), (20.0, 20.0)])
    @example([(1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_convex_hull_coverage(self, pts):
        seq = seq_at(pts)
        assert _same_curve(convex_hull_coverage(seq, W), convex_hull_coverage_prefix(seq, W))

    @settings(max_examples=200)
    @given(fixation_paths(min_size=2))
    @example([(10.0, 10.0), (20.0, 20.0)])
    @example([(10.0, 10.0), (20.0, 20.0), (30.0, 15.0)])
    @example(_CORNERS * 2)
    def test_transition_curves(self, pts):
        seq = seq_at(pts)
        tc = transition_curves(seq, W)
        table, n_ab, n_a = transition_table_per_step(seq, W)
        assert np.array_equal(tc.counts, n_ab)
        assert np.array_equal(tc.counts.sum(axis=1), n_a)
        for a in range(4):
            for b in range(4):
                c = tc.curves[a][b]
                assert np.array_equal(c.knots, np.concatenate([[0.0], seq.onsets[1:]]))
                assert np.array_equal(c.values[1:], table[:, a, b], equal_nan=True)
                assert np.isnan(c.values[0])

    def test_unvisited_rows_stay_nan(self):
        # every transition starts in quadrant 1, so rows 2-4 are never visited
        tc = transition_curves(seq_at([(10, 10), (20, 20), (30, 30), (600, 600)]), W)
        for a in (1, 2, 3):
            for b in range(4):
                assert np.isnan(tc.curves[a][b].values).all()
        assert np.array_equal(tc.counts.sum(axis=1), [3, 0, 0, 0])


@st.composite
def near_edge_paths(draw):
    """Fixation paths with points inserted within a few ulps of a segment
    between two earlier points, where the float edge test is closest to 0."""
    pts = draw(fixation_paths(min_size=2))
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
        t = draw(st.floats(0.0, 1.0))
        (ax, ay), (bx, by) = pts[i], pts[j]
        p = [ax + t * (bx - ax), ay + t * (by - ay)]
        axis, ulps = draw(st.integers(0, 1)), draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            p[axis] = float(np.nextafter(p[axis], np.inf if ulps > 0 else -np.inf))
        pts.insert(draw(st.integers(max(i, j) + 1, len(pts))), (p[0], p[1]))
    return pts


class TestMatchesPerPointLoops:
    """Skip-ahead hull and batched disc masks equal the per-point loops on
    arbitrary float paths, value for value."""

    @settings(max_examples=200)
    @given(st.one_of(fixation_paths(min_size=0, max_size=40), near_edge_paths()),
           st.sampled_from([1, 16, summaries._HULL_BLOCK]))
    @example([], 16)
    @example([(5.0, 5.0)], 16)
    @example([(5.0, 5.0), (5.0, 5.0)], 16)
    @example([(0.0, 0.0), (10.0, 10.0), (20.0, 20.0)], 16)
    @example([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 1)
    @example([(0.0, 0.0), (10.0, 10.0), (20.0, 20.0), (5.0, 5.0), (30.0, 0.0), (20.0, 20.0)], 1)
    @example(_CORNERS + [(385.0, 0.0), (770.0, 384.0), (385.0, 384.0)] * 3, 1)
    def test_hull_values(self, pts, block):
        seq = seq_at(pts)
        with mock.patch.object(summaries, "_HULL_BLOCK", block):
            got = summaries._hull_values(seq.locations, W)
        assert got.tolist() == hull_values_reference(seq, W)

    def test_hull_blocks_cover_long_paths(self, rng):
        # a hull that stops growing early: later fixations are tested in
        # several blocks before the next one falls outside
        pts = np.vstack([_CORNERS[:3], rng.uniform(100, 600, (3_000, 2)), [(770.0, 768.0)]])
        seq = seq_at(pts, dt=10.0)
        got = summaries._hull_values(seq.locations, W)
        assert got.tolist() == hull_values_reference(seq, W)

    @settings(max_examples=100)
    @given(fixation_paths(min_size=0), st.sampled_from([1.0, 2.0, 4.0]),
           st.booleans(), st.sampled_from([1, 2**16, summaries._MASK_BYTES]))
    @example(_CORNERS + [(385.0, 0.0), (770.0, 384.0), (385.0, 768.0), (0.0, 384.0)],
             1.0, False, 1)
    @example(_CORNERS + [(385.0, 0.0), (770.0, 384.0), (385.0, 768.0), (0.0, 384.0)],
             4.0, True, 2**16)
    def test_ball_values(self, pts, raster, radius_is_raster, mask_bytes):
        # rim coordinates clip discs at every window edge
        radius = raster if radius_is_raster else 35.0
        seq = seq_at(pts)
        with mock.patch.object(summaries, "_MASK_BYTES", mask_bytes):
            got = summaries._ball_values(seq.locations, W, radius, raster)
        assert got.tolist() == ball_values_reference(seq, W, radius, raster)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("raster", [1.0, 2.0, 4.0])
    def test_ball_batch_boundaries(self, rng, raster, extra):
        # discs at one offset inside their cells, away from the rim, all have
        # the same box, so the batch size is known: sequences end one short
        # of, on, and one past a batch boundary
        radius = 35.0
        nx, ny, cw, ch = disc_raster(W, raster)
        x0, x1, y0, y1 = disc_box_reference(W.x_min + 50.3 * cw, W.y_min + 50.3 * ch,
                                            W, radius, raster)
        batch = max(1, summaries._MASK_BYTES // (8 * (x1 - x0) * (y1 - y0)))
        margin = int(radius / min(cw, ch)) + 3
        n = batch + extra
        xs = W.x_min + (rng.integers(margin, nx - margin, n) + 0.3) * cw
        ys = W.y_min + (rng.integers(margin, ny - margin, n) + 0.3) * ch
        boxes = [disc_box_reference(x, y, W, radius, raster) for x, y in zip(xs, ys)]
        assert {(b[1] - b[0], b[3] - b[2]) for b in boxes} == {(x1 - x0, y1 - y0)}
        seq = seq_at(np.column_stack([xs, ys]))
        assert summaries._ball_values(seq.locations, W, radius, raster).tolist() == (
            ball_values_reference(seq, W, radius, raster)
        )


class TestConvexHullExact:
    def test_near_degenerate_vertex_kept(self):
        # the float cross product of (0, 384) -> (1, 0) -> (1, 7.25e-285)
        # rounds to 0, which would drop the true vertex (1, 0)
        pts = [(0.0, 384.0), (1.0, 0.0), (1.0, 7.25e-285)]
        assert convex_hull(pts).tolist() == [[0.0, 384.0], [1.0, 0.0], [1.0, 7.25e-285]]

    @settings(max_examples=200)
    @given(fixation_paths(max_size=30))
    @example([(0.0, 384.0), (1.0, 0.0), (1.0, 7.25e-285)])
    @example([(0.0, 0.0), (0.1, 0.1), (0.3, 0.3), (0.7, 0.7 + 2**-50)])
    def test_matches_exact_orientation(self, pts):
        assert np.array_equal(convex_hull(pts), convex_hull_exact(pts))

    def test_fixation_just_outside_an_edge_grows_the_hull(self):
        # the fourth point lies outside the triangle's edge from the third
        # vertex back to the first, but its float cross product there is 0.0
        pts = [(169.16259490502188, 535.3008897279934), (254.01941214225334, 597.5949167328752),
               (509.08690801770456, 183.82436831293995), (195.96254847470763, 554.9749369731579)]
        locs = np.array(pts)
        assert len(convex_hull_exact(pts)) == 4
        assert summaries._hull_values(locs, W)[3] == polygon_area(convex_hull(locs)) / W.area


class TestConvexHullCoverage:
    def test_zero_before_three_points(self):
        c = convex_hull_coverage(seq_at([(10, 10), (100, 100)]), W)
        assert np.all(c.values == 0.0)

    def test_hand_computed_triangle(self):
        c = convex_hull_coverage(seq_at([(0, 0), (10, 0), (0, 10)]), W)
        assert c.values[-1] == pytest.approx(50.0 / (770 * 768))

    def test_four_corners_cover_everything(self):
        c = convex_hull_coverage(seq_at([(0, 0), (770, 0), (0, 768), (770, 768)]), W)
        assert c.values[-1] == pytest.approx(1.0)

    def test_collinear_points_zero(self):
        c = convex_hull_coverage(seq_at([(0, 0), (10, 10), (20, 20), (30, 30)]), W)
        assert np.all(c.values == 0.0)

    def test_matches_enumeration_oracle(self, rng):
        for trial in range(8):
            pts = rng.uniform([0, 0], [770, 768], size=(rng.integers(3, 13), 2))
            chain = polygon_area(convex_hull(pts))
            assert chain == pytest.approx(hull_area_by_enumeration(pts), abs=1e-9)

    def test_insertion_order_irrelevant(self, rng):
        pts = rng.uniform([0, 0], [770, 768], size=(10, 2))
        base = polygon_area(convex_hull(pts))
        for _ in range(5):
            perm = rng.permutation(10)
            assert polygon_area(convex_hull(pts[perm])) == pytest.approx(base, abs=1e-12)

    def test_nondecreasing(self, rng):
        pts = rng.uniform([0, 0], [770, 768], size=(40, 2))
        c = convex_hull_coverage(seq_at(pts), W)
        assert np.all(np.diff(c.values) >= 0)
        assert np.all((c.values >= 0) & (c.values <= 1))


class TestBallUnionCoverage:
    def test_single_disc_area(self):
        c = ball_union_coverage(seq_at([(385, 384)]), W, radius=35.0, raster=1.0)
        expected = np.pi * 35.0**2 / (770 * 768)
        assert c.values[-1] == pytest.approx(expected, rel=0.01)

    def test_duplicate_fixation_idempotent(self):
        one = ball_union_coverage(seq_at([(200, 200)]), W, 35.0, 2.0)
        two = ball_union_coverage(seq_at([(200, 200), (200, 200.001)]), W, 35.0, 2.0)
        assert two.values[-1] == pytest.approx(one.values[-1], abs=1e-12)

    def test_dense_grid_saturates(self):
        xs = np.linspace(10, 760, 20)
        ys = np.linspace(10, 758, 20)
        pts = [(x, y) for x in xs for y in ys]
        c = ball_union_coverage(seq_at(pts), W, radius=60.0, raster=4.0)
        assert c.values[-1] == pytest.approx(1.0, abs=0.01)

    def test_coarse_raster_rejected(self):
        with pytest.raises(DataError):
            ball_union_coverage(seq_at([(100, 100)]), W, radius=5.0, raster=10.0)

    @pytest.mark.parametrize("radius, raster", [
        (35.0, -1.0), (35.0, 0.0), (35.0, np.nan), (35.0, np.inf), (35.0, -np.inf),
        (-35.0, 1.0), (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
    ])
    def test_radius_and_raster_must_be_positive_and_finite(self, radius, raster):
        with pytest.raises(DataError, match="must be positive and finite"):
            ball_union_coverage(seq_at([(100, 100)]), W, radius=radius, raster=raster)

    @pytest.mark.parametrize("x, y", [(np.nan, 100.0), (100.0, np.inf)])
    def test_non_finite_location_rejected(self, x, y):
        with pytest.raises(DataError, match="finite"):
            ball_union_coverage(seq_at([(100, 100), (x, y)]), W, 35.0, 1.0)

    def test_disc_outside_the_window_covers_nothing(self):
        # discs wholly left of, above, right of and below the window
        pts = [(-500.0, 384.0), (385.0, -500.0), (1500.0, 384.0), (385.0, 1500.0)]
        c = ball_union_coverage(seq_at(pts + [(385.0, 384.0)]), W, 35.0, 2.0)
        assert np.all(c.values[:-1] == 0.0) and c.values[-1] > 0.0

    def test_holds_its_raster_and_one_mask_batch(self, rng):
        # the float sums of one batch of disc masks stay under 2**18 bytes and
        # are freed before the next batch's; the rest is the bool masks,
        # numpy's ufunc buffers and a few numbers per fixation
        locs = rng.uniform([0, 0], [770, 768], size=(200, 2))
        raster = 770 * 768
        tracemalloc.start()
        try:
            summaries._ball_values(locs, W, 35.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= raster + 2**18 + 2**17 + 256 * len(locs)

    def test_nondecreasing(self, rng):
        pts = rng.uniform([0, 0], [770, 768], size=(30, 2))
        c = ball_union_coverage(seq_at(pts), W, 35.0, 4.0)
        assert np.all(np.diff(c.values) >= 0)
        assert np.all((c.values >= 0) & (c.values <= 1))


class TestScanpathLength:
    def test_single_fixation_zero(self):
        c = scanpath_length(seq_at([(100, 100)]))
        assert np.all(c.values == 0.0)

    def test_three_four_five_then_flat(self):
        c = scanpath_length(seq_at([(0, 0), (3, 4), (3, 4.0000000001)]))
        assert c.values[1] == pytest.approx(5.0)
        assert c.values[-1] == pytest.approx(5.0)

    def test_matches_brute_force(self, rng):
        pts = rng.uniform([0, 0], [770, 768], size=(100, 2))
        c = scanpath_length(seq_at(pts))
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            total += float(np.hypot(b[0] - a[0], b[1] - a[1]))
        assert c.values[-1] == pytest.approx(total, abs=1e-9)

    def test_additivity_over_windows(self, rng):
        pts = rng.uniform([0, 0], [770, 768], size=(30, 2))
        seq = seq_at(pts, dt=100.0)
        c = scanpath_length(seq)
        t1, t2 = 450.0, 2050.0
        jump_times = seq.onsets[1:]
        lengths = np.hypot(*np.diff(seq.locations, axis=0).T)
        expected = lengths[(jump_times > t1) & (jump_times <= t2)].sum()
        assert c(t2) - c(t1) == pytest.approx(expected, abs=1e-9)


class TestTransitions:
    def test_all_in_one_quadrant(self):
        tc = transition_curves(seq_at([(10, 10), (20, 20), (30, 15)]), W)
        assert tc.curves[0][0].values[-1] == 1.0
        assert tc.curves[0][1].values[-1] == 0.0
        assert np.isnan(tc.curves[1][1].values[-1])

    def test_alternating_quadrants(self):
        pts = [(100, 100), (600, 100)] * 5
        tc = transition_curves(seq_at(pts), W)
        assert tc.curves[0][1].values[-1] == 1.0
        assert tc.curves[1][0].values[-1] == 1.0

    def test_scripted_path_matches_hand_count(self):
        # quadrants: 1 1 2 4 4 3 1 2 2 3
        pts = [
            (100, 100), (200, 150), (600, 100), (600, 600), (500, 700),
            (100, 600), (150, 100), (600, 200), (700, 100), (200, 700),
        ]
        tc = transition_curves(seq_at(pts), W)
        expected = np.zeros((4, 4), dtype=int)
        for a, b in [(1, 1), (1, 2), (2, 4), (4, 4), (4, 3), (3, 1), (1, 2), (2, 2), (2, 3)]:
            expected[a - 1, b - 1] += 1
        assert np.array_equal(tc.counts, expected)

    def test_rows_sum_to_one_at_every_knot(self, rng):
        pts = rng.uniform([0, 0], [770, 768], size=(60, 2))
        seq = seq_at(pts)
        tc = transition_curves(seq, W)
        knots = tc.curves[0][0].knots
        for t in knots[1:]:
            table = np.array([[tc.curves[a][b](t) for b in range(4)] for a in range(4)])
            for a in range(4):
                row = table[a]
                if np.isfinite(row).all():
                    assert row.sum() == pytest.approx(1.0, abs=1e-12)
                else:
                    assert np.isnan(row).all()

    def test_needs_two_fixations(self):
        with pytest.raises(DataError):
            transition_curves(seq_at([(10, 10)]), W)


def _around(v: float) -> list:
    """``v`` and its two float neighbours."""
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


class TestQuadrants:
    # the one-pass states equal the scalar midline reference point by point
    @pytest.mark.parametrize("w", [W, Window(10.0, 20.0, 31.0, 45.0), Window(-3.5, 0.0, 0.1, 0.3)])
    def test_equal_quadrant_of_on_midlines_and_edges(self, w, rng):
        mx, my = (w.x_min + w.x_max) / 2.0, (w.y_min + w.y_max) / 2.0
        xs = [w.x_min, np.nextafter(w.x_min, np.inf), *_around(mx),
              np.nextafter(w.x_max, -np.inf), w.x_max]
        ys = [w.y_min, np.nextafter(w.y_min, np.inf), *_around(my),
              np.nextafter(w.y_max, -np.inf), w.y_max]
        pts = np.vstack([list(itertools.product(xs, ys)),
                         rng.uniform([w.x_min, w.y_min], [w.x_max, w.y_max], (200, 2))])
        got = quadrants(pts, w)
        assert got.tolist() == [quadrant_reference(x, y, w) for x, y in pts.tolist()]

    def test_empty(self):
        assert quadrants(np.empty((0, 2)), W).tolist() == []

    @pytest.mark.parametrize("bad", [(-1e-9, 5.0), (5.0, 768.5), (np.nan, 5.0), (np.inf, 9.0)])
    def test_first_outside_point_raises_its_error(self, bad):
        pts = np.array([(10.0, 10.0), bad, (800.0, 5.0)])
        with pytest.raises(DataError) as ref:
            quadrant_reference(*bad, W)
        with pytest.raises(DataError) as got:
            quadrants(pts, W)
        assert str(got.value) == str(ref.value)
        if not np.isfinite(bad).all():  # a sequence cannot hold it
            with pytest.raises(DataError, match="non-finite locations"):
                seq_at(pts)
            return
        with pytest.raises(DataError, match=r"outside window"):
            curve_rows(seq_at(pts), W, [0.0, 1_000.0], ["scanpath"])


class TestResample:
    def test_constant_curve(self):
        c = StepCurve([0.0], [2.5], 100.0)
        assert np.all(resample_curve(c, np.linspace(0, 100, 11)) == 2.5)

    def test_value_at_knot_is_post_jump(self):
        c = StepCurve([0.0, 50.0], [1.0, 9.0], 100.0)
        assert resample_curve(c, [50.0])[0] == 9.0

    def test_matches_linear_scan(self, rng):
        knots = np.sort(rng.uniform(0, 100, 25))
        knots[0] = 0.0
        values = rng.normal(0, 1, 25)
        c = StepCurve(knots, values, 100.0)
        grid = np.linspace(0, 100, 57)
        fast = resample_curve(c, grid)
        for t, v in zip(grid, fast):
            expected = values[0]
            for kt, kv in zip(knots, values):
                if kt <= t:
                    expected = kv
            assert v == expected

    def test_grid_outside_domain_rejected(self):
        c = StepCurve([0.0], [1.0], 10.0)
        with pytest.raises(DataError):
            resample_curve(c, [0.0, 20.0])


class TestCurveRows:
    """One pass on the grid equals each step curve resampled, bit for bit."""

    @settings(max_examples=100)
    @given(
        fixation_paths(),
        st.sampled_from([0.0, 130.0]),
        st.sampled_from([(), ("ball",), ("scanpath", "hull"), STATS]),
    )
    @example([], 0.0, STATS)
    @example([], 130.0, STATS)
    @example([(10.0, 10.0)], 0.0, STATS)
    @example([(10.0, 10.0)], 130.0, STATS)
    @example([(10.0, 10.0), (700.0, 700.0)], 0.0, STATS)
    @example([(10.0, 10.0), (700.0, 700.0)], 130.0, STATS)
    @example([(float(31 * i % 770), float(47 * i % 768)) for i in range(25)], 130.0, STATS)
    def test_equals_step_curve_route(self, pts, first_onset, stats):
        seq = sequence("s", "novice", "koli", [
            (x, y, first_onset + 500.0 * i, 200.0) for i, (x, y) in enumerate(pts)
        ])
        onsets = seq.onsets
        last = float(onsets[-1]) if len(onsets) else 0.0
        # a regular grid past the last onset, then every onset exactly
        grid = np.concatenate([np.linspace(0.0, last + 1_000.0, 37), onsets])
        got = curve_rows(seq, W, grid, stats, 35.0, 4.0)
        ref = curve_rows_reference(seq, W, grid, stats, 35.0, 4.0)
        assert got.shape == ref.shape == (len(stats) + 16, grid.size)
        assert np.array_equal(got, ref, equal_nan=True)

    def test_only_requested_stats_are_computed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("ball coverage computed")

        monkeypatch.setattr(summaries, "_ball_values", refuse)
        rows = curve_rows(seq_at([(10, 10), (400, 600)]), W, [0.0, 600.0], ["hull"])
        assert rows.shape == (17, 2)


class TestFromSequences:
    """One store of many sequences holds each sequence's curve_rows, bit for bit."""

    @staticmethod
    def sequences():
        # 0, 1, 2 and 40 fixations
        rng = np.random.default_rng(30)
        return [
            sequence(f"s{n}", "novice", "koli", [
                (*rng.uniform([0.0, 0.0], [770.0, 768.0]), 130.0 + 500.0 * i, 200.0)
                for i in range(n)
            ])
            for n in (0, 1, 2, 40)
        ]

    @pytest.mark.parametrize("stats", [STATS, ("ball",)])
    def test_equals_curve_rows_of_each_sequence(self, stats):
        seqs = self.sequences()
        grid = np.linspace(0.0, 21_000.0, 43)
        store = summaries.RunCurves.from_sequences(iter(seqs), 4, W, grid, stats, 35.0, 4.0)
        ref = np.stack([curve_rows(s, W, grid, stats, 35.0, 4.0) for s in seqs], axis=1)
        assert store.shape == ref.shape == (len(stats) + 16, 4, 43)
        assert np.asarray(store).tobytes() == ref.tobytes()
        assert store.counts.tolist() == [0, 1, 2, 40]
        assert store.stats == stats and store.grid.tobytes() == grid.tobytes()

    def test_defined_runs(self):
        store = summaries.RunCurves.from_sequences(self.sequences(), 4, W, [0.0, 1.0])
        for j in range(len(STATS)):
            assert store.defined_runs(j).tolist() == [0, 1, 2, 3]
        for j in range(len(STATS), len(store)):
            assert store.defined_runs(j).tolist() == [2, 3]
        with pytest.raises(IndexError):
            store.defined_runs(len(store))

    # 4 sequences: two long, one long and one short
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_yielding_more_or_fewer_is_an_error(self, n):
        seqs = self.sequences()
        pulled = []

        def one_at_a_time():
            for s in seqs:
                pulled.append(s)
                yield s

        with pytest.raises(ValueError, match=f"{n} sequences expected, got "):
            summaries.RunCurves.from_sequences(one_at_a_time(), n, W, [0.0, 1.0])
        # an extra sequence is found at item n + 1, and no further one is read
        assert len(pulled) == min(n + 1, len(seqs))


def run_store(rng, counts, grid_points) -> summaries.RunCurves:
    """A statistic-free RunCurves of runs with the given fixation counts:
    random quadrant states and uniform onsets in [0, 1] on a uniform grid."""
    starts = np.concatenate([[0], np.cumsum(counts)])
    states = rng.integers(0, 4, starts[-1]).astype(np.uint8)
    grid = np.linspace(0.0, 1.0, grid_points)
    at = np.empty((len(counts), grid_points), dtype=np.int32)
    for i, n in enumerate(counts):
        at[i] = np.searchsorted(np.sort(rng.uniform(0.0, 1.0, n)), grid, side="right") - 1
    return summaries.RunCurves(np.empty((0, len(counts), grid_points)), states, starts, at,
                               grid, ())


class TestTransitionEstimates:
    """Transition rows from int32 counts equal the intp-count route, bit for bit."""

    @pytest.mark.parametrize("counts", [[0], [1], [2], [0, 1, 2, 3, 40, 0, 250, 1]])
    def test_equal_the_intp_route(self, rng, counts):
        curves = run_store(rng, counts, 61)
        at64 = curves.at.astype(np.int64)  # the intp route; the store passes its int32 at
        counted = np.array(counts) >= 2
        for j in range(16):
            ref = transition_estimates_reference(curves.states, curves.starts, at64, j)
            for at in (curves.at, at64):
                got = summaries._transition_estimates(curves.states, curves.starts, at, j)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert curves[j].tobytes() == ref.tobytes()
            assert curves.defined(j).tobytes() == ref[counted].tobytes()

    def test_defined_rows_of_statistics_are_the_stored_rows(self, rng):
        store = run_store(rng, [0, 1, 5], 11)
        curves = summaries.RunCurves(rng.uniform(size=(2, 3, 11)), store.states, store.starts,
                                     store.at, store.grid, ("hull", "ball"))
        assert curves.defined(1) is not None
        assert np.shares_memory(curves.defined(1), curves.stat_rows)
        assert curves.defined(1).tobytes() == curves.stat_rows[1].tobytes()
        assert curves.defined(2).shape == (1, 11)  # the one run of 5 fixations

    # one run, the edges of the first tiles of runs, and many tiles
    @pytest.mark.parametrize("n_runs", [1, 15, 16, 17, 31, 32, 33, 200])
    def test_run_tiles_equal_the_whole_row_build(self, rng, n_runs):
        counts = rng.integers(0, 40, n_runs)
        counts[::5] = rng.integers(0, 2, len(counts[::5]))  # runs defined on no transition
        curves = run_store(rng, counts, 37)
        defined = curves.defined_runs(0)
        for j in range(16):
            for at in (curves.at, curves.at.astype(np.int64)):
                for runs in (slice(None), defined):
                    got = summaries._transition_estimates(curves.states, curves.starts, at, j,
                                                          runs)
                    ref = transition_estimates_whole(curves.states, curves.starts, at, j, runs)
                    # bytes: NaN where N_a is 0, and every sign bit
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            ref = transition_estimates_whole(curves.states, curves.starts, curves.at, j, defined)
            assert curves.defined(j).tobytes() == ref.tobytes()

    def test_one_row_holds_run_tiles_besides_its_floats(self, rng):
        # 200 runs of about 130 fixations on 361 grid times, as the envelope
        # benchmark simulates them; (runs, grid) int32 positions and counts
        # held 2.0 rows, intp ones 5
        curves = run_store(rng, rng.integers(0, 260, 200), 361)
        row_bytes = 200 * 361 * 8
        prefix_bytes = 2 * 4 * (curves.states.size + 1)  # int32 N_a and N_ab
        for build in (lambda j: curves[j], curves.defined):
            tracemalloc.start()
            try:
                row = build(len(curves) - 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert row.nbytes <= row_bytes
            assert peak <= 1.25 * row_bytes + prefix_bytes
