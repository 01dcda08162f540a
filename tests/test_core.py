import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixproc import (
    DataError,
    Dataset,
    FixationSequence,
    StepCurve,
    Window,
)
from fixproc.core import MAX_INTERVALS, corner_offsets, quadrants
from helpers import farthest_corner, sequence

W = Window(0.0, 0.0, 770.0, 768.0)


def one_quadrant(x: float, y: float, w: Window) -> int:
    """The quadrant, 1 to 4, that :func:`quadrants` gives one point."""
    return int(quadrants(np.array([[x, y]], dtype=float), w)[0]) + 1


def corner_distance(x: float, y: float, w: Window) -> float:
    """The length of the :func:`corner_offsets` of one point."""
    dx, dy = corner_offsets(w, [x], [y])
    return math.hypot(dx[0], dy[0])


class TestWindow:
    def test_area(self):
        assert W.area == 770 * 768

    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            Window(0, 0, 0, 10)
        with pytest.raises(DataError):
            Window(0, 5, 10, 5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", range(4))
    def test_non_finite_rejected(self, side, bad):
        # inf passes the degenerate-window test and gives an infinite area
        bounds = [0.0, 0.0, 770.0, 768.0]
        bounds[side] = bad
        with pytest.raises(DataError, match="non-finite window"):
            Window(*bounds)

    def test_contains_is_closed(self):
        assert W.contains(0, 0)
        assert W.contains(770, 768)
        assert not W.contains(770.001, 10)

    def test_contains_on_numpy_scalars_and_arrays(self):
        assert W.contains(np.float64(770.0), np.float64(0.0))
        assert not W.contains(np.float64(-1e-9), np.float64(5.0))
        assert not W.contains(float("nan"), 5.0)
        xs = np.array([0.0, 770.0, 770.5, np.nan, 300.0])
        ys = np.array([768.0, 0.0, 10.0, 10.0, -0.1])
        assert W.contains(xs, ys).tolist() == [True, True, False, False, False]
        assert W.contains(xs[:, None], ys[None, :]).shape == (5, 5)


class TestQuadrant:
    def test_corner_cases(self):
        assert one_quadrant(1, 1, W) == 1
        assert one_quadrant(769, 767, W) == 4

    def test_midline_tie_break_goes_to_larger_index(self):
        # exactly on both midlines
        assert one_quadrant(385, 384, W) == 4
        assert one_quadrant(385, 1, W) == 2
        assert one_quadrant(1, 384, W) == 3

    def test_partition_matches_half_open_cells(self):
        # the four half-open cells [lo, mid) x [lo, mid) etc. tile the window
        mx, my = 385.0, 384.0
        xs = np.linspace(0, 769.9, 41)
        ys = np.linspace(0, 767.9, 41)
        for x in xs:
            for y in ys:
                expected = 1 + (x >= mx) + 2 * (y >= my)
                assert one_quadrant(x, y, W) == expected

    def test_outside_raises(self):
        with pytest.raises(DataError):
            one_quadrant(-1, 5, W)


class TestMaxCornerDistance:
    def test_unit_square_center(self):
        sq = Window(0, 0, 1, 1)
        assert corner_distance(0.5, 0.5, sq) == pytest.approx(math.sqrt(2) / 2)

    def test_unit_square_corner(self):
        sq = Window(0, 0, 1, 1)
        assert corner_distance(0, 0, sq) == pytest.approx(math.sqrt(2))

    def test_reference_window_value(self):
        assert corner_distance(100, 100, W) == pytest.approx(
            math.hypot(670, 668), abs=1e-9
        )

    @given(
        st.floats(0, 770),
        st.floats(0, 768),
    )
    def test_at_least_half_diagonal(self, x, y):
        half_diag = math.hypot(770, 768) / 2
        assert corner_distance(x, y, W) >= half_diag - 1e-9

    @given(
        st.floats(1, 769),
        st.floats(1, 767),
        st.floats(0.01, 1.0),
    )
    def test_point_toward_far_corner_stays_inside(self, x, y, frac):
        # any jump up to the far-corner distance along that direction is feasible
        l_max = corner_distance(x, y, W)
        cx, cy = farthest_corner(x, y, W)
        ux, uy = (cx - x) / l_max, (cy - y) / l_max
        length = frac * l_max
        px, py = x + length * ux, y + length * uy
        assert W.contains(min(max(px, 0), 770), min(max(py, 0), 768))
        assert -1e-9 <= px <= 770 + 1e-9
        assert -1e-9 <= py <= 768 + 1e-9


class TestSequences:
    def test_onsets_must_increase(self):
        with pytest.raises(DataError):
            sequence("s", "novice", "p", [(1, 1, 100, 50), (2, 2, 100, 50)])

    def test_group_validated(self):
        with pytest.raises(DataError):
            sequence("s", "expert", "p", [])

    def test_duration_positive(self):
        with pytest.raises(DataError, match="duration must be positive, got 0.0"):
            sequence("s", "novice", "p", [(1, 1, 0, 50), (2, 2, 100, 0)])

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, column, bad):
        # every comparison with NaN is false, so the duration and onset-order
        # tests alone let it through, to wrong curve_rows
        rows = [[1.0, 1.0, 0.0, 50.0], [2.0, 2.0, 100.0, 50.0], [3.0, 3.0, 200.0, 50.0]]
        rows[1][column] = bad
        with pytest.raises(DataError, match="non-finite"):
            sequence("s", "novice", "p", rows)

    @pytest.mark.parametrize("shapes", [
        ((3, 2), (3,), (2,)),
        ((3, 2), (2,), (3,)),
        ((2, 2), (3,), (3,)),
        ((3, 3), (3,), (3,)),
        ((3,), (3,), (3,)),
        ((3, 2), (3, 1), (3,)),
        # valid_jumps, the fourth, needs shape (max(n - 1, 0),)
        ((3, 2), (3,), (3,), (3,)),
        ((3, 2), (3,), (3,), (1,)),
        ((3, 2), (3,), (3,), (2, 1)),
        ((1, 2), (1,), (1,), (1,)),
        ((0,), (0,), (0,), (1,)),
    ])
    def test_mismatched_columns_rejected(self, shapes):
        locations, onsets, durations, *valid_jumps = (np.ones(shape) for shape in shapes)
        onsets = np.cumsum(onsets, axis=0)
        with pytest.raises(DataError, match="need shapes"):
            FixationSequence("s", "novice", "p", locations, onsets, durations, *valid_jumps)

    def test_columns_are_read_only_copies(self):
        locations = np.array([[1.0, 2.0], [3.0, 4.0]])
        onsets, durations = np.array([0.0, 100.0]), np.array([50.0, 60.0])
        valid_jumps = np.array([False])
        seq = FixationSequence("s", "novice", "p", locations, onsets, durations, valid_jumps)
        locations[0, 0] = onsets[0] = durations[0] = 99.0
        valid_jumps[0] = True
        assert seq.locations.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert seq.onsets.tolist() == [0.0, 100.0]
        assert seq.durations.tolist() == [50.0, 60.0]
        assert seq.valid_jumps.tolist() == [False]
        for column, dtype in ((seq.locations, np.float64), (seq.onsets, np.float64),
                              (seq.durations, np.float64), (seq.valid_jumps, bool)):
            assert column.dtype == dtype and column.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        with pytest.raises(AttributeError):
            seq.onsets = np.array([0.0, 1.0])

    def test_empty_sequence_has_empty_columns(self):
        seq = FixationSequence("s", "novice", "p")
        assert len(seq) == 0
        assert seq.locations.shape == (0, 2)
        assert seq.onsets.shape == seq.durations.shape == seq.valid_jumps.shape == (0,)
        assert seq == sequence("s", "novice", "p", [])

    def test_jumps_valid_by_default(self):
        seq = sequence("s", "novice", "p", [(1, 2, 0, 50), (3, 4, 90, 60), (5, 6, 200, 70)])
        assert seq.valid_jumps.dtype == bool and seq.valid_jumps.tolist() == [True, True]
        assert len(sequence("s", "novice", "p", [(1, 2, 0, 50)]).valid_jumps) == 0

    @pytest.mark.parametrize("column, index", [
        ("locations", (1, 0)), ("locations", (0, 1)), ("onsets", 1), ("durations", 0),
        ("valid_jumps", 0),
    ])
    def test_equality_sees_one_ulp_in_any_column(self, column, index):
        rows = [(1.0, 2.0, 0.0, 50.0), (3.0, 4.0, 100.0, 60.0)]
        a, b = sequence("s", "novice", "p", rows), sequence("s", "novice", "p", rows)
        assert a == b and a is not b
        values = getattr(a, column).copy()
        if values.dtype == bool:  # a flag's one step is its negation
            values[index] = not values[index]
        else:
            values[index] = np.nextafter(values[index], np.inf)
        c = replace(a, **{column: values})
        assert c != a
        assert replace(c, **{column: getattr(a, column)}) == a

    def test_equality_compares_ids(self):
        a = sequence("s", "novice", "p", [(1, 2, 0, 50)])
        assert a != replace(a, subject_id="t")
        assert a != replace(a, group="non_novice")
        assert a != replace(a, painting_id="q")
        assert a != (a.subject_id, a.group, a.painting_id)

    def test_dataset_accessors(self):
        seqs = [
            sequence("a", "novice", "p1", [(1, 1, 0, 50)]),
            sequence("b", "non_novice", "p1", [(2, 2, 0, 50)]),
            sequence("a", "novice", "p2", [(3, 3, 0, 50)]),
        ]
        d = Dataset(window=W, sequences=seqs)
        assert list(d.by_painting()) == ["p1", "p2"]
        assert len(d.by_group("novice")) == 2
        assert d.pooled_locations("novice").shape == (2, 2)

    def test_pooled_samples_follow_dataset_order(self):
        seqs = [
            sequence("a", "novice", "p", [(1, 2, 0, 50), (3, 4, 90, 60)]),
            sequence("b", "non_novice", "p", []),
            sequence("c", "non_novice", "p", [(7, 8, 5, 80)]),
            sequence("d", "novice", "p", [(5, 6, 10, 70)]),
        ]
        d = Dataset(window=W, sequences=seqs)
        assert d.pooled_durations().tolist() == [50, 60, 80, 70]
        assert d.pooled_durations("novice").tolist() == [50, 60, 70]
        assert d.pooled_onsets().tolist() == [0, 90, 5, 10]
        assert d.pooled_locations("novice").tolist() == [[1, 2], [3, 4], [5, 6]]
        assert d.pooled_locations().dtype == d.pooled_durations().dtype == float

    def test_pooled_samples_empty_when_nothing_pooled(self):
        d = Dataset(window=W, sequences=[sequence("b", "non_novice", "p", [])])
        assert d.pooled_locations().shape == (0, 2)
        assert d.pooled_durations().shape == (0,)
        assert d.pooled_durations("novice").shape == (0,)
        assert d.pooled_onsets().shape == (0,)
        d.sequences = []
        assert d.pooled_locations("novice").shape == (0, 2)
        assert d.pooled_onsets().shape == (0,)


class TestDesign:
    def _dataset(self):
        seqs = [
            sequence("a", "novice", "p2", [(1, 1, 0, 50)]),
            sequence("a", "novice", "p1", [(2, 2, 0, 50)]),
            sequence("b", "non_novice", "p2", [(3, 3, 0, 50)]),
            sequence("b", "non_novice", "p1", [(4, 4, 0, 50)]),
            sequence("c", "novice", "p2", [(5, 5, 0, 50)]),
        ]
        return Dataset(window=Window(0, 0, 10, 10), sequences=seqs, trial_length=5_000.0)

    def test_by_painting(self):
        d = self._dataset()
        parts = d.by_painting()
        assert list(parts) == ["p2", "p1"]  # first seen first
        assert [s.subject_id for s in parts["p2"].sequences] == ["a", "b", "c"]
        assert [s.subject_id for s in parts["p1"].sequences] == ["a", "b"]
        for part in parts.values():
            assert (part.window, part.trial_length) == (d.window, 5_000.0)
        # the per-painting subsets report used to build with dataclasses.replace
        assert parts == {
            p: replace(d, sequences=[s for s in d.sequences if s.painting_id == p])
            for p in ("p2", "p1")
        }

    def test_two_groups(self):
        d = self._dataset()
        d.sequences.append(sequence("e", "non_novice", "p2", [(6, 6, 0, 50)]))
        novices, others = d.by_painting()["p2"].two_groups()
        assert [s.subject_id for s in novices] == ["a", "c"]
        assert [s.subject_id for s in others] == ["b", "e"]

    @pytest.mark.parametrize("keep, message", [
        (None, "multiple paintings ['p2', 'p1']; pick one with --painting"),
        ("p1", "need at least 2 subjects per group, got 1 and 1"),
        ("p2", "every subject needs at least one fixation"),
    ])
    def test_two_groups_refuses_a_bad_design(self, keep, message):
        d = self._dataset()
        d.sequences.append(sequence("e", "non_novice", "p2", []))
        if keep is not None:
            d = d.by_painting()[keep]
        with pytest.raises(DataError) as err:
            d.two_groups()
        assert str(err.value) == message


class TestIntervalMasks:
    SEQS = [
        sequence("a", "novice", "p", [(1, 1, 0, 50), (1, 1, 999.5, 50), (1, 1, 1000, 50)]),
        sequence("b", "non_novice", "p", [(1, 1, 1500, 50), (1, 1, 2400, 50)]),
    ]

    def test_half_open_disjoint_masks_keep_the_trailing_partial_interval(self):
        d = Dataset(window=W, sequences=self.SEQS, trial_length=2500.0)
        masks = d.interval_masks(1000.0)
        assert [m.tolist() for m in masks] == [
            [True, True, False, False, False],
            [False, False, True, True, False],
            [False, False, False, False, True],
        ]
        assert (np.sum(masks, axis=0) <= 1).all()

    @pytest.mark.parametrize("interval", [2500.0, 3000.0, 1e9])
    def test_fewer_than_two_intervals_rejected(self, interval):
        d = Dataset(window=W, sequences=self.SEQS, trial_length=2500.0)
        with pytest.raises(DataError, match=f"{interval}.*2500.0.*need at least 2"):
            d.interval_masks(interval)

    def test_infinite_interval_count_rejected(self):
        # 1e300 / 1e-10 is inf, whose ceiling ended in an OverflowError; the
        # CLI's tests check the bound itself on the dataset, and a finite count
        # far above it where they stop before any mask is built
        d = Dataset(window=W, sequences=self.SEQS, trial_length=1e300)
        with pytest.raises(DataError, match=f"more than {MAX_INTERVALS} intervals"):
            d.interval_masks(1e-10)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_interval_must_be_positive(self, interval):
        d = Dataset(window=W, sequences=self.SEQS, trial_length=2500.0)
        with pytest.raises(DataError, match="positive"):
            d.interval_masks(interval)


class TestStepCurve:
    def test_right_continuous_at_knots(self):
        c = StepCurve([0.0, 10.0, 20.0], [0.0, 1.0, 3.0], 30.0)
        assert c(10.0) == 1.0  # post-jump value exactly at the knot
        assert c(9.999) == 0.0
        assert c(25.0) == 3.0

    def test_before_first_knot_is_nan(self):
        c = StepCurve([5.0], [1.0], 10.0)
        assert np.isnan(c(2.0))

    def test_knots_must_increase(self):
        with pytest.raises(DataError):
            StepCurve([0.0, 0.0], [1.0, 2.0], 10.0)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=30, unique=True))
    def test_matches_linear_scan(self, ts):
        knots = np.sort(np.asarray(ts))
        values = np.arange(len(knots), dtype=float)
        c = StepCurve(knots, values, 101.0)
        for t in np.linspace(0, 100, 37):
            expected = np.nan
            for kt, kv in zip(knots, values):
                if kt <= t:
                    expected = kv
            got = c(t)
            assert (np.isnan(expected) and np.isnan(got)) or got == expected
