import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

import fixproc
from fixproc import CurveMatrix, DataError, StepCurve, envelope_report, rank_envelope
from fixproc.envelopes import (
    _TILE_COLUMNS,
    _finite_or_nan,
    _sorted_columns,
    _sorted_mid_ranks,
    _unsorted,
    default_grid,
    extreme_ranks,
    judge,
)
from fixproc.summaries import STATS, TRANSITIONS, RunCurves, curve_rows
from helpers import (
    WINDOW,
    extreme_ranks_reference,
    judge_reference,
    mid_ranks_reference,
    rank_envelope_reference,
    sequence,
)


def smooth_brownian(rng, n, g=361):
    """Twice-integrated noise: Brownian-type curves with persistent extremes."""
    rows = rng.standard_normal((n, g))
    return np.cumsum(np.cumsum(rows, axis=1), axis=1)


class TestRankEnvelope:
    def test_identical_curves_degenerate(self):
        grid = default_grid(100.0, 21)
        rows = np.tile(np.linspace(0, 1, 21), (50, 1))
        env = rank_envelope(CurveMatrix(grid, rows))
        assert np.array_equal(env.lower, env.upper)
        assert np.array_equal(env.lower, rows[0])

    def test_s20_alpha05_is_minmax(self):
        rng = np.random.default_rng(0)
        grid = default_grid(100.0, 51)
        rows = np.cumsum(rng.standard_normal((20, 51)), axis=1)
        env = rank_envelope(CurveMatrix(grid, rows), 0.05)
        assert env.k == 1
        assert np.array_equal(env.lower, rows.min(axis=0))
        assert np.array_equal(env.upper, rows.max(axis=0))

    def test_envelope_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        m = CurveMatrix(default_grid(100.0, 51), smooth_brownian(rng, 200, 51))
        wide = rank_envelope(m, 0.01)
        narrow = rank_envelope(m, 0.05)
        assert np.all(wide.lower <= narrow.lower)
        assert np.all(wide.upper >= narrow.upper)

    def test_bounds_attained_by_simulations(self):
        rng = np.random.default_rng(2)
        rows = smooth_brownian(rng, 60, 41)
        m = CurveMatrix(default_grid(100.0, 41), rows)
        env = rank_envelope(m)
        for t in range(41):
            assert env.lower[t] in rows[:, t]
            assert env.upper[t] in rows[:, t]

    def test_too_few_curves_rejected(self):
        m = CurveMatrix(default_grid(100.0, 5), np.zeros((10, 5)))
        with pytest.raises(DataError):
            rank_envelope(m, 0.05)

    def test_coverage_calibration_quick(self):
        # full 1000-trial calibration lives in the acceptance suite
        rng = np.random.default_rng(3)
        inside = 0
        trials = 200
        for _ in range(trials):
            rows = smooth_brownian(rng, 201, 121)
            env = rank_envelope(CurveMatrix(default_grid(100.0, 121), rows[:200]))
            inside += env.contains(rows[200])
        assert 0.90 <= inside / trials <= 0.99

    def test_nan_columns_unconstrained(self):
        grid = default_grid(100.0, 4)
        rows = np.array(
            [[np.nan, 1.0, 2.0, 3.0],
             [np.nan, 1.5, 2.5, 2.0],
             *[[np.nan, 1.2, 2.2, 2.5]] * 18]
        )
        env = rank_envelope(CurveMatrix(grid, rows), 0.05)
        assert np.isnan(env.lower[0]) and np.isnan(env.upper[0])
        assert np.isfinite(env.lower[1:]).all()
        # an observed curve that is NaN there is not a violation
        assert env.contains(np.array([np.nan, 1.2, 2.2, 2.5]))

    def test_extreme_ranks_midranks_on_ties(self):
        rows = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        # first column fully tied: everyone gets depth 2 there, so ranks are
        # driven by the second column
        ranks = extreme_ranks(rows)
        assert np.array_equal(ranks, [1.0, 2.0, 1.0])


def _sorted(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column sort the rank pass makes: order and sorted values, +-inf as NaN."""
    return _sorted_columns(_finite_or_nan(rows))


class TestMidRanks:
    """``_sorted_mid_ranks`` on columns sorted as the rank pass sorts them;
    only the ranks of finite entries mean anything."""

    # few distinct values make heavy ties; NaN and +-inf mark undefined entries
    @settings(max_examples=200)
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.sampled_from([0.0, 1.0, 2.5, -3.0, 1e300, np.nan, np.inf, -np.inf]),
        )
    )
    def test_matches_scipy_average_ranks(self, rows):
        _, ordered = _sorted(rows)
        finite = np.isfinite(ordered)
        # each column keeps its finite entries, and they sort first
        assert finite.sum(axis=0).tolist() == np.isfinite(rows).sum(axis=0).tolist()
        assert (finite[:-1] >= finite[1:]).all()
        ranks = _sorted_mid_ranks(ordered)
        expected = rankdata(ordered, method="average", axis=0, nan_policy="omit")
        assert np.array_equal(ranks[finite], expected[finite])
        assert np.array_equal(ranks[finite], mid_ranks_reference(ordered)[finite])

    def test_all_nan_column_and_single_row(self):
        ranks = _sorted_mid_ranks(np.array([[np.nan, 3.0, -1.0]]))
        assert np.array_equal(ranks[0, 1:], [1.0, 1.0])


def _matrix(kind: str, rng, shape=(200, 361)) -> np.ndarray:
    """Curves whose columns are continuous, tied, NaN-led or hold infinities."""
    rows = smooth_brownian(rng, *shape)
    if kind == "tied":
        # + 0.0 turns the negative zeros of rounding into zeros
        rows = np.round(rows / rows.std()) * 0.5 + 0.0
        rows[:, : shape[1] // 4] = 0.0
    elif kind == "nan_led":
        # undefined until each curve's own start, as transition rows are
        rows[np.arange(shape[1]) < rng.integers(0, shape[1], shape[0])[:, None]] = np.nan
        rows[:, :3] = np.nan
    elif kind == "infinite":
        rows[rng.random(shape) < 0.05] = np.inf
        rows[rng.random(shape) < 0.05] = -np.inf
        rows[rng.random(shape) < 0.05] = np.nan
        rows[:, shape[1] // 2] = np.inf
    return rows


# narrower than one tile of the column sort, exactly one, one plus a column,
# and several tiles with a partial last one
SHAPES = [(200, 361), (20, 5), (41, 1), (30, _TILE_COLUMNS), (30, _TILE_COLUMNS + 1),
          (25, 3 * _TILE_COLUMNS + 7)]


class TestSharedColumnSort:
    """Ranks and bounds from one tiled column sort keep the bits of two
    whole sorts."""

    @pytest.mark.parametrize("kind", ["continuous", "tied", "nan_led", "infinite"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_reference(self, kind, shape):
        rows = _matrix(kind, np.random.default_rng(31), shape)
        order, ordered = _sorted(rows)
        ranks = _sorted_mid_ranks(ordered)
        finite = np.isfinite(ordered)
        assert ranks[finite].tobytes() == mid_ranks_reference(ordered)[finite].tobytes()
        finite = np.isfinite(rows)
        back = _unsorted(ranks, order)[finite]
        assert back.tobytes() == mid_ranks_reference(rows)[finite].tobytes()
        assert extreme_ranks(rows).tobytes() == extreme_ranks_reference(rows).tobytes()
        for alpha in (0.05, 0.5):
            env = rank_envelope(CurveMatrix(default_grid(100.0, shape[1]), rows), alpha)
            k, lower, upper = rank_envelope_reference(rows, alpha)
            assert env.k == k
            assert env.lower.tobytes() == lower.tobytes()
            assert env.upper.tobytes() == upper.tobytes()

    def test_signed_zero_ties_keep_their_values(self):
        # the sort places -0.0 and 0.0 in either order, so a tied zero bound
        # may carry either sign; it equals the reference's as a number
        rows = np.tile([[-0.0], [0.0]], (20, 3))
        rows[:, 2] = np.arange(40.0)
        env = rank_envelope(CurveMatrix(default_grid(100.0, 3), rows), 0.05)
        k, lower, upper = rank_envelope_reference(rows, 0.05)
        assert env.k == k
        assert np.array_equal(env.lower, lower) and np.array_equal(env.upper, upper)
        assert env.lower.tobytes()[16:] == lower.tobytes()[16:]
        assert env.upper.tobytes()[16:] == upper.tobytes()[16:]

    def test_signed_zero_bounds_are_read_from_the_tiles_sorted_once(self):
        # the bounds come from each tile sorted a second time; they carry the
        # signs of a sorted copy of every tile, as one sort held them
        rows = np.random.default_rng(4).choice([-0.0, 0.0, 1.0], (40, 2 * _TILE_COLUMNS + 5))
        ordered = np.empty(rows.shape)
        for start in range(0, rows.shape[1], _TILE_COLUMNS):
            cols = slice(start, start + _TILE_COLUMNS)
            ordered[:, cols] = _sorted(rows[:, cols])[1]
        for alpha in (0.05, 0.5):
            env = rank_envelope(CurveMatrix(default_grid(100.0, rows.shape[1]), rows), alpha)
            assert env.lower.tobytes() == ordered[env.k - 1].tobytes()
            assert env.upper.tobytes() == ordered[len(rows) - env.k].tobytes()

    # a finite matrix is sorted through views of the caller's array, as
    # judge passes a statistic's stored row
    @pytest.mark.parametrize("kind", ["continuous", "infinite"])
    def test_input_rows_untouched(self, kind):
        rows = _matrix(kind, np.random.default_rng(2), (30, 2 * _TILE_COLUMNS + 9))
        before = rows.copy()
        rank_envelope(CurveMatrix(default_grid(100.0, rows.shape[1]), rows))
        extreme_ranks(rows)
        assert rows.tobytes() == before.tobytes()

    def test_peak_memory_is_under_one_matrix(self):
        # the flat tie-run pass and a second sort held 10.5 matrices at once,
        # one sort of every column 4.25 and a whole sorted copy 1.5: sorting
        # each tile again for the bounds holds about four arrays of one tile
        rows = _matrix("continuous", np.random.default_rng(3))
        curves = CurveMatrix(default_grid(100.0, 361), rows)
        tracemalloc.start()
        try:
            rank_envelope(curves)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * rows.nbytes


class TestNonFiniteCurves:
    """An infinite entry is undefined, exactly like NaN."""

    @pytest.mark.parametrize("bad", [-np.inf, np.inf])
    def test_extreme_ranks_treat_infinity_as_nan(self, bad):
        rows = np.array([[bad], [2.0], [3.0], [4.0], [5.0]])
        ranks = extreme_ranks(rows)
        rows[0, 0] = np.nan
        assert np.array_equal(ranks, extreme_ranks(rows))
        assert np.array_equal(ranks, [np.inf, 1.0, 2.0, 2.0, 1.0])
        assert ranks.min() >= 1.0

    def test_envelope_bounds_treat_infinity_as_nan(self):
        rng = np.random.default_rng(5)
        rows = smooth_brownian(rng, 40, 6)
        rows[0, 1] = -np.inf
        rows[[3, 7], 2] = np.inf
        rows[:, 4] = -np.inf
        as_nan = np.where(np.isfinite(rows), rows, np.nan)
        grid = default_grid(100.0, 6)
        env = rank_envelope(CurveMatrix(grid, rows), 0.05)
        ref = rank_envelope(CurveMatrix(grid, as_nan), 0.05)
        assert env.k == ref.k
        assert np.array_equal(env.lower, ref.lower, equal_nan=True)
        assert np.array_equal(env.upper, ref.upper, equal_nan=True)
        assert np.isnan(env.lower[4]) and np.isfinite(env.lower[[1, 2]]).all()


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about a third of a second at import; the CLI needs none of it
    src = str(Path(fixproc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fixproc.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestEnvelopeReport:
    GRID = default_grid(100.0, 11)

    def _env(self):
        rng = np.random.default_rng(4)
        rows = smooth_brownian(rng, 40, 11)
        return rank_envelope(CurveMatrix(self.GRID, rows), 0.05), rows

    def test_curve_on_lower_bound_inside(self):
        env, _ = self._env()
        (verdict,) = envelope_report([env.lower], env, self.GRID)
        assert verdict["inside"] is True
        assert verdict["first_exit_time"] is None

    def test_single_point_violation_located(self):
        env, _ = self._env()
        curve = (env.lower + env.upper) / 2
        curve[4] = env.upper[4] + 1.0
        (verdict,) = envelope_report([curve], env, self.GRID)
        assert verdict["inside"] is False
        assert verdict["first_exit_time"] == self.GRID[4]

    def test_grid_mismatch_rejected(self):
        env, _ = self._env()
        with pytest.raises(DataError):
            envelope_report([np.zeros(5)], env, self.GRID)
        with pytest.raises(DataError, match="grid of shape"):
            envelope_report([env.lower], env, self.GRID[:5])

    def test_contains_refuses_a_curve_of_another_shape(self):
        # one value, the (curves, grid) matrix and a shorter curve: each is a
        # data error, not a verdict or numpy's broadcasting error
        env, rows = self._env()
        assert env.contains(rows[0]) in (True, False)
        for values in (np.array([0.0]), rows, rows[0][:5]):
            with pytest.raises(DataError, match="does not match"):
                env.contains(values)


class TestJudge:
    GRID = default_grid(1000.0, 41)

    @staticmethod
    def _runs(rng, counts) -> list:
        """Runs of the given fixation counts, at random places and onsets."""
        seqs = []
        for n in counts:
            rows = np.column_stack([rng.uniform(0.0, 770.0, n), rng.uniform(0.0, 768.0, n),
                                    np.sort(rng.uniform(0.0, 1000.0, n)), np.full(n, 5.0)])
            seqs.append(sequence("s", "novice", "koli", rows))
        return seqs

    def _store(self, rng, counts, stats=STATS, grid=GRID) -> RunCurves:
        seqs = self._runs(rng, counts)
        return RunCurves.from_sequences(seqs, len(seqs), WINDOW, grid, stats, 35.0, 8.0)

    def test_equals_the_row_loop(self, rng):
        # a quarter of the runs, and subject b, have one fixation and no transitions
        simulated = self._store(rng, [1, 2, 5, 30] * 10)
        observed = self._store(rng, [12, 1, 7, 20])
        keys = ["a", "b", "c", "d"]
        got = judge(observed, keys, simulated, 0.05)
        ref = judge_reference(observed, keys, simulated, simulated.grid, 0.05, simulated.stats)
        assert list(got) == ["grid", "alpha", "stats", "transitions"]
        assert got["grid"].tobytes() == ref["grid"].tobytes() == self.GRID.tobytes()
        assert got["alpha"] == ref["alpha"] == 0.05
        assert list(got["stats"]) == list(STATS)
        assert list(got["transitions"]) == list(TRANSITIONS)
        for family in ("stats", "transitions"):
            for name, block in ref[family].items():
                mine = got[family][name]
                # == of two RankEnvelopes would compare arrays: compare the fields
                assert mine["envelope"].k == block["envelope"].k
                for bound in ("lower", "upper"):
                    assert (getattr(mine["envelope"], bound).tobytes()
                            == getattr(block["envelope"], bound).tobytes())
                assert mine["report"] == block["report"]
                assert list(mine["observed"]) == list(block["observed"])
                for key, curve in block["observed"].items():
                    assert mine["observed"][key].tobytes() == curve.tobytes()
        assert "b" in got["stats"]["hull"]["report"]
        assert "b" not in got["transitions"]["1->1"]["report"]

    def test_one_statistic_names_each_observed_row(self, rng):
        seqs = self._runs(rng, [9, 1, 4])
        observed = RunCurves.from_sequences(seqs, 3, WINDOW, self.GRID, ("ball",), 35.0, 8.0)
        got = judge(observed, ["a", "b", "c"], self._store(rng, [6] * 20, ("ball",)), 0.05)
        assert list(got["stats"]) == ["ball"]
        for key, seq in zip("abc", seqs):
            rows = curve_rows(seq, WINDOW, self.GRID, ("ball",), 35.0, 8.0)
            for name, row in zip(["ball", *TRANSITIONS], rows):
                block = got["stats" if name == "ball" else "transitions"][name]
                if name == "ball" or len(seq) >= 2:
                    assert block["observed"][key].tobytes() == row.tobytes()
                else:
                    assert key not in block["observed"]

    def test_stores_of_other_statistics_are_refused(self, rng):
        everything, ball = self._store(rng, [4, 5]), self._store(rng, [3] * 20, ("ball",))
        message = (r"observed statistics \('hull', 'ball', 'scanpath'\) "
                   r"differ from simulated \('ball',\)")
        with pytest.raises(DataError, match=message):
            judge(everything, ["a", "b"], ball, 0.05)
        with pytest.raises(DataError, match=r"observed statistics \('ball',\) differ"):
            judge(self._store(rng, [4], ("ball",)), ["a"], self._store(rng, [3] * 20), 0.05)

    def test_stores_on_other_grids_are_refused(self, rng):
        # as many grid times, at other times
        observed = self._store(rng, [4], grid=default_grid(500.0, self.GRID.size))
        with pytest.raises(DataError, match="different time grids"):
            judge(observed, ["a"], self._store(rng, [3] * 20), 0.05)

    @pytest.mark.parametrize("keys", [["a", "a", "b"], ["a", "b", "c", "d"], ["a", "b"]])
    def test_keys_name_each_observed_run_once(self, rng, keys):
        # a repeated key would merge two runs' verdicts; a missing or extra
        # one would misname or drop a run
        observed, simulated = self._store(rng, [4, 5, 6]), self._store(rng, [3] * 20)
        with pytest.raises(DataError, match="3 distinct keys"):
            judge(observed, keys, simulated, 0.05)

    def test_too_few_runs_names_the_curve(self, rng):
        simulated = self._store(rng, [1] * 5 + [3] * 19)
        observed = self._store(rng, [4])
        with pytest.raises(DataError, match=r"^1->1: need at least 20 curves, got 19$"):
            judge(observed, ["a"], simulated, 0.05)
        with pytest.raises(DataError, match=r"^ball: need at least 20 curves, got 10$"):
            judge(self._store(rng, [4], ("ball",)), ["a"],
                  self._store(rng, [3] * 10, ("ball",)), 0.05)


class TestCurveMatrix:
    def test_from_curves_resamples(self):
        c1 = StepCurve([0.0, 50.0], [0.0, 1.0], 100.0)
        c2 = StepCurve([0.0], [0.5], 100.0)
        m = CurveMatrix.from_curves([c1, c2], np.linspace(0, 100, 5))
        assert np.array_equal(m.rows[0], [0.0, 0.0, 1.0, 1.0, 1.0])
        assert np.array_equal(m.rows[1], [0.5] * 5)

    def test_shape_validated(self):
        with pytest.raises(DataError):
            CurveMatrix(np.linspace(0, 1, 5), np.zeros((3, 4)))
