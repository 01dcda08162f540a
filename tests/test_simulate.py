import itertools
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from fixproc import (
    DataError,
    GammaFit,
    NumericError,
    build_model,
    fit_gamma_mle,
    ingest_pipeline,
    next_location,
    parse_fixations,
    sample_initial,
    simulate_curves,
    simulate_many,
    simulate_runs,
    write_fixations,
)
from fixproc import simulate
from fixproc import FixationModel, Window
from fixproc.core import corner_offsets
from fixproc.density import IntensityGrid
from fixproc.envelopes import default_grid
from fixproc.fitdist import fit_jump_mixture, jump_sample, law_sample
from fixproc.rng import substream
from fixproc.summaries import STATS, curve_rows, scanpath_length
from fixproc.simulate import _BLOCK_CANDIDATES, _landings, runs_to_dataset
from helpers import (
    WINDOW,
    derive_saccades_reference,
    far_corner_distance,
    farthest_corner,
    hotspot_grid,
    jump_sample_reference,
    next_location_reference,
    sequence,
    simulate_run_reference,
    simulated_dataset,
    toy_model,
    valid_saccade_values_reference,
    write_csv,
)

W = WINDOW


def model_with_surface(grid, n_angles=360, p_long=0.2, first=None, trial_length=1000.0):
    """Toy model around an explicit intensity surface (and first-fixation surface)."""
    base = toy_model()
    return FixationModel(
        intensity_all=grid, intensity_first=grid if first is None else first,
        dur_fix=base.dur_fix, dur_sac=base.dur_sac, len_sac=base.len_sac,
        trial_length=trial_length, n_angles=n_angles, p_long=p_long,
    )


class TestBuildModel:
    def test_bandwidth_override(self, short_dataset):
        model = build_model(short_dataset, "novice", h=20.0, nx=32, ny=32)
        assert model.intensity_all.bandwidth == 20.0
        assert model.intensity_first.bandwidth == 20.0

    def test_bandwidth_is_required(self, short_dataset):
        with pytest.raises(TypeError):
            build_model(short_dataset, "novice", nx=32, ny=32)

    def test_single_subject_group(self, short_model):
        d = simulated_dataset(short_model, n_subjects=2, seed=4)
        model = build_model(d, "novice", h=25.0, nx=24, ny=24)
        assert model.group == "novice"

    def test_missing_group_rejected(self, short_model):
        d = simulated_dataset(short_model, n_subjects=2, seed=4)
        d.sequences = d.by_group("novice")
        with pytest.raises(DataError):
            build_model(d, "non_novice", h=25.0)

    def test_fits_only_the_real_jumps_of_an_ingested_dataset(self, short_dataset, tmp_path):
        # every fourth fixation lasts 20 ms, so ingest drops it, and the
        # jump spliced across it must reach neither saccade law
        seqs = [replace(s, durations=np.where(np.arange(len(s)) % 4 == 2, 20.0, s.durations))
                for s in short_dataset.sequences]
        path = write_csv(replace(short_dataset, sequences=seqs), tmp_path / "fix.csv")
        dataset, _, report = ingest_pipeline(path, 40.0, W, short_dataset.trial_length)
        assert report.to_dict()["totals"]["n_saccades_missing"] > 0
        model = build_model(dataset, "novice", h=20.0, nx=32, ny=32)
        jumps = {(s.subject_id, s.painting_id): derive_saccades_reference(s, e.excluded_indices)
                 for s, e in zip(dataset.sequences, report.entries)}
        values = valid_saccade_values_reference(dataset.sequences, jumps, "duration")
        assert model.dur_sac == fit_gamma_mle(np.array(values), "saccade_duration")
        lengths, l_max = jump_sample_reference(dataset.by_group("novice"), jumps, W)
        sample = jump_sample(dataset.by_group("novice"), W)
        assert sample[0].tolist() == lengths
        np.testing.assert_allclose(sample[1], l_max, rtol=1e-15, atol=0)
        assert (model.p_long, model.len_sac) == fit_jump_mixture(*sample)
        # counting the spliced jumps would change both fits
        spliced = replace(dataset, sequences=[replace(s, valid_jumps=None)
                                              for s in dataset.sequences])
        every_jump = build_model(spliced, "novice", h=20.0, nx=32, ny=32)
        assert every_jump.len_sac.n > model.len_sac.n
        assert every_jump.dur_sac.n > model.dur_sac.n

    def test_jump_mixture_recovers_the_law_the_runs_were_drawn_from(self):
        # 20 subjects a group, 60 s each, drawn with p_long 0.2 and a gamma(1.8)
        # length law. A plain gamma fitted to every jump, the long ones
        # included, read shape 1.30 and 1.29 at p_long 0.2, its runs' jumps
        # ran 26 % and 25 % long, and 29 of the 40 subjects' final scanpath
        # lengths fell below their runs' 2.5 % quantile
        d = simulated_dataset(toy_model(p_long=0.2, trial_length=60_000.0), n_subjects=40,
                              seed=0)
        below = 0
        for group in ("novice", "non_novice"):
            model = build_model(d, group, h=40.0, nx=64, ny=64)
            assert model.p_long == pytest.approx(0.2, abs=0.03)
            assert model.len_sac.shape == pytest.approx(1.8, abs=0.1)
            assert model.to_dict()["p_long"] == model.p_long
            runs = simulate_many(model, 200, 5)
            observed = d.by_group(group)
            simulated = np.concatenate([r.jump_lengths for r in runs]).mean()
            assert simulated == pytest.approx(
                law_sample(observed, "saccade_length").mean(), rel=0.05)
            final = [scanpath_length(s).values[-1] for s in [r.sequence for r in runs] + observed]
            below += int(np.sum(final[len(runs):] < np.quantile(final[:len(runs)], 0.025)))
        assert below <= 4

    def test_given_p_long_is_held_fixed(self, short_dataset):
        fitted = build_model(short_dataset, "novice", h=20.0, nx=32, ny=32)
        fixed = build_model(short_dataset, "novice", h=20.0, nx=32, ny=32, p_long=0.5)
        assert fixed.p_long == 0.5 and fitted.p_long != 0.5
        assert fixed.len_sac != fitted.len_sac

    def test_round_trip_parameter_recovery(self):
        # generator with no long jumps and negligible truncation so the
        # pooled fits should recover the generating laws
        gen = toy_model(
            trial_length=180_000.0,
            p_long=0.0,
            dur_fix=GammaFit(4.0, 1.0 / 75.0, 1, "fixation_duration"),
            len_sac=GammaFit(2.0, 1.0 / 40.0, 1, "saccade_length"),
        )
        d = simulated_dataset(gen, n_subjects=20, seed=8)
        assert sum(len(s) for s in d.sequences) >= 10_000
        model = build_model(d, "novice", h=20.0, nx=32, ny=32, p_long=0.0)
        assert model.dur_fix.shape == pytest.approx(4.0, rel=0.05)
        assert model.dur_fix.rate == pytest.approx(1.0 / 75.0, rel=0.05)
        assert model.len_sac.shape == pytest.approx(2.0, rel=0.05)
        assert model.len_sac.rate == pytest.approx(1.0 / 40.0, rel=0.05)
        assert model.dur_sac.shape == pytest.approx(2.5, rel=0.05)


class TestModelSurfaces:
    # landing candidates and start cells are drawn by cumulative mass
    def test_negative_surface_rejected(self):
        vals = np.ones((8, 8))
        vals[3, 3] = -1e-9
        with pytest.raises(DataError, match="non-negative"):
            model_with_surface(IntensityGrid(W, 8, 8, vals, 10.0))

    def test_massless_start_surface_rejected(self):
        # an all-zero start surface would seed every run in cell (0, 0)
        with pytest.raises(DataError, match="zero mass"):
            model_with_surface(hotspot_grid(nx=8, ny=8),
                               first=IntensityGrid(W, 8, 8, np.zeros((8, 8)), 10.0))


class TestSampleInitial:
    def test_concentrated_grid(self):
        vals = np.full((16, 16), 1e-12)
        vals[7, 3] = 1.0
        model = model_with_surface(IntensityGrid(W, 16, 16, vals, 10.0))
        rng = np.random.default_rng(0)
        cw, ch = model.intensity_first.cell_width, model.intensity_first.cell_height
        hits = 0
        for _ in range(500):
            x, y = sample_initial(model, rng)
            if 3 * cw <= x < 4 * cw and 7 * ch <= y < 8 * ch:
                hits += 1
        assert hits >= 495

    def test_flat_grid_uniform(self):
        model = model_with_surface(IntensityGrid(W, 4, 4, np.ones((4, 4)), 10.0))
        rng = np.random.default_rng(1)
        counts = np.zeros((4, 4))
        n = 8000
        for _ in range(n):
            x, y = sample_initial(model, rng)
            counts[int(y // (768 / 4)), int(x // (770 / 4))] += 1
        expected = n / 16
        stat = ((counts - expected) ** 2 / expected).sum()
        from fixproc import chisq_sf

        assert chisq_sf(stat, 15) > 0.01

    def test_histogram_total_variation(self):
        rng_build = np.random.default_rng(2)
        vals = rng_build.uniform(0.2, 2.0, (8, 8))
        model = model_with_surface(IntensityGrid(W, 8, 8, vals, 10.0))
        rng = np.random.default_rng(3)
        counts = np.zeros((8, 8))
        n = 100_000
        for _ in range(n):
            x, y = sample_initial(model, rng)
            counts[int(y // (768 / 8)), int(x // (770 / 8))] += 1
        probs = vals / vals.sum()
        tv = 0.5 * np.abs(counts / n - probs).sum()
        assert tv < 0.02


def kept_jumps(model, n_runs, seed):
    """(branch, length, l_max) of every kept jump of ``simulate_many`` runs,
    l_max being the farthest-corner distance of the fixation it leaves."""
    jumps = []
    for run in simulate_many(model, n_runs, seed):
        starts = run.sequence.locations[:-1].tolist()
        assert len(starts) == len(run.long_jump) == len(run.jump_lengths)
        branches = np.where(run.long_jump, "uniform_long", "gamma").tolist()
        for (x, y), branch, length in zip(starts, branches, run.jump_lengths.tolist()):
            jumps.append((branch, length, far_corner_distance(x, y, W)))
    return jumps


def assert_lengths_in_branch_range(jumps):
    for branch, length, l_max in jumps:
        if branch == "gamma":
            assert 0 < length <= l_max
        else:
            assert branch == "uniform_long"
            assert l_max / 2 <= length <= l_max


class TestSampleSaccadeLength:
    def test_p_zero_all_gamma(self):
        jumps = kept_jumps(toy_model(p_long=0.0, trial_length=20_000.0), 8, seed=4)
        assert len(jumps) > 300
        assert {branch for branch, _, _ in jumps} == {"gamma"}
        assert_lengths_in_branch_range(jumps)

    def test_p_one_all_uniform_upper_half(self):
        jumps = kept_jumps(toy_model(p_long=1.0, trial_length=20_000.0), 8, seed=5)
        assert len(jumps) > 300
        assert {branch for branch, _, _ in jumps} == {"uniform_long"}
        assert_lengths_in_branch_range(jumps)

    def test_mixture_fraction(self):
        # 36 directions keep 20 000 jumps quick; the branch draw ignores them
        model = toy_model(p_long=0.2, n_angles=36, trial_length=40_000.0)
        jumps = kept_jumps(model, 200, seed=6)
        assert len(jumps) > 20_000
        assert_lengths_in_branch_range(jumps)
        longs = sum(branch == "uniform_long" for branch, _, _ in jumps)
        assert longs / len(jumps) == pytest.approx(0.2, abs=0.01)


_MIDLINE_W = Window(-13.5, 7.25, 812.0, 600.5)


def window_points(w):
    """Points of ``w`` with its midlines, rim and corners drawn often."""
    xs = st.one_of(st.floats(w.x_min, w.x_max),
                   st.sampled_from([w.x_min, (w.x_min + w.x_max) / 2.0, w.x_max]))
    ys = st.one_of(st.floats(w.y_min, w.y_max),
                   st.sampled_from([w.y_min, (w.y_min + w.y_max) / 2.0, w.y_max]))
    return st.lists(st.tuples(xs, ys), min_size=1, max_size=8)


class TestCornerOffsets:
    @settings(max_examples=200)
    @given(st.sampled_from([W, _MIDLINE_W]).flatmap(
        lambda w: st.tuples(st.just(w), window_points(w))))
    def test_hypot_is_max_corner_distance(self, case):
        w, points = case
        xs, ys = (list(v) for v in zip(*points))
        dx, dy = corner_offsets(w, xs, ys)
        for x, y, off_x, off_y in zip(xs, ys, dx.tolist(), dy.tolist()):
            assert math.hypot(off_x, off_y) == far_corner_distance(x, y, w)
            assert abs(off_x) == max(x - w.x_min, w.x_max - x)
            assert abs(off_y) == max(y - w.y_min, w.y_max - y)
            cx, cy = farthest_corner(x, y, w)
            assert (off_x, off_y) == (cx - x, cy - y)

    def test_lowest_outside_point_raises_its_error(self):
        with pytest.raises(DataError) as ref:
            farthest_corner(-1.0, 5.0, W)
        with pytest.raises(DataError) as got:
            corner_offsets(W, [10.0, -1.0, 900.0], [10.0, 5.0, 5.0])
        assert str(got.value) == str(ref.value) == "point (-1.0, 5.0) outside window"


class TestNextLocation:
    def _flat_model(self):
        return model_with_surface(IntensityGrid(W, 16, 16, np.ones((16, 16)), 10.0))

    def test_flat_intensity_uniform_angles(self):
        model = self._flat_model()
        rng = np.random.default_rng(7)
        x0, y0, l = 385.0, 384.0, 50.0
        bins = np.zeros(36)
        n = 7200
        for _ in range(n):
            x, y = next_location(model, x0, y0, l, rng)
            theta = np.arctan2(y - y0, x - x0) % (2 * np.pi)
            bins[int(theta / (2 * np.pi) * 36) % 36] += 1
        expected = n / 36
        stat = ((bins - expected) ** 2 / expected).sum()
        from fixproc import chisq_sf

        assert chisq_sf(stat, 35) > 0.01

    @pytest.mark.parametrize("n_angles", [4, 360, 720])
    def test_picks_equal_reference(self, n_angles):
        # same draws, same candidates, same weights: the same landing point
        model = toy_model(n_angles=n_angles, nx=128, ny=128)
        rng = np.random.default_rng(n_angles)
        for _ in range(300):
            x, y = rng.uniform([0.0, 0.0], [770.0, 768.0])
            x, y = rng.choice([x, 0.0, 770.0]), rng.choice([y, 0.0, 768.0])
            # up to the furthest corner, where only the guaranteed candidate fits
            length = rng.choice([rng.uniform(0.0, 1.0), 1.0]) * far_corner_distance(x, y, W)
            seed = int(rng.integers(2**32))
            got = next_location(model, x, y, length, np.random.default_rng(seed))
            ref = next_location_reference(model, x, y, length, np.random.default_rng(seed))
            assert got == ref

    def test_ridge_attracts_samples(self):
        # steep intensity ridge along +x from the start point
        nx = ny = 64
        xs = W.x_min + (np.arange(nx) + 0.5) * (W.width / nx)
        ys = W.y_min + (np.arange(ny) + 0.5) * (W.height / ny)
        ex, ey = np.meshgrid(xs, ys)
        vals = np.exp(-((ey - 384.0) ** 2) / (2 * 8.0**2)) * (ex > 385) + 1e-9
        model = model_with_surface(IntensityGrid(W, nx, ny, vals, 10.0))
        rng = np.random.default_rng(8)
        n = 500
        hits = 0
        for _ in range(n):
            x, y = next_location(model, 385.0, 384.0, 80.0, rng)
            theta = np.degrees(np.arctan2(y - 384.0, x - 385.0))
            if abs(theta) <= 30.0:
                hits += 1
        assert hits / n >= 0.9

    def test_exact_distance_and_containment(self):
        model = self._flat_model()
        rng = np.random.default_rng(9)
        for _ in range(200):
            x0 = rng.uniform(10, 760)
            y0 = rng.uniform(10, 758)
            l = rng.uniform(1, far_corner_distance(x0, y0, W))
            x, y = next_location(model, x0, y0, l, rng)
            assert np.hypot(x - x0, y - y0) == pytest.approx(l, abs=1e-9)
            assert W.contains(x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["ok", "outside", "zero"]), min_size=1, max_size=6),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_lowest_failing_row_raises_its_error(self, kinds, u):
        # "outside": a NaN length puts every candidate of the row outside
        # the window, so none of them is interpolated; "zero": every
        # candidate lies on a zeroed block of the surface
        vals = np.ones((16, 16))
        vals[2:8, 2:8] = 0.0
        model = model_with_surface(IntensityGrid(W, 16, 16, vals, 10.0))
        jumps = {"ok": (385.0, 384.0, 50.0), "outside": (385.0, 384.0, np.nan),
                 "zero": (240.0, 240.0, 60.0)}
        xs, ys, lengths = (list(v) for v in zip(*(jumps[k] for k in kinds)))
        dx, dy = corner_offsets(W, xs, ys)
        refs = []
        for x, y, length in zip(xs, ys, lengths):
            try:
                refs.append(next_location_reference(model, x, y, length, _Level(u)))
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    _landings(model, xs, ys, dx, dy, lengths, [u] * len(kinds))
                assert str(got.value) == str(exc)
                return
        to_x, to_y = _landings(model, xs, ys, dx, dy, lengths, [u] * len(kinds))
        assert list(zip(to_x, to_y)) == refs

    @pytest.mark.parametrize("x, y", [(-1.0, 384.0), (385.0, 768.5), (np.nan, 384.0)])
    def test_start_outside_window_rejected(self, x, y):
        with pytest.raises(DataError, match="outside window"):
            next_location(self._flat_model(), x, y, 10.0, np.random.default_rng(11))

    def test_near_max_jump_uses_guaranteed_direction(self):
        model = self._flat_model()
        rng = np.random.default_rng(10)
        x0, y0 = 10.0, 10.0
        l = far_corner_distance(x0, y0, W) * 0.99999
        x, y = next_location(model, x0, y0, l, rng)
        assert W.contains(x, y)


class _Level:
    """Stands in for a generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def simulate_seeded(model, *seeds):
    """One run per seed, run i on ``default_rng(seeds[i])``."""
    return simulate_runs(model, [np.random.default_rng(s) for s in seeds],
                         [f"sim{s}" for s in seeds])


class TestSimulateRun:
    def test_zero_horizon_empty(self, short_model):
        model = toy_model(trial_length=0.0)
        (run,) = simulate_seeded(model, 1)
        assert len(run.sequence) == 0

    def test_deterministic(self, short_model):
        (a,) = simulate_seeded(short_model, 123)
        (b,) = simulate_seeded(short_model, 123)
        assert a.sequence == b.sequence
        assert a.long_jump.tobytes() == b.long_jump.tobytes()
        assert a.jump_lengths.tobytes() == b.jump_lengths.tobytes()

    def test_temporal_bookkeeping(self, short_model):
        (run,) = simulate_seeded(short_model, 42)
        seq = run.sequence
        onsets = seq.onsets
        durs = seq.durations
        assert np.all(np.diff(onsets) > 0)
        # every uncut fixation respects the gap structure
        assert np.all(onsets[1:] >= onsets[:-1] + durs[:-1])
        assert onsets[-1] + durs[-1] <= short_model.trial_length + 1e-9
        # only the final fixation may fall short of the floor (horizon clip)
        assert np.all(durs[:-1] >= short_model.min_fix_dur)

    def test_spatial_invariants(self, short_model):
        (run,) = simulate_seeded(short_model, 77)
        locs = run.sequence.locations
        assert np.all(W.contains(locs[:, 0], locs[:, 1]))
        dists = np.hypot(*np.diff(locs, axis=0).T)
        assert np.allclose(dists, run.jump_lengths, atol=1e-9)
        for (x, y), l in zip(locs[:-1], run.jump_lengths):
            assert l <= far_corner_distance(x, y, W) + 1e-9

    def test_realistic_counts_plausible(self):
        # full-length trials: per-run fixation counts in the plausible range
        model = toy_model(trial_length=180_000.0)
        counts = [len(run.sequence) for run in simulate_seeded(model, *range(8))]
        assert all(326 <= c <= 770 for c in counts)

    def test_simulate_many_streams_differ(self, short_model):
        runs = simulate_many(short_model, 3, seed=5)
        assert len({float(r.sequence.locations[0, 0]) for r in runs}) == 3


def run_fields(run):
    return (run.sequence, run.long_jump.dtype, run.long_jump.tobytes(),
            run.jump_lengths.dtype, run.jump_lengths.tobytes())


def assert_engine_matches_reference(model, n_runs, seed):
    rngs = [substream(seed, "run", i) for i in range(n_runs)]
    ids = [f"r{i:03d}" for i in range(n_runs)]
    runs = simulate_runs(model, rngs, ids)
    assert len(runs) == n_runs
    for i, run in enumerate(runs):
        ref = simulate_run_reference(model, substream(seed, "run", i), ids[i])
        assert run_fields(run) == run_fields(ref), f"run {i}"
    return runs


def block_size(n_angles):
    return max(1, _BLOCK_CANDIDATES // (n_angles + 1))


class TestRunColumns:
    @pytest.mark.parametrize("trial", [0.0, 200.0, 4_000.0])
    def test_jump_columns_are_owned_read_only_and_match_the_reference(self, trial):
        # 90 directions: lockstep blocks of 131 runs, so 150 runs span two;
        # at 200 ms most runs hold one fixation and no jump
        model = toy_model(trial_length=trial, n_angles=90, p_long=0.3)
        runs = simulate_many(model, 150, seed=11)
        columns = []
        for i, run in enumerate(runs):
            n_jumps = max(len(run.sequence) - 1, 0)
            for column, dtype in ((run.jump_lengths, np.float64), (run.long_jump, np.bool_)):
                assert column.dtype == dtype and column.shape == (n_jumps,)
                assert not column.flags.writeable
                assert column.base is None  # a copy, not a view of the block's step table
                columns.append(column)
            ref = simulate_run_reference(model, substream(11, "run", i), f"sim{i:04d}")
            assert run.long_jump.tobytes() == ref.long_jump.tobytes(), f"run {i}"
        for a, b in itertools.combinations(columns, 2):
            assert not np.shares_memory(a, b)
        # each horizon covers its case: no fixation, runs of one and of two
        # fixations, runs of several jumps
        counts = {len(run.sequence) for run in runs}
        assert {0.0: counts == {0}, 200.0: {1, 2} <= counts, 4_000.0: min(counts) > 2}[trial]

    def test_columns_are_copied_read_only(self):
        lengths, long = np.array([3.0, 4.0]), np.array([0.0, 1.0])
        seq = sequence("sim", "novice", "model", [(0, 0, 0, 100), (3, 4, 150, 100),
                                                  (3, 8, 300, 100)])
        run = simulate.SimRun(seq, lengths, long)
        lengths[0] = long[0] = 7.0
        assert run.jump_lengths.tolist() == [3.0, 4.0]
        assert run.long_jump.tolist() == [False, True]
        with pytest.raises(ValueError, match="read-only"):
            run.long_jump[0] = True

    def test_columns_must_fit_the_sequence(self):
        # a sequence of n fixations has max(n - 1, 0) jumps, and each column
        # holds one entry per jump
        seq = sequence("sim", "novice", "model", [(0, 0, 0, 100), (3, 4, 150, 100)])
        run = simulate.SimRun(seq, [5.0], [False])
        empty = sequence("sim", "novice", "model", [])
        assert len(simulate.SimRun(empty, [], []).jump_lengths) == 0
        with pytest.raises(DataError, match="shape"):
            simulate.SimRun(seq, [1.0, 2.0, 3.0], [True])
        with pytest.raises(DataError, match="shape"):
            simulate.SimRun(seq, [1.0, 2.0], [True, False])
        with pytest.raises(DataError, match="FixationSequence"):
            simulate.SimRun(run, [1.0], [False])


class TestLockstepEngine:
    @pytest.mark.parametrize("p_long", [0.0, 1.0, 0.2])
    @pytest.mark.parametrize("n_angles", [4, 360, 720])
    @pytest.mark.parametrize("size", ["one", "block-1", "block", "block+1", "forty"])
    def test_runs_equal_reference(self, size, n_angles, p_long):
        block = block_size(n_angles)
        n_runs = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
                  "forty": 40}[size]
        # few-fixation trials keep the 2 401-run case of n_angles=4 quick
        trial = 1_500.0 if n_runs > 100 else 4_000.0
        model = toy_model(trial_length=trial, n_angles=n_angles, p_long=p_long,
                          nx=128, ny=128)
        runs = assert_engine_matches_reference(model, n_runs, seed=n_runs + n_angles)
        branches = {b for run in runs for b in run.long_jump.tolist()}
        assert branches == {0.0: {False}, 1.0: {True}, 0.2: {False, True}}[p_long]

    def test_zero_horizon_gives_empty_runs(self):
        runs = assert_engine_matches_reference(toy_model(trial_length=0.0), 5, seed=3)
        assert all(len(run.sequence) == 0 for run in runs)

    def test_runs_end_on_different_steps(self):
        # a horizon shorter than most first fixations: most runs stop after
        # one fixation, some after one or a few jumps
        model = toy_model(trial_length=200.0, n_angles=360)
        runs = assert_engine_matches_reference(model, 40, seed=4)
        counts = {len(run.sequence) for run in runs}
        assert 1 in counts and max(counts) >= 2

    def test_surface_with_zero_regions(self):
        # a hotspot with two interior blocks zeroed: candidates there weigh
        # nothing, and runs must route around them (a zero region along the
        # rim could leave a long jump with no weighted candidate at all)
        grid = hotspot_grid(nx=128, ny=128)
        vals = grid.values.copy()
        vals[40:80, 30:70] = 0.0
        vals[20:30, 90:120] = 0.0
        zeroed = IntensityGrid(W, 128, 128, vals, grid.bandwidth)
        model = model_with_surface(zeroed, trial_length=20_000.0)
        runs = assert_engine_matches_reference(model, 40, seed=5)
        for run in runs:
            # every landing point carries weight
            locs = run.sequence.locations[1:]
            assert np.all(zeroed.interp(locs[:, 0], locs[:, 1]) > 0)

    def test_runs_start_near_a_corner(self):
        # every first fixation lands in the bottom-left cell
        first = np.zeros((64, 64))
        first[0, 0] = 1.0
        model = model_with_surface(hotspot_grid(), first=IntensityGrid(W, 64, 64, first, 10.0),
                                   trial_length=5_000.0)
        runs = assert_engine_matches_reference(model, 20, seed=6)
        cw, ch = W.width / 64, W.height / 64
        assert all((run.sequence.locations[0] < (cw, ch)).all() for run in runs)

    def test_zero_surface_error_matches_reference(self):
        # the landing surface is zero everywhere: both paths refuse the
        # first jump with the same message
        model = model_with_surface(IntensityGrid(W, 16, 16, np.zeros((16, 16)), 10.0),
                                   first=hotspot_grid(nx=16, ny=16))
        with pytest.raises(DataError) as ref:
            simulate_run_reference(model, substream(7, "run", 0))
        with pytest.raises(DataError) as got:
            simulate_many(model, 3, seed=7)
        assert str(got.value) == str(ref.value) == (
            "all candidate landing points have zero weight"
        )

    def test_no_length_mass_raises_before_landing_failure(self):
        # the jump length law has no mass below any farthest corner and the
        # landing surface is zero: the length error of the lowest run wins
        base = model_with_surface(IntensityGrid(W, 16, 16, np.zeros((16, 16)), 10.0),
                                  first=hotspot_grid(nx=16, ny=16), p_long=0.0)
        model = replace(base, len_sac=GammaFit(1e4, 1.0, 1000, "saccade_length"))
        with pytest.raises(NumericError) as ref:
            simulate_run_reference(model, substream(7, "run", 0))
        with pytest.raises(NumericError) as got:
            simulate_many(model, 3, seed=7)
        assert str(got.value) == str(ref.value)
        assert "no representable mass" in str(got.value)

    def test_simulate_many_equals_simulate_run(self):
        model = toy_model(trial_length=10_000.0, n_angles=720)
        n = block_size(720) + 3
        many = simulate_many(model, n, seed=8)
        for i, run in enumerate(many):
            (one,) = simulate_runs(model, [substream(8, "run", i)], [f"sim{i:04d}"])
            assert run_fields(run) == run_fields(one)

    @pytest.mark.parametrize("chunk", [1, 7, simulate._CHUNK_STEPS])
    def test_chunk_size_changes_no_output(self, chunk, monkeypatch):
        # runs of about 34 steps: they cross chunk boundaries at every size
        # and end inside a chunk
        model = toy_model(trial_length=12_000.0, n_angles=60, nx=32, ny=32)
        n = block_size(60) + 2
        expected = list(map(run_fields, simulate_many(model, n, seed=9)))
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", chunk)
        assert list(map(run_fields, simulate_many(model, n, seed=9))) == expected

    def test_runs_draw_only_uniforms(self):
        # generators that offer nothing but random(size): no gamma or other
        # distribution method is left in the simulator
        class UniformsOnly:
            def __init__(self, rng):
                self._rng = rng

            def random(self, size=None):
                return self._rng.random(size)

        model = toy_model(trial_length=8_000.0, n_angles=60, nx=32, ny=32)
        ids = [f"r{i}" for i in range(5)]
        wrapped = simulate_runs(model, [UniformsOnly(substream(2, "run", i)) for i in range(5)],
                                ids)
        plain = simulate_runs(model, [substream(2, "run", i) for i in range(5)], ids)
        assert list(map(run_fields, wrapped)) == list(map(run_fields, plain))

    def test_saccade_durations_follow_their_gamma(self):
        # the gap between consecutive fixations is the saccade duration
        model = toy_model(trial_length=180_000.0, n_angles=60, nx=32, ny=32)
        gaps = []
        for run in simulate_many(model, 48, seed=10):
            onsets, durations = run.sequence.onsets, run.sequence.durations
            gaps.append(onsets[1:] - (onsets[:-1] + durations[:-1]))
        gaps = np.concatenate(gaps)
        assert len(gaps) >= 20_000
        assert kstest(gaps, model.dur_sac.cdf).pvalue >= 0.01

    def test_generators_must_be_distinct(self, short_model):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_runs(short_model, [rng, rng], ["a", "b"])
        with pytest.raises(ValueError):
            simulate_runs(short_model, [rng], ["a", "b"])


def curves_of_held_runs(model, n_runs, seed, grid, stats, raster):
    """``simulate_curves``' result from the runs of one ``simulate_many`` call."""
    runs = simulate_many(model, n_runs, seed)
    rows = [curve_rows(r.sequence, model.window, grid, stats, 35.0, raster) for r in runs]
    return np.stack(rows, axis=1), np.array([len(r.sequence) for r in runs])


class TestSimulateCurves:
    @pytest.mark.parametrize("stats", [STATS, ("ball",)])
    @pytest.mark.parametrize("n_angles", [60, 720])
    @pytest.mark.parametrize("size", ["one", "block-1", "block", "block+1", "2block+3"])
    def test_equals_curve_rows_of_the_runs(self, size, n_angles, stats):
        block = block_size(n_angles)
        n_runs = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
                  "2block+3": 2 * block + 3}[size]
        # short trials keep the 395-run case of n_angles=60 quick; some runs
        # have one fixation, so their transition rows are NaN
        model = toy_model(trial_length=1_500.0, n_angles=n_angles, nx=32, ny=32)
        grid = default_grid(2_000.0, 41)
        got = simulate_curves(model, n_runs, 3, grid, stats, 35.0, 8.0)
        ref, ref_counts = curves_of_held_runs(model, n_runs, 3, grid, stats, 8.0)
        assert got.shape == ref.shape == (len(stats) + 16, n_runs, 41)
        assert len(got) == len(ref)
        for j in range(len(ref)):
            assert got[j].tobytes() == ref[j].tobytes()
        assert np.asarray(got).tobytes() == ref.tobytes()
        assert got.counts.tolist() == ref_counts.tolist()

    @pytest.mark.parametrize("trial_length, fixations", [
        (-5.0, {0}), (0.0, {0}), (260.0, {1, 2}),
    ])
    def test_runs_of_few_fixations(self, trial_length, fixations):
        # no fixation, one fixation (NaN transition rows) or one transition
        model = toy_model(trial_length=trial_length, n_angles=60, nx=32, ny=32)
        grid = default_grid(400.0, 41)
        got = simulate_curves(model, 40, 12, grid, STATS, 35.0, 8.0)
        ref, ref_counts = curves_of_held_runs(model, 40, 12, grid, STATS, 8.0)
        assert fixations <= set(got.counts.tolist()) <= {0, 1, 2, 3}
        for j in range(len(ref)):
            assert got[j].tobytes() == ref[j].tobytes()
        assert got.counts.tolist() == ref_counts.tolist()

    def test_blocks_go_through_simulate_many(self, monkeypatch):
        # one call per lockstep block, so tracing simulate_many sees every run
        calls = []
        original = simulate.simulate_many

        def record(model, n_runs, seed, first=0):
            calls.append((n_runs, first))
            return original(model, n_runs, seed, first)

        monkeypatch.setattr(simulate, "simulate_many", record)
        model = toy_model(trial_length=1_000.0, n_angles=720, nx=32, ny=32)
        simulate_curves(model, 2 * block_size(720) + 3, 4, [0.0, 500.0], ["scanpath"])
        assert calls == [(16, 0), (16, 16), (3, 32)]

    def test_first_run_index(self):
        model = toy_model(trial_length=2_000.0, nx=32, ny=32)
        later = simulate_many(model, 3, seed=6, first=5)
        assert [r.sequence.subject_id for r in later] == ["sim0005", "sim0006", "sim0007"]
        alone = simulate_many(model, 8, seed=6)[5:]
        assert list(map(run_fields, later)) == list(map(run_fields, alone))

    def test_no_runs(self):
        curves = simulate_curves(toy_model(nx=32, ny=32), 0, 1, [0.0, 1.0], ["hull"])
        assert curves.shape == (17, 0, 2) and curves.counts.shape == (0,)

    def test_holds_one_block_of_runs(self):
        # 8 blocks of 40 s runs peak no higher than 1 block, beyond the curve
        # store: one block at a time plus the lockstep step's arrays stays
        # under the margin, and the runs of the 7 more blocks would not fit
        # in the slack
        margin, slack = 2_500_000, 250_000
        model = toy_model(trial_length=40_000.0, n_angles=720, nx=32, ny=32)
        n_runs = 8 * block_size(720)
        grid = default_grid(40_000.0, 21)
        peaks = []
        tracemalloc.start()
        try:
            for n in (block_size(720), n_runs):
                tracemalloc.reset_peak()
                curves = simulate_curves(model, n, 5, grid, ["scanpath"])
                peaks.append(tracemalloc.get_traced_memory()[1] - curves.nbytes)
                del curves
            before, _ = tracemalloc.get_traced_memory()
            runs = simulate_many(model, n_runs, 5)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del runs
        one_block, eight_blocks = peaks
        assert eight_blocks < margin
        assert eight_blocks < one_block + slack
        assert held * 7 / 8 > slack

    def test_transitions_take_an_eighth_of_their_float_rows(self):
        # 16 float rows per run and grid time are replaced by one byte per
        # fixation and one index per grid time
        model = toy_model(trial_length=20_000.0, n_angles=90, nx=32, ny=32)
        n_runs, grid = 3 * block_size(90), default_grid(20_000.0, 361)
        tracemalloc.start()
        try:
            curves = simulate_curves(model, n_runs, 6, grid, ["scanpath"])
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        float_rows = 16 * n_runs * grid.size * 8
        assert curves.nbytes - curves.stat_rows.nbytes <= float_rows / 8
        assert held - curves.stat_rows.nbytes <= float_rows / 8
        assert np.asarray(curves).nbytes == curves.stat_rows.nbytes + float_rows


class TestIngestRoundTrip:
    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0]))
    def test_simulated_runs_round_trip_exactly(self, seed, p_long):
        # the written CSV reads back to the same sequences, bit for bit,
        # including the horizon-clipped final fixation
        model = toy_model(trial_length=20_000.0, p_long=p_long)
        runs = simulate_many(model, 3, seed)
        data = runs_to_dataset(runs, model.window, model.trial_length)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sim_fixations.csv"
            write_fixations(data, path)
            back = parse_fixations(path, model.window, model.trial_length)

        assert back.sequences == data.sequences
