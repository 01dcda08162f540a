import sys
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixproc import compare
from fixproc import (
    DataError,
    Dataset,
    RatioTestResult,
    estimate_intensity,
    fisher_combine,
    log_density_ratio,
    permutation_test,
    ratio_statistic,
    shift_function,
)
from fixproc.density import IntensityGrid
from fixproc.rng import substream
from helpers import (
    WINDOW,
    labeled_statistic,
    permutation_test_reference,
    sequence,
    simulated_dataset,
    toy_model,
)

W = WINDOW


class TestShiftFunction:
    def test_identical_samples_zero_shift(self, rng):
        x = rng.gamma(2, 100, 80)
        c = shift_function(x, x)
        assert np.all(c.delta == 0.0)
        assert c.zero_inside()

    def test_pure_shift(self, rng):
        x = rng.gamma(2, 100, 60)
        c = shift_function(x, x + 7.0)
        assert np.allclose(c.delta, 7.0)

    def test_hand_worked_example(self):
        c = shift_function([1, 2, 3], [2, 4, 6])
        assert np.array_equal(c.abscissae, [1, 2, 3])
        assert np.array_equal(c.delta, [1, 2, 3])

    def test_shift_equivariance(self, rng):
        x = rng.gamma(2, 100, 50)
        y = rng.gamma(2, 100, 70)
        base = shift_function(x, y)
        moved = shift_function(x, y + 3.25)
        assert np.allclose(moved.delta, base.delta + 3.25, rtol=0, atol=1e-9)

    def test_band_orders_delta(self, rng):
        x = rng.gamma(2, 100, 40)
        y = rng.gamma(3, 80, 55)
        c = shift_function(x, y)
        assert np.all(c.lower <= c.delta)
        assert np.all(c.delta <= c.upper)

    def test_small_samples_rejected(self):
        with pytest.raises(DataError):
            shift_function([1.0], [1.0, 2.0])

    def test_quick_coverage_sanity(self):
        rng = np.random.default_rng(77)
        hits = sum(
            shift_function(rng.gamma(2, 120, 200), rng.gamma(2, 120, 200)).zero_inside()
            for _ in range(60)
        )
        assert hits >= 51  # full calibration in the acceptance suite


def _flat_grid(value=1.0, nx=16, ny=16, h=10.0):
    return IntensityGrid(W, nx, ny, np.full((ny, nx), value), h)


class TestLogDensityRatio:
    def test_equal_grids_zero(self, rng):
        pts = rng.uniform([100, 100], [600, 600], size=(30, 2))
        g = estimate_intensity(pts, W, 20.0, 32, 32)
        r = log_density_ratio(g, g)
        assert np.max(np.abs(r.values)) == 0.0

    def test_scale_invariance(self):
        g1 = _flat_grid(2.0)
        g2 = _flat_grid(1.0)
        r = log_density_ratio(g1, g2)
        assert np.max(np.abs(r.values)) < 1e-12

    def test_antisymmetry(self, rng):
        a = IntensityGrid(W, 8, 8, rng.uniform(0.5, 2.0, (8, 8)), 10.0)
        b = IntensityGrid(W, 8, 8, rng.uniform(0.5, 2.0, (8, 8)), 10.0)
        assert np.allclose(
            log_density_ratio(a, b).values, -log_density_ratio(b, a).values
        )

    def test_mismatched_grids_rejected(self):
        with pytest.raises(DataError):
            log_density_ratio(_flat_grid(nx=16), _flat_grid(nx=8))


class TestRatioStatistic:
    def test_zero_grid(self):
        assert ratio_statistic(_flat_grid(0.0)) == 0.0

    def test_unit_grid_gives_window_area(self):
        g = IntensityGrid(W, 16, 16, np.ones((16, 16)), 10.0)
        assert ratio_statistic(g) == pytest.approx(W.area, rel=1e-12)

    def test_matches_double_loop(self, rng):
        vals = rng.normal(0, 1, (12, 10))
        g = IntensityGrid(W, 10, 12, vals, 10.0)
        acc = 0.0
        for iy in range(12):
            for ix in range(10):
                acc += vals[iy, ix] ** 2 * g.cell_area
        assert ratio_statistic(g) == pytest.approx(acc, abs=1e-12 * max(acc, 1))

    def test_nonnegative(self, rng):
        g = IntensityGrid(W, 8, 8, rng.normal(0, 1, (8, 8)), 10.0)
        assert ratio_statistic(g) >= 0


def _corner_clusters_dataset(n=30, sd=10.0, centres=((60.0, 60.0), (120.0, 80.0))):
    """3 + 3 subjects of n fixations (sd) near the first and the second centre."""
    rng = np.random.default_rng(41)
    seqs = []
    for i in range(6):
        group, centre = ("novice", centres[0]) if i < 3 else ("non_novice", centres[1])
        pts = rng.normal(centre, sd, size=(n, 2))
        rows = [(x, y, j * 300.0, 200.0) for j, (x, y) in enumerate(pts)]
        seqs.append(sequence(f"s{i}", group, "koli", rows))
    return Dataset(window=W, sequences=seqs, trial_length=10_000.0)


@pytest.fixture(scope="module")
def tiny_dataset():
    model = toy_model(trial_length=8_000.0)
    return simulated_dataset(model, n_subjects=8, seed=3)


class TestPermutationTest:
    def test_p_respects_formula(self, tiny_dataset):
        res = permutation_test(tiny_dataset, m=49, h1=30.0, h2=30.0, seed=5, nx=24, ny=24)
        assert res.p == (res.k + 1) / (res.m + 1)
        assert 0 < res.p <= 1

    def test_deterministic_given_seed(self, tiny_dataset):
        a = permutation_test(tiny_dataset, m=29, h1=30.0, h2=30.0, seed=9, nx=16, ny=16)
        b = permutation_test(tiny_dataset, m=29, h1=30.0, h2=30.0, seed=9, nx=16, ny=16)
        assert a.T0 == b.T0 and a.p == b.p and a.k == b.k
        assert np.array_equal(a.r_grid.values, b.r_grid.values)

    def test_observed_statistic_equals_the_index_array_path(self, tiny_dataset):
        # the observed groups are summed from row slices; index arrays copy
        # the same rows and sum them in the same order, to the same bits
        res = permutation_test(tiny_dataset, m=9, h1=30.0, h2=45.0, seed=2, nx=64, ny=64)
        seqs1, seqs2 = tiny_dataset.two_groups()
        n1, n2 = len(seqs1), len(seqs2)
        pts = [s.locations for s in seqs1 + seqs2]
        w = tiny_dataset.window
        rows1 = compare._subject_surfaces(pts, w, 30.0, 64, 64)
        rows2 = compare._subject_surfaces(pts, w, 45.0, 64, 64)
        T0, r0 = labeled_statistic(rows1, rows2, np.arange(n1), np.arange(n1, n1 + n2), w, 64, 64)
        assert res.T0 == T0
        assert res.r_grid.values.tobytes() == r0.values.tobytes()

    @pytest.mark.parametrize("h2, calls", [(30.0, [30.0]), (45.0, [30.0, 45.0])])
    def test_kernel_rows_once_per_distinct_bandwidth(self, tiny_dataset, monkeypatch, h2, calls):
        # equal bandwidths share one (subjects, cells) matrix
        seen = []
        surfaces = compare._subject_surfaces

        def count(subjects, w, h, nx, ny):
            seen.append(h)
            return surfaces(subjects, w, h, nx, ny)

        monkeypatch.setattr(compare, "_subject_surfaces", count)
        permutation_test(tiny_dataset, m=9, h1=30.0, h2=h2, seed=2, nx=16, ny=16)
        assert sorted(seen) == calls

    def test_needs_two_subjects_per_group(self, short_model):
        d = simulated_dataset(short_model, n_subjects=2, seed=1)
        with pytest.raises(DataError, match="2 subjects"):
            permutation_test(d, m=9, h1=30.0, h2=30.0, seed=1)

    def test_needs_a_permutation(self, tiny_dataset):
        with pytest.raises(DataError, match="at least one permutation"):
            permutation_test(tiny_dataset, m=0, h1=30.0, h2=30.0, seed=1, nx=16, ny=16)

    @pytest.mark.parametrize("h1, h2", [(np.nan, 30.0), (30.0, np.inf), (-np.inf, 30.0)])
    def test_non_finite_bandwidth_rejected(self, tiny_dataset, h1, h2):
        # a NaN statistic compares false with every draw: k = 0 read as significant
        with pytest.raises(DataError, match="bandwidths"):
            permutation_test(tiny_dataset, m=9, h1=h1, h2=h2, seed=1, nx=16, ny=16)

    def test_bandwidths_are_required(self, tiny_dataset):
        with pytest.raises(TypeError):
            permutation_test(tiny_dataset, m=9, seed=1)
        with pytest.raises(TypeError):
            permutation_test(tiny_dataset, m=9, h1=30.0, seed=1)

    def test_seed_is_required(self, tiny_dataset):
        # a silent seed 0 gave every unseeded call the same draws
        with pytest.raises(TypeError):
            permutation_test(tiny_dataset, m=9, h1=30.0, h2=30.0)

    @settings(max_examples=20)
    @given(st.permutations(range(4)), st.permutations(range(4)), st.booleans())
    def test_T0_ignores_subject_order_within_groups(self, tiny_dataset, order1, order2, mixed):
        # the statistic sees each group only as a sum over its subjects; the
        # order of the sequences (grouped or interleaved) moves T0 in its
        # last bits at most, and never the labels
        novices = tiny_dataset.by_group("novice")
        others = tiny_dataset.by_group("non_novice")
        a = [novices[i] for i in order1]
        b = [others[i] for i in order2]
        seqs = [s for pair in zip(b, a) for s in pair] if mixed else a + b
        reordered = Dataset(tiny_dataset.window, seqs, tiny_dataset.trial_length)
        base = permutation_test(tiny_dataset, m=9, h1=28.0, h2=32.0, seed=3, nx=20, ny=20)
        res = permutation_test(reordered, m=9, h1=28.0, h2=32.0, seed=3, nx=20, ny=20)
        assert res.T0 == pytest.approx(base.T0, rel=1e-12)
        scale = np.abs(base.r_grid.values).max()
        assert np.allclose(res.r_grid.values, base.r_grid.values, rtol=0, atol=1e-12 * scale)

    def test_statistic_against_public_route(self, tiny_dataset):
        # the fast per-subject path must agree with the documented
        # estimate -> normalize -> log-ratio -> integrate route, also when
        # far-field cells underflow and the clamp at the smallest float decides
        cases = [
            (tiny_dataset, 28.0, 32.0, 20),
            (_corner_clusters_dataset(), 8.0, 8.0, 128),
        ]
        for data, h1, h2, n in cases:
            res = permutation_test(data, m=9, h1=h1, h2=h2, seed=2, nx=n, ny=n)
            g1 = estimate_intensity(data.pooled_locations("novice"), W, h1, n, n)
            g2 = estimate_intensity(data.pooled_locations("non_novice"), W, h2, n, n)
            T = ratio_statistic(log_density_ratio(g1, g2))
            assert res.T0 == pytest.approx(T, rel=1e-12)


def _overlapping_dataset():
    """4 novices and 4 non-novices around two overlapping hotspots.

    The groups differ enough that the observed split (and its mirror image)
    gives by far the largest T, while the surfaces are smooth enough that
    the order in which subject rows are summed moves T in its last bits.
    """
    rng = np.random.default_rng(2)
    seqs = []
    for i in range(8):
        group, centre = ("novice", (250.0, 300.0)) if i < 4 else ("non_novice", (500.0, 450.0))
        pts = np.clip(rng.normal(centre, 110.0, size=(30, 2)), 1.0, 767.0)
        rows = [(x, y, j * 300.0, 200.0) for j, (x, y) in enumerate(pts)]
        seqs.append(sequence(f"s{i}", group, "koli", rows))
    return Dataset(window=W, sequences=seqs, trial_length=10_000.0)


def _draws_of(first_sets, m, seed, total, n1):
    """How many of draws 1..m put one of ``first_sets`` in the first group."""
    hits = 0
    for j in range(1, m + 1):
        hits += set(substream(seed, "perm", j).permutation(total)[:n1].tolist()) in first_sets
    return hits


class TestPermutationTies:
    def test_draws_of_the_observed_partition_are_counted(self):
        # With h1 == h2 the observed split and its mirror image give the same
        # T, and every mixed split gives a far smaller one. So k must equal
        # the number of draws that reproduce either split, whatever order
        # the draw lists the subjects in.
        data = _overlapping_dataset()
        m, seed = 700, 13
        res = permutation_test(data, m=m, h1=80.0, h2=80.0, seed=seed, nx=32, ny=32)
        tied = _draws_of(({0, 1, 2, 3}, {4, 5, 6, 7}), m, seed, 8, 4)
        assert tied > 0
        assert res.k == tied

    def test_ties_do_not_depend_on_the_floats(self, monkeypatch):
        # every block statistic comes out a relative 1e-12 low, so no draw
        # reaches T0 by float comparison; draws of the observed split and
        # its mirror still count, because ties are decided on the partition
        block_statistic = compare._block_statistic
        monkeypatch.setattr(
            compare, "_block_statistic", lambda *a: block_statistic(*a) * (1.0 - 1e-12)
        )
        data = _overlapping_dataset()
        m, seed = 700, 13
        res = permutation_test(data, m=m, h1=80.0, h2=80.0, seed=seed, nx=32, ny=32)
        assert res.k == _draws_of(({0, 1, 2, 3}, {4, 5, 6, 7}), m, seed, 8, 4)

    def test_mirror_is_no_tie_when_bandwidths_differ(self, monkeypatch):
        # with h2 = 81 the mirror split's T is 1.5 % below T0, so only draws
        # of the observed split may count
        block_statistic = compare._block_statistic
        monkeypatch.setattr(
            compare, "_block_statistic", lambda *a: block_statistic(*a) * (1.0 - 1e-12)
        )
        data = _overlapping_dataset()
        m, seed = 700, 13
        res = permutation_test(data, m=m, h1=80.0, h2=81.0, seed=seed, nx=32, ny=32)
        assert res.k == _draws_of(({0, 1, 2, 3},), m, seed, 8, 4)


def _relabeled(dataset, n1):
    """The dataset's subjects in order, the first n1 novices, the rest not."""
    seqs = [
        replace(s, group="novice" if i < n1 else "non_novice")
        for i, s in enumerate(dataset.sequences)
    ]
    return replace(dataset, sequences=seqs)


class TestBlockEngine:
    """The block engine against the one-draw loop it replaced, ``==`` on k, p and T0."""

    DESIGNS = {
        "3v5_h_differ": (3, 26.0, 34.0),
        "3v5_h_equal": (3, 30.0, 30.0),
        "4v4_h_differ": (4, 28.0, 32.0),
        "4v4_h_equal": (4, 30.0, 30.0),
    }

    # of 256-cell tiles, 12 x 10 fills less than one and 16 x 16 exactly
    # one; 24 x 20 ends in a part tile and 128 x 128 in a whole one
    @pytest.mark.parametrize("nx, ny", [(12, 10), (16, 16), (24, 20), (128, 128)])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_matches_one_draw_loop(self, tiny_dataset, design, nx, ny):
        n1, h1, h2 = self.DESIGNS[design]
        data = _relabeled(tiny_dataset, n1)
        block = compare._BLOCK_DRAWS
        for m in (1, block - 1, block, block + 1, 3 * block + 2):
            res = permutation_test(data, m=m, h1=h1, h2=h2, seed=m, nx=nx, ny=ny)
            k, T0 = permutation_test_reference(data, m=m, h1=h1, h2=h2, seed=m, nx=nx, ny=ny)
            assert (res.k, res.T0) == (k, T0), (design, nx, ny, m)
            assert res.p == (k + 1) / (m + 1)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_worker_count_changes_nothing(self, tiny_dataset, design, monkeypatch):
        # blocks are cut by draw number, never by worker, so one thread and
        # three threads (switching as often as the interpreter allows) score
        # every draw alike
        n1, h1, h2 = self.DESIGNS[design]
        data = _relabeled(tiny_dataset, n1)
        m = 3 * compare._BLOCK_DRAWS + 2
        results = []
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 3):
                monkeypatch.setattr(compare, "_workers", lambda: workers)
                sys.setswitchinterval(1e-6 if workers > 1 else interval)
                res = permutation_test(data, m=m, h1=h1, h2=h2, seed=6, nx=24, ny=20)
                results.append((res.k, res.p, res.distinct_partitions))
        finally:
            sys.setswitchinterval(interval)
        k, _ = permutation_test_reference(data, m=m, h1=h1, h2=h2, seed=6, nx=24, ny=20)
        total = len(data.sequences)
        distinct = len({
            frozenset(substream(6, "perm", j).permutation(total)[:n1].tolist())
            for j in range(1, m + 1)
        })
        assert results[0] == results[1] == (k, (k + 1) / (m + 1), distinct)

    def test_surfaces_that_underflow_everywhere(self, tiny_dataset):
        # at h = 0.001 px every kernel value on a 16 x 16 grid underflows, so
        # both groups clamp to the same flat surface: T0 = 0 and every draw
        # ties it, as on the one-draw route
        args = dict(m=40, h1=1e-3, h2=1e-3, seed=2, nx=16, ny=16)
        res = permutation_test(tiny_dataset, **args)
        k, T0 = permutation_test_reference(tiny_dataset, **args)
        assert (res.T0, res.k) == (T0, k) == (0.0, 40)


    @pytest.mark.parametrize("case", ["toy", "corner_clusters", "dense_clusters"])
    def test_block_statistic_matches_row_sums(self, tiny_dataset, case):
        # each group summed from its own rows and clamped, also where the
        # far field of small clusters underflows, and where a dense cluster's
        # peak (about 12) over the other group's clamped 2e-308 would
        # overflow as one ratio
        dense = _corner_clusters_dataset(60, 0.5, ((63.0, 63.0), (123.0, 81.0)))
        data, h1, h2, n = {
            "toy": (tiny_dataset, 28.0, 32.0, 24),
            "corner_clusters": (_corner_clusters_dataset(), 8.0, 8.0, 128),
            "dense_clusters": (dense, 1.5, 1.5, 128),
        }[case]
        pts = [s.locations for s in data.sequences]
        rows1 = compare._subject_surfaces(pts, W, h1, n, n)
        rows2 = compare._subject_surfaces(pts, W, h2, n, n)
        cell_area = (W.width / n) * (W.height / n)
        total = len(pts)
        firsts = [substream(4, "perm", j).permutation(total)[: total // 2] for j in range(5)]
        labels = np.zeros((len(firsts), total))
        for row, first in enumerate(firsts):
            labels[row, first] = 1.0
        T = compare._block_statistic(
            labels, rows1, rows2, rows1.sum(axis=1), rows2.sum(axis=1), cell_area
        )
        for row, first in enumerate(firsts):
            rest = np.setdiff1d(np.arange(total), first)
            T_row, _ = labeled_statistic(rows1, rows2, np.sort(first), rest, W, n, n)
            assert T[row] == pytest.approx(T_row, rel=1e-12)


class TestMonteCarloDiagnostics:
    def test_mc_se_by_hand(self):
        grid = IntensityGrid(W, 2, 2, np.zeros((2, 2)), float("nan"))
        res = RatioTestResult(
            T0=1.0, p=0.25, m=12, h1=1.0, h2=1.0, r_grid=grid, k=2, distinct_partitions=3
        )
        # sqrt(0.25 * 0.75 / 12) = sqrt(1/64)
        assert res.mc_se == 0.125
        payload = res.to_dict()
        assert payload["mc_se"] == 0.125
        assert payload["distinct_partitions"] == 3

    @pytest.mark.parametrize("m", [1, 3, 5, 200])
    def test_distinct_partitions_on_two_versus_two(self, short_model, m):
        data = simulated_dataset(short_model, n_subjects=4, seed=1)
        res = permutation_test(data, m=m, h1=30.0, h2=30.0, seed=8, nx=16, ny=16)
        assert 1 <= res.distinct_partitions <= min(m, comb(4, 2))
        firsts = {
            frozenset(substream(8, "perm", j).permutation(4)[:2].tolist())
            for j in range(1, m + 1)
        }
        assert res.distinct_partitions == len(firsts)


    def test_distinct_partitions_past_one_byte_of_subjects(self, short_model):
        # nine subjects pack into two bytes a draw; 126 partitions, so 400
        # draws repeat some
        data = simulated_dataset(short_model, n_subjects=9, seed=1)
        res = permutation_test(data, m=400, h1=30.0, h2=30.0, seed=8, nx=16, ny=16)
        firsts = {frozenset(substream(8, "perm", j).permutation(9)[:4].tolist())
                  for j in range(1, 401)}
        assert res.distinct_partitions == len(firsts) < 126


class TestOnePainting:
    def test_two_paintings_rejected(self, tiny_dataset):
        other = [replace(s, painting_id="monet") for s in tiny_dataset.sequences]
        data = replace(tiny_dataset, sequences=tiny_dataset.sequences + other)
        with pytest.raises(DataError, match="pick one with --painting"):
            permutation_test(data, m=9, h1=30.0, h2=30.0, seed=1, nx=16, ny=16)


class TestFisher:
    def test_reference_value(self):
        # six equal p-values tuned so the statistic is exactly 12.685
        p = float(np.exp(-12.685 / 12.0))
        chi2, df, combined = fisher_combine([p] * 6)
        assert chi2 == pytest.approx(12.685, abs=1e-12)
        assert df == 12
        assert combined == pytest.approx(0.392, abs=1e-3)

    def test_all_ones(self):
        chi2, df, p = fisher_combine([1.0, 1.0, 1.0])
        assert chi2 == 0.0
        assert p == 1.0

    def test_six_halves(self):
        chi2, df, p = fisher_combine([0.5] * 6)
        assert chi2 == pytest.approx(12 * np.log(2), rel=1e-12)
        assert df == 12
        assert p == pytest.approx(0.7598, abs=1e-4)

    def test_zero_p_rejected(self):
        with pytest.raises(DataError):
            fisher_combine([0.0, 0.5])

    def test_above_one_rejected(self):
        with pytest.raises(DataError):
            fisher_combine([1.5])
