import csv
import json
from dataclasses import asdict, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixproc import (
    DataError,
    Dataset,
    FixationSequence,
    Saccades,
    Window,
    derive_saccades,
    filter_fixations,
    parse_fixations,
    write_fixations,
)
from fixproc.core import StepCurve
from fixproc.envelopes import CurveMatrix, rank_envelope
from fixproc.fitdist import fit_gamma_mle, law_sample
from fixproc.ingest import (
    _CSV_ROWS,
    SequenceReport,
    ingest_pipeline,
    write_csv,
    write_json,
    write_saccades,
)
from fixproc.compare import RatioTestResult, shift_function
from fixproc.density import IntensityGrid, quadrat_chisq
from fixproc.summaries import transition_curves
from helpers import (
    derive_saccades_reference,
    hotspot_grid,
    sequence,
    valid_saccade_values_reference,
    write_csv_reference,
    write_json_reference,
)

W = Window(0.0, 0.0, 770.0, 768.0)
HEADER = "subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px\n"


def _write(tmp_path, body, name="f.csv"):
    p = tmp_path / name
    p.write_text(HEADER + body)
    return p


class TestParse:
    def test_two_rows_one_subject(self, tmp_path):
        p = _write(tmp_path, "s1,novice,koli,0,100,10,10\ns1,novice,koli,150,100,20,20\n")
        d = parse_fixations(p)
        assert len(d.sequences) == 1
        assert len(d.sequences[0]) == 2

    def test_header_only(self, tmp_path):
        p = _write(tmp_path, "")
        d = parse_fixations(p)
        assert d.sequences == []

    def test_out_of_order_rows_sorted_with_warning(self, tmp_path):
        shuffled = _write(
            tmp_path, "s1,novice,koli,150,100,20,20\ns1,novice,koli,0,100,10,10\n", "a.csv"
        )
        ordered = _write(
            tmp_path, "s1,novice,koli,0,100,10,10\ns1,novice,koli,150,100,20,20\n", "b.csv"
        )
        with pytest.warns(UserWarning, match="out of time order"):
            d1 = parse_fixations(shuffled)
        d2 = parse_fixations(ordered)
        assert d1.sequences[0] == d2.sequences[0]

    def test_malformed_row_reports_line(self, tmp_path):
        p = _write(tmp_path, "s1,novice,koli,0,100,10,10\ns1,novice,koli,abc,100,1,1\n")
        with pytest.raises(DataError, match=":3"):
            parse_fixations(p)

    def test_duplicate_onset_rejected(self, tmp_path):
        p = _write(tmp_path, "s1,novice,koli,0,100,10,10\ns1,novice,koli,0,90,20,20\n")
        with pytest.raises(DataError, match="duplicate onset"):
            parse_fixations(p)

    def test_unknown_group_rejected(self, tmp_path):
        p = _write(tmp_path, "s1,expert,koli,0,100,10,10\n")
        with pytest.raises(DataError, match="unknown group"):
            parse_fixations(p)

    def test_conflicting_group_labels_rejected(self, tmp_path):
        p = _write(
            tmp_path, "s1,novice,koli,0,100,10,10\ns1,non_novice,koli,200,100,20,20\n"
        )
        with pytest.raises(DataError, match="two group labels"):
            parse_fixations(p)

    def test_subject_with_two_group_labels_across_paintings_rejected(self, tmp_path):
        # expertise belongs to the viewer, not to the (viewer, painting) pair
        p = _write(tmp_path, "s1,novice,a,0,100,10,10\ns2,non_novice,a,0,100,10,10\n"
                             "s1,non_novice,b,0,100,20,20\n")
        with pytest.raises(DataError) as err:
            parse_fixations(p)
        assert str(err.value) == (
            f"{p}:4: subject 's1' has two group labels: 'novice' on line 2,"
            " 'non_novice' on line 4"
        )

    @pytest.mark.parametrize(
        "row",
        [
            "s1,novice,koli,150,nan,20,20",
            "s1,novice,koli,inf,100,20,20",
            "s1,novice,koli,150,100,nan,20",
            "s1,novice,koli,150,100,20,-inf",
        ],
    )
    def test_non_finite_value_rejected_with_line(self, tmp_path, row):
        p = _write(tmp_path, "s1,novice,koli,0,100,10,10\n" + row + "\n")
        with pytest.raises(DataError, match=r"f\.csv:3: non-finite"):
            parse_fixations(p)

    def test_valid_jump_in_column_sets_the_jumps(self, tmp_path):
        # the flag moves with its row through the onset sort; the first row's is ignored
        p = tmp_path / "flags.csv"
        p.write_text(HEADER.strip() + ",valid_jump_in\n"
                     "s1,novice,koli,400,100,30,30,0\n"
                     "s1,novice,koli,0,100,10,10,0\n"
                     "s1,novice,koli,200,100,20,20, 1\n"
                     "s1,novice,koli,600,100,40,40,1\n")
        with pytest.warns(UserWarning, match="out of time order"):
            d = parse_fixations(p)
        assert d.sequences[0].onsets.tolist() == [0.0, 200.0, 400.0, 600.0]
        assert d.sequences[0].valid_jumps.tolist() == [True, False, True]

    def test_without_the_column_every_jump_is_valid(self, tmp_path):
        p = _write(tmp_path, "s1,novice,koli,0,100,10,10\ns1,novice,koli,150,100,20,20\n")
        assert parse_fixations(p).sequences[0].valid_jumps.tolist() == [True]

    @pytest.mark.parametrize("flag", ["2", "", "true", "1.0", "-1"])
    def test_valid_jump_in_other_than_0_or_1_rejected_with_line(self, tmp_path, flag):
        p = tmp_path / "flags.csv"
        p.write_text(HEADER.strip() + ",valid_jump_in\n"
                     "s1,novice,koli,0,100,10,10,1\n"
                     f"s1,novice,koli,150,100,20,20,{flag}\n")
        with pytest.raises(DataError, match=f":3: valid_jump_in must be 0 or 1, got '{flag}'"):
            parse_fixations(p)

    def test_missing_valid_jump_in_value_is_malformed(self, tmp_path):
        p = tmp_path / "flags.csv"
        p.write_text(HEADER.strip() + ",valid_jump_in\n"
                     "s1,novice,koli,0,100,10,10,1\n"
                     "s1,novice,koli,150,100,20,20\n")
        with pytest.raises(DataError, match=":3: malformed row"):
            parse_fixations(p)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("subject_id,group\ns1,novice\n")
        with pytest.raises(DataError, match="missing columns"):
            parse_fixations(p)

    @pytest.mark.parametrize("bad", ["room/a", "room\\a", "a\0b", ".", "..", "/", "a/"])
    @pytest.mark.parametrize("column", ["subject_id", "painting_id"])
    def test_id_that_cannot_be_a_file_name_part_rejected(self, tmp_path, column, bad):
        # outputs are named after the ids; the second sequence is the bad one
        subject, painting = (bad, "koli") if column == "subject_id" else ("s1", bad)
        p = _write(tmp_path, "s0,novice,koli,0,100,10,10\n"
                   f"{subject},novice,{painting},0,100,10,10\n")
        with pytest.raises(DataError) as err:
            parse_fixations(p)
        assert str(err.value).startswith(f"{p}:3: {column} {bad!r} cannot be part of a file name")

    @pytest.mark.parametrize("first, second, name", [
        (("s_1", "x"), ("s", "1_x"), "s_1_x"),  # summary_<subject>_<painting>_*.csv
        (("a:b", "c"), ("a", "b:c"), "a:b:c"),  # envelope keys <subject>:<painting>
    ])
    def test_two_sequences_with_one_output_name_rejected(self, tmp_path, first, second, name):
        # the second sequence's outputs used to overwrite the first's
        p = _write(tmp_path, f"{first[0]},novice,{first[1]},0,100,10,10\n"
                             f"{second[0]},novice,{second[1]},0,100,10,10\n")
        with pytest.raises(DataError) as err:
            parse_fixations(p)
        assert str(err.value) == (
            f"{p}:3: subject {second[0]!r} on painting {second[1]!r} has the output name"
            f" {name!r} of subject {first[0]!r} on painting {first[1]!r} on line 2"
        )

    def test_one_name_under_two_separators_accepted(self, tmp_path):
        # "_" names files and ":" names JSON keys, so these two never meet
        p = _write(tmp_path, "a:b,novice,c,0,100,10,10\na,novice,b_c,0,100,10,10\n")
        assert len(parse_fixations(p).sequences) == 2

    @pytest.mark.parametrize("ok", ["a.b", "...", ".a", "a..b", "room-a", "r a", "ü"])
    def test_dots_inside_ids_accepted(self, tmp_path, ok):
        p = _write(tmp_path, f"{ok},novice,{ok},0,100,10,10\n")
        d = parse_fixations(p)
        assert (d.sequences[0].subject_id, d.sequences[0].painting_id) == (ok, ok)


def _totals(report) -> dict:
    return report.to_dict()["totals"]


def _dataset(rows):
    return Dataset(window=W, sequences=[sequence("s1", "novice", "koli", rows)])


class TestFilter:
    def test_all_valid_unchanged(self):
        d = _dataset([(10, 10, 0, 100), (20, 20, 200, 100)])
        out, rep = filter_fixations(d)
        assert out.sequences[0] == d.sequences[0]
        assert _totals(rep)["n_short_excluded"] == _totals(rep)["n_outside_excluded"] == 0

    def test_39ms_excluded_40ms_kept(self):
        d = _dataset([(10, 10, 0, 39), (20, 20, 100, 40)])
        out, rep = filter_fixations(d, min_dur=40)
        assert len(out.sequences[0]) == 1
        assert _totals(rep)["n_short_excluded"] == 1
        assert out.sequences[0].durations.tolist() == [40]

    def test_outside_excluded(self):
        d = _dataset([(780, 10, 0, 100), (20, 20, 200, 100)])
        out, rep = filter_fixations(d)
        assert _totals(rep)["n_outside_excluded"] == 1
        assert len(out.sequences[0]) == 1

    def test_onset_at_or_past_the_trial_is_late(self):
        # a short or outside fixation is counted in its first class only
        rows = [(10, 10, 0, 100), (20, 20, 399, 100), (30, 30, 400, 100), (40, 40, 500, 10),
                (780, 10, 600, 100), (50, 50, 700, 100)]
        d = replace(_dataset(rows), trial_length=400.0)
        out, rep = filter_fixations(d)
        assert out.sequences[0].onsets.tolist() == [0.0, 399.0]
        assert out.sequences[0].valid_jumps.tolist() == [True]
        totals = _totals(rep)
        assert (totals["n_late_excluded"], totals["n_short_excluded"],
                totals["n_outside_excluded"]) == (2, 1, 1)
        assert rep.entries[0].excluded_indices == [2, 3, 4, 5]

    def test_everything_valid_after_filter(self, short_dataset):
        out, _ = filter_fixations(short_dataset, min_dur=40)
        for seq in out.sequences:
            assert np.all(seq.durations >= 40)
            locs = seq.locations
            assert np.all(W.contains(locs[:, 0], locs[:, 1]))

    def test_second_filter_keeps_a_spliced_jump_invalid(self):
        # A, B (short), C, D: A->C is spliced; filtering the result again
        # drops nothing, and must not make A->C a real saccade
        d = _dataset([(10, 10, 0, 100), (20, 20, 200, 10), (30, 30, 400, 100),
                      (40, 40, 600, 100)])
        once, rep1 = filter_fixations(d)
        twice, rep2 = filter_fixations(once)
        assert once.sequences[0].valid_jumps.tolist() == [False, True]
        assert twice.sequences == once.sequences
        assert _totals(rep1)["n_saccades_missing"] == _totals(rep2)["n_saccades_missing"] == 1
        assert rep2.entries[0].excluded_indices == []
        # a removal next to a spliced jump splices it further: A->D
        again, rep3 = filter_fixations(once, window=Window(0.0, 0.0, 35.0, 768.0))
        assert again.sequences[0].valid_jumps.tolist() == [False]
        assert _totals(rep3)["n_saccades_missing"] == 1


class TestSaccades:
    def test_three_four_five(self):
        s = sequence("s1", "novice", "koli", [(0, 0, 0, 100), (3, 4, 120, 50)])
        sacs = derive_saccades(s)
        (length,), (duration,), (valid,) = sacs.lengths, sacs.durations, sacs.valid
        assert length == pytest.approx(5.0)
        assert duration == pytest.approx(20.0)
        assert valid

    def test_jump_spanning_exclusion_is_missing(self):
        # originally A, B, C with B removed: the derived A->C pair is not a
        # real saccade
        d = _dataset([(0, 0, 0, 100), (5, 5, 200, 10), (9, 9, 400, 100)])
        (s,) = filter_fixations(d)[0].sequences
        (valid,) = derive_saccades(s).valid
        assert not valid

    def test_exclusion_before_start_keeps_pair_valid(self):
        d = _dataset([(5, 5, 0, 10), (0, 0, 200, 100), (9, 9, 400, 100)])
        (s,) = filter_fixations(d)[0].sequences
        (valid,) = derive_saccades(s).valid
        assert valid

    def test_valid_is_the_sequences_column(self):
        s = FixationSequence("s1", "novice", "koli", [(0, 0), (3, 4), (6, 8)], [0, 200, 400],
                             [100, 100, 100], [True, False])
        assert derive_saccades(s).valid.tolist() == [True, False]

    def test_single_fixation_no_saccades(self):
        s = sequence("s1", "novice", "koli", [(0, 0, 0, 100)])
        assert len(derive_saccades(s)) == 0

    def test_overlap_rejected(self):
        s = sequence("s1", "novice", "koli", [(0, 0, 0, 300), (1, 1, 200, 100)])
        with pytest.raises(DataError, match="overlapping"):
            derive_saccades(s)


# (original fixations, excluded original indices): empty and one-fixation
# sequences, exclusions at either end and runs of adjacent exclusions
_EDGE_CASES = [
    (0, set()), (1, set()), (1, {0}), (2, {0}), (2, {1}), (5, {0}), (5, {4}), (5, {0, 4}),
    (6, {2, 3}), (7, {1, 2, 3}), (6, {0, 1}), (6, {4, 5}), (7, {0, 1, 3, 5, 6}), (4, {0, 1, 2, 3}),
]


def _saccade_cases(rng, n_random=40):
    """(retained sequence, exclusions) pairs: the edge cases, then random ones.

    Each retained sequence is what ``filter_fixations`` keeps of an original
    one whose excluded fixations last 20 ms. Locations sit on a coarse grid,
    some with a fractional offset, so some jumps have length 0; some gaps
    are 0 too."""
    shapes = list(_EDGE_CASES)
    for _ in range(n_random):
        n_orig = int(rng.integers(0, 15))
        shapes.append((n_orig, set(np.flatnonzero(rng.random(n_orig) < 0.3).tolist())))
    cases = []
    for i, (n, exclusions) in enumerate(shapes):
        xy = rng.integers(0, 4, (n, 2)) * 150.0 + rng.uniform(0, 1, (n, 2)) * (rng.random() < 0.5)
        durations = rng.uniform(40, 400, n)
        durations[list(exclusions)] = 20.0
        gaps = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0, 300, n))
        onsets = np.concatenate([[0.0], np.cumsum(durations + gaps)[:-1]])[:n]
        original = sequence(f"s{i:02d}", "novice", "p", np.column_stack([xy, onsets, durations]))
        filtered, report = filter_fixations(Dataset(W, [original]))
        assert report.entries[0].excluded_indices == sorted(exclusions)
        cases.append((filtered.sequences[0], exclusions))
    return cases


class TestSaccadesMatchReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_columns_equal_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        cases = _saccade_cases(rng)
        jumps = {}
        for seq, exclusions in cases:
            sacs = derive_saccades(seq)
            ref = derive_saccades_reference(seq, exclusions)
            lengths, gaps, valid = (np.array([j[c] for j in ref], dtype) for c, dtype in
                                    ((0, np.float64), (1, np.float64), (2, bool)))
            for got, want in ((sacs.lengths, lengths), (sacs.durations, gaps),
                              (sacs.valid, valid)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            assert len(sacs) == max(len(seq) - 1, 0)
            jumps[(seq.subject_id, "p")] = ref
        # a random order, of every sequence and of every other one
        seqs = [cases[i][0] for i in rng.permutation(len(cases))]
        for keep in (slice(None), slice(None, None, 2)):
            for attr in ("length", "duration"):
                got = law_sample(seqs[keep], "saccade_" + attr)
                want = np.array(valid_saccade_values_reference(seqs[keep], jumps, attr), np.float64)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_cases_cover_the_edges(self):
        cases = _saccade_cases(np.random.default_rng(0))
        ref = [derive_saccades_reference(seq, exclusions) for seq, exclusions in cases]
        assert {len(seq) for seq, _ in cases} >= {0, 1}
        assert any(not ok for jumps in ref for _, _, ok in jumps)
        assert any(length == 0 for jumps in ref for length, _, ok in jumps if ok)
        assert any(gap == 0 for jumps in ref for _, gap, ok in jumps if ok)

    def test_columns_of_one_shape(self):
        with pytest.raises(DataError, match="shape"):
            Saccades([1.0, 2.0], [3.0], [True, True])
        with pytest.raises(DataError, match="shape"):
            Saccades(np.ones((2, 1)), np.ones(2), np.ones(2, bool))
        empty = Saccades()
        assert len(empty) == 0 and empty.valid.dtype == bool


class TestPipeline:
    def test_bookkeeping_identity(self, tmp_path):
        # one subject, 5 fixations, middle one short
        body = (
            "s1,novice,koli,0,100,10,10\n"
            "s1,novice,koli,200,100,20,20\n"
            "s1,novice,koli,400,10,30,30\n"
            "s1,novice,koli,600,100,40,40\n"
            "s1,novice,koli,800,100,50,50\n"
            "s2,non_novice,koli,0,100,60,60\n"
            "s2,non_novice,koli,300,100,70,70\n"
        )
        p = _write(tmp_path, body)
        dataset, saccades, report = ingest_pipeline(p)
        n_retained = sum(len(s) for s in dataset.sequences)
        n_seq = len(dataset.sequences)
        all_valid = np.concatenate([sacs.valid for sacs in saccades.values()])
        carried = np.concatenate([s.valid_jumps for s in dataset.sequences])
        assert all_valid.tolist() == carried.tolist()
        n_valid = int(all_valid.sum())
        assert len(all_valid) == n_retained - n_seq
        missing = _totals(report)["n_saccades_missing"]
        assert n_valid == n_retained - n_seq - missing
        assert missing == 1  # the spliced pair around the short one

    def test_valid_saccade_values(self, tmp_path):
        body = (
            "s1,novice,koli,0,100,10,10\n"
            "s1,novice,koli,200,100,20,20\n"
            "s1,novice,koli,400,10,30,30\n"  # short: the jump over it is spliced
            "s1,novice,koli,600,100,40,40\n"
            "s1,novice,koli,800,100,50,50\n"
            "s2,non_novice,koli,0,100,60,60\n"
            "s2,non_novice,koli,100,100,60,60\n"  # zero gap and zero length
            "s3,novice,koli,0,100,100,100\n"
            "s3,novice,koli,150,100,130,140\n"
        )
        dataset, _, _ = ingest_pipeline(_write(tmp_path, body))
        step = float(np.hypot(10, 10))
        lengths = law_sample(dataset.sequences, "saccade_length")
        assert lengths.tolist() == [step, step, 50.0]
        durations = law_sample(dataset.sequences, "saccade_duration")
        assert durations.tolist() == [100.0, 100.0, 50.0]
        # sequences are walked in the order given
        reordered = dataset.sequences[::-1]
        assert law_sample(reordered, "saccade_length").tolist() == [50.0, step, step]
        assert law_sample(dataset.by_group("non_novice"), "saccade_length").shape == (0,)
        assert law_sample([], "saccade_duration").shape == (0,)

    def test_totals_sum_every_count_field(self, short_csv):
        _, _, report = ingest_pipeline(short_csv)
        totals = report.to_dict()["totals"]
        assert sorted(totals) == ["n_late_excluded", "n_outside_excluded", "n_saccades_missing",
                                  "n_short_excluded", "n_total"]
        for name, total in totals.items():
            assert total == sum(getattr(e, name) for e in report.entries)
        assert report.n_total == totals["n_total"] > 0

    def test_report_json_shape(self, tmp_path, short_csv):
        _, _, report = ingest_pipeline(short_csv)
        out = tmp_path / "report.json"
        write_json(out, report.to_dict())
        loaded = json.loads(out.read_text())
        totals = loaded["totals"]
        assert totals["n_total"] >= totals["n_short_excluded"] + totals["n_outside_excluded"]

    def test_round_trip_bit_exact(self, tmp_path, short_csv):
        d1 = parse_fixations(short_csv)
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        write_fixations(d1, out1)
        write_fixations(parse_fixations(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_parse_write_preserves_rows(self, tmp_path, short_csv):
        d1 = parse_fixations(short_csv)
        out = tmp_path / "w.csv"
        write_fixations(d1, out)
        d2 = parse_fixations(out)
        assert d1.sequences == d2.sequences


def _as_lists(obj):
    """``obj`` with each dataclass as its ``asdict`` and each array as its list."""
    if is_dataclass(obj):
        return _as_lists(asdict(obj))
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


def _results():
    """One instance of each result class that is written as its fields."""
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 100.0, 6)
    return [
        shift_function(rng.gamma(2, 50, 20), rng.gamma(2, 60, 15)),
        hotspot_grid(nx=4, ny=3),
        quadrat_chisq(rng.uniform(0, 760, (80, 2)), W, 3),
        rank_envelope(CurveMatrix(grid, rng.normal(size=(30, grid.size))), 0.05),
        fit_gamma_mle(rng.gamma(2.0, 50.0, 40), "fixation_duration"),
        SequenceReport("s1", "p1", n_total=7, n_short_excluded=1, excluded_indices=[0, 4]),
        StepCurve(np.array([0.0, 1.5, 4.0]), np.array([0.0, np.nan, 2.5]), 5.0),
    ]


def _json_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats().map(np.float64),
        st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 0.1]),
        st.text(),
    )
    keys = st.one_of(st.text(), st.sampled_from(["", "é", "日本", "a\nb", '"q"']))
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=6),
            st.lists(inner, max_size=6).map(tuple),
            st.dictionaries(keys, inner, max_size=6),
            st.dictionaries(st.integers(), inner, max_size=4),
            st.dictionaries(st.floats(allow_nan=False), inner, max_size=4),
        ),
        max_leaves=40,
    )


class TestWriteJson:
    # the streaming writer must give json.dump's bytes exactly
    def _both(self, directory, payload):
        write_json(directory / "new.json", payload)
        write_json_reference(directory / "old.json", payload)
        return (directory / "new.json").read_bytes(), (directory / "old.json").read_bytes()

    @given(_json_values())
    def test_bytes_equal_json_dump(self, tmp_path_factory, payload):
        new, old = self._both(tmp_path_factory.mktemp("json"), payload)
        assert new == old

    @pytest.mark.parametrize("payload", [
        {}, [], (), {"a": []}, {"a": {}}, [[]], [{}],
        [float("nan"), float("inf"), -float("inf"), -0.0, 0.0],
        [np.float64(0.1), np.float64(-np.inf), 1, True, None, "ü"],
        {"b": (1, (2.5, [3])), "a": [1.5, "x"]},
        {True: 1}, {None: 2}, {1.5: 3, 2.0: 4}, {10: "a", 9: "b"},
        {"ключ": "значение", "日本": ["語", " "]},
        3.5, "top", None,
    ])
    def test_edge_payloads(self, tmp_path, payload):
        new, old = self._both(tmp_path, payload)
        assert new == old

    @pytest.mark.parametrize("values", [[], [0.1, -0.0, np.nan, np.inf, 1e300], [5e-324]])
    def test_float_array_written_as_its_list(self, tmp_path, values):
        row = np.array(values, dtype=float)
        write_json(tmp_path / "array.json", {"k": [row, {"r": row[::-1]}], "r": row})
        write_json_reference(tmp_path / "list.json", {
            "k": [row.tolist(), {"r": row[::-1].tolist()}], "r": row.tolist()
        })
        assert (tmp_path / "array.json").read_bytes() == (tmp_path / "list.json").read_bytes()

    @pytest.mark.parametrize("array", [
        np.zeros((2, 3)), np.arange(6).reshape(3, 2), np.arange(24, dtype=np.uint8).reshape(2, 3, 4),
        np.array([[0.1, -0.0], [np.nan, -np.inf], [5e-324, 1e22]]), np.zeros((0, 3)),
        np.zeros((2, 0), dtype=int), np.array(2.5), np.arange(4, dtype=np.int32),
    ])
    def test_number_array_written_as_its_list(self, tmp_path, array):
        # an n-D array goes row by row, and must still give json.dump's bytes
        write_json(tmp_path / "array.json", {"a": array, "b": [array, array]})
        write_json_reference(tmp_path / "list.json",
                             {"a": array.tolist(), "b": [array.tolist(), array.tolist()]})
        assert (tmp_path / "array.json").read_bytes() == (tmp_path / "list.json").read_bytes()

    @pytest.mark.parametrize("result", _results(), ids=lambda r: type(r).__name__)
    def test_dataclass_written_as_its_fields(self, tmp_path, result):
        # json.dump of the fields' dict (IntensityGrid's window nested), not a
        # TypeError; alone, in a list and in a dict
        for name, payload in (("alone", result), ("list", [result, 1.5, result]),
                              ("dict", {"r": result, "n": None})):
            write_json(tmp_path / f"{name}.json", payload)
            write_json_reference(tmp_path / f"{name}_ref.json", _as_lists(payload))
            assert ((tmp_path / f"{name}.json").read_bytes()
                    == (tmp_path / f"{name}_ref.json").read_bytes())

    def test_producers_hand_over_arrays(self, tmp_path):
        # each payload holds the result objects and their arrays, not float
        # lists, with unchanged bytes
        rng = np.random.default_rng(5)
        grid = hotspot_grid(nx=6, ny=5)
        seq = sequence("s", "novice", "p", [
            (x, y, 100.0 * i, 50.0) for i, (x, y) in enumerate(rng.uniform(0, 760, (12, 2)))
        ])
        ratio = RatioTestResult(T0=1.5, p=0.5, m=9, h1=2.0, h2=3.0, r_grid=grid, k=4,
                                distinct_partitions=9)
        payloads = {
            "grid": grid,
            "ratio": ratio.to_dict(),
            "quadrat": quadrat_chisq(rng.uniform(0, 760, (80, 2)), W, 3),
            "shift": shift_function(rng.gamma(2, 50, 30), rng.gamma(2, 60, 25)),
            "transitions": transition_curves(seq, W).to_dict(),
        }
        assert payloads["ratio"]["log_ratio"] is grid.values
        assert payloads["ratio"]["window"] is grid.window
        assert isinstance(payloads["transitions"]["counts"], np.ndarray)
        assert isinstance(payloads["transitions"]["1->2"], StepCurve)

        write_json(tmp_path / "arrays.json", payloads)
        write_json_reference(tmp_path / "lists.json", _as_lists(payloads))
        assert (tmp_path / "arrays.json").read_bytes() == (tmp_path / "lists.json").read_bytes()

    @pytest.mark.parametrize("array", [np.zeros((2, 2), dtype=bool), np.arange(3) + 0j])
    def test_other_arrays_raise_as_json_does(self, tmp_path, array):
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            write_json(tmp_path / "array.json", {"a": array})

    def test_deep_nesting(self, tmp_path):
        payload = [1.5]
        for depth in range(60):
            payload = {f"k{depth}": [payload, depth, -0.0]} if depth % 2 else [payload]
        new, old = self._both(tmp_path, payload)
        assert new == old

    # a dataclass class, unlike an instance, is no JSON value
    @pytest.mark.parametrize("payload", [[np.int64(1)], {"a": object()}, {(1, 2): 3},
                                         {"a": IntensityGrid}, [StepCurve], StepCurve])
    def test_unserializable_raises_as_json_does(self, tmp_path, payload):
        with pytest.raises(TypeError) as new:
            write_json(tmp_path / "new.json", payload)
        with pytest.raises(TypeError) as old:
            write_json_reference(tmp_path / "old.json", payload)
        assert str(new.value) == str(old.value)

    def test_circular_reference_raises(self, tmp_path):
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            write_json(tmp_path / "loop.json", {"a": loop})


SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, 0.1, 0.0, 1.0, -2.5e-300]


class TestWriteCsv:
    # the one CSV writer must give the per-row f-string writer's bytes
    def _both(self, directory, header, blocks):
        write_csv(directory / "new.csv", header, blocks)
        write_csv_reference(directory / "old.csv", header, blocks)
        return (directory / "new.csv").read_bytes(), (directory / "old.csv").read_bytes()

    def test_special_floats_integers_and_text(self, tmp_path):
        x = np.array(SPECIAL)
        block = (["s01"] * len(x), x, np.arange(len(x)) - 3, list(range(len(x))), x[::-1])
        new, old = self._both(tmp_path, ("id", "x", "i", "j", "rx"), [block, block])
        assert new == old
        assert new.splitlines()[1] == b"s01,-0.0,-3,0,-2.5e-300"

    def test_zero_rows(self, tmp_path):
        empty = (np.empty(0), [], np.empty(0, dtype=int))
        new, old = self._both(tmp_path, ("a", "b", "c"), [empty, empty])
        assert new == old == b"a,b,c\n"
        new, old = self._both(tmp_path, ("a",), [])
        assert new == old == b"a\n"

    @pytest.mark.parametrize("n", [_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 3])
    def test_blocks_around_the_row_chunk(self, tmp_path, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        values[rng.integers(0, n, 20)] = rng.choice(SPECIAL, 20)
        block = (values, np.arange(n), ["p"] * n)
        new, old = self._both(tmp_path, ("v", "k", "p"), [block, block[:2] + (["q"] * n,)])
        assert new == old
        assert new.count(b"\n") == 2 * n + 1

    @pytest.mark.parametrize("text", ["s,1", '"s1', 's"1', "s\n1", "s\r1", 'a,"b"\r\n'])
    def test_text_that_needs_quotes_reads_back(self, tmp_path, text):
        # quoted exactly as csv.QUOTE_MINIMAL quotes it, so csv reads it back
        path = tmp_path / "q.csv"
        write_csv(path, ("id", "x"), [([text, "plain"], np.array([1.5, -0.0]))])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["id", "x"], [text, "1.5"], ["plain", "-0.0"]]
        quoted = '"' + text.replace('"', '""') + '"'
        assert path.read_bytes().decode().split("\n", 1)[1].startswith(quoted + ",1.5\n")


class TestIdsThatNeedQuotes:
    # parse_fixations reads a quoted id such as "s,1"; the CSVs written back
    # must quote it too, or reading them splits the id across columns
    @pytest.mark.parametrize("subject", ["s,1", '"s1', 'q"t', "two\nlines"])
    def test_written_files_read_back(self, tmp_path, subject):
        rows = [(subject, "novice", "p,1", 0.0, 100.0, 10.0, 20.5),
                (subject, "novice", "p,1", 130.0, 20.0, 30.0, 40.0),
                (subject, "novice", "p,1", 170.0, 90.0, 50.0, 60.25),
                ("s2", "non_novice", "p,1", 0.0, 50.0, 1.0, 2.0)]
        source = tmp_path / "in.csv"
        with open(source, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER.strip().split(","))
            writer.writerows(rows)
        dataset, _, _ = ingest_pipeline(source)
        assert dataset.sequences[0].subject_id == subject
        clean, sacs = tmp_path / "clean.csv", tmp_path / "saccades.csv"
        write_fixations(dataset, clean)
        again = parse_fixations(clean)
        # valid_jump_in carries the spliced jump; it used to read back as real
        assert again.sequences == dataset.sequences
        assert [s.valid_jumps.tolist() for s in again.sequences] == [[False], []]
        write_saccades(dataset.sequences, sacs)
        with open(sacs, newline="") as fh:
            table = list(csv.reader(fh))
        assert [row[:4] for row in table[1:]] == [[subject, "p,1", "0", "1"]]
        assert table[1][6] == "0"  # the 20 ms fixation between was removed
