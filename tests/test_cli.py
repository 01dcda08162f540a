import argparse
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fixproc
from fixproc import cli, density, envelopes, fitdist, simulate, summaries
from fixproc.cli import DEFAULT_H_GRID, PipelineConfig, main
from fixproc.core import MAX_INTERVALS, Dataset, Window
from fixproc.ingest import ingest_pipeline, parse_fixations
from helpers import simulated_dataset, toy_model, write_csv


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    model = toy_model(trial_length=10_000.0)
    d = simulated_dataset(model, n_subjects=8, seed=42)
    path = tmp_path_factory.mktemp("data") / "fix.csv"
    return write_csv(d, path)


@pytest.fixture(scope="module")
def one_novice_csv(tmp_path_factory):
    model = toy_model(trial_length=10_000.0)
    d = simulated_dataset(model, n_subjects=8, seed=42)
    d.sequences = [s for s in d.sequences if s.group == "non_novice" or s.subject_id == "s00"]
    assert len(d.by_group("novice")[0]) >= 10
    path = tmp_path_factory.mktemp("one_novice") / "fix.csv"
    return write_csv(d, path)


@pytest.fixture(scope="module")
def novice_only_csv(tmp_path_factory):
    model = toy_model(trial_length=10_000.0)
    d = simulated_dataset(model, n_subjects=8, seed=42)
    d.sequences = d.by_group("novice")
    path = tmp_path_factory.mktemp("novice_only") / "fix.csv"
    return write_csv(d, path)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_experiment(*args):
    """``bench/inputs.py``'s ``make_experiment(*args)``."""
    sys.path.insert(0, str(BENCH))
    try:
        from inputs import make_experiment
    finally:
        sys.path.pop(0)
    return make_experiment(*args)


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    """The bench's 20 s experiment (the ``report`` workload's input)."""
    path = tmp_path_factory.mktemp("bench") / "input.csv"
    path.write_text(_bench_experiment(7, 10, 65, 20_000.0).csv_text)
    return path


FAST = [
    "--trial-length", "10000", "--h", "25", "--nx", "20", "--ny", "20",
    "--n-angles", "90", "--raster", "8", "--grid-points", "21",
]


def run(args):
    return main([str(a) for a in args])


class TestCommands:
    def test_ingest(self, data_csv, tmp_path):
        assert run(["ingest", "--input", data_csv, "--out", tmp_path]) == 0
        for name in ("fixations_clean.csv", "saccades.csv", "ingest_report.json"):
            assert (tmp_path / name).exists()

    def test_intensity(self, data_csv, tmp_path):
        assert run(["intensity", "--input", data_csv, "--out", tmp_path, *FAST]) == 0
        assert (tmp_path / "intensity.svg").exists()
        payload = json.loads((tmp_path / "intensity.json").read_text())
        assert payload["bandwidth"] == 25.0

    def test_residuals(self, data_csv, tmp_path):
        code = run(["residuals", "--input", data_csv, "--out", tmp_path,
                    "--interval-ms", "2500", *FAST])
        assert code == 0
        payload = json.loads((tmp_path / "residuals.json").read_text())
        assert len(payload["intervals"]) == 4

    def test_quadrat(self, data_csv, tmp_path):
        assert run(["quadrat", "--input", data_csv, "--out", tmp_path, "--q", "3",
                    "--trial-length", "10000"]) == 0
        payload = json.loads((tmp_path / "quadrat.json").read_text())
        assert payload["df"] == 8

    def test_shift_by_group(self, data_csv, tmp_path):
        assert run(["shift", "--input", data_csv, "--out", tmp_path,
                    "--trial-length", "10000"]) == 0
        payload = json.loads((tmp_path / "shift.json").read_text())
        assert "novice_vs_non_novice" in payload["curves"]

    def test_shift_by_interval(self, data_csv, tmp_path):
        assert run(["shift", "--input", data_csv, "--out", tmp_path, "--split",
                    "interval", "--interval-ms", "5000", "--trial-length", "10000"]) == 0
        payload = json.loads((tmp_path / "shift.json").read_text())
        assert "interval_2_vs_1" in payload["curves"]

    def test_compare_intensity_p_formula(self, data_csv, tmp_path):
        assert run(["compare-intensity", "--input", data_csv, "--out", tmp_path,
                    "--m", "99", "--seed", "4", "--h1", "25", "--h2", "25",
                    "--nx", "20", "--ny", "20", "--trial-length", "10000"]) == 0
        payload = json.loads((tmp_path / "ratio_test.json").read_text())
        assert payload["p"] == (payload["k"] + 1) / 100
        assert payload["mc_se"] == (payload["p"] * (1 - payload["p"]) / 99) ** 0.5
        assert 1 <= payload["distinct_partitions"] <= 70  # C(8, 4)
        assert payload["meta"]["seed"] == 4
        assert len(payload["meta"]["config_sha256"]) == 64

    def test_fit_and_qq(self, data_csv, tmp_path):
        assert run(["fit", "--input", data_csv, "--out", tmp_path, "--source",
                    "saccade_length", "--trial-length", "10000"]) == 0
        fit = json.loads((tmp_path / "fit_saccade_length.json").read_text())
        assert fit["shape"] > 0 and fit["rate"] > 0
        assert run(["qq", "--input", data_csv, "--out", tmp_path, "--source",
                    "fixation_duration", "--trial-length", "10000"]) == 0
        assert (tmp_path / "qq_fixation_duration.csv").exists()

    def test_summaries(self, data_csv, tmp_path):
        assert run(["summaries", "--input", data_csv, "--out", tmp_path, *FAST]) == 0
        payload = json.loads((tmp_path / "summaries.json").read_text())
        assert len(payload["subjects"]) == 8

    def test_envelope(self, data_csv, tmp_path):
        assert run(["envelope", "--input", data_csv, "--out", tmp_path, "--group",
                    "novice", "--seed", "6", "--n-runs", "20", *FAST]) == 0
        payload = json.loads((tmp_path / "envelope.json").read_text())
        assert set(payload["stats"]) == {"hull", "ball", "scanpath"}
        assert len(payload["transitions"]) == 16

    def test_envelope_hull_only_builds_no_disc_raster(self, data_csv, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("ball coverage computed for --stat hull")

        monkeypatch.setattr(summaries, "_ball_values", refuse)
        assert run(["envelope", "--input", data_csv, "--out", tmp_path, "--group",
                    "novice", "--seed", "6", "--n-runs", "20", "--stat", "hull", *FAST]) == 0
        payload = json.loads((tmp_path / "envelope.json").read_text())
        assert set(payload["stats"]) == {"hull"}

    def test_transition_envelopes_use_runs_with_two_fixations(self, tmp_path, monkeypatch):
        # 400 ms trials: many runs end after their first fixation; so does
        # s01, cut to one, and so do s00 and s03, whose second fixations
        # start after 400 ms and are dropped as late
        d = simulated_dataset(toy_model(trial_length=10_000.0), n_subjects=8, seed=42)
        s = d.sequences[1]
        d.sequences[1] = replace(s, locations=s.locations[:1], onsets=s.onsets[:1],
                                 durations=s.durations[:1], valid_jumps=s.valid_jumps[:0])
        data_csv = write_csv(d, tmp_path / "fix.csv")
        runs, rows = [], {}
        simulate_many, rank_envelope = simulate.simulate_many, envelopes.rank_envelope

        # simulate_curves simulates its runs a block at a time through this name
        def keep_runs(*args):
            block = simulate_many(*args)
            runs.extend(block)
            return block

        def count_rows(curves, alpha):
            env = rank_envelope(curves, alpha)
            rows[len(rows)] = curves.rows.shape[0]
            return env

        monkeypatch.setattr(simulate, "simulate_many", keep_runs)
        monkeypatch.setattr(envelopes, "rank_envelope", count_rows)
        assert run(["envelope", "--input", data_csv, "--out", tmp_path, "--group",
                    "novice", "--seed", "6", "--n-runs", "80", *FAST,
                    "--trial-length", "400"]) == 0
        payload = json.loads((tmp_path / "envelope.json").read_text())
        long_runs = sum(len(r.sequence) >= 2 for r in runs)
        assert 20 <= long_runs < len(runs) == 80
        assert list(rows.values()) == [80] * 3 + [long_runs] * 16
        for name in payload["transitions"]:
            assert set(payload["transitions"][name]["observed"]) == {"s02:koli"}
        assert len(payload["stats"]["hull"]["observed"]) == 4

    @pytest.mark.parametrize("group", ["novice", "non_novice"])
    def test_envelope_is_the_report_block_of_its_group(self, data_csv, tmp_path, group):
        # saccade durations pool both groups, so --group must not drop the
        # other group before the model is fitted
        args = ["--input", data_csv, "--seed", "6", "--n-runs", "20", "--no-svg", *FAST]
        assert run(["envelope", "--group", group, "--out", tmp_path / "env", *args]) == 0
        assert run(["report", "--m", "9", "--h1", "25", "--h2", "25",
                    "--out", tmp_path / "rep", *args]) == 0
        envelope = json.loads((tmp_path / "env" / "envelope.json").read_text())
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        del envelope["meta"], envelope["group"]
        assert envelope == report["groups"][group]

    def test_each_judged_group_states_its_grid_and_level_once(self, data_csv, tmp_path):
        # every envelope holds only its bounds and depth; the group block holds
        # the one time grid, which each envelope CSV's time column repeats
        args = ["--input", data_csv, "--seed", "6", "--n-runs", "20", "--no-svg", *FAST]
        assert run(["envelope", "--group", "novice", "--alpha", "0.1",
                    "--out", tmp_path / "env", *args]) == 0
        assert run(["report", "--m", "9", "--h1", "25", "--h2", "25",
                    "--out", tmp_path / "rep", *args]) == 0
        grid = envelopes.default_grid(10_000.0, 21)
        text = (tmp_path / "env" / "envelope.json").read_text()
        assert text.count('"grid"') == 1 and text.count('"alpha"') == 1
        envelope = json.loads(text)
        assert envelope["grid"] == grid.tolist() and envelope["alpha"] == 0.1
        for stat in summaries.STATS:
            path = tmp_path / "env" / f"envelope_{stat}.csv"
            assert path.read_text().startswith("time_ms,lower,upper\n")
            times = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
            assert times.tobytes() == grid.tobytes()
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        for result in [envelope, *report["groups"].values()]:
            assert result["grid"] == grid.tolist()
            for family in ("stats", "transitions"):
                for block in result[family].values():
                    assert set(block["envelope"]) == {"lower", "upper", "k"}
        assert [g["alpha"] for g in report["groups"].values()] == [0.05, 0.05]

    def test_observed_curves_are_each_subjects_curve_rows(self, tmp_path):
        # read back from envelope.json, every observed curve is its row of the
        # subject's curve_rows; the one-fixation subject has no transitions
        d = simulated_dataset(toy_model(trial_length=10_000.0), n_subjects=8, seed=42)
        s = d.sequences[1]
        d.sequences[1] = replace(s, locations=s.locations[:1], onsets=s.onsets[:1],
                                 durations=s.durations[:1], valid_jumps=s.valid_jumps[:0])
        data_csv = write_csv(d, tmp_path / "fix.csv")
        assert run(["envelope", "--input", data_csv, "--out", tmp_path, "--group",
                    "novice", "--seed", "6", "--n-runs", "20", *FAST]) == 0
        payload = json.loads((tmp_path / "envelope.json").read_text())
        window = Window(*PipelineConfig().window)
        dataset, _, _ = ingest_pipeline(data_csv, 40.0, window, 10_000.0)
        grid = np.array(payload["grid"])
        families = ["stats"] * len(summaries.STATS) + ["transitions"] * 16
        names = [*summaries.STATS, *summaries.TRANSITIONS]
        expected = {name: set() for name in names}
        for seq in dataset.by_group("novice"):
            key = f"{seq.subject_id}:{seq.painting_id}"
            rows = summaries.curve_rows(seq, window, grid, summaries.STATS, 35.0, 8.0)
            for j, (family, name) in enumerate(zip(families, names)):
                if family == "stats" or len(seq) >= 2:
                    expected[name].add(key)
                    got = np.array(payload[family][name]["observed"][key], dtype=float)
                    assert np.array_equal(got, rows[j], equal_nan=True), (key, name)
        for family, name in zip(families, names):
            assert set(payload[family][name]["observed"]) == expected[name]
        assert "s01:koli" in expected["hull"] and "s01:koli" not in expected["1->1"]

    def test_fixations_past_the_trial_length_are_dropped_before_the_fits(self, data_csv,
                                                                           tmp_path):
        # at 400 ms the 10 s data kept every fixation, onsets up to 9.9 s,
        # and the model was fitted to fixations no run of 400 ms could have
        args = ["--input", data_csv, "--trial-length", "400", "--no-svg"]
        assert run(["ingest", *args, "--out", tmp_path / "ingest"]) == 0
        totals = json.loads((tmp_path / "ingest" / "ingest_report.json").read_text())["totals"]
        clean = parse_fixations(tmp_path / "ingest" / "fixations_clean.csv", trial_length=400.0)
        kept = sum(len(s) for s in clean.sequences)
        raw = parse_fixations(data_csv, trial_length=10_000.0)
        assert totals["n_total"] == sum(len(s) for s in raw.sequences)
        assert totals["n_late_excluded"] > 0
        assert totals["n_total"] == kept + sum(
            totals[f"n_{name}_excluded"] for name in ("short", "outside", "late"))
        assert max(s.onsets.max() for s in clean.sequences) < 400.0

        assert run(["simulate", "--group", "novice", "--seed", "3", "--n-runs", "2", *FAST,
                    *args, "--out", tmp_path / "sim"]) == 0
        model = json.loads((tmp_path / "sim" / "sim_provenance.json").read_text())["meta"]["model"]
        novice = clean.by_group("novice")
        assert model["dur_fix"]["n"] == sum(len(s) for s in novice)
        assert model["len_sac"]["n"] == len(fitdist.law_sample(novice, "saccade_length"))
        assert model["dur_sac"]["n"] == len(fitdist.law_sample(clean.sequences,
                                                               "saccade_duration"))

    def test_too_few_runs_with_transitions_is_data_error(self, data_csv, tmp_path, capsys):
        # 400 ms trials: most runs end after their first fixation, so fewer
        # than the 20 runs a transition envelope needs have a transition.
        # (At 40 ms, no run could reach a second fixation, but then no
        # observed fixation after the first starts within the trial either,
        # and the model has no jump to fit.)
        assert run(["envelope", "--input", data_csv, "--out", tmp_path, "--group",
                    "novice", "--seed", "6", "--n-runs", "20", *FAST,
                    "--trial-length", "400"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "1->1: need at least 20 curves, got 18"


class TestBandwidthResolution:
    # report at a small grid with every bandwidth left to cross-validation
    REPORT = ["report", "--seed", "2", "--m", "9", "--n-runs", "20", "--nx", "20",
              "--ny", "20", "--n-angles", "60", "--raster", "8", "--grid-points", "11",
              "--trial-length", "10000", "--no-svg"]

    def test_report_cross_validates_each_group_once(self, data_csv, tmp_path, monkeypatch):
        # the comparison's h1/h2 and the two group models see the same point
        # sets on a one-painting input, so each set is scored once, over the
        # whole grid in one call
        scored = []
        real = density._lscv_scores

        def counting(points, w, h_grid, nx, ny):
            scored.append(tuple(h_grid))
            return real(points, w, h_grid, nx, ny)

        monkeypatch.setattr(density, "_lscv_scores", counting)
        assert run([*self.REPORT, "--input", data_csv, "--out", tmp_path]) == 0
        assert scored == 2 * [tuple(float(h) for h in DEFAULT_H_GRID)]
        payload = json.loads((tmp_path / "report.json").read_text())
        comparison = payload["intensity_comparison"]["koli"]
        assert payload["groups"]["novice"]["model"]["bandwidth"] == comparison["h1"]
        assert payload["groups"]["non_novice"]["model"]["bandwidth"] == comparison["h2"]
        # each CV table sits next to the bandwidth it chose
        for slot, group in (("h1", "novice"), ("h2", "non_novice")):
            table = comparison["bandwidth_cv"][slot]
            assert payload["groups"][group]["model"]["bandwidth_cv"] == table
            assert table["h_grid"] == [float(h) for h in DEFAULT_H_GRID]
            assert len(table["scores"]) == len(DEFAULT_H_GRID)
            best = min(range(len(table["scores"])), key=table["scores"].__getitem__)
            assert table["h"] == table["h_grid"][best] == comparison[slot]
            assert table["at_edge"] == (best in (0, len(DEFAULT_H_GRID) - 1))

    def test_h_grid_flag_reaches_comparison_and_models(self, data_csv, tmp_path):
        assert run([*self.REPORT, "--input", data_csv, "--out", tmp_path,
                    "--h-grid", "20"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        comparison = payload["intensity_comparison"]["koli"]
        assert comparison["h1"] == comparison["h2"] == 20.0
        for group in ("novice", "non_novice"):
            assert payload["groups"][group]["model"]["bandwidth"] == 20.0
            cv = payload["groups"][group]["model"]["bandwidth_cv"]
            assert (cv["h_grid"], cv["h"], cv["at_edge"]) == ([20.0], 20.0, False)

    def test_fixed_bandwidths_skip_cross_validation(self, data_csv, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("cross-validation ran with every bandwidth fixed")

        monkeypatch.setattr(density, "_lscv_scores", refuse)
        assert run([*self.REPORT, "--input", data_csv, "--out", tmp_path,
                    "--h", "25", "--h1", "30", "--h2", "35"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        comparison = payload["intensity_comparison"]["koli"]
        assert (comparison["h1"], comparison["h2"]) == (30.0, 35.0)
        assert payload["groups"]["novice"]["model"]["bandwidth"] == 25.0
        # no CV table for a fixed bandwidth
        assert "bandwidth_cv" not in comparison
        for group in ("novice", "non_novice"):
            assert "bandwidth_cv" not in payload["groups"][group]["model"]

    def test_compare_intensity_tables_only_the_cross_validated_slot(self, data_csv,
                                                                   tmp_path):
        assert run(["compare-intensity", *self.REPORT[1:], "--input", data_csv,
                    "--out", tmp_path, "--h1", "30"]) == 0
        payload = json.loads((tmp_path / "ratio_test.json").read_text())
        assert set(payload["bandwidth_cv"]) == {"h2"}
        assert payload["bandwidth_cv"]["h2"]["h"] == payload["h2"]

    @pytest.mark.parametrize("command, model_of", [
        ("envelope", lambda out: json.loads((out / "envelope.json").read_text())["model"]),
        ("simulate",
         lambda out: json.loads((out / "sim_provenance.json").read_text())["meta"]["model"]),
    ], ids=["envelope", "simulate"])
    @pytest.mark.parametrize("bandwidth, tabled", [([], True), (["--h", "25"], False)])
    def test_envelope_model_tables_a_cross_validated_h(self, data_csv, tmp_path, command,
                                                       model_of, bandwidth, tabled):
        assert run([command, *self.REPORT[1:], "--input", data_csv, "--out", tmp_path,
                    "--group", "novice", *bandwidth]) == 0
        model = model_of(tmp_path)
        assert ("bandwidth_cv" in model) == tabled
        if tabled:
            assert model["bandwidth_cv"]["h"] == model["bandwidth"]

    @pytest.mark.parametrize("bandwidths", [[], ["--h1", "25", "--h2", "25"]])
    def test_one_group_comparison_is_data_error(self, novice_only_csv, tmp_path, capsys,
                                                bandwidths):
        assert run(["compare-intensity", "--input", novice_only_csv, "--out", tmp_path,
                    "--m", "9", "--seed", "1", "--nx", "20",
                    "--ny", "20", "--trial-length", "10000", *bandwidths]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_code"] == 3
        # the design is checked before any bandwidth is cross-validated
        assert "2 subjects" in err["message"]

    @pytest.mark.parametrize("command", ["compare-intensity", "report"])
    def test_bad_design_fails_before_cross_validation(self, one_novice_csv, tmp_path,
                                                      capsys, monkeypatch, command):
        # one novice with enough fixations to cross-validate: the design
        # check refuses it before a single LSCV score is computed
        scored = []
        monkeypatch.setattr(density, "_lscv_scores", lambda *args: scored.append(args))
        assert run([command, *self.REPORT[1:], "--input", one_novice_csv,
                    "--out", tmp_path]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert "need at least 2 subjects per group, got 1 and 4" in err["message"]
        assert scored == []

    @pytest.mark.parametrize("flags, message", [
        (["--raster", "50", "--radius", "35"], "raster cell 50.0 coarser than radius 35.0"),
        (["--n-angles", "3"], "n_angles must be at least 4"),
    ])
    def test_inconsistent_setting_fails_before_cross_validation(
        self, data_csv, tmp_path, capsys, monkeypatch, flags, message
    ):
        # both used to exit 3, as data errors, after cross-validation (and,
        # for the raster, after every simulated run)
        scored = []
        monkeypatch.setattr(density, "_lscv_scores", lambda *args: scored.append(args))
        assert run([*self.REPORT, "--input", data_csv, "--out", tmp_path, *flags]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert message in err["message"]
        assert scored == []


class TestSimulateCommand:
    def test_deterministic_outputs(self, data_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--input", data_csv, "--group", "novice", "--seed", "7",
                "--n-runs", "3", *FAST]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert (a / "sim_fixations.csv").read_bytes() == (b / "sim_fixations.csv").read_bytes()
        assert (a / "sim_provenance.json").read_bytes() == (b / "sim_provenance.json").read_bytes()

    def test_min_fixation_threshold_reaches_the_model(self, data_csv, tmp_path):
        # the model's truncation point used to stay at 40 ms whatever the
        # threshold, so ingest would drop simulated fixations fed back in
        out = tmp_path / "sim"
        assert run(["simulate", "--input", data_csv, "--group", "novice", "--seed", "3",
                    "--n-runs", "20", "--min-fixation-ms", "80", "--out", out, *FAST]) == 0
        meta = json.loads((out / "sim_provenance.json").read_text())["meta"]
        assert meta["model"]["min_fix_dur"] == 80.0
        d = parse_fixations(out / "sim_fixations.csv", trial_length=10_000.0)
        unclipped = np.concatenate(
            [s.durations[s.onsets + s.durations < 10_000.0] for s in d.sequences])
        assert len(unclipped) > 100
        assert min(unclipped) >= 80.0

    def test_p_long_is_fitted_unless_given(self, data_csv, tmp_path):
        # p_long used to default to 0.2 whatever the data
        models = {}
        for name, flags in (("fit", []), ("given", ["--p-long", "0.3"])):
            out = tmp_path / name
            assert run(["simulate", "--input", data_csv, "--group", "novice", "--seed", "3",
                        "--n-runs", "2", "--out", out, *FAST, *flags]) == 0
            models[name] = json.loads((out / "sim_provenance.json").read_text())["meta"]["model"]
        dataset, _, _ = ingest_pipeline(data_csv, 40.0, Window(*PipelineConfig().window),
                                        10_000.0)
        p, gamma = fitdist.fit_jump_mixture(
            *fitdist.jump_sample(dataset.by_group("novice"), dataset.window))
        assert models["fit"]["p_long"] == p != 0.2
        assert models["fit"]["len_sac"]["shape"] == gamma.shape
        assert models["given"]["p_long"] == 0.3

    def test_output_round_trips_through_ingest(self, data_csv, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--input", data_csv, "--group", "novice", "--seed", "7",
                    "--n-runs", "2", "--out", out, *FAST]) == 0
        d = parse_fixations(out / "sim_fixations.csv")
        assert len(d.sequences) == 2
        assert all(len(s) > 0 for s in d.sequences)


class TestErrorHandling:
    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert run(["quadrat", "--input", tmp_path / "nope.csv", "--out", tmp_path]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_code"] == 3

    def test_non_finite_input_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "nan.csv"
        csv.write_text(
            "subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px\n"
            "a,novice,p,0,100,10,10\n"
            "a,novice,p,200,nan,20,20\n"
        )
        assert run(["ingest", "--input", csv, "--out", tmp_path / "out"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert "nan.csv:3" in err["message"]

    def test_missing_seed_is_config_error(self, data_csv, tmp_path, capsys):
        assert run(["simulate", "--input", data_csv, "--group", "novice",
                    "--out", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "seed" in err["message"]

    @pytest.mark.parametrize("command", ["compare-intensity", "envelope", "report"])
    def test_negative_seed_is_config_error(self, data_csv, tmp_path, capsys, monkeypatch,
                                           command):
        # compare-intensity --seed -1 used to cross-validate, then end in a
        # traceback (exit 1) when the first permutation stream was seeded
        ingested = []
        monkeypatch.setattr(cli, "ingest_pipeline", lambda *a, **k: ingested.append(a))
        out = tmp_path / "out"
        assert run([command, "--seed", "-1", "--group", "novice", "--input", data_csv,
                    "--out", out, *FAST]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "seed" in err["message"]
        assert ingested == []
        assert not out.exists()

    def test_bad_config_file(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["quadrat", "--config", cfg, "--input", data_csv,
                    "--out", tmp_path]) == 2

    def test_unknown_stat_in_config_file(self, data_csv, tmp_path, capsys, monkeypatch):
        # the flag's choices cannot catch a config file's value; it is
        # refused with the config, before any run is simulated
        def refuse(*args):
            raise AssertionError("simulated before the config was checked")

        monkeypatch.setattr(cli, "simulate_curves", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"stat": "area"}')
        assert run(["envelope", "--config", cfg, "--input", data_csv, "--group", "novice",
                    "--seed", "1", "--out", tmp_path, *FAST]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "--stat must be one of" in err["message"]

    def test_unknown_config_key(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bandwidth": 3}')
        assert run(["quadrat", "--config", cfg, "--input", data_csv,
                    "--out", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "unknown config keys" in err["message"]

    def test_degenerate_data_is_numeric_error(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        rows = ["subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px"]
        for subj in ("a", "b"):
            for i in range(3):
                rows.append(f"{subj},novice,p,{i * 200},100,{100 + i},{100 + i}")
        csv.write_text("\n".join(rows) + "\n")
        # constant durations make the gamma fit degenerate
        assert run(["fit", "--input", csv, "--out", tmp_path,
                    "--source", "fixation_duration"]) == 4


class TestNonFiniteConfig:
    COMPARE = ["compare-intensity", "--seed", "1", "--m", "9", "--nx", "20", "--ny", "20",
               "--trial-length", "10000", "--no-svg"]

    @pytest.mark.parametrize("flags", [
        ["--h1", "nan", "--h2", "20"],
        ["--h1", "20", "--h2", "inf"],
        ["--h", "nan", "--h1", "20", "--h2", "20"],
        ["--h-grid", "nan,20,40"],
        ["--h-grid", "20,inf"],
    ])
    def test_non_finite_bandwidth_is_config_error(self, data_csv, tmp_path, capsys, flags):
        # --h1 nan used to exit 0 with T0 = NaN, k = 0 and p = 1/(m+1)
        assert run([*self.COMPARE, "--input", data_csv, "--out", tmp_path, *flags]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert not (tmp_path / "ratio_test.json").exists()

    @pytest.mark.parametrize("name", ["trial_length", "interval_ms", "radius", "raster"])
    def test_nan_positive_setting_is_config_error(self, data_csv, tmp_path, capsys, name):
        # NaN <= 0 is false, so a plain positivity test let NaN through
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: float("nan")}))
        assert run(["quadrat", "--config", cfg, "--input", data_csv, "--out", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert name in err["message"]


    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_fixation_threshold_is_config_error(self, data_csv, tmp_path, capsys, value):
        # a NaN threshold kept every fixation at ingest, then stopped the
        # simulator's duration truncation with a DataError (exit 3)
        out = tmp_path / "out"
        assert run(["simulate", "--min-fixation-ms", value, "--group", "novice", "--seed", "1",
                    "--input", data_csv, "--out", out, *FAST]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "min_fixation_ms" in err["message"]
        assert not out.exists()


class TestConfigKinds:
    # a JSON value of the wrong kind used to end in a traceback (exit 1), or
    # be taken silently: seed 1.5 drew from seed 1, "no" was a true svg
    @pytest.mark.parametrize("text, name", [
        ('{"n_runs": 2.5}', "n_runs"),
        ('{"m": 10.5}', "m"),
        ('{"m": true}', "m"),
        ('{"seed": 1.5}', "seed"),
        ('{"q": null}', "q"),
        ('{"radius": "35"}', "radius"),
        ('{"alpha": true}', "alpha"),
        ('{"svg": "no"}', "svg"),
        ('{"use_first_surface": 1}', "use_first_surface"),
        ('{"group": 1}', "group"),
        ('{"window": [0, 0, 1e400, 768]}', "window"),
        ('{"window": [770, 0, 0, 768]}', "window"),
        ('{"window": [0, 0, 1%s, 768]}' % ("0" * 400), "window"),
        ('{"trial_length": 1%s}' % ("0" * 400), "trial_length"),
        ('{"window": [0, 0, "770", 768]}', "window"),
        ('{"window": "0,0,770,768"}', "window"),
        ('{"h_grid": [20, "40"]}', "h_grid"),
        ('{"h_grid": 20}', "h_grid"),
    ])
    def test_wrong_kind_is_config_error(self, data_csv, tmp_path, capsys, text, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["quadrat", "--config", cfg, "--input", data_csv, "--out", out]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert name in err["message"]
        assert not out.exists()

    def test_right_kinds_are_accepted(self, data_csv, tmp_path):
        # integers stand for floats; null leaves an optional setting unset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "n_runs": 2, "radius": 35, "p_long": 0,
                                   "window": [0, 0, 770, 768.0], "svg": False,
                                   "use_first_surface": True, "painting": None,
                                   "h_grid": [20, 40.0]}))
        assert run(["simulate", "--config", cfg, "--input", data_csv, "--out", tmp_path,
                    "--group", "novice", *FAST]) == 0
        meta = json.loads((tmp_path / "sim_provenance.json").read_text())["meta"]
        assert meta["seed"] == 3
        assert len(meta["config_sha256"]) == 64


class TestConfigChoices:
    # a config file's choice values used to reach the commands unchecked:
    # group "experts" failed after ingest (exit 3), source "blink" and split
    # "time" ran wherever the command did not read them, and q 1 failed in
    # quadrat_chisq (exit 3)
    @pytest.mark.parametrize("values, name, reader, other", [
        ({"group": "experts"}, "group", "intensity", "quadrat"),
        ({"source": "blink"}, "source", "fit", "quadrat"),
        ({"split": "time"}, "split", "shift", "quadrat"),
        ({"q": 1}, "q", "quadrat", "ingest"),
    ])
    @pytest.mark.parametrize("reads", [True, False], ids=["reader", "other"])
    def test_bad_choice_is_config_error_before_ingest(self, data_csv, tmp_path, capsys,
                                                       monkeypatch, values, name, reader,
                                                       other, reads):
        def refuse(*args, **kwargs):
            raise AssertionError("ingested before the config was checked")

        monkeypatch.setattr(cli, "ingest_pipeline", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        command = reader if reads else other
        assert run([command, "--config", cfg, "--input", data_csv, "--out", out, *FAST]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"{name} must" in err["message"]
        assert not out.exists()

    def test_q_flag_below_two_is_config_error(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["quadrat", "--q", "1", "--input", data_csv, "--out", out]) == 2
        assert "q must be at least 2" in json.loads(capsys.readouterr().err.strip())["message"]
        assert not out.exists()


class TestParser:
    def test_one_option_per_config_field(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(commands.choices) == list(cli.COMMANDS)
        names = [f.name for f in fields(PipelineConfig)]
        for sub in commands.choices.values():
            options = [a for a in sub._actions if a.dest != "help"]
            assert all(a.option_strings for a in options)
            assert [a.dest for a in options] == ["config", *names]

    def test_options_collect_their_text_alone(self):
        # _load_config checks every kind and choice, a flag's as a file's
        commands = next(a for a in cli._build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        for sub in commands.choices.values():
            for action in sub._actions:
                assert action.type is None and action.choices is None

    @pytest.mark.parametrize("argv, message", [
        # argparse takes a negative number in exponent form for an option
        (["quadrat", "--h2", "-1e-3"], "argument --h2: expected one argument"),
        (["quadrat", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["quadrat", "--q"], "argument --q: expected one argument"),
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ], ids=["negative_exponent", "unknown_flag", "no_value", "no_command", "unknown_command"])
    def test_parser_error_is_json_config_error(self, capsys, monkeypatch, argv, message):
        # each used to print argparse's usage text and raise SystemExit(2)
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())
        assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
        assert err["message"].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], ["quadrat", "--help"]])
    def test_help_prints_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            run(argv)
        assert done.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: fixproc") and captured.err == ""


class TestFlagText:
    # name: flag text that does not fit the field, refused alike from a flag
    # and, as a JSON string, from a config file
    BAD = {
        "nx": "abc",
        "m": "1.5",
        "seed": "1e3",
        "h": "24px",
        "window": "0,0,770,x",
        "h_grid": "16,,32",
        "group": "zz",
        "source": "blink",
        "stat": "Hull",
        "split": "time",
    }

    @pytest.mark.parametrize("name", list(BAD))
    def test_flag_and_file_give_one_error(self, data_csv, tmp_path, capsys, monkeypatch, name):
        # a bad --nx or --group used to end in argparse's usage text
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: self.BAD[name]}))
        lines = []
        for setting in ([cli._flag(name), self.BAD[name]], ["--config", cfg]):
            out = tmp_path / "out"
            assert run(["quadrat", "--input", data_csv, "--out", out, *setting]) == 2
            lines.append(capsys.readouterr().err)
            assert not out.exists()
        assert lines[0] == lines[1]
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and f"{name} must" in err["message"]

    def test_text_is_read_by_the_fields_kind(self):
        by_name = {f.name: f for f in fields(PipelineConfig)}
        assert cli._read_flag(by_name["nx"], "64") == 64
        assert cli._read_flag(by_name["h"], "24") == 24.0
        assert cli._read_flag(by_name["h_grid"], "16,24.5") == (16.0, 24.5)
        assert cli._read_flag(by_name["painting"], "12") == "12"
        assert cli._read_flag(by_name["svg"], False) is False
        assert cli._read_flag(by_name["seed"], None) is None


class TestRequiredSettings:
    # a missing required setting used to be found after the output directory
    # was made, leaving an empty one behind
    @pytest.mark.parametrize("command, flags, name", [
        ("envelope", ["--group", "novice"], "seed"),
        ("envelope", ["--seed", "1"], "group"),
        ("simulate", ["--seed", "1"], "group"),
        ("compare-intensity", [], "seed"),
        ("report", [], "seed"),
    ])
    def test_missing_setting_makes_no_output_directory(self, data_csv, tmp_path, capsys,
                                                       monkeypatch, command, flags, name):
        def refuse(*args, **kwargs):
            raise AssertionError("ingested before the config was checked")

        monkeypatch.setattr(cli, "ingest_pipeline", refuse)
        out = tmp_path / "o2"
        assert run([command, *flags, "--input", data_csv, "--out", out, *FAST]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"--{name} is required" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_missing_input_makes_no_output_directory(self, tmp_path, capsys, command):
        out = tmp_path / "o2"
        assert run([command, "--seed", "1", "--group", "novice", "--out", out]) == 2
        assert "--input is required" in json.loads(capsys.readouterr().err.strip())["message"]
        assert not out.exists()


def _refuse_ingest(*args, **kwargs):
    raise AssertionError("ingested before the config was checked")


class TestFieldRules:
    # name: a value outside the field's rule, as its flag's text and as JSON
    OUTSIDE = {
        "trial_length": ("0", 0),
        "min_fixation_ms": ("-1", -1),
        "h": ("-24", -24),
        "h1": ("0", 0),
        "h2": ("-0.001", -0.001),
        "h_grid": ("20,-1", [20, -1]),
        "interval_ms": ("0", 0),
        "q": ("1", 1),
        "m": ("0", 0),
        "seed": ("-1", -1),
        "n_runs": ("0", 0),
        "radius": ("-35", -35),
        "raster": ("0", 0),
        "p_long": ("1.5", 1.5),
        "n_angles": ("3", 3),
        "nx": ("0", 0),
        "ny": ("-128", -128),
        "alpha": ("1", 1),
        "grid_points": ("0", 0),
    }

    def test_table_covers_every_field_with_a_rule(self):
        ruled = [f.name for f in fields(PipelineConfig) if f.metadata.get("rule")]
        assert sorted(ruled) == sorted(self.OUTSIDE)

    @pytest.mark.parametrize("name", list(OUTSIDE))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_value_outside_rule_is_config_error_before_ingest(
        self, data_csv, tmp_path, capsys, monkeypatch, name, source
    ):
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        text, value = self.OUTSIDE[name]
        if source == "flag":
            setting = [cli._flag(name), text]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: value}))
            setting = ["--config", cfg]
        out = tmp_path / "out"
        assert run(["quadrat", "--input", data_csv, "--out", out, *setting]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"{name} must" in err["message"]
        assert not out.exists()


class TestCommandRefusals:
    @pytest.mark.parametrize("args", [
        ["envelope", "--group", "novice", "--h", "24", "--n-runs", "10", "--seed", "1"],
        ["report", "--m", "9", "--n-runs", "19", "--seed", "1"],
        ["envelope", "--group", "novice", "--alpha", "0.1", "--n-runs", "9", "--seed", "1"],
    ], ids=["envelope", "report", "envelope_alpha"])
    def test_too_few_runs_for_alpha_is_config_error_before_ingest(
        self, bench_csv, tmp_path, capsys, monkeypatch, args
    ):
        # envelope used to fit the model and simulate every run, and report
        # to run CV and the permutation test too, before exit 3 with
        # "hull: need at least 20 curves, got 10"
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        out = tmp_path / "out"
        assert run([*args, "--input", bench_csv, "--out", out]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "n_runs must be at least" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.07, 0.3, 0.999])
    def test_run_bound_is_the_envelopes_bound(self, alpha):
        fewest = envelopes.min_curves(alpha)
        grid = np.linspace(0.0, 1.0, 5)
        rows = np.random.default_rng(3).random((fewest, 5))
        with pytest.raises(fixproc.DataError, match="need at least"):
            envelopes.rank_envelope(envelopes.CurveMatrix(grid, rows[:-1]), alpha)
        envelopes.rank_envelope(envelopes.CurveMatrix(grid, rows), alpha)
        cfg = PipelineConfig(input="x.csv", seed=1, group="novice", alpha=alpha, n_runs=fewest)
        cli._check_command("envelope", cfg)
        with pytest.raises(cli.ConfigError):
            cli._check_command("envelope", replace(cfg, n_runs=fewest - 1))

    @pytest.mark.parametrize("args", [
        ["compare-intensity", "--group", "novice", "--m", "9", "--seed", "1"],
        ["report", "--group", "non_novice", "--m", "9", "--n-runs", "20", "--seed", "1"],
        ["shift", "--group", "novice"],
        ["shift", "--group", "novice", "--split", "group"],
    ], ids=["compare-intensity", "report", "shift", "shift_split_group"])
    def test_group_on_a_two_group_command_is_config_error_before_ingest(
        self, bench_csv, tmp_path, capsys, monkeypatch, args
    ):
        # each used to read the input, then exit 3 blaming the data: "need at
        # least 2 subjects per group, got 10 and 0", or for shift "both
        # samples need size >= 2, got 646 and 0"
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        out = tmp_path / "out"
        assert run([*args, "--input", bench_csv, "--out", out,
                    "--trial-length", "20000"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "--group" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["residuals", "--h", "24", "--interval-ms", "30000"],
        ["residuals", "--h", "24", "--interval-ms", "20000"],
        ["shift", "--split", "interval", "--interval-ms", "30000"],
        ["shift", "--split", "interval", "--interval-ms", "20000"],
    ], ids=["residuals", "residuals_equal", "shift", "shift_equal"])
    def test_one_interval_is_config_error_before_ingest(self, bench_csv, tmp_path, capsys,
                                                        monkeypatch, args):
        # each used to read the input, then exit 3: an interval as long as
        # the 20 s trial leaves one, which has nothing to be compared with
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        out = tmp_path / "out"
        assert run([*args, "--input", bench_csv, "--out", out, "--trial-length", "20000"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["message"] == (f"interval_ms {float(args[-1])} cuts trial_length 20000.0 "
                                  "into 1 interval(s); need at least 2")
        assert not out.exists()

    @pytest.mark.parametrize("trial, interval", [
        (20_000.0, 20_000.0), (20_000.0, np.nextafter(20_000.0, 0.0)),
        (20_000.0, np.nextafter(20_000.0, np.inf)), (20_000.0, 10_000.0),
        (0.3, 0.1), (1e-300, 5e-301), (5e-324, 5e-324), (1e-323, 5e-324),
    ])
    @pytest.mark.parametrize("command, split", [("residuals", "group"), ("shift", "interval")])
    def test_interval_refusal_is_the_datasets_count(self, trial, interval, command, split):
        # the CLI refuses exactly the configs whose intervals the dataset refuses to cut
        cfg = PipelineConfig(input="x.csv", trial_length=trial, interval_ms=interval,
                             split=split)
        try:
            Dataset(window=Window(0.0, 0.0, 1.0, 1.0), sequences=[],
                    trial_length=trial).interval_masks(interval)
        except fixproc.DataError:
            with pytest.raises(cli.ConfigError, match="need at least 2"):
                cli._check_command(command, cfg)
        else:
            cli._check_command(command, cfg)

    @pytest.mark.parametrize("trial, interval", [("1e300", "1e-10"), ("1e12", "1e-3")],
                             ids=["infinite", "finite"])
    @pytest.mark.parametrize("args", [["residuals", "--h", "24"],
                                      ["shift", "--split", "interval"]],
                             ids=["residuals", "shift"])
    def test_too_many_intervals_is_config_error_before_ingest(
        self, bench_csv, tmp_path, capsys, monkeypatch, args, trial, interval
    ):
        # the infinite count ended in an OverflowError traceback, and 10**15
        # intervals passed the check and would each have been masked
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        out = tmp_path / "out"
        assert run([*args, "--input", bench_csv, "--out", out, "--trial-length", trial,
                    "--interval-ms", interval]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["message"] == (
            f"interval_ms {float(interval)} cuts trial_length {float(trial)} into more than "
            f"{MAX_INTERVALS} intervals; need at most {MAX_INTERVALS}")
        assert not out.exists()

    @pytest.mark.parametrize("command, split", [("residuals", "group"), ("shift", "interval")])
    def test_interval_bound_is_the_datasets_bound(self, command, split):
        most = MAX_INTERVALS
        for trial, refused in ((most * 1.0, False), (np.nextafter(most * 1.0, np.inf), True)):
            cfg = PipelineConfig(input="x.csv", trial_length=trial, interval_ms=1.0, split=split)
            data = Dataset(window=Window(0.0, 0.0, 1.0, 1.0), sequences=[], trial_length=trial)
            if refused:
                with pytest.raises(fixproc.DataError, match="need at most"):
                    data.interval_masks(1.0)
                with pytest.raises(cli.ConfigError, match="need at most"):
                    cli._check_command(command, cfg)
            else:
                assert len(data.interval_masks(1.0)) == most
                cli._check_command(command, cfg)

    def test_group_split_takes_any_interval(self):
        cfg = PipelineConfig(input="x.csv", trial_length=20_000.0, interval_ms=30_000.0)
        cli._check_command("shift", cfg)
        cli._check_command("intensity", cfg)

    def test_group_on_a_config_file_is_refused_too(self, bench_csv, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"group": "novice"}')
        assert run(["compare-intensity", "--config", cfg, "--seed", "1",
                    "--input", bench_csv, "--out", tmp_path / "out"]) == 2
        assert "--group" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_shift_by_interval_takes_a_group(self, data_csv, tmp_path):
        assert run(["shift", "--split", "interval", "--group", "novice", "--interval-ms",
                    "5000", "--input", data_csv, "--out", tmp_path, "--trial-length",
                    "10000", "--no-svg"]) == 0
        assert (tmp_path / "shift.json").exists()


SEEDED_GROUP = ["--group", "novice", "--seed", "1"]


class TestHeldBytes:
    @pytest.mark.parametrize("args, held", [
        (["intensity", "--nx", "20000", "--ny", "20000"], "12800000000 for nx 20000, ny 20000"),
        (["envelope", *SEEDED_GROUP, "--raster", "0.01"], "5913600000 for raster 0.01"),
        (["envelope", *SEEDED_GROUP, "--grid-points", "100000000"],
         "560000000000 for n_runs 200, grid_points 100000000"),
        (["envelope", *SEEDED_GROUP, "--n-runs", "100000000", "--stat", "scanpath",
          "--grid-points", "11"], "13200000000 for n_runs 100000000, grid_points 11"),
        (["quadrat", "--q", "1000000"], "8000000000000 for q 1000000"),
        (["simulate", *SEEDED_GROUP, "--n-angles", "100000000"],
         "10400000080 for n_angles 100000000"),
    ], ids=["nx_ny", "raster", "grid_points", "n_runs", "q", "n_angles"])
    def test_oversized_setting_is_config_error_before_ingest(
        self, bench_csv, tmp_path, capsys, monkeypatch, args, held
    ):
        # each used to read the input, then end in a numpy _ArrayMemoryError
        # traceback (exit 1) where the memory ran out
        monkeypatch.setattr(cli, "ingest_pipeline", _refuse_ingest)
        out = tmp_path / "out"
        assert run([*args, "--input", bench_csv, "--out", out, "--trial-length", "20000"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f" bytes at once, {held}; need at most {cli.MAX_HELD_BYTES}" in err["message"]
        assert err["message"].startswith(f"{args[0]} would hold ")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["compare-intensity", "--h1", "24", "--h2", "24"],
        ["report", "--h", "24", "--h1", "24", "--h2", "24", "--n-runs", "20"],
    ], ids=["compare-intensity", "report"])
    def test_oversized_label_matrix_is_data_error_after_ingest(
        self, bench_csv, tmp_path, capsys, monkeypatch, args
    ):
        # the (m, subjects) labels were allocated after ingest: 1.86 GiB at
        # 20 subjects, a numpy _ArrayMemoryError under a 1.5 GB address space
        def refuse(*args):
            raise AssertionError("label matrix allocated")

        ingested = []

        def ingest(*args):
            ingested.append(args)
            return ingest_pipeline(*args)

        monkeypatch.setattr(cli, "ingest_pipeline", ingest)
        monkeypatch.setattr(fixproc.compare, "_first_groups", refuse)
        monkeypatch.setattr(fixproc.compare, "_subject_surfaces", refuse)
        out = tmp_path / "out"
        assert run([*args, "--m", "100000000", "--seed", "1", "--input", bench_csv,
                    "--out", out, "--trial-length", "20000"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        # 20 subjects: the labels, their 3 packed bytes and the statistic
        assert "3100000000 for m 100000000; need at most" in err["message"]
        assert len(ingested) == 1 and not out.exists()

    def test_label_term_bounds_what_each_permutation_draw_holds(self):
        # each draw used to add a bytes object of its partition to a Python
        # set, and the scorer a pool task per block of draws: about 110 bytes
        # a draw at 20 subjects, where the term counted 28
        data = simulated_dataset(toy_model(trial_length=5_000.0), n_subjects=20, seed=1)
        ms = (20_000, 60_000)
        peaks = []
        for m in ms:
            tracemalloc.start()
            try:
                fixproc.permutation_test(data, m=m, h1=30.0, h2=40.0, seed=1, nx=8, ny=8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        terms = [cli._held_terms(PipelineConfig(m=m), "compare-intensity", 20, 2)[f"m {m}"]
                 for m in ms]
        assert peaks[1] - peaks[0] <= terms[1] - terms[0]

    @pytest.mark.parametrize("most, refused", [(11_585, False), (11_586, True)])
    def test_budget_is_one_bound_on_the_sum(self, most, refused):
        # quadrat holds only its q x q table: 8 * 11 585**2 is the largest
        # multiple of its form within 2**30 bytes
        cfg = PipelineConfig(input="x.csv", q=most)
        assert (8 * most**2 > cli.MAX_HELD_BYTES) == refused
        if refused:
            with pytest.raises(cli.ConfigError, match=f"for q {most}; need at most"):
                cli._check_command("quadrat", cfg)
        else:
            cli._check_command("quadrat", cfg)

    def test_every_digest_case_and_bench_workload_is_within_the_budget(self, tmp_path):
        # paper scale and every case the output digest runs, with the digest's
        # and the bench's 20 subjects at two bandwidths after ingest
        digest = _module(ROOT / "tools" / "output_digest.py")
        bench = _module(BENCH / "run.py")
        argvs = []
        for name, (_, flags) in digest.COMMANDS.items():
            argv = [*flags, "--input", "x.csv", "--trial-length",
                    repr(digest.TRIAL_LENGTHS.get(name, 20_000.0))]
            if name in digest.CONFIGS:
                config = tmp_path / f"{name}.json"
                config.write_text(json.dumps(digest.CONFIGS[name]))
                argv += ["--config", str(config)]
            argvs.append(argv)
        for workload in bench.WORKLOADS.values():
            argvs.append(workload.argv(Path("x.csv"), tmp_path / "out", 7))
        assert len(argvs) == len(digest.COMMANDS) + 4
        for argv in argvs:
            args = cli._build_parser().parse_args(argv)
            flags = {f.name: cli._read_flag(f, getattr(args, f.name))
                     for f in fields(PipelineConfig)}
            cfg = cli._load_config(args.config, flags)
            cli._check_command(args.command, cfg)
            fixproc.core.check_limits(cli._limits(args.command, cfg, 20, 2))


ROOT = Path(__file__).resolve().parent.parent


def _module(path: Path):
    """The module at ``path``, imported with its directory on ``sys.path``."""
    import importlib.util

    sys.path.insert(0, str(path.parent))
    try:
        name = f"_{path.parent.name}_{path.stem}"
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.pop(0)
    return module


# report on 40 ms trials: every fixation after a subject's first starts past
# the trial and is dropped, so the comparison runs on the first fixations, then
# the first group model fails with no jump to fit its lengths to
REPORT_SHORT_TRIALS = ["report", "--trial-length", "40", "--h", "24", "--h1", "24", "--h2", "24",
                       "--m", "9", "--n-runs", "20", "--seed", "1"]


# with their default split, these compare both groups and take no --group
TWO_GROUP_COMMANDS = ("compare-intensity", "report", "shift")


def _group_flags(command: str) -> list[str]:
    """``--group novice``, for a command that does not compare both groups."""
    return [] if command in TWO_GROUP_COMMANDS else ["--group", "novice"]


class TestDataErrorsMakeNoOutputDirectory:
    # every command used to create --out before it read its input, so a data
    # error at ingest left an empty output directory behind
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_missing_input_file(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run([command, "--seed", "1", *_group_flags(command), "--input",
                    tmp_path / "nope.csv", "--out", out]) == 3
        assert json.loads(capsys.readouterr().err.strip())["exit_code"] == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_painting_id_that_is_not_a_file_name(self, tmp_path, capsys, command):
        d = simulated_dataset(toy_model(trial_length=5_000.0), n_subjects=4, seed=21,
                              painting_id="room/a")
        out = tmp_path / "out"
        # intervals that cut the 5 s trials in two, so residuals gets to ingest
        assert run([command, "--seed", "1", *_group_flags(command), "--input",
                    write_csv(d, tmp_path / "fix.csv"), "--out", out,
                    "--trial-length", "5000", "--interval-ms", "2500"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert "painting_id 'room/a' cannot be part of a file name" in err["message"]
        assert not out.exists()

    # each of these commands used to create --out before its computation, so
    # an error after ingest left an empty output directory behind
    @pytest.mark.parametrize("args, code", [
        (["envelope", "--group", "novice", "--seed", "1", "--n-runs", "20", "--h", "24",
          "--trial-length", "40"], 3),
        (["intensity", "--h-grid", "0.0001"], 4),
        # no sequence of the painting is left
        (["residuals", "--h", "24", "--interval-ms", "10000", "--painting", "nosuch"], 3),
        (["shift", "--split", "interval", "--interval-ms", "10000", "--painting", "nosuch"], 3),
        (["report", "--seed", "1", "--m", "9", "--n-runs", "20", "--h-grid", "0.0001"], 4),
        # without SVGs a group model that fails comes before report's first write
        ([*REPORT_SHORT_TRIALS, "--no-svg"], 3),
    ], ids=["envelope", "intensity", "residuals", "shift", "report", "report_nosvg"])
    def test_error_after_ingest(self, bench_csv, tmp_path, capsys, args, code):
        out = tmp_path / "out"
        # the last --trial-length given wins
        assert run([args[0], "--input", bench_csv, "--out", out, "--trial-length", "20000",
                    *args[1:]]) == code
        assert json.loads(capsys.readouterr().err.strip())["exit_code"] == code
        assert not out.exists()

    def test_report_writes_its_log_ratio_svg_before_the_group_models(self, bench_csv,
                                                                      tmp_path, capsys):
        # the one write report makes before a failing group model, on purpose
        out = tmp_path / "out"
        assert run([*REPORT_SHORT_TRIALS, "--input", bench_csv, "--out", out]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "need at least 2 observations, got 0"
        assert [p.name for p in out.iterdir()] == ["report_log_ratio_p01.svg"]


class TestConfigHash:
    def test_int_and_float_spellings_hash_alike(self, tmp_path):
        # an int given to a float field used to be kept, so 10000 and 10000.0
        # described one run under two config_sha256 values
        cfgs = []
        for name, text in (("int", '{"trial_length": 10000, "radius": 35, "h": 24}'),
                           ("float", '{"trial_length": 10000.0, "radius": 35.0, "h": 24.0}')):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            cfgs.append(cli._load_config(str(path), {}))
        assert cfgs[0].sha256() == cfgs[1].sha256()
        assert all(type(v) is float for v in (cfgs[0].trial_length, cfgs[0].radius, cfgs[0].h))
        assert cfgs[0].h1 is None and type(cfgs[0].m) is int


@pytest.fixture()
def openblas():
    found = cli._openblas_threads()
    if found is None:
        pytest.skip("numpy was not installed with a wheel's OpenBLAS")
    return found


class TestBlasThreads:
    def test_one_blas_thread_inside_and_restored_after(self, openblas):
        set_threads, get_threads = openblas
        before = get_threads()
        set_threads(2)
        try:
            with cli._one_blas_thread():
                assert get_threads() == 1
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_main_runs_commands_on_one_blas_thread(self, openblas, data_csv, tmp_path,
                                                    monkeypatch):
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "quadrat", lambda cfg: seen.append(openblas[1]()))
        assert run(["quadrat", "--input", data_csv, "--out", tmp_path]) == 0
        assert seen == [1]

    def test_without_openblas_the_body_still_runs(self, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        ran = []
        with cli._one_blas_thread():
            ran.append(True)
        assert ran == [True]

    def test_outputs_do_not_depend_on_blas_thread_count(self, tmp_path):
        # two OpenBLAS threads split _grid_factors' product differently, and
        # the CV scores in ratio_test.json changed in their last digits
        csv = tmp_path / "input.csv"
        csv.write_text(_bench_experiment(7, 10, 130, 40_000.0).csv_text)
        src = str(Path(fixproc.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "fixproc.cli", "compare-intensity", "--input", str(csv),
                 "--out", str(out), "--m", "500", "--seed", "7", "--trial-length", "40000.0",
                 "--no-svg"],
                env=env, check=True, capture_output=True,
            )
            outputs.append((out / "ratio_test.json").read_bytes())
        assert b'"bandwidth_cv"' in outputs[0]
        assert outputs[0] == outputs[1]


class TestTraceHarness:
    def test_spans_attach_to_every_layer(self, bench_csv, tmp_path):
        # bench/spans.py patches each public name in its LAYERS and raises on
        # the first one that is gone, so a deleted name would break every
        # traced bench run
        script = ("import json, sys, fixproc.cli, spans; tracer = spans.Tracer(); "
                  "spans.install(tracer); code = fixproc.cli.main(sys.argv[1:]); "
                  "print(json.dumps([code, tracer.counts]))")
        src = str(Path(fixproc.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script, "ingest", "--input", str(bench_csv),
             "--out", str(tmp_path / "out"), "--trial-length", "20000"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(BENCH)])),
            check=True, capture_output=True, text=True,
        )
        code, counts = json.loads(done.stdout)
        assert code == 0
        assert counts["ingest.rows"] == len(bench_csv.read_text().splitlines()) - 1


class TestConfigPrecedence:
    def test_flags_override_file(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 2, "trial_length": 10000.0}))
        assert run(["quadrat", "--config", cfg, "--input", data_csv,
                    "--out", tmp_path, "--q", "4"]) == 0
        payload = json.loads((tmp_path / "quadrat.json").read_text())
        assert payload["df"] == 15

    def test_config_file_values_used(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 2, "trial_length": 10000.0,
                                   "input": str(data_csv), "out": str(tmp_path)}))
        assert run(["quadrat", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "quadrat.json").read_text())
        assert payload["df"] == 3


class TestMultiPainting:
    @pytest.fixture()
    def two_painting_csv(self, tmp_path):
        model = toy_model(trial_length=5_000.0)
        d1 = simulated_dataset(model, n_subjects=8, seed=21, painting_id="koli")
        d2 = simulated_dataset(model, n_subjects=8, seed=22, painting_id="monet")
        d1.sequences += d2.sequences
        return write_csv(d1, tmp_path / "two.csv")

    def test_compare_intensity_requires_one_painting(self, two_painting_csv, tmp_path, capsys):
        code = run(["compare-intensity", "--input", two_painting_csv, "--out", tmp_path,
                    "--m", "9", "--seed", "1", "--h1", "25", "--h2", "25",
                    "--nx", "12", "--ny", "12", "--trial-length", "5000"])
        assert code == 3
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert "pick one with --painting" in message

    def test_envelope_requires_one_painting(self, two_painting_csv, tmp_path, capsys):
        code = run(["envelope", "--input", two_painting_csv, "--out", tmp_path,
                    "--group", "novice", "--seed", "1", "--n-runs", "20", "--h", "25",
                    "--nx", "12", "--ny", "12", "--trial-length", "5000", "--no-svg"])
        assert code == 3
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert "pick one with --painting" in message

    def test_painting_filter_selects_one(self, two_painting_csv, tmp_path):
        assert run(["compare-intensity", "--input", two_painting_csv, "--out", tmp_path,
                    "--painting", "monet", "--m", "9", "--seed", "1", "--h1", "25",
                    "--h2", "25", "--nx", "12", "--ny", "12",
                    "--trial-length", "5000"]) == 0

    def test_report_fisher_combines_paintings(self, two_painting_csv, tmp_path):
        assert run(["report", "--input", two_painting_csv, "--out", tmp_path,
                    "--seed", "2", "--m", "9", "--n-runs", "20", "--h", "25",
                    "--nx", "12", "--ny", "12", "--n-angles", "60", "--raster", "8",
                    "--grid-points", "11", "--trial-length", "5000", "--no-svg"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        comp = payload["intensity_comparison"]
        assert set(comp) == {"koli", "monet", "fisher"}
        assert comp["fisher"]["df"] == 4
        for painting in ("koli", "monet"):
            block = comp[painting]
            assert block["mc_se"] == (block["p"] * (1 - block["p"]) / 9) ** 0.5
            assert 1 <= block["distinct_partitions"] <= 9
        # every subject appears once per painting in the observed overlays
        hull_obs = payload["groups"]["novice"]["stats"]["hull"]["observed"]
        assert len(hull_obs) == 8  # 4 novice subjects x 2 paintings


class TestFlagVariants:
    def test_envelope_single_stat_no_svg(self, data_csv, tmp_path):
        assert run(["envelope", "--input", data_csv, "--out", tmp_path, "--group",
                    "novice", "--seed", "6", "--n-runs", "20", "--stat", "scanpath",
                    "--no-svg", *FAST]) == 0
        payload = json.loads((tmp_path / "envelope.json").read_text())
        assert set(payload["stats"]) == {"scanpath"}
        assert not (tmp_path / "envelope_coverage.svg").exists()

    def test_all_surface_switch(self, data_csv, tmp_path):
        assert run(["simulate", "--input", data_csv, "--group", "novice", "--seed", "3",
                    "--n-runs", "2", "--out", tmp_path, "--all-surface", *FAST]) == 0
        meta = json.loads((tmp_path / "sim_provenance.json").read_text())["meta"]
        assert meta["model"]["use_first_surface"] is False

    def test_all_fixations_filtered_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text(
            "subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px\n"
            "a,novice,p,0,10,100,100\n"
            "a,novice,p,200,20,120,120\n"
        )
        assert run(["quadrat", "--input", csv, "--out", tmp_path]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert "no fixations left" in err["message"]


class TestOneSampleRule:
    # fit and the group model take each law's sample from fitdist.law_sample,
    # and fit reports the length gamma of the model's jump mixture with its p
    @pytest.mark.parametrize("group", ["novice", "non_novice"])
    def test_fit_equals_the_models_law(self, data_csv, tmp_path, group):
        assert run(["envelope", "--group", group, "--seed", "1", "--n-runs", "20", "--no-svg",
                    "--input", data_csv, "--out", tmp_path / "env", *FAST]) == 0
        model = json.loads((tmp_path / "env" / "envelope.json").read_text())["model"]
        # saccade durations pool both groups, so fit takes no --group for them
        fits = {}
        for source, law, flags in (("fixation_duration", "dur_fix", ["--group", group]),
                                   ("saccade_length", "len_sac", ["--group", group]),
                                   ("saccade_duration", "dur_sac", [])):
            out = tmp_path / source
            assert run(["fit", "--source", source, *flags, "--input", data_csv,
                        "--out", out, *FAST]) == 0
            fits[law] = json.loads((out / f"fit_{source}.json").read_text())
            assert {key: fits[law][key] for key in model[law]} == model[law]
        assert fits["len_sac"]["p_long"] == model["p_long"]
        # qq draws its band from the same law
        assert run(["qq", "--source", "saccade_length", "--group", group, "--input", data_csv,
                    "--out", tmp_path / "qq", *FAST]) == 0
        qq = json.loads((tmp_path / "qq" / "qq_saccade_length.json").read_text())
        assert qq["fit"] == model["len_sac"] and qq["p_long"] == model["p_long"]


class TestSvgText:
    def test_report_svgs_parse_with_markup_in_the_painting_id(self, tmp_path):
        model = toy_model(trial_length=5_000.0)
        csv = write_csv(simulated_dataset(model, n_subjects=8, seed=21, painting_id="A&B<1>"),
                        tmp_path / "marked.csv")
        out = tmp_path / "out"
        assert run(["report", "--input", csv, "--out", out, "--seed", "2", "--m", "9",
                    "--n-runs", "20", "--h", "25", "--nx", "12", "--ny", "12",
                    "--n-angles", "60", "--raster", "8", "--grid-points", "11",
                    "--trial-length", "5000"]) == 0
        svgs = sorted(out.glob("*.svg"))
        assert out / "report_log_ratio_A&B<1>.svg" in svgs and len(svgs) == 5
        for path in svgs:
            ET.fromstring(path.read_text())
        title = ET.fromstring((out / "report_log_ratio_A&B<1>.svg").read_text())[0].text
        assert title.startswith("log ratio A&B<1> (p=")


class TestIdsThatAreNotFileNames:
    # outputs are named after subject and painting ids, so ingest refuses an
    # id that is not a file-name part before any command does its work
    @pytest.mark.parametrize("command, column, bad", [
        (["report", "--seed", "2", "--m", "9", "--n-runs", "20"], "painting_id", "room/a"),
        (["summaries"], "painting_id", "room/a"),
        (["summaries"], "subject_id", ".."),
    ])
    def test_refused_before_cross_validation(self, tmp_path, monkeypatch, capsys,
                                             command, column, bad):
        painting = bad if column == "painting_id" else "koli"
        d = simulated_dataset(toy_model(trial_length=5_000.0), n_subjects=8, seed=21,
                              painting_id=painting)
        if column == "subject_id":
            d.sequences[3] = replace(d.sequences[3], subject_id=bad)
        csv = write_csv(d, tmp_path / "fix.csv")

        def refuse(*args, **kwargs):
            raise AssertionError("cross-validated before the ids were checked")

        monkeypatch.setattr(cli, "select_bandwidth_cv", refuse)
        out = tmp_path / "out"
        assert run([*command, "--input", csv, "--out", out, "--nx", "12", "--ny", "12",
                    "--n-angles", "60", "--raster", "8", "--grid-points", "11",
                    "--trial-length", "5000"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert f"{column} {bad!r} cannot be part of a file name" in err["message"]
        assert not out.exists()

    def test_two_sequences_with_one_file_name_refused(self, tmp_path, capsys):
        # subject s_1 on x and subject s on 1_x both name summary_s_1_x_*.csv;
        # summaries used to write one and drop the other
        csv = tmp_path / "fix.csv"
        csv.write_text("subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px\n"
                       "s_1,novice,x,0,100,10,10\ns,novice,1_x,0,100,10,10\n")
        out = tmp_path / "out"
        assert run(["summaries", "--input", csv, "--out", out, "--trial-length", "1000",
                    "--no-svg"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert "has the output name 's_1_x' of subject 's_1' on painting 'x'" in err["message"]
        assert not out.exists()


class TestIdsThatNeedQuotes:
    def test_ingest_output_ingests_again(self, tmp_path):
        # "s,1" is read as one quoted id; fixations_clean.csv used to write it
        # unquoted, and ingesting that file failed at its first row
        source = tmp_path / "fix.csv"
        source.write_text("subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px\n"
                          '"s,1",novice,p1,0,100,10,10\n"s,1",novice,p1,150,80,30,40\n'
                          "s2,non_novice,p1,0,100,5,5\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["ingest", "--input", source, "--out", first]) == 0
        assert run(["ingest", "--input", first / "fixations_clean.csv", "--out", second]) == 0
        for name in ("fixations_clean.csv", "saccades.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "fixations_clean.csv").read_text().splitlines()[1] == (
            '"s,1",novice,p1,0.0,100.0,10.0,10.0,1'
        )


class TestCleanFileReadsBack:
    """``fixations_clean.csv`` given back as input is analysed as the raw file is."""

    @pytest.fixture(scope="class")
    def ingested(self, tmp_path_factory):
        # the bench's envelope input: exclusions at interior rows splice 8 jumps
        work = tmp_path_factory.mktemp("clean")
        raw = work / "input.csv"
        raw.write_text(_bench_experiment(7, 10, 130, 40_000.0).csv_text)
        assert run(["ingest", "--input", raw, "--out", work / "out",
                    "--trial-length", "40000"]) == 0
        return [ingest_pipeline(path, trial_length=40_000.0)
                for path in (raw, work / "out" / "fixations_clean.csv")]

    @pytest.mark.parametrize("group", ["novice", "non_novice"])
    def test_models_are_equal(self, ingested, group):
        # the clean file used to count the spliced jumps as real saccades:
        # dur_sac read n = 2 572 on it and 2 564 on the raw file
        raw, clean = (simulate.build_model(dataset, group, h=24.0, nx=32, ny=32).to_dict()
                      for dataset, _, _ in ingested)
        assert raw["dur_sac"].n == 2_564
        assert clean == raw

    def test_reingest_excludes_nothing(self, ingested):
        (raw, _, raw_report), (clean, _, clean_report) = ingested
        assert clean.sequences == raw.sequences
        totals = clean_report.to_dict()["totals"]
        assert totals["n_short_excluded"] == totals["n_outside_excluded"] == 0
        assert all(e.excluded_indices == [] for e in clean_report.entries)
        missing = raw_report.to_dict()["totals"]["n_saccades_missing"]
        assert totals["n_saccades_missing"] == missing == 8
