"""sha256 of every output file of a fixed set of CLI commands.

    python tools/output_digest.py [--checkout DIR] [--work DIR]

Runs the ``fixproc`` CLI of ``DIR/src`` (default: this checkout), one fresh
interpreter per command, on seeded synthetic experiments from
``bench/inputs.py``, and prints one line ``sha256  command/file`` per output
file, the command's stdout and stderr included. Two checkouts print the same
lines exactly when every output byte agrees, so a refactor that must keep
outputs byte-identical is checked with

    mkdir -p /tmp/parent && git archive PARENT | tar -x -C /tmp/parent
    python tools/output_digest.py --checkout /tmp/parent > parent.txt
    python tools/output_digest.py > change.txt
    diff parent.txt change.txt

The inputs are written to the same paths under ``--work`` on every run, as
are the outputs that a later command reads back as its input:
``config_sha256`` hashes the ``--input`` path, so inputs at another path
would change every output that records it. A command that exits non-zero
stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from inputs import WINDOW, make_experiment  # noqa: E402

SUBJECTS_PER_GROUP = 10

# name: (seed, rows per subject, trial length in ms), as the bench workloads
# "envelope" (seed 7 and 8) and "report" (seed 7) generate them
INPUTS = {
    "a": (7, 130, 40_000.0),
    "b": (8, 130, 40_000.0),
    "c": (7, 65, 20_000.0),
}

# name: (base input, seed, rows per subject): the base input's rows, then the
# rows of a second experiment at the base's trial length relabelled to
# painting p02, so a command sees two paintings
TWO_PAINTINGS = {
    "d": ("c", 8, 65),
}

# name: base input whose every subject's first fixation is made shorter than
# 40 ms and whose last fixation is moved out of the window, so ingest
# excludes a fixation at both ends of every sequence
EDGE_EXCLUSIONS = {
    "e": "c",
}

# name: base input without the rows of its last two non-novice subjects, so
# its groups have 10 and 8 subjects
UNEQUAL_GROUPS = {
    "f": "c",
}

# name: base input whose first novice subject keeps only its first row, so
# an observed subject has one fixation and no transition curves
SINGLE_FIXATION = {
    "g": "a",
}

# name: (input, flags); a command draws its SVGs unless its config or its flags
# turn them off. An input named "case/file" is the output file of an earlier
# case, at that case's trial length
COMMANDS = {
    "env_h24": ("a", ["envelope", "--group", "novice", "--h", "24", "--n-runs", "200",
                      "--seed", "7"]),
    "env_cv": ("b", ["envelope", "--group", "non_novice", "--n-runs", "60", "--seed", "8"]),
    "env_ball": ("b", ["envelope", "--group", "novice", "--stat", "ball", "--raster", "2",
                       "--radius", "20", "--n-runs", "40", "--seed", "8"]),
    # 90 angles: lockstep blocks of 131 runs, so 150 runs end on a partial block
    "env_a90": ("a", ["envelope", "--group", "non_novice", "--h", "24", "--n-angles", "90",
                      "--n-runs", "150", "--seed", "5"]),
    # a level other than the default, which the judged block states once
    "env_a10": ("a", ["envelope", "--group", "non_novice", "--h", "24", "--alpha", "0.1",
                      "--n-runs", "40", "--seed", "7"]),
    "sim_p05_a90": ("a", ["simulate", "--group", "novice", "--p-long", "0.5",
                          "--n-angles", "90", "--n-runs", "50", "--seed", "7"]),
    "sim_p0": ("a", ["simulate", "--group", "novice", "--p-long", "0", "--h", "24",
                     "--n-runs", "50", "--seed", "7"]),
    "sim_p1": ("a", ["simulate", "--group", "non_novice", "--p-long", "1", "--h", "24",
                     "--n-runs", "50", "--seed", "7"]),
    "sim_p05": ("a", ["simulate", "--group", "novice", "--p-long", "0.5", "--h", "24",
                      "--n-runs", "50", "--seed", "9"]),
    # lower truncation of durations at a threshold other than 40 ms
    "sim_min80": ("a", ["simulate", "--group", "novice", "--min-fixation-ms", "80",
                        "--h", "24", "--n-runs", "20", "--seed", "3"]),
    "report": ("c", ["report", "--m", "2000", "--n-runs", "100", "--seed", "7"]),
    "report_2p": ("d", ["report", "--m", "500", "--n-runs", "20", "--seed", "7"]),
    # one statistic in both groups' envelopes
    "report_hull": ("c", ["report", "--stat", "hull", "--h", "24", "--h1", "24", "--h2", "24",
                          "--m", "200", "--n-runs", "40", "--seed", "7"]),
    # no SVG, so report.json is the first file written
    "report_nosvg": ("c", ["report", "--m", "200", "--n-runs", "40", "--seed", "7", "--no-svg"]),
    "cmp_cv": ("a", ["compare-intensity", "--m", "10000", "--seed", "7"]),
    # equal bandwidths and group sizes make mirror draws ties; the seed is
    # two 32-bit words
    "cmp_h24": ("b", ["compare-intensity", "--h1", "24", "--h2", "24", "--m", "2000",
                      "--seed", "4294967301"]),
    "ingest": ("c", ["ingest"]),
    # two paintings sharing subject ids: one sequence per (subject, painting)
    "ingest_2p": ("d", ["ingest"]),
    # exclusions before the first and after the last retained fixation
    "ingest_edge": ("e", ["ingest"]),
    "fit_len_edge": ("e", ["fit", "--source", "saccade_length"]),
    "qq_edge": ("e", ["qq", "--source", "saccade_duration"]),
    # a model fitted with exclusions at both ends of every sequence
    "sim_edge": ("e", ["simulate", "--group", "novice", "--h", "24", "--n-runs", "20",
                       "--seed", "7"]),
    # runs seeded from the all-fixation surface on a coarser grid
    "sim_all_surface": ("a", ["simulate", "--group", "novice", "--all-surface", "--nx", "64",
                              "--ny", "64", "--h", "24", "--n-runs", "20", "--seed", "7"]),
    "intensity_cv": ("c", ["intensity", "--group", "novice"]),
    # a bandwidth grid from the comma-separated flag
    "intensity_hgrid": ("c", ["intensity", "--group", "novice", "--h-grid", "16,24,32"]),
    # integer-valued window and h_grid lists from a config file
    "intensity_config": ("c", ["intensity", "--group", "non_novice"]),
    # a window inside the painting's: ingest excludes the fixations outside it
    "ingest_window": ("c", ["ingest", "--window", "10,10,760,758"]),
    # a fixed bandwidth: the surface's fields with no bandwidth_cv block
    "intensity_h24": ("c", ["intensity", "--h", "24"]),
    "residuals": ("c", ["residuals", "--h", "24", "--interval-ms", "10000"]),
    # the bandwidth cross-validated, its table in residuals.json
    "residuals_cv": ("c", ["residuals", "--interval-ms", "10000"]),
    "quadrat": ("c", ["quadrat", "--q", "4"]),
    "shift_group": ("c", ["shift", "--split", "group"]),
    "shift_interval": ("a", ["shift", "--split", "interval", "--interval-ms", "10000"]),
    "fit_len": ("c", ["fit", "--source", "saccade_length"]),
    "fit_dur": ("c", ["fit", "--source", "saccade_duration"]),
    "fit_fix": ("c", ["fit", "--source", "fixation_duration"]),
    # one group's sample alone
    "fit_len_novice": ("c", ["fit", "--source", "saccade_length", "--group", "novice"]),
    "qq": ("c", ["qq", "--source", "saccade_duration", "--alpha", "0.1"]),
    "qq_fix": ("c", ["qq", "--source", "fixation_duration"]),
    "qq_len": ("c", ["qq", "--source", "saccade_length"]),
    "summaries": ("c", ["summaries", "--radius", "30", "--raster", "3"]),
    # one painting picked out of two, and every painting's sequences named
    "summaries_2p": ("d", ["summaries", "--radius", "30", "--raster", "3"]),
    "env_p02": ("d", ["envelope", "--painting", "p02", "--group", "novice", "--h", "24",
                      "--n-runs", "40", "--seed", "7"]),
    "cmp_p02": ("d", ["compare-intensity", "--painting", "p02", "--h1", "24", "--h2", "24",
                      "--m", "500", "--seed", "7"]),
    # equal bandwidths and unequal group sizes: no draw is the mirror split
    "cmp_unequal": ("f", ["compare-intensity", "--h1", "24", "--h2", "24", "--m", "500",
                          "--seed", "7"]),
    # the one-fixation subject is observed under the stats, not the transitions
    "env_single": ("g", ["envelope", "--group", "novice", "--h", "24", "--n-runs", "200",
                         "--seed", "7"]),
    "env_config": ("b", ["envelope", "--h", "24", "--n-runs", "40", "--seed", "8"]),
    # fewer grid times than one tile of the envelopes' column sort
    "env_grid21": ("a", ["envelope", "--group", "non_novice", "--h", "24", "--grid-points",
                         "21", "--n-runs", "60", "--seed", "7"]),
    # at TRIAL_LENGTHS' 250 ms, 77 of the 100 runs have one fixation and
    # the transition envelopes take the other 23, near the 20 they accept;
    # the model is fitted to the 3 novice jumps that start before 250 ms
    "env_short": ("a", ["envelope", "--group", "novice", "--h", "24", "--n-runs", "100",
                        "--seed", "7"]),
    # input c splices interior jumps; simulated from its clean file, read back,
    # the runs are sim_c's byte for byte
    "sim_c": ("c", ["simulate", "--group", "novice", "--h", "24", "--n-runs", "20",
                    "--seed", "7"]),
    "sim_c_clean": ("ingest/fixations_clean.csv", ["simulate", "--group", "novice", "--h",
                                                   "24", "--n-runs", "20", "--seed", "7"]),
}

# name: the --trial-length a command runs with, when not its input's
TRIAL_LENGTHS = {
    "env_short": 250.0,
}

# name: the JSON config file a command reads through --config
CONFIGS = {
    "env_config": {"group": "non_novice", "stat": "scanpath", "svg": False},
    "intensity_config": {"window": [0, 0, 770, 768], "h_grid": [16, 24, 32]},
}


def write_inputs(work: Path) -> dict:
    """Each input's CSV path and trial length, written once per run."""
    paths = {}
    for name, (seed, rows, trial) in INPUTS.items():
        path = work / f"input_{name}.csv"
        path.write_text(make_experiment(seed, SUBJECTS_PER_GROUP, rows, trial).csv_text)
        paths[name] = (path, trial)
    for name, (base, seed, rows) in TWO_PAINTINGS.items():
        base_path, trial = paths[base]
        text = make_experiment(seed, SUBJECTS_PER_GROUP, rows, trial).csv_text
        second = [line.replace(",p01,", ",p02,", 1) for line in text.splitlines(True)[1:]]
        path = work / f"input_{name}.csv"
        path.write_text(base_path.read_text() + "".join(second))
        paths[name] = (path, trial)
    for name, base in EDGE_EXCLUSIONS.items():
        base_path, trial = paths[base]
        header, *rows = [line.split(",") for line in base_path.read_text().splitlines()]
        ends = {}  # subject: [its first row, its last row]; a subject's rows are contiguous
        for i, row in enumerate(rows):
            ends.setdefault(row[0], [i, i])[1] = i
        for first, last in ends.values():
            rows[first][4] = "20.0"  # duration_ms
            rows[last][5] = repr(WINDOW[2] + 30.0)  # x_px
        path = work / f"input_{name}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        paths[name] = (path, trial)
    for name, base in UNEQUAL_GROUPS.items():
        base_path, trial = paths[base]
        header, *rows = [line.split(",") for line in base_path.read_text().splitlines()]
        non_novice = list(dict.fromkeys(row[0] for row in rows if row[1] == "non_novice"))
        kept = [row for row in rows if row[0] not in non_novice[-2:]]
        path = work / f"input_{name}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in [header, *kept]))
        paths[name] = (path, trial)
    for name, base in SINGLE_FIXATION.items():
        base_path, trial = paths[base]
        header, *rows = [line.split(",") for line in base_path.read_text().splitlines()]
        first = next(i for i, row in enumerate(rows) if row[1] == "novice")
        kept = [row for i, row in enumerate(rows) if i == first or row[0] != rows[first][0]]
        path = work / f"input_{name}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in [header, *kept]))
        paths[name] = (path, trial)
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/ holds the fixproc under test")
    parser.add_argument("--work", type=Path,
                        default=Path(tempfile.gettempdir()) / "fixproc_output_digest",
                        help="directory for the inputs and outputs")
    args = parser.parse_args(argv)
    work = args.work.resolve()
    out_root = work / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    inputs = write_inputs(work)
    env = dict(os.environ, PYTHONPATH=str(args.checkout.resolve() / "src"))

    trials = {}  # case: the trial length it ran with
    for name, (input_name, flags) in COMMANDS.items():
        if "/" in input_name:
            case, file = input_name.split("/")
            csv, trial = out_root / case / file, trials[case]
        else:
            csv, trial = inputs[input_name]
        trial = trials[name] = TRIAL_LENGTHS.get(name, trial)
        out = out_root / name
        argv = [*flags, "--input", str(csv), "--trial-length", repr(trial), "--out", str(out)]
        if name in CONFIGS:
            config = work / f"config_{name}.json"
            config.write_text(json.dumps(CONFIGS[name]))
            argv += ["--config", str(config)]
        done = subprocess.run([sys.executable, "-m", "fixproc.cli", *argv], env=env,
                              capture_output=True, cwd=work)
        if done.returncode != 0:
            print(f"{name} exited {done.returncode}: {done.stderr.decode()}", file=sys.stderr)
            return 1
        (out / "stdout.txt").write_bytes(done.stdout)
        (out / "stderr.txt").write_bytes(done.stderr)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{sha256(path)}  {name}/{path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
