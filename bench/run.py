"""fixproc benchmark: timed CLI workloads on seeded synthetic experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program under test is the
``fixproc`` package in the checkout's ``src/``, imported from source.

Load: a closed loop with one client. ``run.py`` generates the workload's
input from ``--seed``, then starts one fresh interpreter (``child.py``) per
CLI invocation, back to back, until ``--seconds`` have passed (at least one
invocation). Every output is checked by the oracles in ``checks.py``; an
invocation fails when it exits non-zero or its output fails a check.

``--trace 0`` prints the end-to-end metrics: medians over the invocations of
wall, CPU and peak RSS, plus the median set-up time over several fresh
imports. ``--trace 1`` repeats the untraced loop, then makes one more
invocation with the spans of ``spans.py`` installed and prints the
per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata. Scratch files live in ``.bench_work/`` in the
checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
from inputs import Experiment, make_experiment

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

# A run must end within 180 s; stop starting invocations well before that.
# The ungated paper-scale run gets an hour.
BUDGET_S = 160.0
PAPER_BUDGET_S = 3600.0
# Fresh interpreters timed for set-up, after one untimed warm-up import.
SETUP_SAMPLES = 3
CELLS = 128 * 128  # the CLI's default grid, used by every workload
SUBJECTS_PER_GROUP = 10


@dataclass(frozen=True)
class Workload:
    command: str
    rows_per_subject: int
    trial_length: float
    m: int = 0
    n_runs: int = 0
    group: str | None = None
    fixed_h: float | None = None
    svg: bool = False

    def argv(self, csv: Path, out: Path, seed: int) -> list[str]:
        argv = [self.command, "--input", str(csv), "--out", str(out),
                "--seed", str(seed), "--trial-length", repr(self.trial_length)]
        if self.m:
            argv += ["--m", str(self.m)]
        if self.n_runs:
            argv += ["--n-runs", str(self.n_runs)]
        if self.group:
            argv += ["--group", self.group]
        if self.fixed_h is not None:
            argv += ["--h", repr(self.fixed_h)]
        if not self.svg:
            argv.append("--no-svg")
        return argv

    def check(self, out: Path, exp: Experiment) -> list[str]:
        if self.command == "compare-intensity":
            return checks.check_compare(out, exp, self.m)
        if self.command == "envelope":
            return checks.check_envelope(out, exp, self.group)
        return checks.check_report(out, exp, self.m)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    # CV bandwidths plus the permutation loop; never simulates
    "compare": Workload("compare-intensity", 130, 40_000.0, m=10_000),
    # simulator and summary loops at a fixed h; no CV, no permutations
    "envelope": Workload("envelope", 130, 40_000.0, n_runs=200, group="novice", fixed_h=24.0),
    # the ROADMAP's unit of work, shrunk: both groups, writers, repeated CV
    "report": Workload("report", 65, 20_000.0, m=2_000, n_runs=100, svg=True),
    # paper scale; too slow to gate, run once with --trace 1 for the layer mix
    "paper": Workload("report", 500, 180_000.0, m=10_000, n_runs=200, svg=True),
}

PER_LAYER_UNITS = {
    "density.select_bandwidth_cv_s": "s",
    "density.select_bandwidth_cv_calls": "count",
    "density.cv_points": "count",
    "density.cv_unique_ratio": "ratio",
    "density.estimate_intensity_s": "s",
    "density.estimate_intensity_calls": "count",
    "density.interp_s": "s",
    "density.interp_calls": "count",
    "compare.permutation_test_s": "s",
    "compare.perms": "count",
    "compare.perm_ms": "ms",
    "rng.substream_s": "s",
    "rng.substream_calls": "count",
    "simulate.build_model_s": "s",
    "simulate.simulate_many_s": "s",
    "simulate.next_location_s": "s",
    "simulate.next_location_calls": "count",
    "simulate.runs": "count",
    "simulate.fixations": "count",
    "simulate.us_per_fixation": "us",
    "fitdist.sample_truncated_gamma_s": "s",
    "fitdist.sample_truncated_gamma_calls": "count",
    "fitdist.fit_gamma_mle_s": "s",
    "summaries.ball_union_coverage_s": "s",
    "summaries.convex_hull_coverage_s": "s",
    "summaries.transition_curves_s": "s",
    "summaries.scanpath_length_s": "s",
    "summaries.resample_curve_s": "s",
    "summaries.curves": "count",
    "envelopes.from_curves_s": "s",
    "envelopes.rank_envelope_s": "s",
    "envelopes.rank_envelope_calls": "count",
    "envelopes.envelope_report_s": "s",
    "svgplot.svg_s": "s",
    "ingest.ingest_pipeline_s": "s",
    "ingest.rows": "count",
    "cli.main_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class InvocationError(RuntimeError):
    pass


def child_env() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def invoke(work: Path, mode: str, argv: list[str], deadline: float) -> dict:
    """One child interpreter; returns its measurements plus set-up seconds."""
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(result_path), mode, "--", *argv]
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=work, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise InvocationError(f"{mode} child timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise InvocationError(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
    with open(result_path) as fh:
        result = json.load(fh)
    if not Path(result["fixproc_file"]).is_relative_to(SRC):
        raise InvocationError(f"imported fixproc from {result['fixproc_file']}, not {SRC}")
    result["setup_s"] = result["imported_at"] - spawned_at
    return result


def checked_call(wl: Workload, exp: Experiment, work: Path, csv: Path, seed: int,
                 mode: str, deadline: float) -> tuple[dict | None, list[str]]:
    """Invoke the CLI once and check its outputs; returns (timings, problems)."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = invoke(work, mode, wl.argv(csv, out, seed), deadline)
    except InvocationError as exc:
        return None, [str(exc)]
    if result["exit_code"] != 0:
        return result, [f"fixproc exited {result['exit_code']}"]
    try:
        return result, wl.check(out, exp)
    except Exception:  # a malformed output is a failed invocation, not a crash
        return result, ["output check raised: " + traceback.format_exc(limit=2)]


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    self_s, incl_s, calls = spans.self_times(trace)
    counts = trace["counts"]
    cv_inputs = trace["cv_inputs"]
    perms = int(counts.get("compare.perms", 0))
    fixations = int(counts.get("simulate.fixations", 0))
    values = {
        "density.cv_points": int(counts.get("density.cv_points", 0)),
        # distinct inputs per call; 1.0 when nothing is cross-validated
        "density.cv_unique_ratio": len(set(cv_inputs)) / len(cv_inputs) if cv_inputs else 1.0,
        "compare.perms": perms,
        "compare.perm_ms": 1e3 * self_s["compare.permutation_test"] / perms if perms else 0.0,
        "simulate.runs": int(counts.get("simulate.runs", 0)),
        "simulate.fixations": fixations,
        "simulate.us_per_fixation":
            1e6 * incl_s["simulate.simulate_many"] / fixations if fixations else 0.0,
        "summaries.curves": sum(
            calls[f"summaries.{n}"] for n in
            ("ball_union_coverage", "convex_hull_coverage", "scanpath_length", "transition_curves")
        ),
        "svgplot.svg_s": self_s["svgplot.heatmap_svg"] + self_s["svgplot.panel_grid_svg"],
        "ingest.rows": int(counts.get("ingest.rows", 0)),
        "cli.main_self_s": self_s["cli.main"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in PER_LAYER_UNITS:
        if name in values:
            continue
        span, _, kind = name.rpartition("_")
        values[name] = self_s[span] if kind == "s" else int(calls[span])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def run_metadata(wl: Workload, exp: Experiment, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"], "git_sha": sha,
        "input": {
            "rows": exp.rows, "points_per_group": exp.points_per_group(), "cells": CELLS,
            "m": wl.m, "runs": wl.n_runs, "trial_length_ms": wl.trial_length,
            "subjects_per_group": SUBJECTS_PER_GROUP,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fixproc" / "cli.py").is_file():
        print(f"no fixproc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    started = time.perf_counter()
    deadline = started + (PAPER_BUDGET_S if args.workload == "paper" else BUDGET_S)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_work"))
    try:
        exp = make_experiment(args.seed, SUBJECTS_PER_GROUP, wl.rows_per_subject, wl.trial_length)
        csv = work / "input.csv"
        csv.write_text(exp.csv_text)

        setup = []
        if not args.trace:
            invoke(work, "setup", [], deadline)  # fills page cache and __pycache__
            setup = [invoke(work, "setup", [], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

        timed, problems, attempted = [], [], 0
        loop_start = time.perf_counter()
        while True:
            result, bad = checked_call(wl, exp, work, csv, args.seed, "run", deadline)
            attempted += 1
            problems += [bad] if bad else []
            if result is None:
                break
            timed.append(result)
            elapsed = time.perf_counter() - loop_start
            per_call = elapsed / len(timed)
            if elapsed >= args.seconds or time.perf_counter() + 1.5 * per_call > deadline:
                break
        if not timed:
            print(f"no invocation completed: {problems}", file=sys.stderr)
            return 1

        wall = statistics.median(r["wall_s"] for r in timed)
        if args.trace:
            traced, bad = checked_call(wl, exp, work, csv, args.seed, "trace", deadline)
            attempted += 1
            problems += [bad] if bad else []
            if traced is None:
                print(f"traced invocation failed: {bad}", file=sys.stderr)
                return 1
            metrics = layer_metrics(traced["trace"], traced["wall_s"], wall)
        else:
            setup += [r["setup_s"] for r in timed]
            values = {
                "wall_s": wall,
                "setup_s": statistics.median(setup),
                "cpu_s": statistics.median(r["cpu_s"] for r in timed),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

        meta = run_metadata(wl, exp, args)
        meta["samples"] = {
            "wall_s": [r["wall_s"] for r in timed],
            "cpu_s": [r["cpu_s"] for r in timed],
            "setup_s": setup,
        }
        meta["problems"] = problems
        meta["run_s"] = time.perf_counter() - started
        print(json.dumps({"meta": meta}))
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": len(problems),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
