"""End-to-end pipeline through the command-line interface.

Generates a synthetic two-group experiment, writes it in the canonical CSV
schema, then drives the CLI exactly as a shell user would: ingest, fit,
compare the groups, and compose the model-based report. Every stochastic
command is seeded; rerunning this script reproduces identical artifacts.

Run:  python demos/06_full_pipeline_cli.py
"""

import json
from pathlib import Path

import numpy as np

import fixproc as fp
from fixproc import Dataset, FixationSequence
from fixproc.cli import main as fixproc_cli
from fixproc.ingest import write_fixations

HERE = Path(__file__).parent
OUT = HERE / "output" / "pipeline"
OUT.mkdir(parents=True, exist_ok=True)

rng = np.random.default_rng(6)
TRIAL = 30_000.0


def subject(sid, group, cx):
    n = 90
    hot = rng.random(n) < 0.65
    x = np.where(hot, rng.normal(cx, 95, n), rng.uniform(0, 770, n)).clip(0, 770)
    y = np.where(hot, rng.normal(370, 95, n), rng.uniform(0, 768, n)).clip(0, 768)
    durs = rng.gamma(2.0, 120.0, n) + 40.0
    gaps = rng.gamma(2.5, 18.0, n)
    onsets = np.concatenate([[0.0], np.cumsum(durs[:-1] + gaps[:-1])])
    keep = onsets + durs <= TRIAL
    locations = np.column_stack((x, y))[keep]
    return FixationSequence(sid, group, "koli", locations, onsets[keep], durs[keep])


seqs = [subject(f"nov{i:02d}", "novice", 340.0) for i in range(6)]
seqs += [subject(f"non{i:02d}", "non_novice", 430.0) for i in range(6)]
csv_path = OUT / "experiment.csv"
write_fixations(Dataset(window=fp.REFERENCE_WINDOW, sequences=seqs, trial_length=TRIAL),
                csv_path)

# One config document drives every command; flags override per step.
config = OUT / "config.json"
config.write_text(json.dumps({
    "input": str(csv_path),
    "trial_length": TRIAL,
    "h": 24.0,
    "nx": 48, "ny": 48,
    "n_angles": 180,
    "raster": 4.0,
    "grid_points": 61,
    "m": 199,
    "n_runs": 50,
    "seed": 12345,
}, indent=2))

steps = [
    ("ingest", []),
    ("quadrat", ["--q", "4"]),
    ("fit", ["--source", "fixation_duration"]),
    ("qq", ["--source", "fixation_duration"]),
    ("shift", []),
    ("compare-intensity", []),
    ("report", []),
]
for name, extra in steps:
    out_dir = OUT / name
    code = fixproc_cli([name, "--config", str(config), "--out", str(out_dir), *extra])
    print(f"fixproc {name:18s} -> exit {code}, outputs in {out_dir.name}/")
    assert code == 0

ratio = json.loads((OUT / "compare-intensity" / "ratio_test.json").read_text())
print(f"\nintensity comparison: T0 = {ratio['T0']:.4g}, p = {ratio['p']:.3f} "
      f"(m = {ratio['m']}, seed {ratio['meta']['seed']})")
report = json.loads((OUT / "report" / "report.json").read_text())
print(f"report groups: {sorted(report['groups'])}; "
      f"config hash {report['meta']['config_sha256'][:12]}...")
