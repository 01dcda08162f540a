"""The generative fixation-process model, step by step.

A run starts from the first-fixation intensity surface; each jump samples a
length from a truncated-gamma / uniform-long-jump mixture and lands on the
circle of that radius, weighted by the intensity surface. This demo builds
a model from synthetic data, simulates trials, and verifies the model's
structural guarantees on the output.

Run:  python demos/04_fixation_simulator.py
"""

from pathlib import Path

import numpy as np

import fixproc as fp
from fixproc.ingest import write_fixations
from fixproc.simulate import runs_to_dataset

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

w = fp.REFERENCE_WINDOW
rng = np.random.default_rng(4)

# Synthetic observed data: 10 subjects with a shared hotspot.
from fixproc import Dataset, FixationSequence

seqs = []
for i in range(10):
    n = 420
    hot = rng.random(n) < 0.7
    x = np.where(hot, rng.normal(380, 100, n), rng.uniform(0, 770, n)).clip(0, 770)
    y = np.where(hot, rng.normal(360, 100, n), rng.uniform(0, 768, n)).clip(0, 768)
    durs = rng.gamma(2.0, 130.0, n) + 40.0
    gaps = rng.gamma(2.5, 20.0, n)
    onsets = np.concatenate([[0.0], np.cumsum(durs[:-1] + gaps[:-1])])
    seqs.append(FixationSequence(f"s{i}", "novice", "demo", np.column_stack((x, y)), onsets, durs))
observed = Dataset(window=w, sequences=seqs, trial_length=180_000.0)

model = fp.build_model(observed, "novice", h=22.0, nx=96, ny=96, p_long=0.2)
print("fitted model:")
print(f"  fixation durations  gamma({model.dur_fix.shape:.2f}, rate {model.dur_fix.rate:.5f})")
print(f"  saccade durations   gamma({model.dur_sac.shape:.2f}, rate {model.dur_sac.rate:.5f})")
print(f"  saccade lengths     gamma({model.len_sac.shape:.2f}, rate {model.len_sac.rate:.5f})")
print(f"  long-jump mixture   p = {model.p_long}")

runs = fp.simulate_many(model, n_runs=50, seed=11)
counts = [len(r.sequence) for r in runs]
print(f"fixations per 3-minute run: {min(counts)}..{max(counts)} (mean {np.mean(counts):.0f})")

# Structural guarantees: jumps stay in the window and never exceed the
# distance to the furthest corner.
run = runs[0]
locs = run.sequence.locations
assert np.all(w.contains(locs[:, 0], locs[:, 1]))
dists = np.hypot(*np.diff(locs, axis=0).T)
assert np.allclose(dists, run.jump_lengths, atol=1e-9)
frac_long = np.mean(np.concatenate([r.long_jump for r in runs]))
print(f"long-jump branch frequency: {frac_long:.3f} (target {model.p_long})")

# Simulated runs serialize in the same CSV schema the pipeline ingests.
write_fixations(runs_to_dataset(runs[:5], w, model.trial_length), OUT / "04_simulated.csv")
print(f"wrote {OUT / '04_simulated.csv'}")
