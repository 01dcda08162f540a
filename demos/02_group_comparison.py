"""Comparing two viewer groups: shift function and intensity-ratio test.

Two synthetic groups look at the same scene; one group's hotspot sits 120 px
to the right and its fixation durations run longer. The shift function
shows where the duration distributions differ, and the permutation test on
the squared log density ratio checks whether the spatial patterns differ
more than subject relabeling can explain.

Run:  python demos/02_group_comparison.py
"""

from pathlib import Path

import numpy as np

import fixproc as fp
from fixproc import Dataset, FixationSequence
from fixproc.svgplot import heatmap_svg, shift_plot_svg

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

w = fp.REFERENCE_WINDOW
rng = np.random.default_rng(2)


def make_subject(sid, group, hotspot, dur_scale):
    n = 350
    hot = rng.random(n) < 0.6
    x = np.where(hot, rng.normal(hotspot[0], 90, n), rng.uniform(0, 770, n)).clip(0, 770)
    y = np.where(hot, rng.normal(hotspot[1], 90, n), rng.uniform(0, 768, n)).clip(0, 768)
    durations = rng.gamma(2.0, dur_scale, n) + 40.0
    gaps = rng.gamma(2.5, 20.0, n)
    onsets = np.concatenate([[0.0], np.cumsum(durations[:-1] + gaps[:-1])])
    return FixationSequence(sid, group, "demo", np.column_stack((x, y)), onsets, durations)


seqs = [make_subject(f"nov{i}", "novice", (330, 380), 130.0) for i in range(10)]
seqs += [make_subject(f"non{i}", "non_novice", (450, 380), 110.0) for i in range(10)]
dataset = Dataset(window=w, sequences=seqs, trial_length=420_000.0)

# --- duration comparison -------------------------------------------------
novice_durs = np.concatenate([s.durations for s in dataset.by_group("novice")])
non_durs = np.concatenate([s.durations for s in dataset.by_group("non_novice")])
curve = fp.shift_function(novice_durs, non_durs, alpha=0.05)
(OUT / "02_shift.svg").write_text(shift_plot_svg(curve, "duration shift: novice -> non-novice"))
print(f"shift at median abscissa: {curve.delta[len(curve.delta) // 2]:.1f} ms")
print(f"zero (equal distributions) inside the 95% band: {curve.zero_inside()}")

# --- spatial comparison --------------------------------------------------
result = fp.permutation_test(dataset, m=999, h1=25.0, h2=25.0, seed=7, nx=64, ny=64)
print(f"T0 = {result.T0:.4g}, p = {result.p:.4f} ({result.m} permutations)")
(OUT / "02_log_ratio.svg").write_text(
    heatmap_svg(result.r_grid, f"log density ratio (p={result.p:.3f})", diverging=True)
)

# Fisher combination across several independent comparisons (e.g. several
# paintings of the same experiment).
other_ps = [0.31, 0.72, 0.055, 0.48, 0.21]
chi2, df, p = fp.fisher_combine([result.p] + other_ps)
print(f"Fisher combination over 6 tests: chi2 = {chi2:.3f}, df = {df}, p = {p:.3f}")
