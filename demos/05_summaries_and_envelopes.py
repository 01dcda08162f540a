"""Functional summaries and model-based global rank envelopes.

How much of the scene has the gaze covered by time t? How far has it
traveled, and how does it move between quadrants? Each question becomes a
step curve, evaluated on a time grid as one row per curve; 200 model
simulations turn each curve family into a 95% simultaneous envelope, and
observed subjects are judged against it.

Run:  python demos/05_summaries_and_envelopes.py
"""

from pathlib import Path

import numpy as np

import fixproc as fp
from fixproc.svgplot import envelope_panel, panel_grid_svg

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

w = fp.REFERENCE_WINDOW
TRIAL = 60_000.0

model = None
# A hand-specified model keeps this demo self-contained.
from fixproc import FixationModel, GammaFit
from fixproc.density import IntensityGrid

nx = ny = 64
xs = w.x_min + (np.arange(nx) + 0.5) * w.width / nx
ys = w.y_min + (np.arange(ny) + 0.5) * w.height / ny
ex, ey = np.meshgrid(xs, ys)
surface = IntensityGrid(
    w, nx, ny, np.exp(-((ex - 400) ** 2 + (ey - 350) ** 2) / (2 * 130**2)) + 0.05, 20.0
)
model = FixationModel(
    intensity_all=surface,
    intensity_first=surface,
    dur_fix=GammaFit(2.0, 1 / 150.0, 1, "fixation_duration"),
    dur_sac=GammaFit(2.5, 1 / 20.0, 1, "saccade_duration"),
    len_sac=GammaFit(1.8, 1 / 80.0, 1, "saccade_length"),
    trial_length=TRIAL,
    p_long=0.2,
    n_angles=360,
)

# --- one run, three summaries -------------------------------------------
run = fp.simulate_many(model, 1, seed=5)[0]
hull = fp.convex_hull_coverage(run.sequence, w, domain_end=TRIAL)
ball = fp.ball_union_coverage(run.sequence, w, radius=35.0, raster=2.0, domain_end=TRIAL)
path = fp.scanpath_length(run.sequence, domain_end=TRIAL)
print(f"single run: {len(run.sequence)} fixations")
print(f"  hull coverage at end   {hull.values[-1]:.3f}")
print(f"  ball coverage at end   {ball.values[-1]:.3f}")
print(f"  scanpath length at end {path.values[-1]:.0f} px")

trans = fp.transition_curves(run.sequence, w, domain_end=TRIAL)
print("  final quadrant transition counts:")
print(trans.counts)

# --- envelopes from 200 simulations ---------------------------------------
grid = fp.default_grid(TRIAL, 121)


def ball_row(seq):
    """Ball coverage on the grid: the first row of curve_rows for ["ball"]."""
    return fp.curve_rows(seq, w, grid, ["ball"], radius=35.0, raster=2.0)[0]


sims = fp.simulate_many(model, 200, seed=6)
matrix = fp.CurveMatrix(grid, np.array([ball_row(r.sequence) for r in sims]))
env = fp.rank_envelope(matrix, alpha=0.05)
print(f"95% envelope uses order-statistic depth k = {env.k}")

# Judge a few fresh same-model curves and one deliberately different run
# (a model with half the saccade-length scale explores much less).
fresh = [ball_row(r.sequence) for r in fp.simulate_many(model, 3, seed=300)]
slow = FixationModel(
    intensity_all=surface, intensity_first=surface,
    dur_fix=model.dur_fix, dur_sac=model.dur_sac,
    len_sac=GammaFit(1.8, 1 / 20.0, 1, "saccade_length"),
    trial_length=TRIAL, p_long=0.0, n_angles=360,
)
slow_curve = ball_row(fp.simulate_many(slow, 1, seed=200)[0].sequence)
labels = ["same model #1", "same model #2", "same model #3", "short-jump model"]
for label, verdict in zip(labels, fp.envelope_report(fresh + [slow_curve], env, grid)):
    print(f"  {label}: {verdict}")

(OUT / "05_envelope.svg").write_text(
    panel_grid_svg(
        [envelope_panel(grid, env.lower, env.upper, fresh + [slow_curve],
                        "ball union coverage, 95% envelope", 1.0, 1.5)],
        ncols=1, panel_w=480, panel_h=360,
    )
)
print(f"wrote {OUT / '05_envelope.svg'}")
