"""Kernel intensity estimation on fixation locations.

Walks through the core estimator: build a synthetic two-hotspot fixation
pattern, estimate the edge-corrected intensity surface, see how the edge
correction behaves near the boundary, pick a bandwidth by cross-validation,
and run the quadrat chi-square test against constant intensity.

Run:  python demos/01_intensity_surfaces.py
Outputs land in demos/output/.
"""

from pathlib import Path

import numpy as np

import fixproc as fp
from fixproc.svgplot import heatmap_svg

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

w = fp.REFERENCE_WINDOW
rng = np.random.default_rng(1)

# A viewing pattern with two foci, like a gaze drawn to two areas of a
# painting, plus diffuse background looking.
n = 1200
choice = rng.random(n)
pts = np.where(
    (choice < 0.45)[:, None],
    rng.normal([260, 300], 55, (n, 2)),
    np.where(
        (choice < 0.8)[:, None],
        rng.normal([520, 430], 70, (n, 2)),
        rng.uniform([0, 0], [770, 768], (n, 2)),
    ),
).clip([0, 0], [770, 768])

# Is the pattern plausibly uniform? (It is not.)
quad = fp.quadrat_chisq(pts, w, q=5)
print(f"quadrat test: X2 = {quad.statistic:.1f}, df = {quad.df}, p = {quad.p:.2e}")

# Bandwidth by least-squares cross-validation over a candidate ladder.
h_grid = np.geomspace(8, 96, 10)
h = fp.select_bandwidth_cv(pts, w, h_grid, nx=96, ny=96).h
print(f"cross-validated bandwidth: {h:.1f} px (candidates {h_grid.round(1)})")

grid = fp.estimate_intensity(pts, w, h, nx=96, ny=96)
print(f"intensity integrates to {grid.integral():.1f} (n = {n})")
(OUT / "01_intensity.svg").write_text(heatmap_svg(grid, f"two-focus pattern, h={h:g}"))

# Edge correction: the factor the estimator divides by near the boundary.
for label, (x, y) in {"corner": (0, 0), "edge midpoint": (0, 384), "center": (385, 384)}.items():
    print(f"edge correction at {label}: {float(fp.edge_correction(x, y, w, 12.0)):.3f}")

print(f"wrote {OUT / '01_intensity.svg'}")
