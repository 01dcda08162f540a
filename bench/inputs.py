"""Seeded synthetic fixation experiments for the benchmark.

Plain numpy only: the generator must not share code with the program under
test (``fixproc.simulate`` in particular), so that a change to the simulator
cannot move the inputs of another workload.

Every input of one shape has the same size whatever the seed: each subject
gets exactly ``rows_per_subject`` rows, the timeline of each subject is
rescaled to fill the same share of the trial, and the same number of rows is
planted below the 40 ms threshold and outside the window. Only positions
and the split of time between fixations and saccades change with the seed,
so run time tracks the code, not the draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WINDOW = (0.0, 0.0, 770.0, 768.0)
GROUPS = ("novice", "non_novice")
MIN_FIXATION_MS = 40.0
PAINTING = "p01"
COLUMNS = "subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px"

# Hotspot layout: each group looks at the same regions, the non-novice group
# from centres shifted by _SHIFT_PX. Subjects jitter the centres, so label
# permutations are not trivially separable and k lands strictly inside (0, m).
_N_HOTSPOTS = 5
_HOT_SD_PX = 45.0
_SUBJECT_JITTER_PX = 22.0
_SHIFT_PX = 22.0
_P_BACKGROUND = 0.15
_FILL = 0.985  # share of the trial a subject's timeline spans


@dataclass
class Experiment:
    """One generated CSV plus what an independent reader needs to check it."""

    csv_text: str
    trial_length: float
    rows: int
    excluded_short: int
    excluded_outside: int
    subjects: dict  # group -> subject ids
    # retained (ingest-valid) fixation locations per group, in file order
    points: dict

    def points_per_group(self) -> dict:
        return {g: int(len(p)) for g, p in self.points.items()}


def _subject_rows(rng, n, trial_length, centres, weights):
    """Onsets, durations and locations for one subject, all ingest-valid."""
    durs = 60.0 + rng.gamma(2.5, 78.0, n)
    gaps = 20.0 + rng.gamma(2.0, 14.0, n - 1)
    scale = _FILL * trial_length / (durs.sum() + gaps.sum())
    durs *= scale
    gaps *= scale
    onsets = np.concatenate([[0.0], np.cumsum(durs[:-1] + gaps)])

    jitter = rng.normal(0.0, _SUBJECT_JITTER_PX, centres.shape)
    own = centres + jitter
    which = rng.choice(len(own), size=n, p=weights)
    xy = own[which] + rng.normal(0.0, _HOT_SD_PX, (n, 2))
    background = rng.random(n) < _P_BACKGROUND
    xy[background, 0] = rng.uniform(WINDOW[0], WINDOW[2], background.sum())
    xy[background, 1] = rng.uniform(WINDOW[1], WINDOW[3], background.sum())
    # keep strictly inside so the rim never decides ingest's verdict
    xy[:, 0] = np.clip(xy[:, 0], WINDOW[0] + 1.0, WINDOW[2] - 1.0)
    xy[:, 1] = np.clip(xy[:, 1], WINDOW[1] + 1.0, WINDOW[3] - 1.0)
    return onsets, durs, xy


def make_experiment(
    seed: int, n_per_group: int, rows_per_subject: int, trial_length: float
) -> Experiment:
    """A one-painting, two-group experiment fully determined by ``seed``.

    The first two subjects of each group carry one row shorter than 40 ms
    and one row outside the window, at interior positions, so ingest's
    exclusion and invalid-saccade paths always run.
    """
    rng = np.random.default_rng([seed, n_per_group, rows_per_subject])
    margin = 140.0
    centres = np.column_stack(
        [
            rng.uniform(WINDOW[0] + margin, WINDOW[2] - margin, _N_HOTSPOTS),
            rng.uniform(WINDOW[1] + margin, WINDOW[3] - margin, _N_HOTSPOTS),
        ]
    )
    angle = rng.uniform(0.0, 2.0 * np.pi)
    shift = _SHIFT_PX * np.array([np.cos(angle), np.sin(angle)])
    weights = rng.dirichlet(np.full(_N_HOTSPOTS, 4.0))
    group_centres = {"novice": centres, "non_novice": centres + shift}

    lines = [COLUMNS]
    subjects = {g: [] for g in GROUPS}
    points = {g: [] for g in GROUPS}
    short = outside = 0
    for group in GROUPS:
        for i in range(n_per_group):
            sid = f"{group[:3]}{i:02d}"
            subjects[group].append(sid)
            onsets, durs, xy = _subject_rows(
                rng, rows_per_subject, trial_length, group_centres[group], weights
            )
            keep = np.ones(rows_per_subject, dtype=bool)
            if i < 2:
                j_short, j_out = rows_per_subject // 3, 2 * rows_per_subject // 3
                durs[j_short] = rng.uniform(15.0, MIN_FIXATION_MS - 5.0)
                xy[j_out, 0] = WINDOW[2] + rng.uniform(5.0, 60.0)
                keep[[j_short, j_out]] = False
                short += 1
                outside += 1
            for t, d, (x, y) in zip(onsets.tolist(), durs.tolist(), xy.tolist()):
                lines.append(f"{sid},{group},{PAINTING},{t!r},{d!r},{x!r},{y!r}")
            points[group].append(xy[keep])
    return Experiment(
        csv_text="\n".join(lines) + "\n",
        trial_length=float(trial_length),
        rows=len(lines) - 1,
        excluded_short=short,
        excluded_outside=outside,
        subjects=subjects,
        points={g: np.vstack(p) for g, p in points.items()},
    )
