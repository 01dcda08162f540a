"""Output oracles for the benchmark workloads.

Outputs are checked against what they must mean, not against a byte digest:
a kernel rewrite may move the last bits of a surface and with them the
simulated picks, and that is not a failure. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from inputs import GROUPS, PAINTING, WINDOW, Experiment

STATS = ("hull", "ball", "scanpath")
TRANSITIONS = tuple(f"{a}->{b}" for a in range(1, 5) for b in range(1, 5))
DEFAULT_H_GRID = np.geomspace(8.0, 64.0, 9)
NX = NY = 128
T0_RTOL = 1e-9
_TINY = np.finfo(float).tiny


def _brute_intensity(points: np.ndarray, h: float) -> np.ndarray:
    """Edge-corrected Gaussian kernel sum at every cell centre, point by point."""
    x0, y0, x1, y1 = WINDOW
    cx = x0 + (np.arange(NX) + 0.5) * ((x1 - x0) / NX)
    cy = y0 + (np.arange(NY) + 0.5) * ((y1 - y0) / NY)
    gx, gy = np.meshgrid(cx, cy)
    acc = np.zeros_like(gx)
    for px, py in points:
        acc += np.exp(-((gx - px) ** 2 + (gy - py) ** 2) / (2.0 * h * h))
    acc /= 2.0 * np.pi * h * h
    mass = (ndtr((x1 - gx) / h) - ndtr((x0 - gx) / h)) * (ndtr((y1 - gy) / h) - ndtr((y0 - gy) / h))
    return acc / mass


def _statistic(log_ratio: np.ndarray, cell_area: float) -> float:
    return float((log_ratio**2).sum() * cell_area)


def check_ratio_test(block: dict, exp: Experiment, m: int) -> list[str]:
    """p from the permutation count, h on the grid, T0 from two recomputations."""
    bad = []
    k = block["k"]
    if block["m"] != m or not 0 <= k <= m:
        bad.append(f"m={block['m']} k={k}, expected m={m} and 0<=k<=m")
    if block["p"] != (k + 1) / (m + 1):
        bad.append(f"p={block['p']} != (k+1)/(m+1) for k={k}, m={m}")
    for name in ("h1", "h2"):
        if not np.any(np.isclose(block[name], DEFAULT_H_GRID, rtol=1e-12, atol=0.0)):
            bad.append(f"{name}={block[name]} is not on the bandwidth grid")
    if bad:
        return bad

    x0, y0, x1, y1 = WINDOW
    cell_area = ((x1 - x0) / NX) * ((y1 - y0) / NY)
    T0 = block["T0"]
    written = np.asarray(block["log_ratio"], dtype=float)
    if written.shape != (NY, NX):
        return [f"log_ratio has shape {written.shape}, expected {(NY, NX)}"]
    t_written = _statistic(written, cell_area)
    if not math.isclose(t_written, T0, rel_tol=T0_RTOL):
        bad.append(f"T0={T0!r} but the written log_ratio gives {t_written!r}")

    densities = []
    for group, h in zip(GROUPS, (block["h1"], block["h2"])):
        lam = np.maximum(_brute_intensity(exp.points[group], h), _TINY)
        densities.append(lam / (lam.sum() * cell_area))
    t_brute = _statistic(np.log(densities[0]) - np.log(densities[1]), cell_area)
    if not math.isclose(t_brute, T0, rel_tol=T0_RTOL):
        bad.append(f"T0={T0!r} but a brute-force kernel sum gives {t_brute!r}")
    return bad


def check_group_envelopes(result: dict, group: str, exp: Experiment) -> list[str]:
    """Every statistic and transition present, every subject judged, bands sane."""
    bad = []
    if sorted(result["stats"]) != sorted(STATS):
        bad.append(f"{group}: statistics {sorted(result['stats'])}, expected {sorted(STATS)}")
    if sorted(result["transitions"]) != sorted(TRANSITIONS):
        bad.append(f"{group}: {len(result['transitions'])} transitions, expected 16")
    subjects = {f"{sid}:{PAINTING}" for sid in exp.subjects[group]}
    blocks = [(s, result["stats"].get(s)) for s in STATS]
    blocks += [(t, result["transitions"].get(t)) for t in TRANSITIONS]
    for name, block in blocks:
        if block is None:
            continue
        if set(block["report"]) != subjects:
            bad.append(f"{group} {name}: verdicts for {sorted(block['report'])}")
        elif not all(isinstance(v["inside"], bool) for v in block["report"].values()):
            bad.append(f"{group} {name}: a verdict lacks a boolean 'inside'")
        lower = np.asarray(block["envelope"]["lower"], dtype=float)
        upper = np.asarray(block["envelope"]["upper"], dtype=float)
        both = np.isfinite(lower) & np.isfinite(upper)
        if np.any(lower[both] > upper[both]):
            bad.append(f"{group} {name}: lower > upper somewhere")
        if name in ("hull", "ball"):
            for side, values in (("lower", lower), ("upper", upper)):
                if not np.all((values >= 0.0) & (values <= 1.0)):
                    bad.append(f"{group} {name}: {side} bound leaves [0, 1]")
                elif np.any(np.diff(values) < 0.0):
                    bad.append(f"{group} {name}: {side} bound decreases")
    return bad


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_compare(out: Path, exp: Experiment, m: int) -> list[str]:
    return check_ratio_test(_load(out / "ratio_test.json"), exp, m)


def check_envelope(out: Path, exp: Experiment, group: str) -> list[str]:
    payload = _load(out / "envelope.json")
    if payload.get("group") != group:
        return [f"envelope.json is for group {payload.get('group')!r}, expected {group!r}"]
    return check_group_envelopes(payload, group, exp)


def check_report(out: Path, exp: Experiment, m: int) -> list[str]:
    payload = _load(out / "report.json")
    bad = []
    totals = payload["ingest"]["totals"]
    expected = {"n_total": exp.rows, "n_short_excluded": exp.excluded_short,
                "n_outside_excluded": exp.excluded_outside}
    for key, value in expected.items():
        if totals[key] != value:
            bad.append(f"ingest {key}={totals[key]}, expected {value}")
    comparison = payload["intensity_comparison"]
    if "fisher" in comparison:
        bad.append("a Fisher block for a single painting")
    if sorted(comparison) != [PAINTING]:
        bad.append(f"intensity comparison for {sorted(comparison)}, expected [{PAINTING!r}]")
    else:
        bad += check_ratio_test(comparison[PAINTING], exp, m)
    if sorted(payload["groups"]) != sorted(GROUPS):
        bad.append(f"groups {sorted(payload['groups'])}, expected both")
    for group, result in payload["groups"].items():
        bad += check_group_envelopes(result, group, exp)
    svgs = [f"report_log_ratio_{PAINTING}.svg"]
    svgs += [f"report_{g}_{kind}.svg" for g in GROUPS for kind in ("coverage", "transitions")]
    for name in svgs:
        path = out / name
        if not path.is_file() or "<svg" not in path.read_text()[:400]:
            bad.append(f"{name} missing or not SVG")
    return bad
