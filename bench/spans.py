"""Outside-in timing spans around fixproc's public functions.

The program has no tracing of its own yet, so the benchmark wraps the public
name of each layer from outside and patches the wrapper in wherever callers
look the name up: every loaded ``fixproc`` module that holds the original
object gets the wrapper, which covers ``from .x import name`` in ``cli``,
``simulate``, ``compare`` and ``envelopes``, and ``permutation_test``'s
call-time import of ``select_bandwidth_cv``. Methods are patched on their
class. Private helpers are never wrapped.

Each call records (name, start, end, parent). Self time is a span's duration
minus the durations of its direct children; the program is single-threaded,
so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> public names; "Class.method" is patched on the class
LAYERS = {
    "cli": ["main"],
    "ingest": ["ingest_pipeline"],
    "density": ["select_bandwidth_cv", "estimate_intensity", "IntensityGrid.interp"],
    "compare": ["permutation_test"],
    "rng": ["substream"],
    "fitdist": ["fit_gamma_mle", "sample_truncated_gamma"],
    "simulate": ["build_model", "simulate_many", "next_location"],
    "summaries": [
        "ball_union_coverage",
        "convex_hull_coverage",
        "transition_curves",
        "scanpath_length",
        "resample_curve",
    ],
    "envelopes": ["CurveMatrix.from_curves", "rank_envelope", "envelope_report"],
    "svgplot": ["heatmap_svg", "panel_grid_svg"],
}


class Tracer:
    """In-memory span log plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.cv_inputs: list[str] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(tracer, bound, result)``
        takes counts once the span has closed."""
        self.names.append(name)
        nid = len(self.names) - 1
        sig = inspect.signature(fn) if after is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, sig.bind(*args, **kwargs), result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": self.counts,
            "cv_inputs": self.cv_inputs,
        }


def _count_cv(tracer: Tracer, bound, result) -> None:
    bound.apply_defaults()
    args = bound.arguments
    points = np.ascontiguousarray(np.asarray(args["points"], dtype=float))
    h_grid = np.asarray([float(h) for h in args["h_grid"]])
    key = hashlib.sha256()
    for part in (points, h_grid, np.array([args["nx"], args["ny"]])):
        key.update(repr(part.shape).encode())
        key.update(part.tobytes())
    tracer.cv_inputs.append(key.hexdigest())
    tracer.add("density.cv_points", len(points))


def _count_perms(tracer: Tracer, bound, result) -> None:
    tracer.add("compare.perms", result.m)


def _count_runs(tracer: Tracer, bound, result) -> None:
    tracer.add("simulate.runs", len(result))
    tracer.add("simulate.fixations", sum(len(r.sequence) for r in result))


def _count_rows(tracer: Tracer, bound, result) -> None:
    tracer.add("ingest.rows", result[2].n_total)


_AFTER = {
    "select_bandwidth_cv": _count_cv,
    "permutation_test": _count_perms,
    "simulate_many": _count_runs,
    "ingest_pipeline": _count_rows,
}


def install(tracer: Tracer) -> None:
    """Patch every name in LAYERS; the fixproc modules must be imported."""
    modules = [m for n, m in list(sys.modules.items()) if n == "fixproc" or n.startswith("fixproc.")]
    for layer, names in LAYERS.items():
        home = sys.modules[f"fixproc.{layer}"]
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            span = f"{layer}.{attr}"
            if owner_name:
                owner = getattr(home, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(tracer.wrap(span, raw.__func__)))
                else:
                    setattr(owner, attr, tracer.wrap(span, raw))
                continue
            original = getattr(home, attr)
            wrapped = tracer.wrap(span, original, _AFTER.get(attr))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)


def self_times(trace: dict) -> tuple[dict, dict, dict]:
    """Per-name self seconds, inclusive seconds and call counts."""
    names = trace["names"]
    nid = np.asarray(trace["name_id"], dtype=np.int64)
    dur = np.asarray(trace["end"]) - np.asarray(trace["start"])
    parent = np.asarray(trace["parent"], dtype=np.int64)
    own = dur.copy()
    has_parent = parent >= 0
    np.subtract.at(own, parent[has_parent], dur[has_parent])
    self_s = np.bincount(nid, weights=own, minlength=len(names))
    incl_s = np.bincount(nid, weights=dur, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))
    return (
        dict(zip(names, self_s.tolist())),
        dict(zip(names, incl_s.tolist())),
        dict(zip(names, calls.tolist())),
    )
