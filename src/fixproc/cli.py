"""Command-line pipeline with reproducible JSON configs.

Every command reads the canonical fixation CSV, applies the standard
filtering, and writes its outputs into the configured directory. A config
file supplies defaults; command-line flags override it. Stochastic commands
require an explicit seed and stamp (seed, config hash) into their output
metadata, so any Monte Carlo artifact can be regenerated exactly.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .compare import fisher_combine, permutation_test, shift_function
from .core import (DEFAULT_TRIAL_LENGTH_MS, GROUPS, MAX_INTERVALS, MIN_FIXATION_MS, NON_NOVICE,
                   NOVICE, REFERENCE_WINDOW, DataError, NumericError, Window, _positive,
                   check_limits, interval_limit, sequence_name)
from .density import (
    estimate_intensity,
    quadrat_chisq,
    residual_intensities,
    select_bandwidth_cv,
)
from .envelopes import default_grid, judge, min_curves
from .fitdist import FIT_SOURCES, fit_law, fixed_fit_qq, gamma_qq
from .ingest import ingest_pipeline, write_fixations, write_json, write_saccades
from .simulate import (
    build_model,
    provenance_to_json,
    runs_to_dataset,
    simulate_curves,
    simulate_many,
)
from .summaries import (
    STATS,
    RunCurves,
    ball_union_coverage,
    convex_hull_coverage,
    curve_to_csv,
    scanpath_length,
    transition_curves,
)
from .svgplot import envelope_panel, heatmap_svg, panel_grid_svg, shift_plot_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

#: Bandwidth candidates for cross-validation when the config sets no h_grid.
DEFAULT_H_GRID = tuple(np.geomspace(8.0, 64.0, 9))


class ConfigError(ValueError):
    pass


def _setting(default, help: str | None = None, *, choices: tuple | None = None,
             off: str | None = None, rule: tuple | None = None):
    """A config field with its flag's help, allowed values, for a bool its off
    flag, and its ``rule``: ``(text, test)``, refused as "<name> must <text>"
    by :func:`_load_config` when a set value fails ``test``."""
    return field(default=default, metadata=dict(help=help, choices=choices, off=off, rule=rule))


POSITIVE = ("be positive and finite", _positive)


@dataclass
class PipelineConfig:
    """Every setting of a run; each field is one flag (see ``_build_parser``)."""

    input: str | None = _setting(None, "fixation CSV")
    out: str = _setting("fixproc_out", "output directory")
    window: tuple[float, float, float, float] = _setting(
        astuple(REFERENCE_WINDOW), "x_min,y_min,x_max,y_max")
    trial_length: float = _setting(DEFAULT_TRIAL_LENGTH_MS, rule=POSITIVE)
    # the simulator truncates durations at this threshold
    min_fixation_ms: float = _setting(
        MIN_FIXATION_MS, rule=("be non-negative and finite", lambda v: 0 <= v < np.inf))
    group: str | None = _setting(None, choices=GROUPS)
    painting: str | None = None
    h: float | None = _setting(None, rule=POSITIVE)
    h1: float | None = _setting(None, rule=POSITIVE)
    h2: float | None = _setting(None, rule=POSITIVE)
    h_grid: tuple[float, ...] | None = _setting(
        None, "comma-separated bandwidths",
        rule=("list positive, finite bandwidths", lambda g: bool(g) and all(map(_positive, g))))
    interval_ms: float = _setting(30_000.0, rule=POSITIVE)
    q: int = _setting(5, rule=("be at least 2", lambda v: v >= 2))
    m: int = _setting(10_000, "permutation count", rule=POSITIVE)
    seed: int | None = _setting(None, rule=("be non-negative", lambda v: v >= 0))
    n_runs: int = _setting(200, rule=POSITIVE)
    radius: float = _setting(35.0, rule=POSITIVE)
    raster: float = _setting(1.0, rule=POSITIVE)
    p_long: float | None = _setting(None, "long-jump probability; fitted when unset",
                                    rule=("be in [0, 1]", lambda v: 0 <= v <= 1))
    n_angles: int = _setting(720, rule=("be at least 4", lambda v: v >= 4))
    nx: int = _setting(128, rule=POSITIVE)
    ny: int = _setting(128, rule=POSITIVE)
    alpha: float = _setting(0.05, rule=("be in (0, 1)", lambda v: 0 < v < 1))
    grid_points: int = _setting(361, rule=POSITIVE)
    source: str = _setting("fixation_duration", choices=FIT_SOURCES)
    stat: str = _setting("all", choices=STATS + ("all",))
    split: str = _setting("group", choices=("group", "interval"))
    svg: bool = _setting(True, off="--no-svg")
    use_first_surface: bool = _setting(
        True, "seed runs from the all-fixation surface", off="--all-surface")

    def canonical(self) -> dict:
        d = asdict(self)  # JSON writes the tuples as lists
        # where outputs land does not affect what they contain
        d.pop("out")
        return d

    def sha256(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _flag(name: str) -> str:
    """The command-line flag of config field ``name``."""
    return "--" + name.replace("_", "-")


def _fits(kind: str, value) -> bool:
    """Whether a JSON value fits a field annotated ``kind``; a bool is no number."""
    if kind.endswith(" | None"):
        return value is None or _fits(kind.removesuffix(" | None"), value)
    if kind.startswith("tuple["):
        return isinstance(value, (list, tuple)) and all(_fits("float", v) for v in value)
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "float" and isinstance(value, int):
        return abs(value) < 2**1024  # float() of a larger int overflows
    return isinstance(value, {"int": int, "float": (int, float), "bool": bool, "str": str}[kind])


def _load_config(path: str | None, overrides: dict) -> PipelineConfig:
    """The config of a JSON file at ``path``, if given, with the flags' ``overrides`` over it.

    One loop checks each set value, a flag's or a file's, against its own
    field: its kind, its ``choices``, then, once coerced, its ``rule`` (see
    :func:`_setting`).
    After it come the rules that span settings: the window and raster <=
    radius. Every failure is a :class:`ConfigError` that names the setting.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config file must hold one JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    for f in fields(PipelineConfig):
        value = values.get(f.name)
        if f.name in values and not _fits(f.type, value):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if value is None:
            continue  # a default, which meets its field's choices and rule, or left unset
        allowed = f.metadata.get("choices")
        if allowed and value not in allowed:
            raise ConfigError(f"{_flag(f.name)} must be one of {allowed}")
        if f.type.startswith("float"):
            value = values[f.name] = float(value)  # 10000 and 10000.0 hash alike
        elif f.type.startswith("tuple["):
            value = values[f.name] = tuple(map(float, value))  # each entry, as _fits checks
        rule = f.metadata.get("rule")
        if rule and not rule[1](value):
            raise ConfigError(f"{f.name} must {rule[0]}, got {value!r}")
    cfg = PipelineConfig(**values)
    try:
        Window(*cfg.window)
    except (TypeError, DataError) as exc:  # not 4 numbers, or a window Window refuses
        raise ConfigError("window must be 4 finite numbers [x_min, y_min, x_max, y_max] with "
                          f"x_min < x_max and y_min < y_max, got {list(cfg.window)}") from exc
    if cfg.raster > cfg.radius:
        raise ConfigError(f"raster cell {cfg.raster} coarser than radius {cfg.radius}")
    return cfg


def _meta(cfg: PipelineConfig, command: str) -> dict:
    return {
        "command": command,
        "seed": cfg.seed,
        "config_sha256": cfg.sha256(),
        "fixproc_version": __version__,
    }


def _out(cfg: PipelineConfig, name: str) -> Path:
    """The path of output file ``name``, in ``cfg.out``, which is created.

    Every output path comes from here, as its file is written, so ``--out``
    exists exactly when something has been written: a config, data or
    numeric error before a command's first write leaves no directory.
    ``report`` writes each painting's log-ratio SVG before it builds the
    group models, so that no SVG text is drawn while both groups' envelopes
    are held; an error in a group model leaves ``--out`` with those SVGs.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _load_filtered(cfg: PipelineConfig, keep_groups: bool = False):
    """The ingested dataset of ``cfg.painting`` and ``cfg.group``, and the
    ingest report. With ``keep_groups`` the group is checked but the other
    group's sequences stay, for a model whose saccade durations pool both."""
    dataset, _, report = ingest_pipeline(
        cfg.input, cfg.min_fixation_ms, Window(*cfg.window), cfg.trial_length
    )
    if cfg.painting is not None:
        dataset.sequences = [s for s in dataset.sequences if s.painting_id == cfg.painting]
    chosen = dataset.by_group(cfg.group)
    if not chosen:
        raise DataError("no sequences left after group/painting filters")
    if all(len(s) == 0 for s in chosen):
        raise DataError("no fixations left after exclusion filtering")
    if not keep_groups:
        dataset.sequences = chosen
    return dataset, report


def _bandwidths(cfg: PipelineConfig, window: Window):
    """The bandwidth picker ``pick(fixed, points) -> (h, table)`` of a command.

    A ``fixed`` bandwidth is returned as given, with no table. Otherwise
    ``pick`` cross-validates ``points`` in ``window`` over ``cfg.h_grid``
    (default :data:`DEFAULT_H_GRID`) and returns the chosen h with its
    JSON-ready CV table, the ``bandwidth_cv`` block. With ``cfg`` fixed, CV
    depends only on the points, so a picker scores each point set once.
    """
    h_grid = cfg.h_grid if cfg.h_grid is not None else DEFAULT_H_GRID
    chosen: dict[bytes, tuple[float, dict]] = {}

    def pick(fixed: float | None, points: np.ndarray) -> tuple[float, dict | None]:
        if fixed is not None:
            return fixed, None
        key = points.tobytes()
        if key not in chosen:
            cv = select_bandwidth_cv(points, window, h_grid, cfg.nx, cfg.ny)
            chosen[key] = cv.h, cv.to_dict()
        return chosen[key]

    return pick


def cmd_ingest(cfg: PipelineConfig) -> None:
    dataset, report = _load_filtered(cfg)
    write_fixations(dataset, _out(cfg, "fixations_clean.csv"))
    write_saccades(dataset.sequences, _out(cfg, "saccades.csv"))
    write_json(_out(cfg, "ingest_report.json"), report.to_dict())


def cmd_intensity(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg)
    points = dataset.pooled_locations()
    h, cv = _bandwidths(cfg, dataset.window)(cfg.h, points)
    grid = estimate_intensity(points, dataset.window, h, cfg.nx, cfg.ny)
    grid.to_csv(_out(cfg, "intensity.csv"))
    payload = _with_cv(asdict(grid), cv)
    payload["meta"] = _meta(cfg, "intensity")
    payload["n_points"] = int(len(points))
    write_json(_out(cfg, "intensity.json"), payload)
    if cfg.svg:
        label = cfg.group or "all"
        _out(cfg, "intensity.svg").write_text(
            heatmap_svg(grid, f"intensity ({label}, h={h:g})")
        )


def cmd_residuals(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg)
    h, cv = _bandwidths(cfg, dataset.window)(cfg.h, dataset.pooled_locations())
    grids = residual_intensities(dataset, cfg.interval_ms, h=h, nx=cfg.nx, ny=cfg.ny)
    combined = _with_cv({"meta": _meta(cfg, "residuals"), "h": h,
                         "interval_ms": cfg.interval_ms, "intervals": grids}, cv)
    for j, grid in enumerate(grids):
        grid.to_csv(_out(cfg, f"residual_{j:02d}.csv"))
        if cfg.svg:
            start = j * cfg.interval_ms / 1000.0
            _out(cfg, f"residual_{j:02d}.svg").write_text(
                heatmap_svg(grid, f"residual intensity, {start:g}s +", diverging=True)
            )
    write_json(_out(cfg, "residuals.json"), combined)


def cmd_quadrat(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg)
    result = quadrat_chisq(dataset.pooled_locations(), dataset.window, cfg.q)
    payload = asdict(result)
    payload["meta"] = _meta(cfg, "quadrat")
    payload["q"] = cfg.q
    write_json(_out(cfg, "quadrat.json"), payload)


def cmd_shift(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg)
    curves = []
    if cfg.split == "group":
        x = dataset.pooled_durations(NOVICE)
        y = dataset.pooled_durations(NON_NOVICE)
        curves.append((f"{NOVICE}_vs_{NON_NOVICE}", shift_function(x, y, cfg.alpha)))
    else:
        durs = dataset.pooled_durations()
        buckets = [durs[mask] for mask in dataset.interval_masks(cfg.interval_ms)]
        for j in range(1, len(buckets)):
            curves.append(
                (f"interval_{j + 1}_vs_1", shift_function(buckets[0], buckets[j], cfg.alpha))
            )
    payload = {"meta": _meta(cfg, "shift"), "split": cfg.split, "curves": dict(curves)}
    write_json(_out(cfg, "shift.json"), payload)
    if cfg.svg:
        for name, c in curves:
            _out(cfg, f"shift_{name}.svg").write_text(shift_plot_svg(c, name))


def _intensity_test(cfg: PipelineConfig, command: str, dataset, pick) -> tuple:
    """Novice-against-non-novice permutation test and its JSON block.

    ``pick``, from :func:`_bandwidths`, resolves h1 and h2; the block tables
    the CV of each cross-validated one under its name. Before the test, the
    ``command``'s :func:`_limits` are checked again with the dataset's
    subjects and the distinct bandwidths, a ``DataError`` when one is not met.
    """
    h1, cv1 = pick(cfg.h1, dataset.pooled_locations(NOVICE))
    h2, cv2 = pick(cfg.h2, dataset.pooled_locations(NON_NOVICE))
    check_limits(_limits(command, cfg, len(dataset.sequences), len({h1, h2})))
    result = permutation_test(dataset, m=cfg.m, seed=cfg.seed, nx=cfg.nx, ny=cfg.ny, h1=h1, h2=h2)
    cvs = {name: cv for name, cv in (("h1", cv1), ("h2", cv2)) if cv is not None}
    return result, _with_cv(result.to_dict(), cvs)


def cmd_compare_intensity(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg)
    dataset.two_groups()  # refuse a bad design before cross-validating
    result, payload = _intensity_test(cfg, "compare-intensity", dataset,
                                      _bandwidths(cfg, dataset.window))
    payload["meta"] = _meta(cfg, "compare-intensity")
    write_json(_out(cfg, "ratio_test.json"), payload)
    result.r_grid.to_csv(_out(cfg, "log_ratio.csv"))
    if cfg.svg:
        _out(cfg, "log_ratio.svg").write_text(
            heatmap_svg(result.r_grid, f"log density ratio (p={result.p:.4g})", diverging=True)
        )


def _with_cv(payload: dict, cv: dict | None) -> dict:
    """``payload`` with ``cv`` as its ``bandwidth_cv`` block, if there is one."""
    if cv:
        payload["bandwidth_cv"] = cv
    return payload


def cmd_fit(cfg: PipelineConfig) -> None:
    """The ``cfg.source`` law of group ``cfg.group``'s model, of every sequence without a
    group: :func:`~fixproc.fitdist.fit_law`'s gamma, and its ``p_long`` if it has one."""
    dataset, _ = _load_filtered(cfg, keep_groups=True)
    law = fit_law(dataset, cfg.group, cfg.source, cfg.p_long)
    p_long = {} if law.p_long is None else {"p_long": law.p_long}
    write_json(_out(cfg, f"fit_{cfg.source}.json"),
               {**asdict(law.fit), **p_long, "meta": _meta(cfg, "fit"), "group": cfg.group})


def cmd_qq(cfg: PipelineConfig) -> None:
    """The QQ band of :func:`cmd_fit`'s law against the sample it was fitted to:
    :func:`~fixproc.fitdist.gamma_qq`'s bootstrap band for a duration source, with
    its p-value and critical value, and :func:`~fixproc.fitdist.fixed_fit_qq`'s band
    of the model's jump-length gamma, with its ``p_long``, for ``saccade_length``."""
    dataset, _ = _load_filtered(cfg, keep_groups=True)
    law = fit_law(dataset, cfg.group, cfg.source, cfg.p_long)
    if cfg.source == "saccade_length":
        band = fixed_fit_qq(law.sample, law.fit, cfg.alpha)
        extra = {"p_long": law.p_long}
    else:
        band = gamma_qq(law.sample, law.fit, cfg.alpha, seed=cfg.seed)
        extra = {"p_value": band.p_value, "critical_value": band.critical_value}
    band.to_csv(_out(cfg, f"qq_{cfg.source}.csv"))
    write_json(_out(cfg, f"qq_{cfg.source}.json"),
               {"meta": _meta(cfg, "qq"), "fit": law.fit, **extra,
                "line_inside_band": band.line_inside(), "alpha": cfg.alpha})


def _group_model(cfg: PipelineConfig, dataset, group: str, pick) -> tuple:
    """``group``'s fitted model and its JSON block.

    The bandwidth is ``pick(cfg.h, points)`` of the group's pooled fixations,
    ``pick`` from :func:`_bandwidths`; the block is the model's fields with
    the CV table of a cross-validated h as its ``bandwidth_cv``.
    """
    h, cv = pick(cfg.h, dataset.pooled_locations(group))
    model = build_model(
        dataset, group, h=h, nx=cfg.nx, ny=cfg.ny,
        p_long=cfg.p_long, n_angles=cfg.n_angles, min_fix_dur=cfg.min_fixation_ms,
        use_first_surface=cfg.use_first_surface,
    )
    return model, _with_cv(model.to_dict(), cv)


def cmd_simulate(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg, keep_groups=True)
    model, block = _group_model(cfg, dataset, cfg.group, _bandwidths(cfg, dataset.window))
    runs = simulate_many(model, cfg.n_runs, cfg.seed)
    write_fixations(runs_to_dataset(runs, model.window, model.trial_length),
                    _out(cfg, "sim_fixations.csv"))
    meta = _meta(cfg, "simulate")
    meta["model"] = block
    provenance_to_json(runs, _out(cfg, "sim_provenance.json"), meta)


def cmd_summaries(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg)
    w, end = dataset.window, dataset.trial_length
    bundle: dict = {"meta": _meta(cfg, "summaries"), "subjects": {}}
    for seq in dataset.sequences:
        name = sequence_name(seq.subject_id, seq.painting_id, "_")
        curves = {
            "hull": convex_hull_coverage(seq, w, domain_end=end),
            "ball": ball_union_coverage(seq, w, cfg.radius, cfg.raster, domain_end=end),
            "scanpath": scanpath_length(seq, domain_end=end),
        }
        for stat, c in curves.items():
            curve_to_csv(c, _out(cfg, f"summary_{name}_{stat}.csv"))
        if len(seq) >= 2:
            curves["transitions"] = transition_curves(seq, w, domain_end=end).to_dict()
        bundle["subjects"][name] = curves
    write_json(_out(cfg, "summaries.json"), bundle)


def _group_envelopes(cfg: PipelineConfig, dataset, group: str, pick) -> dict:
    """One group's model block (:func:`_group_model`) and the
    :func:`~fixproc.envelopes.judge` of its subjects against runs simulated
    from the model on the config's time grid, ready for ``write_json``."""
    model, block = _group_model(cfg, dataset, group, pick)
    grid = default_grid(cfg.trial_length, cfg.grid_points)
    stats = list(STATS) if cfg.stat == "all" else [cfg.stat]
    sim_rows = simulate_curves(model, cfg.n_runs, cfg.seed, grid, stats, cfg.radius, cfg.raster)
    # the model's surfaces and first-fixation masses are not read again: free
    # them before the observed curves and the ranks are built
    del model
    # a subject appears once per painting; key on both
    observed = {sequence_name(s.subject_id, s.painting_id, ":"): s for s in dataset.by_group(group)}
    obs_rows = RunCurves.from_sequences(
        observed.values(), len(observed), dataset.window, grid, stats, cfg.radius, cfg.raster
    )
    return {"model": block, **judge(obs_rows, list(observed), sim_rows, cfg.alpha)}


def _write_panels_svg(cfg: PipelineConfig, stem: str, group_result: dict, title_prefix: str) -> None:
    """``<stem>_coverage.svg`` and ``<stem>_transitions.svg``: one panel per
    curve, the observed curves drawn with their envelope's bounds on the
    group's grid."""
    grid = group_result["grid"]
    for family, suffix, thin, thick in (
        ("stats", "coverage", 1.0, 1.5), ("transitions", "transitions", 0.8, 1.2)
    ):
        panels = []
        for name, block in group_result[family].items():
            env = block["envelope"]
            panels.append(envelope_panel(grid, env.lower, env.upper, block["observed"].values(),
                                         f"{title_prefix} {name}", thin, thick))
        _out(cfg, f"{stem}_{suffix}.svg").write_text(panel_grid_svg(panels, ncols=min(len(panels), 4)))


def cmd_envelope(cfg: PipelineConfig) -> None:
    dataset, _ = _load_filtered(cfg, keep_groups=True)
    dataset.require_one_painting()
    result = _group_envelopes(cfg, dataset, cfg.group, _bandwidths(cfg, dataset.window))
    payload = {"meta": _meta(cfg, "envelope"), "group": cfg.group, **result}
    write_json(_out(cfg, "envelope.json"), payload)
    for stat, block in result["stats"].items():
        block["envelope"].to_csv(_out(cfg, f"envelope_{stat}.csv"), result["grid"])
    if cfg.svg:
        _write_panels_svg(cfg, "envelope", result, cfg.group)


def cmd_report(cfg: PipelineConfig) -> None:
    """Model-based envelopes for both groups plus the intensity comparison."""
    dataset, ingest_report = _load_filtered(cfg)

    payload: dict = {
        "meta": _meta(cfg, "report"),
        "ingest": ingest_report.to_dict(),
        "groups": {},
        "intensity_comparison": {},
    }

    # one picker: the comparison and the group models score a point set once
    pick = _bandwidths(cfg, dataset.window)
    subsets = dataset.by_painting()
    for sub in subsets.values():
        sub.two_groups()  # refuse a bad design before cross-validating
    tests = {painting: _intensity_test(cfg, "report", sub, pick)
             for painting, sub in subsets.items()}
    p_values = []
    for painting, (res, block) in tests.items():
        payload["intensity_comparison"][painting] = block
        p_values.append(res.p)
        if cfg.svg:
            _out(cfg, f"report_log_ratio_{painting}.svg").write_text(
                heatmap_svg(res.r_grid, f"log ratio {painting} (p={res.p:.4g})", diverging=True)
            )
    if len(p_values) > 1:
        fisher = fisher_combine(p_values)
        payload["intensity_comparison"]["fisher"] = {
            "chi2": fisher.chi2, "df": fisher.df, "p": fisher.p
        }

    for group in GROUPS:
        result = _group_envelopes(cfg, dataset, group, pick)
        payload["groups"][group] = result
        if cfg.svg:
            _write_panels_svg(cfg, f"report_{group}", result, group)
    write_json(_out(cfg, "report.json"), payload)


COMMANDS = {
    "ingest": cmd_ingest,
    "intensity": cmd_intensity,
    "residuals": cmd_residuals,
    "quadrat": cmd_quadrat,
    "shift": cmd_shift,
    "compare-intensity": cmd_compare_intensity,
    "fit": cmd_fit,
    "qq": cmd_qq,
    "simulate": cmd_simulate,
    "summaries": cmd_summaries,
    "envelope": cmd_envelope,
    "report": cmd_report,
}

#: Settings a command needs beyond ``input``; all are checked before it runs.
REQUIRED = {
    "compare-intensity": ("seed",),
    "simulate": ("seed", "group"),
    "envelope": ("seed", "group"),
    "report": ("seed",),
}


#: The most bytes that the arrays the size settings scale may hold at once in
#: one command (see :func:`_held_terms`). Paper scale (20 subjects, a 128 x 128
#: grid, m = 10 000, 200 runs on 361 times) holds about 9 MB, so a hundred
#: times that leaves room for any design the paper's analysis takes, while a
#: size mistyped by a few zeros, which would read the input and then fail in
#: a numpy allocation, is refused at once.
MAX_HELD_BYTES = 2**30

# Surfaces a command holds at once beside the permutation rows: a CV grid
# term and its square, or an estimate's product and clamp, or a model's two
# surfaces and the cumulative masses its first fixations are drawn by.
_SURFACE_COPIES = 4


def _held_terms(cfg: PipelineConfig, command: str, subjects: int = 0,
                bandwidths: int = 0) -> dict[str, int]:
    """The bytes ``command`` holds at once for each size setting it uses, keyed
    by the settings and their values; ``subjects`` and ``bandwidths`` are a
    permutation test's subjects and distinct bandwidths, 0 before ingest.

    - ``nx``, ``ny``: nx x ny cells of 8 bytes, :data:`_SURFACE_COPIES`
      times, plus each permutation test subject's row per distinct
      bandwidth, and for ``residuals`` each interval's surface, its residual
      and their mean's stacked copy;
    - ``m``: the permutation test's (m, subjects) bool labels, their packed
      bits and its m float statistics; the ties and the distinct partitions
      are counted from the packed bits once the labels are freed, and at
      the 4 subjects or more a test has, they hold less;
    - ``raster``: the disc-union coverage's bool raster of
      ceil(width / raster) x ceil(height / raster);
    - ``n_runs``, ``grid_points``: the runs' curve store, a float per
      statistic, run and grid time, and an int32 fixation index per run and
      grid time;
    - ``q``: the q x q table of quadrat counts;
    - ``n_angles``: a simulation step's landing candidates, about ten float
      arrays of n_angles + 1 per run, and the model's three angle tables.
    """
    terms = {}
    if command in ("intensity", "residuals", "compare-intensity", "simulate", "envelope",
                   "report"):
        copies = _SURFACE_COPIES + subjects * bandwidths
        if command == "residuals":
            # a count over its bound is refused by the interval limit, checked first
            copies += 3 * min(interval_limit(cfg.trial_length, cfg.interval_ms)[1], MAX_INTERVALS)
        terms[f"nx {cfg.nx}, ny {cfg.ny}"] = 8 * cfg.nx * cfg.ny * copies
    if command in ("compare-intensity", "report"):
        terms[f"m {cfg.m}"] = cfg.m * (subjects + math.ceil(subjects / 8) + 8)
    if command == "summaries" or (command in ("envelope", "report")
                                  and cfg.stat in ("ball", "all")):
        w = Window(*cfg.window)
        # exact, so that a tiny raster gives a large count, not an infinite float
        terms[f"raster {cfg.raster}"] = math.ceil(Fraction(w.width) / Fraction(cfg.raster)) * (
            math.ceil(Fraction(w.height) / Fraction(cfg.raster)))
    if command in ("envelope", "report"):
        stats = len(STATS) if cfg.stat == "all" else 1
        terms[f"n_runs {cfg.n_runs}, grid_points {cfg.grid_points}"] = (
            cfg.n_runs * cfg.grid_points * (8 * stats + 4))
    if command == "quadrat":
        terms[f"q {cfg.q}"] = 8 * cfg.q**2
    if command in ("simulate", "envelope", "report"):
        terms[f"n_angles {cfg.n_angles}"] = 8 * (10 * (cfg.n_angles + 1) + 3 * cfg.n_angles)
    return terms


def _limits(command: str, cfg: PipelineConfig, subjects: int = 0, bandwidths: int = 0) -> list:
    """The size limits ``command`` holds ``cfg`` to, for :func:`~fixproc.core.check_limits`.

    A command that compares time intervals (``residuals``, ``shift --split
    interval``) has the :func:`~fixproc.core.interval_limit`. Every command
    that holds a size setting's arrays has the held-bytes limit: its
    :func:`_held_terms`, summed, may be at most :data:`MAX_HELD_BYTES`; a
    refusal names the settings of the largest term and its bytes. ``subjects``
    and ``bandwidths`` are those of a permutation test, 0 before ingest.
    """
    limits = []
    if command == "residuals" or (command, cfg.split) == ("shift", "interval"):
        limits.append(interval_limit(cfg.trial_length, cfg.interval_ms))
    terms = _held_terms(cfg, command, subjects, bandwidths)
    if terms:
        total = sum(terms.values())
        top = max(terms, key=terms.get)
        limits.append((f"{command} would hold {total} bytes at once, {terms[top]} for {top}",
                       total, 0, MAX_HELD_BYTES))
    return limits


def _check_command(command: str, cfg: PipelineConfig) -> None:
    """Refuse settings that ``command`` lacks or cannot honour, before any input is read.

    ``input`` and the command's :data:`REQUIRED` settings must be set, and
    ``seed`` for ``qq`` of a duration source, whose band is bootstrapped. A
    command that compares the two groups (``compare-intensity``, ``report``,
    ``shift --split group``) takes no ``group``, which would leave one of
    them empty. A command that draws envelopes (``envelope``, ``report``)
    needs at least :func:`~fixproc.envelopes.min_curves` runs at ``alpha``.
    Every command meets its size :func:`_limits`.
    """
    for name in ("input", *REQUIRED.get(command, ())):
        if getattr(cfg, name) is None:
            raise ConfigError(f"{_flag(name)} is required for this command")
    if (command, cfg.seed) == ("qq", None) and cfg.source != "saccade_length":
        raise ConfigError(f"--seed is required for qq --source {cfg.source}, "
                          "whose band is bootstrapped")
    if cfg.group is not None and (command in ("compare-intensity", "report")
                                  or (command, cfg.split) == ("shift", "group")):
        split = " --split group" if command == "shift" else ""
        raise ConfigError(f"--group cannot be set for {command}{split}, which compares both groups")
    if command in ("envelope", "report") and cfg.n_runs < min_curves(cfg.alpha):
        raise ConfigError(f"n_runs must be at least {min_curves(cfg.alpha)} at alpha "
                          f"{cfg.alpha} to draw an envelope, got {cfg.n_runs}")
    check_limits(_limits(command, cfg), ConfigError)


class _Parser(argparse.ArgumentParser):
    """Its own errors (an unknown flag, a flag without its value, no command) are a
    :class:`ConfigError`, printed as JSON like any other; ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    """One flag per config field; it collects text, which :func:`_read_flag` reads."""
    parser = _Parser(
        prog="fixproc",
        description="Fixation-process analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for f in fields(PipelineConfig):
            meta = f.metadata
            if meta.get("off"):
                p.add_argument(meta["off"], dest=f.name, action="store_const", const=False,
                               help=meta["help"])
                continue
            # a choice field's help lists its choices as argparse would
            choices = meta.get("choices")
            p.add_argument(_flag(f.name), dest=f.name, help=meta.get("help"),
                           metavar="{%s}" % ",".join(choices) if choices else None)
    return parser


def _read_flag(f, text):
    """Field ``f``'s flag ``text`` read by the field's kind: int, float, str, or comma-separated
    floats for a tuple; ``None`` (no flag) and an off flag's ``False`` pass as they are."""
    kind = f.type.removesuffix(" | None")
    if not isinstance(text, str) or kind == "str":
        return text
    try:
        if kind.startswith("tuple["):
            return tuple(float(v) for v in text.split(","))
        return {"int": int, "float": float}[kind](text)
    except ValueError:
        raise ConfigError(f"{f.name} must be {f.type}, got {text!r}") from None


def _error_json(exc: Exception, code: int) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
        sort_keys=True,
    )


# (set, get) thread-count symbols: the scipy-openblas build that numpy
# wheels ship, then OpenBLAS's generic names
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@lru_cache(maxsize=1)
def _openblas_threads():
    """The (set, get) thread-count functions of the OpenBLAS loaded with numpy, or None."""
    import ctypes

    wheel_libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(wheel_libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(path))
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(handle, set_name) and hasattr(handle, get_name):
                return getattr(handle, set_name), getattr(handle, get_name)
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, the calling one.

    OpenBLAS splits a large product over its threads, and the split changes
    the last bits of the sums (``density._grid_factors``' ``ay @ ax.T``), so
    seeded outputs would depend on the core count and
    ``OPENBLAS_NUM_THREADS``. Idle BLAS threads also spin on other cores
    after each threaded product. The previous count is restored on exit;
    without an OpenBLAS this does nothing.
    """
    found = _openblas_threads()
    if found is None:
        yield
        return
    set_threads, get_threads = found
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        flags = {f.name: _read_flag(f, getattr(args, f.name)) for f in fields(PipelineConfig)}
        cfg = _load_config(args.config, flags)
        _check_command(args.command, cfg)
        with _one_blas_thread():
            COMMANDS[args.command](cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(_error_json(exc, EXIT_CONFIG), file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, DataError) as exc:
        print(_error_json(exc, EXIT_DATA), file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(_error_json(exc, EXIT_NUMERIC), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
