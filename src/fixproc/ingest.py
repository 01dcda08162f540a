"""Reading fixation-event CSV files and applying the exclusion rules.

Canonical schema (header required):

    subject_id,group,painting_id,onset_ms,duration_ms,x_px,y_px[,valid_jump_in]

with group one of ``novice`` / ``non_novice``. Fixations shorter than 40 ms
are treated as spurious and removed, as are fixations outside the painting
extent. The jump that joins the fixations either side of a removed one was
no real eye movement, so the filtered sequence marks it invalid in its
``valid_jumps`` column, and every saccade fit skips it. The optional 0/1
column ``valid_jump_in`` says whether the jump into a fixation is a real
saccade; every file fixproc writes in this schema has it, so a cleaned file
read back keeps its spliced jumps invalid. Subject and
painting ids become parts of output file names, so an id holding ``/``,
a backslash or NUL, or equal to ``.`` or ``..``, is refused.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_TRIAL_LENGTH_MS,
    GROUPS,
    MIN_FIXATION_MS,
    NAME_SEPARATORS,
    REFERENCE_WINDOW,
    DataError,
    Dataset,
    FixationSequence,
    Saccades,
    Window,
    sequence_name,
)

COLUMNS = ("subject_id", "group", "painting_id", "onset_ms", "duration_ms", "x_px", "y_px")
#: The optional column: 1 when the jump into the row's fixation is a real
#: saccade; a sequence's first fixation has no such jump and writes 1
VALID_JUMP_IN = "valid_jump_in"


def _names_a_file(value: str) -> bool:
    """Whether an id can be part of an output file name: no path
    separator or NUL, and not ``.`` or ``..``."""
    return value not in (".", "..") and not any(c in value for c in "/\\\0")


@dataclass
class SequenceReport:
    subject_id: str
    painting_id: str
    n_total: int = 0
    n_short_excluded: int = 0
    n_outside_excluded: int = 0
    n_late_excluded: int = 0
    n_saccades_missing: int = 0
    excluded_indices: list[int] = field(default_factory=list)


@dataclass
class IngestReport:
    """Exclusion bookkeeping, one entry per (subject, painting) sequence."""

    entries: list[SequenceReport] = field(default_factory=list)

    @property
    def n_total(self) -> int:
        return sum(e.n_total for e in self.entries)

    def to_dict(self) -> dict:
        """The entries, and under ``totals`` each count field of :class:`SequenceReport`
        summed over them."""
        counts = [f.name for f in fields(SequenceReport) if f.type == "int"]
        return {"sequences": self.entries,
                "totals": {name: sum(getattr(e, name) for e in self.entries) for name in counts}}


def write_json(path, payload) -> None:
    """Every output's JSON writer: sorted keys, indent 2, a final newline.

    The bytes are those of ``json.dump(payload, fh, indent=2,
    sort_keys=True)`` followed by ``"\\n"``, NaN and infinities included,
    with a float or integer array written as its ``.tolist()`` and a
    dataclass instance as the dict of its fields (``dataclasses.asdict``,
    without the copy), so a result object is handed over as itself; an n-D
    array is walked row by row, so one row's Python numbers exist at a
    time. Python walks the dicts and lists; a list that holds no container
    goes to json's C encoder in one call, its item separator carrying the
    indent, so no number is formatted by Python code. Chunks are written as
    they are made: the document is never held as one string.
    """
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(payload, "\n", set()))
        fh.write("\n")


# Rows formatted at a time by write_csv: bounds the text and the Python
# numbers that exist at once
_CSV_ROWS = 4096


def write_csv(path, header, blocks) -> None:
    """Every output's CSV writer: a header line, then the rows of ``blocks``.

    Each block is a tuple of equal-length columns (numpy arrays or lists).
    A number is written as the ``repr`` of its Python value, a text field as
    it is, or quoted as ``csv.QUOTE_MINIMAL`` would when it holds ``,``,
    ``"``, CR or LF. Lines end in LF; ``_CSV_ROWS`` rows are formatted at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_text, header)) + "\n")
        for block in blocks:
            for start in range(0, len(block[0]), _CSV_ROWS):
                fields = [_csv_fields(column[start:start + _CSV_ROWS]) for column in block]
                fh.write("\n".join(map(",".join, zip(*fields))))
                fh.write("\n")


def _csv_fields(column) -> list[str]:
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if values and isinstance(values[0], str):
        return list(map(_csv_text, values))
    return list(map(repr, values))


def _csv_text(value: str) -> str:
    if _NEEDS_QUOTES(value):
        return '"' + value.replace('"', '""') + '"'
    return value


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


_SCALAR_ENCODER = json.JSONEncoder()
# what _json_chunks walks itself, with dataclass instances (an array that is
# not a number table raises json's TypeError as a scalar)
_CONTAINERS = (list, tuple, dict, np.ndarray)


@lru_cache(maxsize=None)
def _flat_encoder(item_separator: str) -> json.JSONEncoder:
    return json.JSONEncoder(separators=(item_separator, ": "))


def _json_chunks(obj, newline: str, markers: set):
    """Chunks of ``obj``'s indented JSON; ``newline`` ends with its indent."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "fiu":
        obj = obj.tolist() if obj.ndim < 2 else list(obj)  # rows are views
    if isinstance(obj, dict):
        is_dict, items = True, sorted(obj.items())
    elif is_dataclass(obj) and not isinstance(obj, type):
        is_dict, items = True, sorted((f.name, getattr(obj, f.name)) for f in fields(obj))
    elif isinstance(obj, (list, tuple)):
        is_dict, items = False, obj
    else:
        yield _SCALAR_ENCODER.encode(obj)
        return
    if not items:
        yield "{}" if is_dict else "[]"
        return
    if id(obj) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(obj))
    inner = newline + "  "
    if not is_dict and not any(issubclass(t, _CONTAINERS) or is_dataclass(t)
                               for t in set(map(type, obj))):
        text = _flat_encoder("," + inner).encode(obj)
        yield "[" + inner + text[1:-1] + newline + "]"
    else:
        yield "{" if is_dict else "["
        separator = inner
        for item in items:
            yield separator
            separator = "," + inner
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    if not (key is None or isinstance(key, (int, float))):
                        raise TypeError(
                            f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}"
                        )
                    key = _SCALAR_ENCODER.encode(key)
                yield _SCALAR_ENCODER.encode(key) + ": "
            yield from _json_chunks(item, inner, markers)
        yield newline + ("}" if is_dict else "]")
    markers.discard(id(obj))


def parse_fixations(
    path,
    window: Window = REFERENCE_WINDOW,
    trial_length: float = DEFAULT_TRIAL_LENGTH_MS,
) -> Dataset:
    """Read a fixation CSV into one sequence per (subject, painting).

    Rows may arrive in any time order; each sequence is sorted by onset and
    a warning is emitted when sorting actually changed the order. Duplicate
    onsets within one sequence, malformed rows and non-finite (nan/inf)
    times or coordinates raise with the offending line number. A subject
    keeps one group label on every painting; a second label raises with
    both line numbers, and so does a sequence whose output name (see
    ``core.sequence_name``) is an earlier sequence's. A ``valid_jump_in``
    column, when the header has it, sets each sequence's ``valid_jumps``
    (its flag moves with its row through the sort, and the first row's is
    ignored); a flag other than 0 or 1 raises with its line number. Without
    the column every jump is valid.
    """
    rows: dict[tuple[str, str], list[tuple[float, float, float, float, bool]]] = {}
    labels: dict[str, tuple[str, int]] = {}  # subject: (group, line of its first row)
    names: dict[tuple[str, str], tuple[tuple[str, str], int]] = {}  # (sep, name): (ids, line)
    seen_onsets: dict[tuple[str, str], set[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected header {','.join(COLUMNS)}")
        missing = [c for c in COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        has_flags = VALID_JUMP_IN in reader.fieldnames
        for row in reader:
            line = reader.line_num
            try:
                subject = row["subject_id"].strip()
                group = row["group"].strip()
                painting = row["painting_id"].strip()
                onset = float(row["onset_ms"])
                duration = float(row["duration_ms"])
                x = float(row["x_px"])
                y = float(row["y_px"])
                flag = row[VALID_JUMP_IN].strip() if has_flags else "1"
            except (TypeError, ValueError, AttributeError) as exc:
                raise DataError(f"{path}:{line}: malformed row ({exc})") from exc
            if not all(math.isfinite(v) for v in (onset, duration, x, y)):
                raise DataError(
                    f"{path}:{line}: non-finite value in onset_ms, duration_ms, x_px or y_px"
                )
            if flag not in ("0", "1"):
                raise DataError(f"{path}:{line}: {VALID_JUMP_IN} must be 0 or 1, got {flag!r}")
            if group not in GROUPS:
                raise DataError(f"{path}:{line}: unknown group {group!r}")
            if duration <= 0:
                raise DataError(f"{path}:{line}: non-positive duration {duration}")
            key = (subject, painting)
            if key not in rows:
                # outputs such as summary_<subject>_<painting>_hull.csv carry the ids
                for column, value in (("subject_id", subject), ("painting_id", painting)):
                    if not _names_a_file(value):
                        raise DataError(
                            f"{path}:{line}: {column} {value!r} cannot be part of a file name"
                            " (no '/', '\\' or NUL, and not '.' or '..')"
                        )
                for sep in NAME_SEPARATORS:
                    name = sequence_name(subject, painting, sep)
                    (s0, p0), first = names.setdefault((sep, name), (key, line))
                    if first != line:
                        raise DataError(
                            f"{path}:{line}: subject {subject!r} on painting {painting!r} has"
                            f" the output name {name!r} of subject {s0!r} on painting {p0!r}"
                            f" on line {first}"
                        )
            prior, first_line = labels.setdefault(subject, (group, line))
            if prior != group:
                raise DataError(
                    f"{path}:{line}: subject {subject!r} has two group labels:"
                    f" {prior!r} on line {first_line}, {group!r} on line {line}"
                )
            onsets = seen_onsets.setdefault(key, set())
            if onset in onsets:
                raise DataError(
                    f"{path}:{line}: duplicate onset {onset} for subject {subject!r}"
                )
            onsets.add(onset)
            rows.setdefault(key, []).append((onset, duration, x, y, flag == "1"))

    sequences = []
    for key, bucket in rows.items():
        if bucket != sorted(bucket):  # a key's onsets are distinct: tuples sort by onset
            warnings.warn(f"fixations for {key} were out of time order; sorted by onset")
            bucket.sort()
        onsets, durations, x, y, flags = np.array(bucket).T
        sequences.append(FixationSequence(
            key[0], labels[key[0]][0], key[1], np.column_stack((x, y)), onsets, durations,
            flags[1:],
        ))
    return Dataset(window=window, sequences=sequences, trial_length=trial_length)


def filter_fixations(
    dataset: Dataset,
    min_dur: float = MIN_FIXATION_MS,
    window: Window | None = None,
) -> tuple[Dataset, IngestReport]:
    """Drop short, out-of-window and late fixations, counting each class.

    A late fixation has its onset at or past the dataset's trial length,
    where simulated runs end and observed curves are no longer read. A
    fixation failing several rules is counted once, in the first class of
    short, outside and late that it falls in. The report
    keeps the original indices of removed fixations. A kept jump is valid
    when its two ends were next to each other in the input and the input's
    jump between them was valid: a jump spliced across a removed fixation
    never happened as one saccade. The report counts the kept invalid jumps
    as ``n_saccades_missing``.
    """
    w = window or dataset.window
    report = IngestReport()
    filtered = []
    for seq in dataset.sequences:
        short = seq.durations < min_dur
        outside = ~short & ~w.contains(seq.locations[:, 0], seq.locations[:, 1])
        late = ~short & ~outside & (seq.onsets >= dataset.trial_length)
        dropped = short | outside | late
        kept = np.flatnonzero(~dropped)
        valid = (np.diff(kept) == 1) & seq.valid_jumps[kept[:-1]]
        report.entries.append(SequenceReport(
            seq.subject_id, seq.painting_id, n_total=len(seq),
            n_short_excluded=int(short.sum()), n_outside_excluded=int(outside.sum()),
            n_late_excluded=int(late.sum()),
            n_saccades_missing=int(np.count_nonzero(~valid)),
            excluded_indices=np.flatnonzero(dropped).tolist(),
        ))
        filtered.append(FixationSequence(
            seq.subject_id, seq.group, seq.painting_id,
            seq.locations[kept], seq.onsets[kept], seq.durations[kept], valid,
        ))
    return (
        Dataset(window=w, sequences=filtered, trial_length=dataset.trial_length),
        report,
    )


def derive_saccades(seq: FixationSequence) -> Saccades:
    """The jumps between consecutive fixations of ``seq``, valid where
    ``seq.valid_jumps`` is. Overlapping fixations (negative gap) raise."""
    onsets = seq.onsets
    gaps = onsets[1:] - (onsets[:-1] + seq.durations[:-1])
    if (gaps < 0).any():
        k = int(np.argmax(gaps < 0))
        raise DataError(
            f"overlapping fixations at onsets {float(onsets[k])} and {float(onsets[k + 1])} "
            f"for subject {seq.subject_id!r}"
        )
    return Saccades(np.hypot(*np.diff(seq.locations, axis=0).T), gaps, seq.valid_jumps)


def ingest_pipeline(
    path,
    min_dur: float = MIN_FIXATION_MS,
    window: Window = REFERENCE_WINDOW,
    trial_length: float = DEFAULT_TRIAL_LENGTH_MS,
) -> tuple[Dataset, dict[tuple[str, str], Saccades], IngestReport]:
    """parse -> filter -> derive saccades: the filtered dataset, each
    sequence's :class:`Saccades` keyed by (subject, painting), and the report.

    Deriving the saccades refuses overlapping fixations."""
    raw = parse_fixations(path, window, trial_length)
    dataset, report = filter_fixations(raw, min_dur, window)
    saccades = {(s.subject_id, s.painting_id): derive_saccades(s) for s in dataset.sequences}
    return dataset, saccades, report


def write_fixations(dataset: Dataset, path) -> None:
    """Serialize back to the canonical CSV schema, ``valid_jump_in`` included,
    one block per sequence."""

    def block(seq: FixationSequence) -> tuple:
        n = len(seq)
        ids = ([seq.subject_id] * n, [seq.group] * n, [seq.painting_id] * n)
        valid_in = np.concatenate(([1], seq.valid_jumps.astype(int)))[:n]
        return (*ids, seq.onsets, seq.durations, *seq.locations.T, valid_in)

    write_csv(path, (*COLUMNS, VALID_JUMP_IN), map(block, dataset.sequences))


def write_saccades(sequences, path) -> None:
    """One row per saccade of ``sequences``, one block per sequence; ``valid`` as 0 or 1."""
    header = ("subject_id", "painting_id", "from_index", "to_index", "length_px",
              "duration_ms", "valid")

    def block(seq: FixationSequence) -> tuple:
        sacs = derive_saccades(seq)
        n = len(sacs)
        return ([seq.subject_id] * n, [seq.painting_id] * n, np.arange(n), np.arange(1, n + 1),
                sacs.lengths, sacs.durations, sacs.valid.astype(int))

    write_csv(path, header, map(block, sequences))
