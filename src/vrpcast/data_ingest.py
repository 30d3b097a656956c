"""Loading VRP observations from CSV, generating synthetic test series, the
CSV and JSON writers every artifact goes through, and the JSON reader and
value-type check every JSON input goes through.

CSV layouts (header row required, UTF-8, comma-delimited):

    power mode:     timestamp,vrp_watts
    radiance mode:  timestamp,l_mir,l_mir_bk

Rows with blank or non-finite values are dropped (counted, not an error);
rows that do not parse at all raise DataFormatError with the row number.
_parse_row defines what a row means. load_csv parses a clean chunk of rows
a column at a time; a chunk with a row those maps cannot read goes through
_parse_row row by row, in file order.
"""

import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import compress, islice
from operator import attrgetter, lt
from typing import Optional, Union

import numpy as np

from .errors import DataFormatError, DegenerateDataError

log = logging.getLogger(__name__)

# Regression coefficient (m^2 sr um) mapping excess MIR radiance to watts.
MIR_TO_WATTS = 1.89e7

# The input modes load_csv reads, by their CSV layouts in the module docstring.
MODES = ("power", "radiance")

# Rows load_csv reads and parses, and write_csv writes, at a time. The text
# and columns of a whole 50 000-row file held at once peak at 16 MiB of Python
# objects (tracemalloc) and leave the heap fragmented, so peak RSS grew over
# repeated loads in one process; 1024-row chunks peak under 4 MiB, and larger
# ones are no faster. Writing a 50 000-row series.csv peaked at 7.9 MiB of
# Python objects with all its lines joined, and at 1.7 MiB in chunks. A
# blank or bad row, a missing marker or a tz-aware timestamp sends its whole
# chunk through _parse_row, about 3x slower per row than the column maps.
_CHUNK_ROWS = 1024

SYNTHETIC_KINDS = ("white_noise", "random_walk", "ar", "persistence_bursts")

# The keys generate_synthetic reads from a spec, by the type each holds.
SYNTHETIC_SPEC_TYPES = {
    "kind": str, "n": int, "phi": list, "sigma": float, "mean": float,
    "baseline": float, "rho": float, "burst_prob": float, "burst_scale": float,
}


@dataclass(frozen=True)
class TimeSeries:
    """Gap-tolerant series of finite VRP observations in watts."""

    timestamps: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if len(self.timestamps) != vals.size:
            raise ValueError("timestamps and values length mismatch")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("TimeSeries values must be finite")

    def __len__(self):
        return self.values.size


def radiance_to_vrp(l_mir: float, l_mir_bk: float) -> float:
    """Convert a hot-spot / background MIR radiance pair to radiative power."""
    if not (math.isfinite(l_mir) and math.isfinite(l_mir_bk)):
        raise ValueError("radiances must be finite")
    return MIR_TO_WATTS * (l_mir - l_mir_bk)


def _parse_timestamp(text: str, row_no: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataFormatError(f"row {row_no}: bad timestamp {text!r}") from exc
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


_MISSING = {"", "na", "nan", "n/a", "null", "none"}


def _parse_value(text: str, row_no: int):
    """Float value, or None when the field is a recognized missing marker."""
    stripped = text.strip()
    if stripped.lower() in _MISSING:
        return None
    try:
        return float(stripped)
    except ValueError as exc:
        raise DataFormatError(f"row {row_no}: bad value {text!r}") from exc


def _parse_row(fields, n_cols, row_no):
    """(timestamp, list of n_cols - 1 values) of one row of the file: a blank
    row of any length is (None, nan...), and a missing value is nan. Raises
    DataFormatError for another field count, then for the timestamp, then
    for the first value that does not parse."""
    if all(not c.strip() for c in fields):
        return None, [math.nan] * (n_cols - 1)
    if len(fields) != n_cols:
        raise DataFormatError(f"row {row_no}: expected {n_cols} fields, got {len(fields)}")
    stamp = _parse_timestamp(fields[0], row_no)
    values = [_parse_value(text, row_no) for text in fields[1:]]
    return stamp, [math.nan if v is None else v for v in values]


def _parse_rows(rows, n_cols, first_row):
    """(timestamps, (n_cols - 1, n) array of values) of rows, whose first is
    row number first_row of the file; a blank row's timestamp is None.

    When every row has n_cols fields, each column is parsed at once by
    datetime.fromisoformat or float, and those columns are returned if no
    field rejects and no timestamp is tz-aware. Otherwise every row is read
    in file order by _parse_row, which defines what a row means and raises
    for the first bad row."""
    if set(map(len, rows)) == {n_cols}:
        stamp_texts, *value_texts = zip(*rows)
        try:
            stamps = list(map(datetime.fromisoformat, stamp_texts))
            values = [list(map(float, texts)) for texts in value_texts]
        except ValueError:
            pass
        else:
            if not any(map(attrgetter("tzinfo"), stamps)):
                return stamps, np.array(values, dtype=float)
    stamps, values = zip(*(_parse_row(row, n_cols, first_row + i)
                           for i, row in enumerate(rows)))
    return list(stamps), np.array(values, dtype=float).T


def _keep_last_of_each_stamp(stamps, values):
    """Stable sort by timestamp; of equal timestamps only the last (in file
    order) is kept, with a warning for each one dropped."""
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    stamps = [stamps[i] for i in order]
    last = [a != b for a, b in zip(stamps, islice(stamps, 1, None))] + [True]
    for ts, is_last in zip(stamps, last):
        if not is_last:
            log.warning("duplicate timestamp %s: keeping last occurrence", ts)
    return list(compress(stamps, last)), values[order][last]


def load_csv(path, mode: str = "power") -> TimeSeries:
    """Load a VRP series _CHUNK_ROWS rows at a time (_parse_rows: by
    columns when the chunk is clean, else row by row), dropping blank rows
    and rows with a missing or non-finite value (counted, not an error). The
    first bad row in the file raises DataFormatError.

    In radiance mode the values are MIR_TO_WATTS * (l_mir - l_mir_bk), as
    radiance_to_vrp computes them. Rows are sorted by timestamp; duplicate
    timestamps keep the last occurrence (warned).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    n_cols = 2 if mode == "power" else 3
    stamps, value_parts = [], [np.empty((n_cols - 1, 0))]
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file (header row required)")
        first_row = 2
        while rows := list(islice(reader, _CHUNK_ROWS)):
            chunk_stamps, chunk_values = _parse_rows(rows, n_cols, first_row)
            stamps += chunk_stamps
            value_parts.append(chunk_values)
            first_row += len(rows)

    values = np.concatenate(value_parts, axis=1)
    if mode == "power":
        values = values[0]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            values = MIR_TO_WATTS * (values[0] - values[1])
    keep = np.isfinite(values)
    n_parsed = len(stamps)
    if not keep.all():
        stamps, values = list(compress(stamps, keep.tolist())), values[keep]
    if not stamps:
        raise DataFormatError(f"{path}: no usable rows")
    n_kept = len(stamps)
    if not all(map(lt, stamps, islice(stamps, 1, None))):
        stamps, values = _keep_last_of_each_stamp(stamps, values)
    log.info(
        "loaded %d rows from %s (%d dropped as missing/non-finite, %d duplicates)",
        len(stamps), path, n_parsed - n_kept, n_kept - len(stamps),
    )
    return TimeSeries(tuple(stamps), values)


def write_csv(path, header, columns) -> None:
    """The package's CSV writer: a header row, then one line per row of the
    equal-length `columns`, with LF line endings. A numpy array's cells are
    written by repr of its Python values, other cells by str; for a float
    both give the shortest text that reads back exactly. The rows are
    written _CHUNK_ROWS at a time, so their text is never held whole."""
    texts = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else map(str, c)
             for c in columns]
    lines = map(",".join, zip(*texts))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(lines, _CHUNK_ROWS)):
            fh.write("\n".join(block) + "\n")


def write_json(path, payload) -> None:
    """The package's JSON writer: sorted keys, two-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    """The package's JSON reader: the object at the top of the file. Raises
    DataFormatError, naming the path, when the file is not JSON or holds
    something other than an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:   # also a file that is not UTF-8
            raise DataFormatError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object, "
                              f"got {type(payload).__name__}")
    return payload


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A float, or an int that fits one."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


# The values check_json and PipelineConfig accept for a key, by the type the key
# holds. true and false are not numbers; a string may also be an os.PathLike.
JSON_TYPES = {
    int: ("an int", _is_int),
    Optional[int]: ("an int or null", lambda v: v is None or _is_int(v)),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    Optional[str]: ("a string or null", lambda v: v is None or isinstance(v, (str, os.PathLike))),
    Union[int, tuple]: ("an int or two ints", lambda v: _is_int(v) or (
        isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v)))),
    list: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


def check_json(source, payload: dict, types: dict, required, *, closed: bool) -> None:
    """Check the object `payload` read from `source` against `types`, a
    mapping of key to JSON_TYPES type. Raises DataFormatError, naming source
    and the key, when a key in `required` is missing, a key of `types` holds
    a value of another type, or, when `closed`, a key is not in `types`."""
    for key in required:
        if key not in payload:
            raise DataFormatError(f"{source} key {key!r} is missing")
    for key, value in payload.items():
        if key in types:
            what, accepts = JSON_TYPES[types[key]]
            if not accepts(value):
                raise DataFormatError(f"{source} key {key!r} must be {what}, got {value!r}")
        elif closed:
            raise DataFormatError(f"{source} key {key!r} is unknown")


def save_csv(series: TimeSeries, path) -> None:
    """Write a series in the power-mode CSV layout."""
    write_csv(path, ["timestamp", "vrp_watts"],
              [map(datetime.isoformat, series.timestamps), series.values])


def generate_synthetic(spec: dict, seed: int) -> TimeSeries:
    """Deterministic synthetic series for tests and demos.

    spec keys: kind (one of SYNTHETIC_KINDS), n, and per-kind parameters:
      white_noise / random_walk: sigma (default 1.0), mean (default 0.0)
      ar: phi (list of AR coefficients), sigma
      persistence_bursts: baseline, rho, sigma, burst_prob, burst_scale
    SYNTHETIC_SPEC_TYPES gives the type of each.
    """
    kind = spec.get("kind")
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    n = int(spec.get("n", 0))
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = float(spec.get("sigma", 1.0))

    if kind == "white_noise":
        values = spec.get("mean", 0.0) + rng.normal(0.0, sigma, n)
    elif kind == "random_walk":
        values = np.cumsum(spec.get("mean", 0.0) + rng.normal(0.0, sigma, n))
    elif kind == "ar":
        phi = np.asarray(spec.get("phi", ()), dtype=float)
        if phi.size == 0 or not np.all(np.isfinite(phi)):
            raise ValueError(f"ar mode requires non-empty, finite phi, not {phi.tolist()}")
        # np.roots takes the eigenvalues of the AR recursion's companion matrix
        if np.max(np.abs(np.roots(np.r_[1.0, -phi]))) >= 1.0:
            raise DegenerateDataError(
                "unstable AR coefficients (spectral radius >= 1)"
            )
        q = phi.size
        burn = 10 * q + 100
        # the recursions run on Python floats, bit for bit as on numpy scalars
        coefs, x = phi.tolist(), []
        for t, acc in enumerate(rng.normal(0.0, sigma, n + burn).tolist()):
            for j in range(min(q, t)):
                acc += coefs[j] * x[t - 1 - j]
            x.append(acc)
        values = np.array(x[burn:])
    else:  # persistence_bursts
        baseline = float(spec.get("baseline", 1e8))
        rho = float(spec.get("rho", 0.97))
        sigma = float(spec.get("sigma", 2e7))
        burst_prob = float(spec.get("burst_prob", 0.02))
        burst_scale = float(spec.get("burst_scale", 5e8))
        e = rng.normal(0.0, sigma, n).tolist()
        bursts = ((rng.random(n) < burst_prob) * rng.exponential(burst_scale, n)).tolist()
        x, prev = [], 0.0
        for e_t, burst in zip(e, bursts):
            prev = rho * prev + e_t + burst
            x.append(prev)
        values = np.maximum(baseline + np.array(x), 0.0)

    start = datetime(2000, 4, 1)
    timestamps = tuple(
        datetime.fromordinal(start.toordinal() + i) for i in range(n)
    )
    return TimeSeries(timestamps, values)
