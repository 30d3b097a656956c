"""Loading VRP observations from CSV, generating synthetic test series, the
CSV and JSON writers every artifact goes through, and the JSON reader every
JSON input goes through.

CSV layouts (header row required, UTF-8, comma-delimited):

    power mode:     timestamp,vrp_watts
    radiance mode:  timestamp,l_mir,l_mir_bk

Rows with blank or non-finite values are dropped (counted, not an error);
rows that do not parse at all raise DataFormatError with the row number.
"""

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, compress, islice
from operator import attrgetter, itemgetter, lt

import numpy as np

from .errors import DataFormatError, DegenerateDataError

log = logging.getLogger(__name__)

# Regression coefficient (m^2 sr um) mapping excess MIR radiance to watts.
MIR_TO_WATTS = 1.89e7

# Rows load_csv reads and parses at a time. The text and columns of a whole
# 50 000-row file held at once peak at 16 MiB of Python objects (tracemalloc)
# and leave the heap fragmented, so peak RSS grew over repeated loads in one
# process; 1024-row chunks peak under 4 MiB, and larger ones are no faster.
_CHUNK_ROWS = 1024

SYNTHETIC_KINDS = ("white_noise", "random_walk", "ar", "persistence_bursts")


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


def _is_blank(fields) -> bool:
    return all(not c.strip() for c in fields)


def _text_columns(rows, n_cols, first_row):
    """(one list of text per column, the error for the first row with the
    wrong field count or None). rows[0] is row number first_row of the file.
    A blank row of any length becomes n_cols empty fields, to be dropped
    like any blank row. The rows from the first error on are left out: the
    rows above it still have to be parsed, since a bad field there is the
    earlier error."""
    count_error = None
    if set(map(len, rows)) != {n_cols}:
        for i, row in enumerate(rows):
            if len(row) == n_cols:
                continue
            if _is_blank(row):
                rows[i] = [""] * n_cols
                continue
            count_error = DataFormatError(
                f"row {first_row + i}: expected {n_cols} fields, got {len(row)}")
            del rows[i:]
            break
    return [list(map(itemgetter(k), rows)) for k in range(n_cols)], count_error


def _parse_column(parse, texts, placeholder):
    """(list of parse(text) for each text, indices of the texts parse rejects,
    which hold `placeholder`). The map runs at C speed; a column with a
    rejected cell is parsed again one cell at a time to find them."""
    try:
        return list(map(parse, texts)), []
    except ValueError:
        pass
    parsed, rejected = [], []
    for i, text in enumerate(texts):
        try:
            parsed.append(parse(text))
        except ValueError:
            parsed.append(placeholder)
            rejected.append(i)
    return parsed, rejected


def _parse_columns(columns, first_row):
    """(timestamps, (n_cols - 1, n) array of values) of the text columns,
    whose first row is row number first_row of the file.

    Each column is parsed at once by datetime.fromisoformat or float. The
    rows with a field that rejects, or with a tz-aware timestamp, are then
    parsed in file order by _parse_timestamp and _parse_value, which define
    what a field means and raise for the first bad row. A missing value
    reads as nan, and a blank row as nan values with timestamp None."""
    stamps, rejected = _parse_column(datetime.fromisoformat, columns[0], None)
    if any(map(attrgetter("tzinfo"), filter(None, stamps))):
        rejected += [i for i, ts in enumerate(stamps) if ts is not None and ts.tzinfo]
    value_columns = []
    for texts in columns[1:]:
        parsed, rejected_values = _parse_column(float, texts, math.nan)
        value_columns.append(parsed)
        rejected += rejected_values
    for i in sorted(set(rejected)):
        fields = [texts[i] for texts in columns]
        if _is_blank(fields):
            for parsed in value_columns:
                parsed[i] = math.nan
            continue
        stamps[i] = _parse_timestamp(fields[0], first_row + i)
        for parsed, text in zip(value_columns, fields[1:]):
            value = _parse_value(text, first_row + i)
            parsed[i] = math.nan if value is None else value
    return stamps, np.array(value_columns, dtype=float)


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
    """Load a VRP series a column at a time, dropping blank rows and rows
    with a missing or non-finite value (counted, not an error).

    In radiance mode the values are MIR_TO_WATTS * (l_mir - l_mir_bk), as
    radiance_to_vrp computes them. Rows are sorted by timestamp; duplicate
    timestamps keep the last occurrence (warned).
    """
    if mode not in ("power", "radiance"):
        raise ValueError(f"mode must be 'power' or 'radiance', got {mode!r}")
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
            columns, count_error = _text_columns(rows, n_cols, first_row)
            chunk_stamps, chunk_values = _parse_columns(columns, first_row)
            if count_error is not None:
                raise count_error
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
    both give the shortest text that reads back exactly."""
    texts = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else map(str, c)
             for c in columns]
    lines = chain([",".join(header)], map(",".join, zip(*texts)), [""])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


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


def save_csv(series: TimeSeries, path) -> None:
    """Write a series in the power-mode CSV layout."""
    write_csv(path, ["timestamp", "vrp_watts"],
              [map(datetime.isoformat, series.timestamps), series.values])


def _ar_spectral_radius(phi) -> float:
    q = len(phi)
    if q == 1:
        return abs(phi[0])
    companion = np.zeros((q, q))
    companion[0, :] = phi
    companion[1:, :-1] = np.eye(q - 1)
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def generate_synthetic(spec: dict, seed: int) -> TimeSeries:
    """Deterministic synthetic series for tests and demos.

    spec keys: kind (one of SYNTHETIC_KINDS), n, and per-kind parameters:
      white_noise / random_walk: sigma (default 1.0), mean (default 0.0)
      ar: phi (list of AR coefficients), sigma
      persistence_bursts: baseline, rho, sigma, burst_prob, burst_scale
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
        if phi.size == 0:
            raise ValueError("ar mode requires non-empty phi")
        if _ar_spectral_radius(phi) >= 1.0:
            raise DegenerateDataError(
                "unstable AR coefficients (spectral radius >= 1)"
            )
        q = phi.size
        burn = 10 * q + 100
        e = rng.normal(0.0, sigma, n + burn)
        x = np.zeros(n + burn)
        for t in range(n + burn):
            acc = e[t]
            for j in range(min(q, t)):
                acc += phi[j] * x[t - 1 - j]
            x[t] = acc
        values = x[burn:]
    else:  # persistence_bursts
        baseline = float(spec.get("baseline", 1e8))
        rho = float(spec.get("rho", 0.97))
        sigma = float(spec.get("sigma", 2e7))
        burst_prob = float(spec.get("burst_prob", 0.02))
        burst_scale = float(spec.get("burst_scale", 5e8))
        e = rng.normal(0.0, sigma, n)
        bursts = (rng.random(n) < burst_prob) * rng.exponential(burst_scale, n)
        x = np.zeros(n)
        prev = 0.0
        for t in range(n):
            prev = rho * prev + e[t] + bursts[t]
            x[t] = prev
        values = np.maximum(baseline + x, 0.0)

    start = datetime(2000, 4, 1)
    timestamps = tuple(
        datetime.fromordinal(start.toordinal() + i) for i in range(n)
    )
    return TimeSeries(timestamps, values)
