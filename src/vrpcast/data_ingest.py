"""Loading VRP observations from CSV, generating synthetic test series, and
the CSV and JSON writers every artifact goes through.

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

import numpy as np

from .errors import DataFormatError, DegenerateDataError

log = logging.getLogger(__name__)

# Regression coefficient (m^2 sr um) mapping excess MIR radiance to watts.
MIR_TO_WATTS = 1.89e7

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


def load_csv(path, mode: str = "power") -> TimeSeries:
    """Load a VRP series, dropping missing/non-finite rows.

    In radiance mode each kept row is converted through radiance_to_vrp.
    Rows are sorted by timestamp; duplicate timestamps keep the last
    occurrence (warned).
    """
    if mode not in ("power", "radiance"):
        raise ValueError(f"mode must be 'power' or 'radiance', got {mode!r}")
    n_cols = 2 if mode == "power" else 3
    records = []
    dropped = 0
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file (header row required)")
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                dropped += 1
                continue
            if len(row) != n_cols:
                raise DataFormatError(
                    f"row {row_no}: expected {n_cols} fields, got {len(row)}"
                )
            ts = _parse_timestamp(row[0], row_no)
            vals = [_parse_value(c, row_no) for c in row[1:]]
            if any(v is None or not math.isfinite(v) for v in vals):
                dropped += 1
                continue
            value = vals[0] if mode == "power" else radiance_to_vrp(vals[0], vals[1])
            if not math.isfinite(value):
                dropped += 1
                continue
            records.append((ts, value))
    if not records:
        raise DataFormatError(f"{path}: no usable rows")
    records.sort(key=lambda r: r[0])
    deduped = []
    for ts, value in records:
        if deduped and deduped[-1][0] == ts:
            log.warning("duplicate timestamp %s: keeping last occurrence", ts)
            deduped[-1] = (ts, value)
        else:
            deduped.append((ts, value))
    log.info(
        "loaded %d rows from %s (%d dropped as missing/non-finite, %d duplicates)",
        len(deduped), path, dropped, len(records) - len(deduped),
    )
    timestamps = tuple(r[0] for r in deduped)
    values = np.array([r[1] for r in deduped], dtype=float)
    return TimeSeries(timestamps, values)


def write_csv(path, header, rows) -> None:
    """The package's CSV writer: a header row, then one line per row, with
    floats as repr (exact round trip) and LF line endings."""
    lines = [",".join(header)]
    lines += [",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
              for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """The package's JSON writer: sorted keys, two-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_csv(series: TimeSeries, path) -> None:
    """Write a series in the power-mode CSV layout."""
    write_csv(path, ["timestamp", "vrp_watts"],
              ((ts.isoformat(), float(v)) for ts, v in zip(series.timestamps, series.values)))


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
