"""Stationarization, normalization, autocorrelation, and the one owner of
a network row. Row i of the differences d of a series v at lag p stands at
the level v[i + p] with the window d[i : i + p] (`row_windows`), normalised
as its inputs (`row_inputs`); its output is the normalised next difference
(`row_differences`). `iterate` alone turns outputs into levels, and a one-step
forecast is its first step (`one_step_levels`). A fit saves its lag, train
fraction, normaliser and end row (`saved_state`), which `read_saved_state` reads."""

import logging
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data_ingest import TimeSeries, check_json
from .errors import DataFormatError, DegenerateDataError, TrainingError

log = logging.getLogger(__name__)

DEFAULT_TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class DifferencedSeries:
    """First differences plus the anchor needed to reconstruct levels."""

    residuals: np.ndarray
    anchor: float


@dataclass(frozen=True)
class NormParams:
    """Min-max mapping to [0, 1] fitted on training data only. The one check
    of a normaliser: min and max are finite and max > min, else a
    DegenerateDataError naming the field."""

    min: float
    max: float

    def __post_init__(self):
        for name in ("min", "max"):
            if not np.isfinite(getattr(self, name)):
                raise DegenerateDataError(f"normalizer {name!r} must be finite, "
                                          f"got {getattr(self, name)!r}")
        if not self.max > self.min:
            raise DegenerateDataError("normalizer 'max' must exceed 'min', "
                                      f"got {self.max!r} <= {self.min!r}")

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.min) / (self.max - self.min)

    def invert(self, n):
        return np.asarray(n, dtype=float) * (self.max - self.min) + self.min


@dataclass(frozen=True)
class PatternSet:
    """Normalized lagged windows and one-step targets, split by train_fraction."""

    inputs: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    lag: int
    norm: NormParams
    split_index: int
    train_fraction: float

    @property
    def n_patterns(self):
        return self.inputs.shape[0]

    @property
    def train_inputs(self):
        return self.inputs[: self.split_index]

    @property
    def train_targets(self):
        return self.targets[: self.split_index]


def difference(series) -> DifferencedSeries:
    """residuals[i] = values[i+1] - values[i]; anchor is the first value."""
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, float)
    if values.size < 2:
        raise DegenerateDataError("need at least 2 values to difference")
    return DifferencedSeries(np.diff(values), float(values[0]))


def undifference(residuals, last_observed) -> np.ndarray:
    """Inverse of difference along the last axis, anchored on last_observed per row."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size and not np.all(np.isfinite(residuals)):
        raise ValueError("residuals must be finite")
    if not np.all(np.isfinite(last_observed)):
        raise ValueError("anchor must be finite")
    return (last_observed + np.cumsum(residuals, axis=-1).T).T


def fit_normalizer(values) -> NormParams:
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DegenerateDataError("need at least 2 values to fit a normalizer")
    return NormParams(float(values.min()), float(values.max()))


def check_train_fraction(fraction) -> None:
    """The one rule of a split: ValueError unless fraction is in (0, 1)."""
    if not 0.0 < fraction < 1.0:     # NaN fails too
        raise ValueError(f"train_fraction must be in (0, 1), not {fraction}")


def extract_patterns(residuals, p: int, train_fraction: float,
                     norm: NormParams | None = None) -> PatternSet:
    """Sliding-window patterns with a chronological train/test split.

    The normalizer is `norm` when given (a saved model's), otherwise fitted
    on the values appearing in training rows only (inputs and targets of
    rows [0, split_index)); test-side inputs outside its range are kept
    unclamped and counted in the log.
    """
    residuals = np.asarray(residuals, dtype=float)
    n = residuals.size
    if p < 1:
        raise ValueError("lag p must be >= 1")
    if n <= p + 1:
        raise DegenerateDataError(f"need more than p+1={p + 1} residuals, got {n}")
    check_train_fraction(train_fraction)
    n_patterns = n - p
    split_index = int(np.floor(train_fraction * n_patterns + 0.5))
    split_index = min(max(split_index, 1), n_patterns - 1)
    # training rows [0, split_index) touch residuals[0 : split_index + p]
    if norm is None:
        norm = fit_normalizer(residuals[: split_index + p])
    inputs = row_inputs(row_windows(residuals, p), norm)
    targets = norm.apply(residuals[p:])
    out_of_range = np.count_nonzero(
        (inputs[split_index:] < 0.0) | (inputs[split_index:] > 1.0)
    )
    if out_of_range:
        log.info(
            "%d test input values fall outside [0, 1] after training-only "
            "normalization (kept unclamped)", out_of_range,
        )
    return PatternSet(inputs, targets, p, norm, split_index, train_fraction)


def row_windows(residuals, p: int) -> np.ndarray:
    """Row i's window residuals[i : i + p], for each row at lag p with a target: a view."""
    return np.lib.stride_tricks.sliding_window_view(residuals, p)[:-1]


def row_inputs(windows, norm: NormParams) -> np.ndarray:
    """The inputs of rows whose windows (oldest first) are the last axis."""
    return norm.apply(windows)


def row_differences(outputs, norm: NormParams) -> np.ndarray:
    """The differences that rows' network outputs stand for."""
    return norm.invert(outputs)


def one_step_levels(patterns: PatternSet, values, predict):
    """(actual, predicted) next levels of the rows of `patterns` on the
    series `values` they were extracted from: iterate's first step from each."""
    p = patterns.lag
    predicted = iterate(row_windows(np.diff(values), p), values[p:-1], 1, patterns.norm, predict)
    return values[p + 1 :].copy(), predicted[:, 0]


def iterate(windows, levels, horizon: int, norm: NormParams, predict) -> np.ndarray:
    """The (m, horizon) levels of iterated forecasts from m rows at `levels`
    with `windows` (m, p), predict giving the outputs of (m, p) rows' inputs:
    each row's difference joins its next window; the levels are undifference's."""
    m, p = np.shape(windows)
    history = np.concatenate([windows, np.empty((m, horizon))], axis=1)
    for step in range(horizon):
        outputs = predict(row_inputs(history[:, step : step + p], norm))
        if not np.all(np.isfinite(outputs)):
            raise TrainingError(f"non-finite forecast at horizon step {step + 1}")
        history[:, p + step] = row_differences(outputs, norm)
    return undifference(history[:, p:], levels)


def end_state(residuals, values, lag: int):
    """(window, level) of the row at the end of the series `values`, whose
    differences are `residuals`."""
    return residuals[-lag:], float(values[-1])


# The provenance keys of a fit's saved state, by their JSON_TYPES type.
_STATE_TYPES = {"lag": int, "train_fraction": float, "norm": dict,
                "last_window_residuals": list, "last_observed_value": float}
_NORM_TYPES = {f.name: f.type for f in fields(NormParams)}


def saved_state(patterns: PatternSet, residuals, values) -> dict:
    """The _STATE_TYPES keys of a fit on `patterns` of the series `values`,
    whose differences are `residuals`."""
    window, level = end_state(residuals, values, patterns.lag)
    return {"lag": patterns.lag, "train_fraction": patterns.train_fraction,
            "norm": asdict(patterns.norm), "last_window_residuals": window.tolist(),
            "last_observed_value": level}


def read_saved_state(source, provenance: dict, needs, input_dim: int):
    """(train fraction, norm, window, level) saved in the `provenance` of a
    network of input_dim inputs, DEFAULT_TRAIN_FRACTION or None if not saved.
    DataFormatError, naming source and the key, when `norm` or a key in
    `needs` is missing, a key is not of its _STATE_TYPES type, the norm fails
    NormParams' check or has another key, check_train_fraction fails, the
    window or level is not finite, or the lag or window is not input_dim long."""
    check_json(f"{source} provenance", provenance, _STATE_TYPES, ("norm", *needs), closed=False)
    check_json(f"{source} provenance.norm", provenance["norm"], _NORM_TYPES, _NORM_TYPES,
               closed=True)
    fraction = provenance.get("train_fraction", DEFAULT_TRAIN_FRACTION)
    try:
        norm = NormParams(**provenance["norm"])
        check_train_fraction(fraction)
    except DegenerateDataError as exc:
        raise DataFormatError(f"{source} provenance.norm: {exc}") from exc
    except ValueError as exc:
        raise DataFormatError(f"{source} provenance key 'train_fraction' must be in (0, 1), "
                              f"got {fraction!r}") from exc
    window = provenance.get("last_window_residuals")
    level = provenance.get("last_observed_value")
    for key, values in (("last_window_residuals", window or []),
                        ("last_observed_value", [0.0 if level is None else level])):
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"{source} provenance key {key!r} must be finite, "
                                  f"got {provenance[key]!r}")
    lag = provenance.get("lag", input_dim)
    n_window = input_dim if window is None else len(window)
    if (lag, n_window) != (input_dim, input_dim):
        raise DataFormatError(f"{source}: input_dim is {input_dim}, but the provenance lag is "
                              f"{lag} and last_window_residuals has {n_window} values")
    return fraction, norm, window, level


def dot(a, b) -> float:
    """a @ b of two 1-D arrays of one length, summed over 4096-element blocks
    in block order: BLAS splits a longer product over its threads, so its
    bytes would follow the thread count. On one block it is exactly a @ b."""
    total = a[:4096] @ b[:4096]
    for lo in range(4096, a.size, 4096):
        total += a[lo : lo + 4096] @ b[lo : lo + 4096]
    return float(total)


def acf(values, max_lag: int) -> np.ndarray:
    """Sample autocorrelation (biased, divide-by-n) for lags 0..max_lag."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if max_lag < 0 or n <= max_lag:
        raise ValueError(f"acf needs max_lag >= 0 and more values than max_lag; "
                         f"got {n} values and max_lag {max_lag}")
    centered = values - values.mean()
    c0 = dot(centered, centered) / n
    if c0 == 0.0:
        raise DegenerateDataError("zero-variance series has no ACF")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = dot(centered[k:], centered[:-k]) / n / c0
    return out
