"""Stationarization, normalization, autocorrelation, and the one owner of
a network row. Row i of the differences d of a series v at lag p stands at
the level v[i + p] with the window d[i : i + p]. Its inputs are its window
normalised (`row_inputs`), its output is the normalised next difference
(`row_differences`), and its next level is its level plus that difference
(`one_step_levels`, `iterate`). A fit saves its lag, its normaliser and
the row at its series' end (`saved_state`, read by `read_saved_state`)."""

import logging
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data_ingest import TimeSeries, check_json
from .errors import DataFormatError, DegenerateDataError, TrainingError

log = logging.getLogger(__name__)


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
    """Lagged input windows and one-step targets in normalized units."""

    inputs: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    lag: int
    norm: NormParams
    split_index: int

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


def undifference(residuals, last_observed: float) -> np.ndarray:
    """Cumulative-sum inverse of difference, anchored on last_observed."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size and not np.all(np.isfinite(residuals)):
        raise ValueError("residuals must be finite")
    if not np.isfinite(last_observed):
        raise ValueError("anchor must be finite")
    return last_observed + np.cumsum(residuals)


def fit_normalizer(values) -> NormParams:
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DegenerateDataError("need at least 2 values to fit a normalizer")
    return NormParams(float(values.min()), float(values.max()))


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
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n_patterns = n - p
    split_index = int(np.floor(train_fraction * n_patterns + 0.5))
    split_index = min(max(split_index, 1), n_patterns - 1)
    # training rows [0, split_index) touch residuals[0 : split_index + p]
    if norm is None:
        norm = fit_normalizer(residuals[: split_index + p])
    idx = np.arange(p)[None, :] + np.arange(n_patterns)[:, None]
    inputs = row_inputs(residuals[idx], norm)
    targets = norm.apply(residuals[p:])
    out_of_range = np.count_nonzero(
        (inputs[split_index:] < 0.0) | (inputs[split_index:] > 1.0)
    )
    if out_of_range:
        log.info(
            "%d test input values fall outside [0, 1] after training-only "
            "normalization (kept unclamped)", out_of_range,
        )
    return PatternSet(inputs, targets, p, norm, split_index)


def row_inputs(windows, norm: NormParams) -> np.ndarray:
    """The inputs of rows whose windows (oldest first) are the last axis."""
    return norm.apply(windows)


def row_differences(outputs, norm: NormParams) -> np.ndarray:
    """The differences that rows' network outputs stand for."""
    return norm.invert(outputs)


def one_step_levels(outputs, patterns: PatternSet, values):
    """(actual, predicted) next levels of the rows of `patterns` on the
    series `values` whose network outputs are `outputs`."""
    p, n = patterns.lag, patterns.n_patterns
    levels = values[p : p + n]
    return values[p + 1 : p + 1 + n].copy(), levels + row_differences(outputs, patterns.norm)


def iterate(window, level: float, horizon: int, norm: NormParams, predict) -> np.ndarray:
    """The levels of `horizon` iterated forecasts from the row at `level`
    with `window`, predict giving the outputs of (1, p) rows' inputs: each
    difference joins the next window; the levels are undifference's."""
    p = len(window)
    history = np.concatenate([window, np.empty(horizon)])
    for step in range(horizon):
        output = float(predict(row_inputs(history[None, step : step + p], norm))[0])
        if not np.isfinite(output):
            raise TrainingError(f"non-finite forecast at horizon step {step + 1}")
        history[p + step] = row_differences(output, norm)
    return undifference(history[p:], level)


def end_state(residuals, values, lag: int):
    """(window, level) of the row at the end of the series `values`, whose
    differences are `residuals`."""
    return residuals[-lag:], float(values[-1])


# The provenance keys of a fit's saved state, by their JSON_TYPES type.
_STATE_TYPES = {"lag": int, "norm": dict, "last_window_residuals": list,
                "last_observed_value": float}
_NORM_TYPES = {f.name: f.type for f in fields(NormParams)}


def saved_state(patterns: PatternSet, residuals, values) -> dict:
    """The _STATE_TYPES keys of a fit on `patterns` of the series `values`,
    whose differences are `residuals`."""
    window, level = end_state(residuals, values, patterns.lag)
    return {"lag": patterns.lag, "norm": asdict(patterns.norm),
            "last_window_residuals": window.tolist(), "last_observed_value": level}


def read_saved_state(source, provenance: dict, needs, input_dim: int):
    """(lag, norm, window, level) of the saved state in the `provenance` of a
    network of input_dim inputs, None for a window or level not saved.
    DataFormatError, naming source and the key, when `norm` or a key in
    `needs` is missing, a key is not of its _STATE_TYPES type, the norm fails
    NormParams' check or has another key, the window or level is not finite,
    or the lag or window is not input_dim long."""
    check_json(f"{source} provenance", provenance, _STATE_TYPES, ("norm", *needs), closed=False)
    check_json(f"{source} provenance.norm", provenance["norm"], _NORM_TYPES, _NORM_TYPES,
               closed=True)
    try:
        norm = NormParams(**provenance["norm"])
    except DegenerateDataError as exc:
        raise DataFormatError(f"{source} provenance.norm: {exc}") from exc
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
    return lag, norm, window, level


def acf(values, max_lag: int) -> np.ndarray:
    """Sample autocorrelation (biased, divide-by-n) for lags 0..max_lag."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if max_lag < 0 or n <= max_lag:
        raise ValueError(f"acf needs max_lag >= 0 and more values than max_lag; "
                         f"got {n} values and max_lag {max_lag}")
    centered = values - values.mean()
    c0 = centered @ centered / n
    if c0 == 0.0:
        raise DegenerateDataError("zero-variance series has no ACF")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = (centered[k:] @ centered[:-k]) / n / c0
    return out
