"""Stationarization, normalization, windowing and autocorrelation."""

import logging
from dataclasses import dataclass, field

import numpy as np

from .data_ingest import TimeSeries
from .errors import DegenerateDataError

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
    inputs = norm.apply(residuals[idx])
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
