"""KPSS stationarity test and the evaluation statistics / hypothesis tests."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .errors import DegenerateDataError

# Level-stationarity asymptotic critical values (Kwiatkowski et al., 1992).
KPSS_CRITICAL_VALUES = {0.10: 0.347, 0.05: 0.463, 0.025: 0.574, 0.01: 0.739}


@dataclass(frozen=True)
class KpssResult:
    statistic: float
    truncation_lag: int
    critical_values: dict
    reject_at_5pct: bool


@dataclass(frozen=True)
class ErrorStats:
    mean_error: float
    mean_squared_error: float
    r_squared: Optional[float]


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    reject_at_5pct: bool


def kpss_level(values) -> KpssResult:
    """KPSS test against the null of level stationarity.

    Statistic: T^-2 * sum(S_t^2) / s2(l) with S_t the partial sums of the
    demeaned series and s2(l) the Bartlett-window long-run variance at
    truncation lag l = floor(4 * (T/100)^(1/4)).
    """
    x = np.asarray(values, dtype=float)
    t_len = x.size
    if t_len < 20:
        raise ValueError("KPSS needs at least 20 observations")
    e = x - x.mean()
    if np.all(e == 0.0):
        raise DegenerateDataError("constant series: long-run variance is zero")
    lag = int(math.floor(4.0 * (t_len / 100.0) ** 0.25))
    s2 = float(e @ e) / t_len
    for j in range(1, lag + 1):
        s2 += 2.0 * (1.0 - j / (lag + 1.0)) * float(e[j:] @ e[:-j]) / t_len
    partial = np.cumsum(e)
    stat = float(partial @ partial) / (t_len * t_len * s2)
    return KpssResult(
        statistic=stat,
        truncation_lag=lag,
        critical_values=dict(KPSS_CRITICAL_VALUES),
        reject_at_5pct=stat > KPSS_CRITICAL_VALUES[0.05],
    )


def error_stats(actual, predicted) -> ErrorStats:
    """Mean error, MSE and R^2 of predictions against actuals (watt units)."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.size == 0 or actual.shape != predicted.shape:
        raise ValueError("actual and predicted must have equal nonzero length")
    err = actual - predicted
    sse = float(err @ err)
    centered = actual - actual.mean()
    sst = float(centered @ centered)
    r2 = None if sst == 0.0 else 1.0 - sse / sst
    return ErrorStats(float(err.mean()), sse / err.size, r2)


def _two_sided_p(t: float, df: float) -> float:
    # Student-t survival via the regularized incomplete beta function.
    if math.isinf(t):
        return 0.0
    return float(2.0 * special.stdtr(df, -abs(t)))


def two_sample_ttest(a, b) -> TTestResult:
    """Welch's unequal-variance two-sample t-test of equal means."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs length >= 2")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise DegenerateDataError("zero variance in both samples")
    sa, sb = va / a.size, vb / b.size
    t = float((a.mean() - b.mean()) / math.sqrt(sa + sb))
    df = (sa + sb) ** 2 / (
        sa * sa / (a.size - 1) + sb * sb / (b.size - 1)
    )
    p = _two_sided_p(t, df)
    return TTestResult(t, float(df), p, p < 0.05)


def paired_ttest(a, b) -> TTestResult:
    """One-sample t-test on the elementwise differences a - b against 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size < 2:
        raise ValueError("samples must have equal length >= 2")
    d = a - b
    n = d.size
    sd = d.std(ddof=1)
    mean = d.mean()
    df = float(n - 1)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, df, 1.0, False)
        return TTestResult(math.copysign(math.inf, mean), df, 0.0, True)
    t = float(mean / (sd / math.sqrt(n)))
    p = _two_sided_p(t, df)
    return TTestResult(t, df, p, p < 0.05)
