"""KPSS stationarity test and the evaluation statistics / hypothesis tests."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDataError, VrpcastError
from .series_ops import dot

# Level-stationarity asymptotic critical values (Kwiatkowski et al., 1992).
KPSS_CRITICAL_VALUES = {0.10: 0.347, 0.05: 0.463, 0.025: 0.574, 0.01: 0.739}

# ln Gamma(a + 1/2) - ln Gamma(a) - (ln a) / 2 = sum over even n >= 2 of
# (2^(1-n) - 2) B_n / (n (n-1)) a^(1-n), B_n the Bernoulli numbers; the
# coefficients of a^-1, a^-3, ..., a^-11. From a = 10 on the next term is
# below 4e-15.
_HALF_STEP_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)
_SERIES_FROM = 10.0
# The continued fraction stops once a pair of terms changes it by at most
# _CF_TOLERANCE, relative. Over df in [1, 1e6] and |t| in [1e-12, 1e150] it
# needs at most 61 pairs; _CF_MAX_PAIRS ends one that does not settle.
_CF_TOLERANCE = 1e-15
_CF_MAX_PAIRS = 500
_CF_TINY = 1e-300


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
    s2 = dot(e, e) / t_len
    for j in range(1, lag + 1):
        s2 += 2.0 * (1.0 - j / (lag + 1.0)) * dot(e[j:], e[:-j]) / t_len
    partial = np.cumsum(e)
    stat = dot(partial, partial) / (t_len * t_len * s2)
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
    sse = dot(err, err)
    centered = actual - actual.mean()
    sst = dot(centered, centered)
    r2 = None if sst == 0.0 else 1.0 - sse / sst
    return ErrorStats(float(err.mean()), sse / err.size, r2)


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2). Past _SERIES_FROM, ln Gamma(a) - ln Gamma(a + 1/2) from
    lgamma loses digits to the size of either term (2e-10 at a = 1e5), so
    the series of their difference is used."""
    if a < _SERIES_FROM:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    inv_sq = 1.0 / (a * a)
    series = 0.0
    for coefficient in reversed(_HALF_STEP_SERIES):
        series = series * inv_sq + coefficient
    return 0.5 * math.log(math.pi / a) - series / a


def _beta_fraction(a: float, b: float, z: float) -> float:
    """The continued fraction f = 1 + d1/(1 + d2/(1 + ...)) with
    I_x(a, b) = x^a (1-x)^(b-1) / (a B(a, b) f) at z = x / (1-x), evaluated
    by modified Lentz (Press et al., Numerical Recipes, 5.2 and 6.4). Its
    terms are those of the Cephes `incbd` expansion. For b < 1 they are all
    positive, so nothing cancels when x is near 1 and a is large, where the
    terms of Numerical Recipes' own fraction for I_x(a, b) cancel (3e-11
    relative at df = 8e5, t = 2.2)."""
    f = c = 1.0
    d = 0.0
    for m in range(_CF_MAX_PAIRS):
        for term in (z * (a + m) * (m + 1.0 - b) / ((a + 2 * m) * (a + 2 * m + 1.0)),
                     z * (m + 1.0) * (a + b + m) / ((a + 2 * m + 1.0) * (a + 2 * m + 2.0))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + term / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            f *= c * d
        if abs(c * d - 1.0) <= _CF_TOLERANCE:
            return f
    raise VrpcastError(f"incomplete beta continued fraction for a = {a!r}, b = {b!r}, "
                       f"z = {z!r} did not converge in {_CF_MAX_PAIRS} term pairs")


def _two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's T on df degrees of freedom: the regularized
    incomplete beta I_x(a, b) at a = df/2, b = 1/2, x = df / (df + t^2). Where
    x >= (a+1)/(a+b+2) it is 1 - I_(1-x)(b, a), whose fraction converges
    faster there. x and 1 - x are each formed from t^2 and df, never one as
    1 minus the other. A plain float, so that p < 0.05 is a plain bool."""
    t, df = float(t), float(df)
    if math.isnan(t) or math.isnan(df):
        return math.nan
    t2 = t * t
    if math.isinf(t2):  # |t| > 1.3e154: p < 5e-155 for df >= 1
        return 0.0
    a = 0.5 * df
    x, y = df / (df + t2), t2 / (df + t2)
    # x^a y^(1/2) / B(a, 1/2), with ln x = -log1p(t^2/df) exact to rounding
    # where x is near 1.
    front = math.sqrt(y) * math.exp(-a * math.log1p(t2 / df) - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return front / (a * y * _beta_fraction(a, 0.5, df / t2))
    return 1.0 - front / (0.5 * x * _beta_fraction(0.5, a, t2 / df))


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
