"""Entropy-based selection of the lag window length.

Dependence between the series and its lag-k shift is measured by
delta(x, y) = H(x) + H(y) - H(x, y) from 2-D histogram plug-in estimates
(natural log). The per-lag profile averages the pairwise values for
k = 1..p; the window length is the smallest p after which the profile
stops moving.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

log = logging.getLogger(__name__)

DEFAULT_BINS = 16
# Stabilization compares the remaining profile increments against the
# largest increment seen so far (relative part) with an absolute floor;
# the floor keeps estimator noise on dependence-free series from blocking
# selection at lag 1.
DEFAULT_EPS_REL = 0.3
DEFAULT_EPS_ABS = 0.005


@dataclass(frozen=True)
class EntropyProfile:
    lags: tuple
    delta: tuple
    selected_lag: int


def _hist_entropy(probabilities) -> float:
    p = probabilities[probabilities > 0.0]
    return float(-(p * np.log(p)).sum())


def _check_sample(size, bins):
    """ValueError unless bins >= 2 and a sample of `size` fills 4 per bin."""
    if bins < 2:
        raise ValueError("need bins >= 2")
    if size < 4 * bins:
        raise ValueError(f"need at least 4*bins={4 * bins} samples, got {size}")


def shannon_entropy(samples, bins: int = DEFAULT_BINS) -> float:
    """Histogram plug-in entropy in nats over equal-width bins."""
    x = np.asarray(samples, dtype=float)
    _check_sample(x.size, bins)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        log.warning("constant sample: entropy degenerates to 0")
        return 0.0
    counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
    return _hist_entropy(counts / x.size)


def relative_entropy_pair(x, y, bins: int = DEFAULT_BINS) -> float:
    """Mutual-information-style dependence H(x) + H(y) - H(x, y) in nats.

    Marginals are taken from the joint histogram so that the identity
    delta(x, x) = H(x) and the transpose symmetry hold exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    _check_sample(x.size, bins)
    if x.min() == x.max() or y.min() == y.max():
        raise DegenerateDataError("degenerate marginal (constant sample)")
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    p = joint / x.size
    return _hist_entropy(p.sum(axis=1)) + _hist_entropy(p.sum(axis=0)) - _hist_entropy(p)


def entropy_profile(residuals, max_lag: int, bins: int = DEFAULT_BINS) -> EntropyProfile:
    """Average pairwise dependence per lag window and the stabilized lag.

    delta[p] averages relative_entropy_pair at shifts 1..p. selected_lag is
    the smallest p whose remaining profile increments all stay below
    max(DEFAULT_EPS_REL * largest increment up to p, DEFAULT_EPS_ABS);
    max_lag if none stabilizes.
    """
    residuals = np.asarray(residuals, dtype=float)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if residuals.size <= max_lag + 1 or residuals.size - max_lag < 4 * bins:
        raise ValueError("series too short for the requested max_lag/bins")
    pairwise = np.array([
        relative_entropy_pair(residuals[k:], residuals[:-k], bins)
        for k in range(1, max_lag + 1)
    ])
    delta = np.cumsum(pairwise) / np.arange(1, max_lag + 1)
    increments = np.abs(np.diff(delta))
    selected = max_lag
    for p in range(1, max_lag + 1):
        seen = float(increments[: p - 1].max()) if p > 1 else 0.0
        threshold = max(DEFAULT_EPS_REL * seen, DEFAULT_EPS_ABS)
        if np.all(increments[p - 1 :] < threshold):
            selected = p
            break
    return EntropyProfile(
        lags=tuple(range(1, max_lag + 1)),
        delta=tuple(float(d) for d in delta),
        selected_lag=selected,
    )
