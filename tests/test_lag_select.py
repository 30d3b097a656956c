import numpy as np
import pytest

from vrpcast import (
    entropy_profile,
    generate_synthetic,
    relative_entropy_pair,
    shannon_entropy,
)
from vrpcast.errors import DegenerateDataError


class TestShannonEntropy:
    def test_constant_sample(self):
        assert shannon_entropy(np.full(100, 2.0), 16) == 0.0

    def test_equal_occupancy(self):
        samples = np.repeat(np.arange(16.0), 8)
        assert shannon_entropy(samples, 16) == pytest.approx(np.log(16), abs=1e-12)

    def test_uniform_draw_near_log_bins(self, rng):
        samples = rng.uniform(0, 1, 10_000)
        assert shannon_entropy(samples, 16) == pytest.approx(np.log(16), abs=0.05)

    def test_preconditions(self, rng):
        with pytest.raises(ValueError):
            shannon_entropy(rng.uniform(size=10), 16)  # too few samples
        with pytest.raises(ValueError):
            shannon_entropy(rng.uniform(size=100), 1)


class TestRelativeEntropyPair:
    def test_self_dependence_equals_entropy(self, rng):
        x = rng.normal(size=2000)
        assert relative_entropy_pair(x, x, 16) == shannon_entropy(x, 16)

    def test_independent_draws_near_zero(self, rng):
        x = rng.uniform(size=10_000)
        y = rng.uniform(size=10_000)
        assert relative_entropy_pair(x, y, 16) < 0.05

    def test_negation_bijection(self, rng):
        x = rng.uniform(size=5000)
        assert relative_entropy_pair(x, -x, 16) == pytest.approx(
            shannon_entropy(x, 16), abs=0.02
        )

    def test_symmetry(self, rng):
        x, y = rng.normal(size=(2, 1000))
        assert relative_entropy_pair(x, y, 16) == pytest.approx(
            relative_entropy_pair(y, x, 16), abs=1e-12
        )

    def test_affine_invariance(self, rng):
        x, y = rng.normal(size=(2, 2000))
        base = relative_entropy_pair(x, y, 16)
        assert relative_entropy_pair(2.0 * x + 3.0, y, 16) == pytest.approx(base, abs=1e-12)

    def test_degenerate_marginal(self):
        with pytest.raises(DegenerateDataError):
            relative_entropy_pair(np.ones(100), np.arange(100.0), 16)


@pytest.mark.parametrize("estimate", [
    lambda x, bins: shannon_entropy(x, bins),
    lambda x, bins: relative_entropy_pair(x, x[::-1], bins),
], ids=["shannon_entropy", "relative_entropy_pair"])
@pytest.mark.parametrize("size, bins, message", [
    (100, 1, "need bins >= 2"),
    (63, 16, "need at least 4*bins=64 samples, got 63"),
])
def test_sample_checks(rng, estimate, size, bins, message):
    with pytest.raises(ValueError) as info:
        estimate(rng.uniform(size=size), bins)
    assert str(info.value) == message


class TestEntropyProfile:
    def test_white_noise_selects_lag_one(self):
        series = generate_synthetic({"kind": "white_noise", "n": 5000}, 3)
        profile = entropy_profile(series.values, 12)
        assert profile.selected_lag == 1
        assert max(profile.delta) < 0.05  # profile essentially flat near zero

    def test_ar6_stabilizes_near_six(self):
        spec = {"kind": "ar", "n": 5000, "phi": [0.2, 0.1, 0.05, 0.05, 0.1, 0.45]}
        series = generate_synthetic(spec, 0)
        profile = entropy_profile(series.values, 12)
        assert profile.selected_lag <= 7

    def test_deterministic(self, rng):
        x = rng.normal(size=3000)
        p1 = entropy_profile(x, 10)
        p2 = entropy_profile(x, 10)
        assert p1.delta == p2.delta
        assert p1.selected_lag == p2.selected_lag

    def test_selected_lag_in_lags(self, rng):
        profile = entropy_profile(rng.normal(size=2000), 8)
        assert profile.selected_lag in profile.lags
        assert all(np.isfinite(profile.delta))

    def test_too_short(self, rng):
        with pytest.raises(ValueError):
            entropy_profile(rng.normal(size=50), 12)


def test_relative_entropy_pair_needs_equal_lengths(rng):
    with pytest.raises(ValueError, match="equal length"):
        relative_entropy_pair(rng.normal(size=100), rng.normal(size=99), 4)


def test_entropy_profile_needs_max_lag_of_one(rng):
    with pytest.raises(ValueError, match="max_lag must be >= 1"):
        entropy_profile(rng.normal(size=500), 0)
