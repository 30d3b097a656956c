import math

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from vrpcast import (
    difference,
    error_stats,
    generate_synthetic,
    kpss_level,
    paired_ttest,
    two_sample_ttest,
)
from vrpcast import stat_tests
from vrpcast.errors import DegenerateDataError, VrpcastError


class TestKpss:
    def test_white_noise_not_rejected(self):
        series = generate_synthetic({"kind": "white_noise", "n": 500}, 0)
        assert not kpss_level(series.values).reject_at_5pct

    def test_random_walk_rejected(self):
        series = generate_synthetic({"kind": "random_walk", "n": 500}, 0)
        assert kpss_level(series.values).reject_at_5pct

    def test_differenced_walk_not_rejected(self):
        series = generate_synthetic({"kind": "random_walk", "n": 500}, 0)
        resid = difference(series.values).residuals
        assert not kpss_level(resid).reject_at_5pct

    def test_shift_and_scale_invariance(self, rng):
        x = rng.normal(size=200)
        base = kpss_level(x).statistic
        assert kpss_level(x + 100.0).statistic == pytest.approx(base, rel=1e-10)
        assert kpss_level(x * 7.5).statistic == pytest.approx(base, rel=1e-10)

    def test_truncation_lag_rule(self, rng):
        assert kpss_level(rng.normal(size=500)).truncation_lag == int(4 * (5.0) ** 0.25)

    def test_reject_consistent_with_critical_value(self, rng):
        result = kpss_level(rng.normal(size=100))
        assert result.reject_at_5pct == (result.statistic > result.critical_values[0.05])
        assert result.statistic >= 0

    def test_constant_series_rejected_as_degenerate(self):
        with pytest.raises(DegenerateDataError):
            kpss_level(np.full(50, 3.0))

    def test_too_short(self, rng):
        with pytest.raises(ValueError):
            kpss_level(rng.normal(size=10))


class TestErrorStats:
    def test_perfect_fit(self, rng):
        x = rng.normal(size=50)
        stats = error_stats(x, x)
        assert (stats.mean_error, stats.mean_squared_error, stats.r_squared) == (0, 0, 1)

    def test_constant_mean_baseline(self, rng):
        x = rng.normal(size=100)
        stats = error_stats(x, np.full(100, x.mean()))
        assert stats.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_mse_dominates_squared_me(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=(2, 30))
            stats = error_stats(a, b)
            assert stats.mean_squared_error >= stats.mean_error**2 - 1e-12
            assert stats.r_squared <= 1

    def test_zero_variance_actual_undefined(self):
        stats = error_stats(np.ones(10), np.zeros(10))
        assert stats.r_squared is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_stats([1.0, 2.0], [1.0])


class TestTwoSampleTtest:
    def test_identical_samples(self, rng):
        a = rng.normal(size=30)
        result = two_sample_ttest(a, a.copy())
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert not result.reject_at_5pct

    def test_large_effect(self, rng):
        a = rng.normal(0, 1, 100)
        b = rng.normal(5, 1, 100)
        result = two_sample_ttest(a, b)
        assert result.reject_at_5pct
        assert result.p_value < 1e-10

    def test_matches_reference_implementation(self, rng):
        a = rng.normal(0, 1, 40)
        b = rng.normal(0.3, 2, 60)
        mine = two_sample_ttest(a, b)
        ref = sps.ttest_ind(a, b, equal_var=False)
        assert mine.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_argument_order_symmetry(self, rng):
        a, b = rng.normal(size=(2, 25))
        r1, r2 = two_sample_ttest(a, b), two_sample_ttest(b, a)
        assert r1.t_statistic == pytest.approx(-r2.t_statistic)
        assert r1.p_value == pytest.approx(r2.p_value)

    def test_both_constant_rejected(self):
        with pytest.raises(DegenerateDataError):
            two_sample_ttest(np.ones(5), np.full(5, 2.0))


class TestPairedTtest:
    def test_identical_samples(self, rng):
        a = rng.normal(size=30)
        result = paired_ttest(a, a.copy())
        assert (result.t_statistic, result.p_value) == (0.0, 1.0)

    def test_constant_shift(self, rng):
        a = rng.normal(size=40)
        result = paired_ttest(a, a + 1.0)
        assert result.reject_at_5pct
        assert result.p_value == 0.0  # zero-variance differences, nonzero mean

    def test_matches_reference_implementation(self, rng):
        a = rng.normal(size=50)
        b = a + rng.normal(0, 0.5, 50)
        mine = paired_ttest(a, b)
        ref = sps.ttest_rel(a, b)
        assert mine.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [1.0])


class TestTwoSidedP:
    # Log-spaced df, mostly non-integer as Welch's df are.
    DFS = np.geomspace(1.0, 1e6, 49)
    TS = np.geomspace(1e-3, 40.0, 41)

    def test_matches_scipy_stdtr(self):
        checked = 0
        for df in self.DFS:
            for t in self.TS:
                ref = float(2.0 * special.stdtr(df, -t))
                if ref < 1e-300:
                    continue
                assert stat_tests._two_sided_p(t, df) == pytest.approx(ref, rel=1e-12)
                assert stat_tests._two_sided_p(-t, df) == stat_tests._two_sided_p(t, df)
                checked += 1
        assert checked > 1500

    @pytest.mark.parametrize("t", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
    def test_closed_forms_for_tiny_t(self, t):
        # scipy's stdtr is off by 3.1e-9 at df = 1, t = 1e-8.
        assert stat_tests._two_sided_p(t, 1.0) == pytest.approx(
            1.0 - 2.0 / math.pi * math.atan(t), rel=1e-15)
        assert stat_tests._two_sided_p(t, 2.0) == pytest.approx(
            1.0 - t / math.sqrt(2.0 + t * t), rel=1e-15)

    @pytest.mark.parametrize("df", [1.0, 2.0, 7.3, 399.0, 1e6])
    def test_edges(self, df):
        assert stat_tests._two_sided_p(0.0, df) == 1.0
        assert stat_tests._two_sided_p(math.inf, df) == 0.0
        assert stat_tests._two_sided_p(-math.inf, df) == 0.0
        assert math.isnan(stat_tests._two_sided_p(math.nan, df))

    def test_fraction_that_does_not_settle_raises(self, monkeypatch):
        monkeypatch.setattr(stat_tests, "_CF_MAX_PAIRS", 1)
        with pytest.raises(VrpcastError, match="did not converge"):
            stat_tests._two_sided_p(2.1, 399.0)

    def test_plain_python_types(self, rng):
        p = stat_tests._two_sided_p(np.float64(2.1), np.float64(37.4))
        assert type(p) is float
        a = rng.normal(0, 1, 30).astype(np.float32)
        b = (a + rng.normal(0.5, 1, 30)).astype(np.float32)
        for result in (two_sample_ttest(a, b), paired_ttest(a, b)):
            assert type(result.p_value) is float
            assert type(result.reject_at_5pct) is bool


def test_two_sample_ttest_needs_two_values_per_sample():
    with pytest.raises(ValueError, match="length >= 2"):
        two_sample_ttest([1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_paired_ttest_constant_nonzero_difference(sign):
    result = paired_ttest(np.array([3.0, 4.0, 5.0]) + sign * 2.0, [3.0, 4.0, 5.0])
    assert result.t_statistic == sign * math.inf
    assert (result.degrees_of_freedom, result.p_value, result.reject_at_5pct) == (2.0, 0.0, True)
