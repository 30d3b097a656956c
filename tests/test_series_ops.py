import numpy as np
import pytest

from vrpcast import (
    acf,
    difference,
    extract_patterns,
    fit_normalizer,
    mlp,
    undifference,
)
from vrpcast.errors import DegenerateDataError
from vrpcast.series_ops import NormParams, iterate


class TestDifference:
    def test_definition(self):
        d = difference(np.array([1.0, 3.0, 6.0]))
        np.testing.assert_array_equal(d.residuals, [2.0, 3.0])
        assert d.anchor == 1.0

    def test_constant_series(self):
        d = difference(np.full(10, 4.2))
        np.testing.assert_array_equal(d.residuals, np.zeros(9))

    def test_length_identity(self, rng):
        x = rng.normal(size=4713)
        assert difference(x).residuals.size == 4712

    def test_too_short(self):
        with pytest.raises(DegenerateDataError):
            difference(np.array([1.0]))


class TestUndifference:
    def test_inverse_of_example(self):
        np.testing.assert_array_equal(undifference([2.0, 3.0], 1.0), [3.0, 6.0])

    def test_empty(self):
        assert undifference([], 5.0).size == 0

    def test_round_trip(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 2000))
            x = np.cumsum(rng.normal(size=n)) + rng.uniform(10, 1000)
            d = difference(x)
            back = undifference(d.residuals, d.anchor)
            err = np.max(np.abs(back - x[1:])) / np.max(np.abs(x))
            assert err < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            undifference([np.nan], 0.0)

    def test_rows_with_one_anchor_each(self, rng):
        residuals, anchors = rng.normal(size=(6, 9)), rng.uniform(10, 1000, size=6)
        rows = [undifference(r, a) for r, a in zip(residuals, anchors)]
        np.testing.assert_array_equal(undifference(residuals, anchors), rows)


class TestIterate:
    @pytest.mark.parametrize("horizon", [1, 5, 20])
    def test_rows_iterate_as_each_row_alone(self, rng, horizon):
        # a row's forecasts depend on its own window and level only; predict
        # runs the network row by row, so the comparison is exact
        model, norm = mlp.init(4, 6, 3), NormParams(-2.0, 2.5)
        windows, levels = rng.normal(size=(7, 4)), rng.uniform(10, 1000, size=7)

        def predict(inputs):
            return np.array([mlp.forward_batch(model, row[None])[0] for row in inputs])

        rows = [iterate(w[None], [v], horizon, norm, predict)[0] for w, v in zip(windows, levels)]
        np.testing.assert_array_equal(iterate(windows, levels, horizon, norm, predict), rows)


class TestNormalizer:
    def test_apply(self):
        norm = fit_normalizer([0.0, 2.0])
        assert norm.apply(1.0) == 0.5

    def test_invert_identity(self, rng):
        norm = fit_normalizer(rng.normal(size=100))
        x = rng.normal(size=50)
        np.testing.assert_allclose(norm.invert(norm.apply(x)), x, atol=1e-12)

    def test_out_of_range_passthrough(self):
        norm = fit_normalizer([0.0, 1.0])
        assert norm.apply(2.0) == 2.0  # unclamped
        assert norm.apply(-1.0) == -1.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_normalizer([3.0, 3.0, 3.0])

    def test_out_of_range_count_matches_direct_scan(self, rng):
        values = rng.normal(size=500)
        train, test = values[:400], values[400:]
        norm = fit_normalizer(train)
        # guarantee genuine excursions on both sides of the fitted range
        test = np.concatenate([test, [norm.min - 1.0, norm.max + 1.0]])
        direct = np.count_nonzero((test < norm.min) | (test > norm.max))
        applied = norm.apply(test)
        assert np.count_nonzero((applied < 0) | (applied > 1)) == direct
        assert direct >= 2


class TestExtractPatterns:
    def test_small_example(self):
        ps = extract_patterns([1.0, 2.0, 3.0, 4.0], 2, 0.5)
        denorm_inputs = ps.norm.invert(ps.inputs)
        np.testing.assert_allclose(denorm_inputs, [[1.0, 2.0], [2.0, 3.0]], atol=1e-12)
        np.testing.assert_allclose(ps.norm.invert(ps.targets), [3.0, 4.0], atol=1e-12)

    def test_paper_counts(self, rng):
        residuals = rng.normal(size=4712)
        ps = extract_patterns(residuals, 6, 0.8)
        assert ps.n_patterns == 4706
        assert ps.split_index == 3765
        assert ps.n_patterns - ps.split_index == 941

    def test_rows_are_verbatim_slices(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 60))
            p = int(rng.integers(1, n - 3))
            residuals = rng.normal(size=n)
            ps = extract_patterns(residuals, p, 0.7)
            for i in range(ps.n_patterns):
                np.testing.assert_allclose(
                    ps.norm.invert(ps.inputs[i]), residuals[i : i + p], atol=1e-10
                )
                assert ps.norm.invert(ps.targets[i]) == pytest.approx(
                    residuals[i + p], abs=1e-10
                )

    def test_norm_ignores_test_block(self, rng):
        residuals = rng.normal(size=200)
        ps = extract_patterns(residuals, 3, 0.8)
        tweaked = residuals.copy()
        tweaked[-20:] *= 100.0  # far outside the training range
        ps2 = extract_patterns(tweaked, 3, 0.8)
        assert ps.norm == ps2.norm

    def test_insufficient_data(self, rng):
        with pytest.raises(DegenerateDataError):
            extract_patterns(rng.normal(size=5), 4, 0.8)


class TestAcf:
    def test_lag_zero_is_one(self, rng):
        assert acf(rng.normal(size=50), 5)[0] == 1.0

    def test_white_noise_bounds(self, rng):
        values = rng.normal(size=2000)
        a = acf(values, 20)
        inside = np.count_nonzero(np.abs(a[1:]) < 2 / np.sqrt(2000))
        assert inside >= 18  # >= 90% of lags 1..20

    def test_ar1_level(self):
        from vrpcast import generate_synthetic

        series = generate_synthetic({"kind": "ar", "n": 5000, "phi": [0.9]}, 11)
        assert acf(series.values, 1)[1] == pytest.approx(0.9, abs=0.05)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=300)
        np.testing.assert_allclose(acf(x, 10), acf(3.5 * x + 11.0, 10), atol=1e-10)

    def test_zero_variance(self):
        with pytest.raises(DegenerateDataError):
            acf(np.ones(30), 5)

    @pytest.mark.parametrize("n, max_lag", [(5, 5), (5, -1)])
    def test_error_gives_length_and_lag(self, rng, n, max_lag):
        with pytest.raises(ValueError, match=f"got {n} values and max_lag {max_lag}$"):
            acf(rng.normal(size=n), max_lag)


class TestInputChecks:
    def test_undifference_non_finite_anchor(self):
        with pytest.raises(ValueError, match="anchor must be finite"):
            undifference([1.0], np.nan)

    def test_normalizer_needs_two_values(self):
        with pytest.raises(DegenerateDataError, match="at least 2 values"):
            fit_normalizer([1.0])

    def test_extract_patterns_lag_below_one(self, rng):
        with pytest.raises(ValueError, match="lag p must be >= 1"):
            extract_patterns(rng.normal(size=50), 0, 0.8)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, True, float("nan")])
    def test_extract_patterns_fraction_outside_open_unit(self, rng, fraction):
        with pytest.raises(ValueError, match=r"train_fraction must be in \(0, 1\)") as info:
            extract_patterns(rng.normal(size=50), 3, fraction)
        assert str(info.value) == f"train_fraction must be in (0, 1), not {fraction}"


class TestNormParamsCheck:
    """NormParams is the one check of a normaliser, and names the field."""

    @pytest.mark.parametrize("lo, hi, message", [
        (-np.inf, 1.0, "normalizer 'min' must be finite, got -inf"),
        (np.nan, 1.0, "normalizer 'min' must be finite, got nan"),
        (0.0, np.inf, "normalizer 'max' must be finite, got inf"),
        (1.0, 1.0, "normalizer 'max' must exceed 'min', got 1.0 <= 1.0"),
        (2.0, 1.0, "normalizer 'max' must exceed 'min', got 1.0 <= 2.0"),
    ])
    def test_rejected(self, lo, hi, message):
        with pytest.raises(DegenerateDataError) as info:
            NormParams(lo, hi)
        assert str(info.value) == message

    def test_fit_normalizer_of_a_constant_sample(self):
        with pytest.raises(DegenerateDataError, match="'max' must exceed 'min', got 3.0 <= 3.0"):
            fit_normalizer([3.0, 3.0, 3.0])
