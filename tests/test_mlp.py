import json

import numpy as np
import pytest

from vrpcast import init
from vrpcast import kernels, mlp
from vrpcast.errors import DataFormatError


def finite_difference_jacobian(model, inputs, targets, step=1e-6):
    """Central differences of the residuals w.r.t. the flat parameters."""
    theta = mlp.flatten(model)
    p, h = model.input_dim, model.hidden_dim

    def residuals(t):
        m = mlp.unflatten(t, p, h)
        return targets - mlp.forward_batch(m, inputs)

    jac = np.empty((inputs.shape[0], theta.size))
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += step
        down[j] -= step
        jac[:, j] = (residuals(up) - residuals(down)) / (2 * step)
    return jac


class TestInit:
    def test_deterministic(self):
        a, b = init(6, 9, 4), init(6, 9, 4)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    @pytest.mark.parametrize("p, h, seed", [(1, 1, 0), (6, 9, 4), (3, 13, 31000), (20, 2, 7)])
    def test_draws(self, p, h, seed):
        """Glorot draws for w1 (h, p), then w2, from one default_rng(seed);
        zero biases."""
        rng = np.random.default_rng(seed)
        w1 = rng.uniform(-np.sqrt(6.0 / (p + h)), np.sqrt(6.0 / (p + h)), (h, p))
        w2 = rng.uniform(-np.sqrt(6.0 / (h + 1)), np.sqrt(6.0 / (h + 1)), h)
        np.testing.assert_array_equal(mlp.flatten(init(p, h, seed)),
                                      np.concatenate([w1.ravel(), np.zeros(h), w2, [0.0]]))

    def test_param_count(self):
        assert init(6, 9, 0).n_params == 6 * 9 + 9 + 9 + 1

    def test_preactivation_scale(self, rng):
        model = init(6, 9, 1)
        x = rng.uniform(0, 1, (1000, 6))
        z = x @ model.w1.T + model.b1
        assert 0.1 <= z.std() <= 2.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            init(0, 3, 0)


class TestForward:
    def test_zero_parameters(self, rng):
        model = mlp.MlpModel(np.zeros(kernels.n_params(2, 3)), 2, 3)
        assert mlp.forward_batch(model, rng.normal(size=2)[None])[0] == 0.0

    def test_tanh_saturation(self):
        model = mlp.MlpModel([0.0, 0.0, 50.0, 4.2, 0.0], 2, 1)     # w1, b1, w2, b2
        x = np.array([0.3, -0.3])
        assert mlp.forward_batch(model, x[None])[0] == pytest.approx(4.2, abs=1e-12)

    def test_matches_straight_line_arithmetic(self, rng):
        model = init(5, 7, 9)
        x = rng.uniform(-1, 1, 5)
        expected = model.b2
        for j in range(7):
            z = model.b1[j]
            for k in range(5):
                z += model.w1[j, k] * x[k]
            expected += model.w2[j] * np.tanh(z)
        assert mlp.forward_batch(model, x[None])[0] == pytest.approx(expected, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mlp.forward_batch(init(4, 2, 0), np.zeros(3)[None])[0]

    def test_hidden_sign_symmetry(self, rng):
        model = init(4, 3, 2)
        theta = mlp.flatten(model)
        for layer in kernels.layers(theta, 4, 3)[:3]:   # hidden unit 0's w1 row, b1, w2
            layer[0] *= -1
        flipped = mlp.MlpModel(theta, 4, 3)
        x = rng.uniform(0, 1, 4)
        assert mlp.forward_batch(model, x[None])[0] == pytest.approx(
            mlp.forward_batch(flipped, x[None])[0], abs=1e-14)


class TestFlatten:
    def test_round_trip(self):
        model = init(6, 9, 3)
        again = mlp.unflatten(mlp.flatten(model), 6, 9)
        np.testing.assert_array_equal(model.w1, again.w1)
        np.testing.assert_array_equal(model.b1, again.b1)
        np.testing.assert_array_equal(model.w2, again.w2)
        assert model.b2 == again.b2

    def test_model_is_its_flat_vector(self):
        theta = np.arange(kernels.n_params(3, 2), dtype=float)
        model = mlp.MlpModel(theta, 3, 2)
        theta[0] = -1.0                            # the model holds a copy
        assert model.n_params == 11 and not model.params.flags.writeable
        np.testing.assert_array_equal(model.params, np.arange(11.0))
        np.testing.assert_array_equal(model.w1, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(model.b1, [6, 7])
        np.testing.assert_array_equal(model.w2, [8, 9])
        assert model.b2 == 10.0 and type(model.b2) is float
        assert all(np.shares_memory(layer, model.params)
                   for layer in (model.w1, model.b1, model.w2))
        copy = mlp.flatten(model)
        copy[0] = 5.0
        assert model.params[0] == 0.0

    def test_nonfinite_parameter(self):
        with pytest.raises(ValueError, match="finite"):
            mlp.MlpModel([0.0, 0.0, 0.0, np.nan], 1, 1)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            mlp.unflatten(np.zeros(10), 6, 9)


class TestJacobian:
    def test_perfect_model_zero_residuals(self, rng):
        model = init(3, 5, 0)
        x = rng.uniform(0, 1, (15, 3))
        t = mlp.forward_batch(model, x)
        resid, normal_eqs, _ = mlp.residual_fns(model, x, t)
        theta = mlp.flatten(model)
        np.testing.assert_allclose(resid(theta), 0.0, atol=1e-14)
        np.testing.assert_allclose(normal_eqs(theta)[1], 0.0, atol=1e-14)   # J'r

    def test_bias_column_is_minus_one(self, rng):
        model = init(4, 6, 1)
        x = rng.uniform(0, 1, (10, 4))
        _, jac = kernels.residuals_and_jacobian(x, rng.normal(size=10),
                                                kernels._hidden(x, model.w1, model.b1),
                                                model.w2)
        np.testing.assert_array_equal(jac[:, -1], -np.ones(10))

    def test_matches_finite_differences(self, rng):
        model = init(5, 4, 7)
        x = rng.uniform(0, 1, (20, 5))
        t = rng.normal(size=20)
        _, jac = kernels.residuals_and_jacobian(x, t - mlp.forward_batch(model, x),
                                                kernels._hidden(x, model.w1, model.b1),
                                                model.w2)
        fd = finite_difference_jacobian(model, x, t)
        err = np.abs(jac - fd)
        tol = np.maximum(1e-6 * np.abs(fd), 1e-9)
        assert np.all(err <= tol)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            mlp.residual_fns(init(3, 2, 0), rng.normal(size=(5, 3)), rng.normal(size=4))


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        model = init(6, 9, 5)
        path = tmp_path / "model.json"
        mlp.save(model, path, {"algorithm": "brnn", "seed": 5})
        again, provenance = mlp.load(path)
        np.testing.assert_array_equal(mlp.flatten(model), mlp.flatten(again))
        assert provenance["algorithm"] == "brnn"
        payload = json.loads(path.read_text())
        assert payload["hidden_activation"] == "tanh"

    def test_schema_version_written_and_unversioned_file_loads(self, tmp_path):
        model = init(2, 3, 1)
        path = tmp_path / "model.json"
        mlp.save(model, path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        del payload["schema_version"]
        path.write_text(json.dumps(payload))
        again, _ = mlp.load(path)
        np.testing.assert_array_equal(mlp.flatten(model), mlp.flatten(again))

    @pytest.mark.parametrize("version", [0, 2, "1", None])
    def test_load_rejects_other_schema_version(self, tmp_path, version):
        path = tmp_path / "model.json"
        mlp.save(init(2, 3, 1), path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="schema_version"):
            mlp.load(path)


class TestEquality:
    def test_equal_models(self):
        assert init(2, 3, 0) == init(2, 3, 0)
        assert hash(init(2, 3, 0)) == hash(init(2, 3, 0))
        assert init(2, 3, 0) in [init(2, 3, 0)]

    def test_other_parameters_or_sizes_differ(self):
        model = init(2, 3, 0)
        theta = mlp.flatten(model)
        theta[-1] = 1.0
        assert model != mlp.unflatten(theta, 2, 3)
        assert model != init(2, 3, 1)
        assert mlp.MlpModel(np.zeros(7), 4, 1) != mlp.MlpModel(np.zeros(7), 1, 2)
        assert model != (2, 3, model.params.tobytes())

    def test_set_of_two_equal_models(self):
        assert len({init(2, 3, 0), init(2, 3, 0)}) == 1
