import numpy as np
import pytest

from vrpcast import init, kernels


def random_case(rng, n=40, p=5, h=7):
    model = init(p, h, int(rng.integers(0, 1000)))
    inputs = rng.uniform(-1, 1, (n, p))
    targets = rng.normal(size=n)
    return model, inputs, targets


def test_out_buffer_matches_allocating_kernel(rng):
    for _ in range(10):
        model, inputs, targets = random_case(rng)
        args = (model.w1, model.b1, model.w2, model.b2)
        res, jac = kernels.residuals_and_jacobian(inputs, targets, *args)
        assert jac.flags.f_contiguous
        buffer = np.full(jac.shape, np.nan, order="F")
        res_out, jac_out = kernels.residuals_and_jacobian(inputs, targets, *args, out=buffer)
        assert jac_out is buffer
        np.testing.assert_array_equal(res_out, res)
        np.testing.assert_array_equal(jac_out, jac)
        np.testing.assert_array_equal(
            res, targets - kernels.forward_batch(inputs, *args)
        )
    with pytest.raises(ValueError):
        kernels.residuals_and_jacobian(inputs, targets, *args, out=np.empty(jac.shape))


@pytest.mark.parametrize("p, h", [(1, 1), (1, 6), (1, 13), (4, 2), (6, 9), (12, 25)])
def test_gradient_matches_jacobian_transpose_residuals(rng, p, h):
    model, inputs, targets = random_case(rng, n=300, p=p, h=h)
    args = (model.w1, model.b1, model.w2, model.b2)
    res_jac, jac = kernels.residuals_and_jacobian(inputs, targets, *args)
    res, grad = kernels.residuals_and_gradient(inputs, targets, *args)
    np.testing.assert_array_equal(res, targets - kernels.forward_batch(inputs, *args))
    np.testing.assert_array_equal(res, res_jac)
    expected = jac.T @ res
    assert grad.shape == (model.n_params,)
    assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("p, h", [(1, 6), (1, 13), (6, 9), (12, 25)])
@pytest.mark.parametrize("n", [300, 1598, 5000])
def test_activation_buffers_match_allocating_kernels(rng, n, p, h):
    model, inputs, targets = random_case(rng, n=n, p=p, h=h)
    args = (model.w1, model.b1, model.w2, model.b2)
    # the expression the kernels shared before the buffers existed
    expected_a = np.tanh(model.w1 @ inputs.T + model.b1[:, None])
    res, jac = kernels.residuals_and_jacobian(inputs, targets, *args)
    res_g, grad = kernels.residuals_and_gradient(inputs, targets, *args)

    act = np.full((h, n), np.nan)
    out = kernels.forward_batch(inputs, *args, hidden_out=act)
    np.testing.assert_array_equal(act, expected_a)
    np.testing.assert_array_equal(out, kernels.forward_batch(inputs, *args))
    np.testing.assert_array_equal(targets - out, res)

    kept = act.copy()
    buffer = np.full(jac.shape, np.nan, order="F")
    res_b, jac_b = kernels.residuals_and_jacobian(inputs, targets, *args,
                                                  out=buffer, hidden=act)
    res_gb, grad_b = kernels.residuals_and_gradient(inputs, targets, *args, hidden=act)
    np.testing.assert_array_equal(act, kept)       # read, never written
    assert jac_b is buffer
    np.testing.assert_array_equal(res_b, res)
    np.testing.assert_array_equal(jac_b, jac)
    np.testing.assert_array_equal(res_gb, res_g)
    np.testing.assert_array_equal(grad_b, grad)


@pytest.mark.parametrize("p, h", [(1, 6), (6, 9), (12, 25)])
@pytest.mark.parametrize("n", [300, 5000])
def test_gradient_scratch_matches_allocating_kernel(rng, n, p, h):
    model, inputs, targets = random_case(rng, n=n, p=p, h=h)
    args = (model.w1, model.b1, model.w2, model.b2)
    res, grad = kernels.residuals_and_gradient(inputs, targets, *args)
    act = np.empty((h, n))
    kernels.forward_batch(inputs, *args, hidden_out=act)
    scratch = np.full((h, n), np.nan)
    for hidden in (None, act):
        res_s, grad_s = kernels.residuals_and_gradient(inputs, targets, *args,
                                                       hidden=hidden, scratch=scratch)
        np.testing.assert_array_equal(res_s, res)
        np.testing.assert_array_equal(grad_s, grad)
