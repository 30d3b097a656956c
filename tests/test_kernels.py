import numpy as np
import pytest

from vrpcast import init, kernels, mlp


def random_case(rng, n=40, p=5, h=7):
    model = init(p, h, int(rng.integers(0, 1000)))
    inputs = rng.uniform(-1, 1, (n, p))
    targets = rng.normal(size=n)
    return model, inputs, targets


def activations(model, inputs):
    """The activations (h, n) of one forward pass."""
    a = np.empty((model.hidden_dim, len(inputs)))
    kernels.forward_batch(inputs, model.w1, model.b1, model.w2, model.b2, hidden_out=a)
    return a


def kernel_args(model, inputs, targets):
    """(res, a, w2), the residual kernels' arguments after the inputs: the
    residuals that mlp.residual_fns's resid returns at model, the activations
    of one forward pass and the output weights."""
    resid = mlp.residual_fns(model, inputs, targets)[0]
    return resid(mlp.flatten(model)), activations(model, inputs), model.w2


def forward_residuals(model, inputs, targets):
    return targets - kernels.forward_batch(inputs, model.w1, model.b1, model.w2, model.b2)


def test_out_buffer_matches_allocating_kernel(rng):
    for _ in range(10):
        model, inputs, targets = random_case(rng)
        args = kernel_args(model, inputs, targets)
        res, jac = kernels.residuals_and_jacobian(inputs, *args)
        assert res is args[0]
        assert jac.flags.f_contiguous
        buffer = np.full(jac.shape, np.nan, order="F")
        res_out, jac_out = kernels.residuals_and_jacobian(inputs, *args, out=buffer)
        assert jac_out is buffer
        assert res_out is args[0]
        np.testing.assert_array_equal(jac_out, jac)
        # resid's residuals are those of the forward pass
        np.testing.assert_array_equal(res, forward_residuals(model, inputs, targets))
    with pytest.raises(ValueError):
        kernels.residuals_and_jacobian(inputs, *args, out=np.empty(jac.shape))


@pytest.mark.parametrize("p, h", [(1, 1), (1, 6), (1, 13), (4, 2), (6, 9), (12, 25)])
def test_gradient_matches_jacobian_transpose_residuals(rng, p, h):
    model, inputs, targets = random_case(rng, n=300, p=p, h=h)
    args = kernel_args(model, inputs, targets)
    res_jac, jac = kernels.residuals_and_jacobian(inputs, *args)
    res, grad = kernels.residuals_and_gradient(inputs, *args)
    np.testing.assert_array_equal(res, forward_residuals(model, inputs, targets))
    assert res is res_jac is args[0]
    expected = jac.T @ res
    assert grad.shape == (model.n_params,)
    assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("p, h", [(1, 6), (1, 13), (6, 9), (12, 25)])
@pytest.mark.parametrize("n", [300, 1598, 5000])
def test_activation_buffers_match_allocating_kernels(rng, n, p, h):
    # the kernels read the activations and the residuals and write neither
    model, inputs, targets = random_case(rng, n=n, p=p, h=h)
    args = (model.w1, model.b1, model.w2, model.b2)
    act = np.full((h, n), np.nan)
    out = kernels.forward_batch(inputs, *args, hidden_out=act)
    # the expression the kernels shared before the buffers existed
    np.testing.assert_array_equal(act, np.tanh(model.w1 @ inputs.T + model.b1[:, None]))
    np.testing.assert_array_equal(out, kernels.forward_batch(inputs, *args))
    r = mlp.residual_fns(model, inputs, targets)[0](mlp.flatten(model))
    np.testing.assert_array_equal(r, targets - out)

    kept, kept_r = act.copy(), r.copy()
    act.flags.writeable = r.flags.writeable = False     # a write would raise
    res, jac = kernels.residuals_and_jacobian(inputs, r, act, model.w2)
    res_g, _ = kernels.residuals_and_gradient(inputs, r, act, model.w2)
    np.testing.assert_array_equal(act, kept)
    np.testing.assert_array_equal(r, kept_r)
    assert res is res_g is r
    np.testing.assert_array_equal(jac[:, h * p + h: h * p + 2 * h], -kept.T)  # the w2 columns
    buffer = np.full(jac.shape, np.nan, order="F")
    res_b, jac_b = kernels.residuals_and_jacobian(inputs, r, act, model.w2, out=buffer)
    assert jac_b is buffer
    assert res_b is r
    np.testing.assert_array_equal(jac_b, jac)


@pytest.mark.parametrize("p, h", [(1, 6), (6, 9), (12, 25)])
@pytest.mark.parametrize("n", [300, 5000])
def test_gradient_scratch_matches_allocating_kernel(rng, n, p, h):
    model, inputs, targets = random_case(rng, n=n, p=p, h=h)
    args = kernel_args(model, inputs, targets)
    res, grad = kernels.residuals_and_gradient(inputs, *args)
    scratch = np.full((h, n), np.nan)
    res_s, grad_s = kernels.residuals_and_gradient(inputs, *args, scratch=scratch)
    assert res_s is res
    np.testing.assert_array_equal(grad_s, grad)
