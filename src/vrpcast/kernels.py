"""Hot numeric kernels for the feedforward network, in vectorized numpy.

Parameter layout for the p -> h -> 1 network (tanh hidden, linear output):
w1 (h, p), b1 (h,), w2 (h,), b2 scalar. The flat ordering used by the
optimizers is w1 row-major, then b1, then w2, then b2.

Memory layout: hidden activations are (h, n), one contiguous row per hidden
unit. The Jacobian is built parameter-major, each parameter's derivatives a
contiguous row of a (P, n) buffer, and returned as its (n, P) transpose, an
F-contiguous view.
"""

import numpy as np

__all__ = ["forward_batch", "residuals_and_jacobian", "residuals_and_gradient"]


def _hidden(inputs, w1, b1):
    """tanh activations (h, n) of the rows of `inputs` (n, p)."""
    return np.tanh(w1 @ inputs.T + b1[:, None])


def forward_batch(inputs, w1, b1, w2, b2):
    """Network output for each row of `inputs` (n, p) -> (n,)."""
    return w2 @ _hidden(inputs, w1, b1) + b2


def residuals_and_jacobian(inputs, targets, w1, b1, w2, b2, out=None):
    """Residuals r_i = target_i - output_i and the analytic Jacobian
    dr_i/dtheta_j of shape (n, h*p + 2h + 1).

    The Jacobian is written into `out` when given (F-contiguous, that
    shape) and returned; otherwise a new F-ordered array is allocated."""
    n, p = inputs.shape
    h = w1.shape[0]
    a = _hidden(inputs, w1, b1)
    res = targets - (w2 @ a + b2)
    neg_s = (a * a - 1.0) * w2[:, None]        # (h, n), -d(out)/d(z_j)
    shape = (n, h * p + 2 * h + 1)
    if out is None:
        jac = np.empty(shape, order="F")
    elif out.shape != shape or not out.flags.f_contiguous:
        raise ValueError(f"out must be an F-contiguous {shape} array")
    else:
        jac = out
    rows = jac.T                               # (P, n), C-contiguous
    np.multiply(neg_s[:, None, :], inputs.T, out=rows[: h * p].reshape(h, p, n))
    rows[h * p : h * p + h] = neg_s
    np.negative(a, out=rows[h * p + h : h * p + 2 * h])
    rows[-1] = -1.0
    return res, jac


def residuals_and_gradient(inputs, targets, w1, b1, w2, b2):
    """Residuals as in residuals_and_jacobian and J'r, the gradient of half
    the sum of squared residuals, by back-propagation without the Jacobian."""
    a = _hidden(inputs, w1, b1)
    res = targets - (w2 @ a + b2)
    neg_s = (a * a - 1.0) * w2[:, None]
    return res, np.concatenate([
        ((neg_s * res) @ inputs).ravel(), neg_s @ res, -(a @ res), [-res.sum()]
    ])
