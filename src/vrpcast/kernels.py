"""Hot numeric kernels for the feedforward network, in vectorized numpy.

Parameter layout for the p -> h -> 1 network (tanh hidden, linear output):
w1 (h, p), b1 (h,), w2 (h,), b2 scalar. The flat ordering used by the
optimizers is w1 row-major, then b1, then w2, then b2.
"""

import numpy as np

__all__ = ["forward_batch", "residuals_and_jacobian"]


def forward_batch(inputs, w1, b1, w2, b2):
    """Network output for each row of `inputs` (n, p) -> (n,)."""
    a = np.tanh(inputs @ w1.T + b1)
    return a @ w2 + b2


def residuals_and_jacobian(inputs, targets, w1, b1, w2, b2, out=None):
    """Residuals r_i = target_i - output_i and the analytic Jacobian
    dr_i/dtheta_j of shape (n, h*p + 2h + 1).

    The Jacobian is written into `out` when given (C-contiguous, that
    shape) and returned; otherwise a new array is allocated."""
    n, p = inputs.shape
    h = w1.shape[0]
    a = np.tanh(inputs @ w1.T + b1)            # (n, h)
    res = targets - (a @ w2 + b2)
    neg_s = (a * a - 1.0) * w2                 # (n, h), -d(out)/d(z_j)
    shape = (n, h * p + 2 * h + 1)
    if out is None:
        jac = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {shape} array")
    else:
        jac = out
    np.multiply(neg_s[:, :, None], inputs[:, None, :],
                out=jac[:, : h * p].reshape(n, h, p))
    jac[:, h * p : h * p + h] = neg_s
    np.negative(a, out=jac[:, h * p + h : h * p + 2 * h])
    jac[:, -1] = -1.0
    return res, jac
