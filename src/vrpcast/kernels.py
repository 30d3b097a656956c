"""Hot numeric kernels for the feedforward network, in vectorized numpy.

The p -> h -> 1 network (tanh hidden, linear output) is one flat vector of
n_params(p, h) parameters: w1 (h, p) row-major, then b1 (h,), w2 (h,) and
b2. `layers` is the one statement of that order; it splits a parameter vector,
and the derivative kernels write a gradient and the Jacobian's (P, n) rows by it.

Memory layout: hidden activations are (h, n), one contiguous row per hidden
unit. The Jacobian is built parameter-major, each parameter's derivatives a
contiguous row of a (P, n) buffer, and returned as its (n, P) transpose, an
F-contiguous view.

Forward and derivatives: `forward_batch(..., hidden_out=a)` is the one
forward pass, into a C-contiguous (h, n) array `a` the caller owns, who forms
the residuals r, the targets minus the output, from its result. The residual
kernels only differentiate: they take `a` and `r`, read both and write neither.
"""

import numpy as np

__all__ = ["n_params", "layers", "forward_batch", "residuals_and_jacobian",
           "residuals_and_gradient"]


def n_params(p, h):
    """Length of the flat parameter vector of a p -> h -> 1 network."""
    return h * p + 2 * h + 1


def layers(x, p, h):
    """w1 (h, p, ...), b1 (h, ...), w2 (h, ...) and b2 (1, ...): views along
    the first axis of `x`, n_params(p, h) long."""
    return (x[: h * p].reshape(h, p, *x.shape[1:]), x[h * p : h * p + h],
            x[h * p + h : h * p + 2 * h], x[h * p + 2 * h :])


def _hidden(inputs, w1, b1, out=None):
    """tanh activations (h, n) of the rows of `inputs` (n, p), computed in
    place in `out` (C-contiguous (h, n)) when given, else in one new array."""
    z = np.dot(w1, inputs.T, out=out)
    z += b1[:, None]
    return np.tanh(z, out=z)


def forward_batch(inputs, w1, b1, w2, b2, hidden_out=None):
    """Network output for each row of `inputs` (n, p) -> (n,). The hidden
    activations are written into `hidden_out` when given."""
    return w2 @ _hidden(inputs, w1, b1, hidden_out) + b2


def residuals_and_jacobian(inputs, res, a, w2, out=None):
    """The residuals `res` (n,), returned as given, and their analytic
    Jacobian dr_i/dtheta_j of shape (n, n_params(p, h)) at the activations
    `a` (h, n) of `inputs` (n, p). The Jacobian does not depend on `res`.

    The Jacobian is written into `out` when given (F-contiguous, that
    shape) and returned; otherwise a new F-ordered array is allocated. No
    (h, n) array is made."""
    n, p = inputs.shape
    h = a.shape[0]
    shape = (n, n_params(p, h))
    if out is None:
        jac = np.empty(shape, order="F")
    elif out.shape != shape or not out.flags.f_contiguous:
        raise ValueError(f"out must be an F-contiguous {shape} array")
    else:
        jac = out
    # row groups of jac.T, C-contiguous (P, n); the b1 rows are -d(out)/d(z_j)
    d_w1, neg_s, d_w2, d_b2 = layers(jac.T, p, h)
    np.multiply(a, a, out=neg_s)
    neg_s -= 1.0
    neg_s *= w2[:, None]
    np.multiply(neg_s[:, None, :], inputs.T, out=d_w1)
    np.negative(a, out=d_w2)
    d_b2[:] = -1.0
    return res, jac


def residuals_and_gradient(inputs, res, a, w2, scratch=None):
    """The residuals `res` (n,), returned as given, and J'r, the gradient of
    half their sum of squares, back-propagated from the activations `a` (h, n)
    of `inputs` (n, p) without the Jacobian. The (h, n) terms are written into
    `scratch` (C-contiguous (h, n), overwritten) when given, else into one new
    array; the results are bit-identical."""
    p, h = inputs.shape[1], a.shape[0]
    neg_s = np.multiply(a, a, out=scratch)
    neg_s -= 1.0
    neg_s *= w2[:, None]
    grad = np.empty(n_params(p, h))
    g_w1, g_b1, g_w2, g_b2 = layers(grad, p, h)
    g_b1[:], g_w2[:], g_b2[:] = neg_s @ res, -(a @ res), -res.sum()
    neg_s *= res
    g_w1[:] = neg_s @ inputs
    return res, grad
