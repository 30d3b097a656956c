"""Time the network kernels.

For each problem size, reports the per-call wall time of the batch forward
pass, of the residual/Jacobian evaluation that allocates its Jacobian, of
the same evaluation writing into a reused F-ordered buffer, the same again
from hidden activations a forward pass already wrote (as an LM or BRNN fit
does at an accepted step), and of the residual/gradient evaluation by
back-propagation (as an SCG fit does), fresh, from those activations, and
from them into a reused scratch buffer (as mlp.residual_fns does), and one
evaluation of `mlp.residual_fns`'s J'J, J'r and residuals from
those activations, summed over mlp.BLOCK_ROWS-row blocks (what an LM or
BRNN fit pays per accepted step).

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 50]
"""

import argparse
import time

import numpy as np

from vrpcast import init, kernels, mlp

SIZES = [
    # (n_patterns, lag, hidden); lag 1 is what entropy selection picks on the
    # perfbench grid_search (2000 points) and long_series (50 000) series
    (1600, 1, 6),
    (40_000, 1, 9),
    (500, 6, 9),
    (5000, 6, 9),
    (5000, 12, 25),
    (50_000, 6, 9),
]


def per_call(fn, repeats):
    fn()  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    rng = np.random.default_rng(0)
    for n, p, h in SIZES:
        model = init(p, h, 1)
        inputs = rng.uniform(-1, 1, (n, p))
        targets = rng.normal(size=n)
        params = (model.w1, model.b1, model.w2, model.b2)
        buffer = np.empty((n, model.n_params), order="F")
        act = np.empty((h, n))
        kernels.forward_batch(inputs, *params, hidden_out=act)
        t_fwd = per_call(lambda: kernels.forward_batch(inputs, *params), args.repeats)
        t_jac = per_call(lambda: kernels.residuals_and_jacobian(inputs, targets, *params),
                         args.repeats)
        t_buf = per_call(lambda: kernels.residuals_and_jacobian(inputs, targets, *params,
                                                                out=buffer), args.repeats)
        t_reuse = per_call(lambda: kernels.residuals_and_jacobian(
            inputs, targets, *params, out=buffer, hidden=act), args.repeats)
        t_grad = per_call(lambda: kernels.residuals_and_gradient(inputs, targets, *params),
                          args.repeats)
        t_grad_reuse = per_call(lambda: kernels.residuals_and_gradient(
            inputs, targets, *params, hidden=act), args.repeats)
        scratch = np.empty((h, n))
        t_grad_scratch = per_call(lambda: kernels.residuals_and_gradient(
            inputs, targets, *params, hidden=act, scratch=scratch), args.repeats)
        resid, normal_eqs, _ = mlp.residual_fns(model, inputs, targets)
        theta = mlp.flatten(model)
        resid(theta)
        t_normal = per_call(lambda: normal_eqs(theta), args.repeats)
        print(f"n={n:6d} p={p:2d} h={h:2d}  forward {t_fwd * 1e3:8.3f} ms  "
              f"jacobian {t_jac * 1e3:8.3f} ms  jacobian(out=) {t_buf * 1e3:8.3f} ms  "
              f"jacobian(out=, hidden=) {t_reuse * 1e3:8.3f} ms  "
              f"gradient {t_grad * 1e3:8.3f} ms  gradient(hidden=) {t_grad_reuse * 1e3:8.3f} ms  "
              f"gradient(hidden=, scratch=) {t_grad_scratch * 1e3:8.3f} ms  "
              f"normal_eqs {t_normal * 1e3:8.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
