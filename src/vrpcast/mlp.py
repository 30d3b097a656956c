"""The p -> h -> 1 feedforward network: representation, init, forward pass,
and the normal equations J'J, J'r of the analytic residual Jacobian J,
summed over row blocks in block order, that the second-order trainers
consume, and the package's one rule for sharing the CPUs: split_runs cuts
work into runs, in_runs runs them on threads, and inside a run split_runs
makes one, so runs never nest. A network is its flat parameter vector, in
the layout of `kernels.layers`."""

import contextvars
import os
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data_ingest import check_json, read_json, write_json
from .errors import DataFormatError

# Rows per block of residual_fns: a fit's Jacobian buffers hold at most this
# many rows each whatever the length of its training set. At n = 40 000 (one
# BLAS thread) one J'J, J'r evaluation took about as long with 8192-row
# blocks and longer with 2048 (P = 73 and 351) or with one 40 000-row block.
# A fit of more than one block splits its blocks into runs (split_runs), each
# on its own thread; a fit of one block runs inline on the calling thread.
BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class MlpModel:
    """tanh-hidden, linear-output network of layer sizes p = input_dim and
    h = hidden_dim, held as one read-only float copy of its flat parameter
    vector `params`, kernels.n_params(p, h) long. w1 (h, p), b1 (h,) and
    w2 (h,) are views of `params` through kernels.layers, and b2 a float.
    Immutable after construction. Two models are equal, and hash equal, when
    their sizes and the bytes of their parameters are (so 0.0 and -0.0
    differ)."""

    params: np.ndarray = field(repr=False)
    input_dim: int
    hidden_dim: int

    def __post_init__(self):
        params = np.array(self.params, dtype=float)
        expected = kernels.n_params(self.input_dim, self.hidden_dim)
        if params.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        params.flags.writeable = False
        w1, b1, w2, b2 = kernels.layers(params, self.input_dim, self.hidden_dim)
        for name, value in zip(("params", "w1", "b1", "w2", "b2"),
                               (params, w1, b1, w2, float(b2[0]))):
            object.__setattr__(self, name, value)

    def _key(self):
        return self.input_dim, self.hidden_dim, self.params.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, MlpModel) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def n_params(self):
        return self.params.size


def init(p: int, h: int, seed: int) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    if p < 1 or h < 1:
        raise ValueError("p and h must be >= 1")
    rng = np.random.default_rng(seed)
    theta = np.zeros(kernels.n_params(p, h))
    w1, _, w2, _ = kernels.layers(theta, p, h)
    r1, r2 = np.sqrt(6.0 / (p + h)), np.sqrt(6.0 / (h + 1))
    w1[:] = rng.uniform(-r1, r1, size=(h, p))
    w2[:] = rng.uniform(-r2, r2, size=h)
    return MlpModel(theta, p, h)


def flatten(model: MlpModel) -> np.ndarray:
    """A writable copy of the model's flat parameter vector."""
    return model.params.copy()


def unflatten(theta, p: int, h: int) -> MlpModel:
    """The p -> h -> 1 model of the flat parameter vector theta."""
    return MlpModel(theta, p, h)


def _check_inputs(model: MlpModel, inputs):
    inputs = np.ascontiguousarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise ValueError("inputs must be (n, p)")
    return inputs


def forward_batch(model: MlpModel, inputs) -> np.ndarray:
    return kernels.forward_batch(_check_inputs(model, inputs),
                                 model.w1, model.b1, model.w2, model.b2)


_pool = None    # the threads of the runs after the first, made at the first in_runs of two runs


# The variables by which OpenBLAS, MKL and OpenMP set the threads of one BLAS
# call, in the order OpenBLAS reads them. Where none holds a positive number a
# BLAS call may use every CPU, and runs on threads of their own contend with
# its threads: on 2 CPUs that made 40 000-row fits up to 25 % slower than one run.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def free_cpus():
    """K, the package's one CPU rule: the CPUs this process may use over the
    threads of one BLAS call (every CPU unless _BLAS_THREAD_VARS say), >= 1."""
    cpus = blas = _cpus()
    for name in _BLAS_THREAD_VARS:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cpus // blas)


# True inside the runs of an in_runs call of two or more runs
_IN_RUN = contextvars.ContextVar("vrpcast_in_run", default=False)


def split_runs(items):
    """items in W contiguous runs whose lengths differ by at most one: W is
    free_cpus(), at most len(items), and 1 inside a run of in_runs."""
    n_runs = 1 if _IN_RUN.get() else min(len(items), free_cpus())
    bounds = [len(items) * i // n_runs for i in range(n_runs + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _forget_pool():
    global _pool
    _pool = None


# a forked child has none of its parent's threads, so it makes its own pool
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_run(fn, run, *args):
    _IN_RUN.set(True)
    return fn(run, *args)


def in_runs(fn, runs, *args):
    """The lists fn(run, *args) of the runs, joined in run order. One run
    runs inline; with more, the first runs on the calling thread and the
    others on the package's one pool, each in a copy of the caller's context
    (numpy's error state is a context variable) in which split_runs makes
    one run, so no run fills the pool it would wait on. Returns once every
    run has ended, also when one raised."""
    if len(runs) == 1:
        return fn(runs[0], *args)
    global _pool
    if _pool is None:
        # imported here: a process that never runs two runs does not pay for it
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(thread_name_prefix="vrpcast-runs")
    futures = [_pool.submit(contextvars.copy_context().run, _in_run, fn, run, *args)
               for run in runs[1:]]
    try:
        first = contextvars.copy_context().run(_in_run, fn, runs[0], *args)
    finally:
        for future in futures:
            future.exception()     # waits: the next call reuses the runs' buffers
    return first + [item for future in futures for item in future.result()]


class _Run:
    """A contiguous run of a fit's row blocks and the buffers it alone
    writes: the (h, rows) activations `act` of its rows `x`, and one work
    buffer, which holds a block's Jacobian or its gradient scratch. `blocks`
    holds each block's inputs, rows of the fit, view of `act`, and Jacobian
    and scratch views of the work buffer. The fit's first run (`first`)
    starts the block-order sums, so it may add up its own blocks as it goes."""

    def __init__(self, inputs, h, n_w, block_rows):
        lo = block_rows[0].start
        self.first = lo == 0
        self.x = inputs[lo : block_rows[-1].stop]
        self.act = np.empty((h, self.x.shape[0]))
        work = np.empty((block_rows[0].stop - lo) * n_w)
        self.blocks = []
        for rows in block_rows:
            m = rows.stop - rows.start
            self.blocks.append((inputs[rows], rows, self.act[:, rows.start - lo : rows.stop - lo],
                                work[: m * n_w].reshape(n_w, m).T, work[: h * m].reshape(h, m)))


def _forward(run, w):
    return [kernels.forward_batch(run.x, *w, hidden_out=run.act)]


def _block_normal_eqs(run, res, w2):
    """(J'J, J'r) of each block of the run; the first run's blocks summed in
    block order, as one item."""
    products = []
    for x, rows, a, jac, _ in run.blocks:
        r, _ = kernels.residuals_and_jacobian(x, res[rows], a, w2, out=jac)
        if run.first and products:
            jtj, jtr = products[0]
            jtj += jac.T @ jac
            jtr += jac.T @ r
        else:
            products.append((jac.T @ jac, jac.T @ r))
    return products


def _block_gradients(run, res, w2):
    """J'r of each block of the run, back-propagated."""
    return [kernels.residuals_and_gradient(x, res[rows], a, w2, scratch=scratch)[1]
            for x, rows, a, _, scratch in run.blocks]


def residual_fns(model: MlpModel, inputs, targets):
    """resid(theta), normal_eqs(theta) -> (J'J, J'r) and resid_grad(theta)
    -> (res, J'r) on one training set for flat vectors theta of `model`'s
    shape, J the residual Jacobian. The data are checked once and theta is
    read through views.

    The rows are walked in blocks of BLOCK_ROWS (an empty training set is
    one empty block), split into the W contiguous runs of split_runs
    (_Run). With W > 1 the first run goes on the calling thread and the
    others on the module's pool (in_runs); with one run, as in every fit of
    at most BLOCK_ROWS rows and every fit inside a run, all goes inline.

    The one place that computes a point's activations and residuals: resid
    runs one forward pass per run into the run's activations, and keeps the
    residuals `res` it returns and the bytes of its theta. normal_eqs and
    resid_grad hand the kernels those activations and slices of `res`, and
    the kernels only differentiate; at a theta with other bytes they first
    run resid, so a miss refreshes both and an accepted trial step's
    derivatives reuse its forward pass. (Comparing bytes takes 0.1 us where
    np.array_equal took 4 us at P = 19.)

    normal_eqs never holds J whole: each run writes a block's Jacobian into
    its work buffer and returns each block's J'J and J'r (the first run, where
    the sums start, their running sum); resid_grad's runs return each
    block's back-propagated J'r. The caller sums them in block order, so no
    result depends on W. With one block the products are J.T @ J and
    J.T @ r of the whole Jacobian, and the gradient that of all rows at
    once; with more they differ from those by rounding only."""
    inputs = _check_inputs(model, inputs)
    targets = np.ascontiguousarray(targets, dtype=float)
    if targets.shape != (inputs.shape[0],):
        raise ValueError("targets length must match the number of input rows")
    p, h = model.input_dim, model.hidden_dim
    n = targets.size
    block_rows = [slice(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, max(n, 1), BLOCK_ROWS)]
    runs = [_Run(inputs, h, model.n_params, rows)
            for rows in split_runs(block_rows)]
    res = act_key = None    # residuals and bytes of the theta the runs' activations hold

    def resid(theta):
        nonlocal res, act_key
        outs = in_runs(_forward, runs, kernels.layers(theta, p, h))
        res = targets - (outs[0] if len(outs) == 1 else np.concatenate(outs))
        act_key = theta.tobytes()
        return res

    def output_layer(theta):
        """w2 of theta, with the runs and `res` holding theta's activations and residuals."""
        if theta.tobytes() != act_key:
            resid(theta)
        return kernels.layers(theta, p, h)[2]

    def normal_eqs(theta):
        w2 = output_layer(theta)
        blocks = in_runs(_block_normal_eqs, runs, res, w2)
        jtj, jtr = blocks[0]
        for block_jtj, block_jtr in blocks[1:]:
            jtj += block_jtj
            jtr += block_jtr
        return jtj, jtr

    def resid_grad(theta):
        w2 = output_layer(theta)
        grads = in_runs(_block_gradients, runs, res, w2)
        for grad in grads[1:]:
            grads[0] += grad
        return res, grads[0]

    return resid, normal_eqs, resid_grad


SCHEMA_VERSION = 1
ACTIVATIONS = {"hidden_activation": "tanh", "output_activation": "linear"}

# The model.json keys load reads, by their JSON_TYPES type. The provenance is
# the pipeline's to check.
_MODEL_TYPES = {"input_dim": int, "hidden_dim": int, "params": list, "provenance": dict}


def save(model: MlpModel, path, provenance: dict | None = None) -> None:
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        **ACTIVATIONS,
        "params": model.params.tolist(),
        "provenance": provenance or {},
    })


def load(path) -> tuple[MlpModel, dict]:
    """Model and provenance, as read, of a saved model. DataFormatError,
    naming the file, when the file does not hold a JSON object, the schema
    version is not SCHEMA_VERSION (a file without one is version 1), an
    activation is not the network's, a key of _MODEL_TYPES is missing or of
    another type, a layer size is below 1, or the parameters do not fit the
    layer sizes."""
    payload = read_json(path)
    version = payload.get("schema_version", 1)
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported schema_version {version!r}, "
                              f"expected {SCHEMA_VERSION}")
    for key, expected in ACTIVATIONS.items():
        if payload.get(key, expected) != expected:
            raise DataFormatError(f"{path}: {key} is {payload[key]!r}, "
                                  f"only {expected!r} is supported")
    check_json(path, payload, _MODEL_TYPES, ("input_dim", "hidden_dim", "params"),
               closed=False)
    for key in ("input_dim", "hidden_dim"):
        if payload[key] < 1:
            raise DataFormatError(f"{path} key {key!r} must be at least 1, got {payload[key]!r}")
    try:
        model = MlpModel(payload["params"], payload["input_dim"], payload["hidden_dim"])
    except ValueError as exc:
        raise DataFormatError(f"{path} key 'params': {exc}") from exc
    return model, payload.get("provenance", {})
