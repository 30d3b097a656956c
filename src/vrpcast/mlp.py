"""The p -> h -> 1 feedforward network: representation, init, forward pass,
and the normal equations J'J, J'r of the analytic residual Jacobian J,
summed over row blocks, that the second-order trainers consume. A network
is its flat parameter vector, in the layout of `kernels.layers`."""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data_ingest import check_json, read_json, write_json
from .errors import DataFormatError

# Rows per Jacobian block of residual_fns: a fit's Jacobian buffer holds at
# most this many rows whatever the length of its training set. At n = 40 000
# (one BLAS thread) one J'J, J'r evaluation took about as long with 8192-row
# blocks and longer with 2048 (P = 73 and 351) or with one 40 000-row block.
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


def residual_fns(model: MlpModel, inputs, targets):
    """resid(theta), normal_eqs(theta) -> (J'J, J'r) and resid_grad(theta)
    -> (res, J'r) on one training set for flat vectors theta of `model`'s
    shape, J the residual Jacobian. The data are checked once and theta is
    read through views.

    The one place that computes a point's activations and residuals: resid
    runs the forward pass into `act`, one (h, n) buffer of the fit, and keeps
    the residuals `res` it returns and the bytes of its theta. normal_eqs and
    resid_grad hand the kernels `act` and `res`, and the kernels only
    differentiate; at a theta with other bytes they first run resid, so a
    miss refreshes both and an accepted trial step's derivatives reuse its
    forward pass. (Comparing bytes takes 0.1 us where np.array_equal took
    4 us at P = 19.)

    normal_eqs never holds J whole: it walks the rows in blocks of
    BLOCK_ROWS, writes each block's Jacobian into one buffer of
    min(n, BLOCK_ROWS) rows that serves the whole fit and sums the blocks'
    J'J and J'r, from each block's slice of `res`. With one block
    (n <= BLOCK_ROWS) the products are J.T @ J and J.T @ r of the whole
    Jacobian; with more they differ from those by rounding only. resid_grad
    back-propagates into one (h, n) scratch buffer of the fit, made at its
    first call, where the kernel would make a new array per call."""
    inputs = _check_inputs(model, inputs)
    targets = np.ascontiguousarray(targets, dtype=float)
    if targets.shape != (inputs.shape[0],):
        raise ValueError("targets length must match the number of input rows")
    p, h = model.input_dim, model.hidden_dim
    n, n_w = targets.size, model.n_params
    block = np.empty(min(n, BLOCK_ROWS) * n_w)
    act = np.empty((h, n))
    res = act_key = None    # residuals and bytes of the theta `act` holds
    grad_scratch = None
    # per block: its inputs, rows, activations and Jacobian view; an empty
    # training set gets one empty block
    blocks = []
    for lo in range(0, max(n, 1), BLOCK_ROWS):
        rows = slice(lo, min(lo + BLOCK_ROWS, n))
        m = rows.stop - lo
        blocks.append((inputs[rows], rows, act[:, rows],
                       block[: m * n_w].reshape(n_w, m).T))

    def resid(theta):
        nonlocal res, act_key
        out = kernels.forward_batch(inputs, *kernels.layers(theta, p, h), hidden_out=act)
        res, act_key = targets - out, theta.tobytes()
        return res

    def output_layer(theta):
        """w2 of theta, with `act` and `res` holding theta's activations and residuals."""
        if theta.tobytes() != act_key:
            resid(theta)
        return kernels.layers(theta, p, h)[2]

    def normal_eqs(theta):
        w2 = output_layer(theta)
        for i, (x, rows, a, jac) in enumerate(blocks):
            r, _ = kernels.residuals_and_jacobian(x, res[rows], a, w2, out=jac)
            if i == 0:
                jtj, jtr = jac.T @ jac, jac.T @ r
            else:
                jtj += jac.T @ jac
                jtr += jac.T @ r
        return jtj, jtr

    def resid_grad(theta):
        nonlocal grad_scratch
        if grad_scratch is None:
            grad_scratch = np.empty((h, n))
        w2 = output_layer(theta)
        return kernels.residuals_and_gradient(inputs, res, act, w2, scratch=grad_scratch)

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
