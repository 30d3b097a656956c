"""The p -> h -> 1 feedforward network: representation, init, forward pass
and the analytic residual Jacobian consumed by the second-order trainers."""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data_ingest import read_json, write_json
from .errors import DataFormatError


@dataclass(frozen=True)
class MlpModel:
    """tanh-hidden, linear-output network. Immutable after construction."""

    w1: np.ndarray = field(repr=False)   # (h, p)
    b1: np.ndarray = field(repr=False)   # (h,)
    w2: np.ndarray = field(repr=False)   # (h,)
    b2: float

    def __post_init__(self):
        for name in ("w1", "b1", "w2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        h, p = self.w1.shape
        if self.b1.shape != (h,) or self.w2.shape != (h,):
            raise ValueError("inconsistent layer shapes")
        if not (np.all(np.isfinite(self.w1)) and np.all(np.isfinite(self.b1))
                and np.all(np.isfinite(self.w2)) and np.isfinite(self.b2)):
            raise ValueError("parameters must be finite")

    @property
    def input_dim(self):
        return self.w1.shape[1]

    @property
    def hidden_dim(self):
        return self.w1.shape[0]

    @property
    def n_params(self):
        h, p = self.w1.shape
        return h * p + 2 * h + 1


def init(p: int, h: int, seed: int) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    if p < 1 or h < 1:
        raise ValueError("p and h must be >= 1")
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (p + h))
    r2 = np.sqrt(6.0 / (h + 1))
    return MlpModel(
        w1=rng.uniform(-r1, r1, size=(h, p)),
        b1=np.zeros(h),
        w2=rng.uniform(-r2, r2, size=h),
        b2=0.0,
    )


def flatten(model: MlpModel) -> np.ndarray:
    """Parameter vector in the fixed order w1 row-major, b1, w2, b2."""
    return np.concatenate(
        [model.w1.ravel(), model.b1, model.w2, [model.b2]]
    )


def _layers(theta, p: int, h: int):
    """(w1, b1, w2, b2) as views of the flat vector theta (b2 a scalar)."""
    return (theta[: h * p].reshape(h, p), theta[h * p : h * p + h],
            theta[h * p + h : h * p + 2 * h], theta[-1])


def unflatten(theta, p: int, h: int) -> MlpModel:
    theta = np.asarray(theta, dtype=float)
    expected = h * p + 2 * h + 1
    if theta.shape != (expected,):
        raise ValueError(f"expected {expected} parameters, got {theta.shape}")
    w1, b1, w2, b2 = _layers(theta, p, h)
    return MlpModel(w1=w1.copy(), b1=b1.copy(), w2=w2.copy(), b2=float(b2))


def forward(model: MlpModel, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_dim,):
        raise ValueError(f"expected input of length {model.input_dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    return float(
        kernels.forward_batch(x[None, :], model.w1, model.b1, model.w2, model.b2)[0]
    )


def forward_batch(model: MlpModel, inputs) -> np.ndarray:
    inputs = np.ascontiguousarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise ValueError("inputs must be (n, p)")
    return kernels.forward_batch(inputs, model.w1, model.b1, model.w2, model.b2)


def _check_xy(model: MlpModel, inputs, targets):
    inputs = np.ascontiguousarray(inputs, dtype=float)
    targets = np.ascontiguousarray(targets, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise ValueError("inputs must be (n, p)")
    if targets.shape != (inputs.shape[0],):
        raise ValueError("targets length must match the number of input rows")
    return inputs, targets


def batch_residuals_and_jacobian(model: MlpModel, inputs, targets):
    """residuals[i] = targets[i] - forward(inputs[i]) and d(residual)/d(theta)."""
    inputs, targets = _check_xy(model, inputs, targets)
    return kernels.residuals_and_jacobian(
        inputs, targets, model.w1, model.b1, model.w2, model.b2
    )


def residual_fns(model: MlpModel, inputs, targets):
    """resid(theta), resid_jac(theta) and resid_grad(theta) -> (res, J'r) on
    one training set for flat vectors theta of `model`'s shape. The data are
    checked once and theta is read through views.

    Two buffers serve the whole fit: every Jacobian is written into `jac`,
    and resid writes the hidden activations of its theta into `act` and keeps
    a copy of that theta. resid_jac and resid_grad reuse `act` when their
    theta equals the copy (np.array_equal), as at a trial step the optimizer
    then accepts; at any other theta they compute fresh activations and leave
    `act` as it was."""
    inputs, targets = _check_xy(model, inputs, targets)
    p, h = model.input_dim, model.hidden_dim
    jac = np.empty((targets.size, model.n_params), order="F")
    act = np.empty((h, targets.size))
    act_theta = None    # copy of the theta whose activations `act` holds

    def resid(theta):
        nonlocal act_theta
        out = kernels.forward_batch(inputs, *_layers(theta, p, h), hidden_out=act)
        act_theta = np.array(theta, dtype=float)
        return targets - out

    def activations(theta):
        if act_theta is not None and np.array_equal(theta, act_theta):
            return act
        return None

    def resid_jac(theta):
        return kernels.residuals_and_jacobian(
            inputs, targets, *_layers(theta, p, h), out=jac, hidden=activations(theta)
        )

    def resid_grad(theta):
        return kernels.residuals_and_gradient(
            inputs, targets, *_layers(theta, p, h), hidden=activations(theta)
        )

    return resid, resid_jac, resid_grad


SCHEMA_VERSION = 1
ACTIVATIONS = {"hidden_activation": "tanh", "output_activation": "linear"}


def to_dict(model: MlpModel, provenance: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        **ACTIVATIONS,
        "params": [float(v) for v in flatten(model)],
        "provenance": provenance or {},
    }


def from_dict(payload: dict) -> MlpModel:
    return unflatten(
        np.asarray(payload["params"], dtype=float),
        int(payload["input_dim"]),
        int(payload["hidden_dim"]),
    )


def save(model: MlpModel, path, provenance: dict | None = None) -> None:
    write_json(path, to_dict(model, provenance))


def load(path) -> tuple[MlpModel, dict]:
    """Model and provenance of a saved model. DataFormatError when the file
    does not hold a JSON object, the schema version is not SCHEMA_VERSION (a
    file without one is version 1), an activation is not the network's, or
    the provenance lag or forecast window does not match the input size."""
    payload = read_json(path)
    version = payload.get("schema_version", 1)
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported schema_version {version!r}, "
                              f"expected {SCHEMA_VERSION}")
    for key, expected in ACTIVATIONS.items():
        if payload.get(key, expected) != expected:
            raise DataFormatError(f"{path}: {key} is {payload[key]!r}, "
                                  f"only {expected!r} is supported")
    model, provenance = from_dict(payload), payload.get("provenance", {})
    p = model.input_dim
    lag = provenance.get("lag", p)
    n_window = len(provenance.get("last_window_residuals", range(p)))
    if (lag, n_window) != (p, p):
        raise DataFormatError(f"{path}: input_dim is {p}, but the provenance lag is "
                              f"{lag} and last_window_residuals has {n_window} values")
    return model, provenance
