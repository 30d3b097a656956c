"""Checks of the CLI's artifacts against computations made here, apart from
the package: a numpy forward pass of model.json with a normaliser fitted on
the training rows, a joint-histogram entropy profile, a KPSS statistic, and
properties the methods must have.  Every check raises CheckError on a
mismatch; nothing here imports vrpcast.
"""

import csv
import json
import math
import os

import numpy as np

RTOL = 1e-9
# Stated in README.md: every trainer's one-step test MSE lies within this band
# of the persistence forecast's.  Unregularised LM overfits the bursts: over
# 300 series of 5000 points capped at 50 epochs its ratio reached 1.39, and at
# 100 epochs 2.17 (at 3000 points, 20.3).
COMPARE_BAND = (0.5, 4.0)
ALGORITHMS = ("lm", "scg", "brnn")
KPSS_CRITICAL_5PCT = 0.463
# lag_select's stabilisation rule, restated from its documented constants
EPS_REL = 0.3
EPS_ABS = 0.005


class CheckError(Exception):
    """An artifact disagrees with the independent computation."""


class KnownFault(CheckError):
    """`evaluate` refits the normaliser on the evaluation series instead of
    using the model's saved one (ROADMAP item 5)."""


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc


def _close(what, got, want, rtol=RTOL, atol=0.0):
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        raise CheckError(f"{what}: reported {got!r} is not a finite number")
    if not abs(got - want) <= atol + rtol * abs(want):
        raise CheckError(f"{what}: reported {got!r}, recomputed {want!r}")


def read_values(path) -> np.ndarray:
    """Values column of a power-mode CSV written in timestamp order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(row[1]) for row in rows])


def windows(values, p, train_fraction):
    """Residual windows, next residuals, anchors and the train/test split."""
    resid = np.diff(values)
    n_patterns = resid.size - p
    inputs = np.stack([resid[k : k + n_patterns] for k in range(p)], axis=1)
    targets = resid[p:]
    anchors = values[p : p + n_patterns]
    split = min(max(int(math.floor(train_fraction * n_patterns + 0.5)), 1), n_patterns - 1)
    return inputs, targets, anchors, split


def network_output(params, p, h, inputs):
    """tanh-hidden, linear-output p -> h -> 1 network; params are w1
    row-major, b1, w2, b2."""
    params = np.asarray(params, dtype=float)
    w1 = params[: h * p].reshape(h, p)
    b1 = params[h * p : h * p + h]
    w2 = params[h * p + h : h * p + 2 * h]
    return np.tanh(inputs @ w1.T + b1) @ w2 + params[-1]


def training_norm(values, p, train_fraction):
    """Min and max of the residuals that the training rows touch."""
    _, _, _, split = windows(values, p, train_fraction)
    resid = np.diff(values)[: split + p]
    return float(resid.min()), float(resid.max())


def _test_mse(model, values, lo, hi):
    p, h = model["input_dim"], model["hidden_dim"]
    train_fraction = model["provenance"]["train_fraction"]
    inputs, targets, anchors, split = windows(values, p, train_fraction)
    scale = hi - lo
    out = network_output(model["params"], p, h, (inputs - lo) / scale)
    predicted = anchors + (out * scale + lo)
    actual = anchors + targets
    err = (actual - predicted)[split:]
    return float(err @ err) / err.size


def check_model(run_dir, values):
    """model.json against train_report.json and eval_report.json.

    Returns the model's test MSE over the persistence forecast's, with the
    model's lag and hidden size."""
    model = _load_json(os.path.join(run_dir, "model.json"))
    train_report = _load_json(os.path.join(run_dir, "train_report.json"))
    eval_report = _load_json(os.path.join(run_dir, "eval_report.json"))
    prov = model["provenance"]
    p, h = model["input_dim"], model["hidden_dim"]
    n_w = h * p + 2 * h + 1
    if prov["lag"] != p or prov["hidden"] != h or len(model["params"]) != n_w:
        raise CheckError(f"model.json shape: lag {prov['lag']}, hidden {prov['hidden']}, "
                         f"{len(model['params'])} params for a {p}-{h}-1 network")
    inputs, targets, _, split = windows(values, p, prov["train_fraction"])
    lo, hi = training_norm(values, p, prov["train_fraction"])
    out = network_output(model["params"], p, h, (inputs[:split] - lo) / (hi - lo))
    train_err = (targets[:split] - lo) / (hi - lo) - out
    _close("train_report e_d", train_report["e_d"], float(train_err @ train_err))
    test_mse = _test_mse(model, values, lo, hi)
    _close("eval_report test MSE", eval_report["test_stats"]["mean_squared_error"], test_mse)
    if prov["algorithm"] == "brnn":
        check_brnn(train_report, n_w)
    return {"ratio": test_mse / persistence_mse(values, p, prov["train_fraction"]),
            "lag": p, "hidden": h}


def persistence_mse(values, p, train_fraction):
    """Test MSE of predicting each value by the one before it, on the test
    rows of lag-p patterns."""
    _, targets, _, split = windows(values, p, train_fraction)
    err = targets[split:]
    return float(err @ err) / err.size


def check_brnn(train_report, n_w):
    """Bayesian regularisation: 0 < gamma <= n_w, alpha > 0, beta > 0."""
    gamma, alpha, beta = (train_report.get(k) for k in ("gamma_effective", "alpha", "beta"))
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (gamma, alpha, beta)):
        raise CheckError(f"BRNN hyperparameters not finite: {gamma!r}, {alpha!r}, {beta!r}")
    if not (0.0 < gamma <= n_w and alpha > 0.0 and beta > 0.0):
        raise CheckError(f"BRNN out of range: gamma {gamma} (n_w {n_w}), alpha {alpha}, beta {beta}")


def check_grid(run_dir, h_lo, h_hi, selected):
    """One grid entry per size and the selected size is the argmin of the
    training objective, ties to the smaller size."""
    table = _load_json(os.path.join(run_dir, "grid_search.json"))
    sizes = [entry["hidden"] for entry in table]
    if sorted(sizes) != list(range(h_lo, h_hi + 1)):
        raise CheckError(f"grid_search.json sizes {sizes}, expected {h_lo}..{h_hi}")
    usable = [e for e in table if e.get("objective") is not None]
    for entry in usable:
        if not (math.isfinite(entry["objective"]) and entry["objective"] >= 0.0):
            raise CheckError(f"grid_search.json objective {entry['objective']!r}")
    if not usable:
        raise CheckError("grid_search.json has no usable size")
    best = min(usable, key=lambda e: (e["objective"], e["hidden"]))["hidden"]
    if best != selected:
        raise CheckError(f"selected hidden size {selected}, grid argmin {best}")


def _entropy(counts):
    prob = counts[counts > 0] / counts.sum()
    return float(-(prob * np.log(prob)).sum())


def _bin_index(x, bins):
    # equal-width bins over [min, max]; the top edge belongs to the last bin
    edges = np.linspace(x.min(), x.max(), bins + 1)
    return np.minimum(np.searchsorted(edges, x, side="right") - 1, bins - 1)


def entropy_profile(resid, max_lag, bins):
    """Average of H(x) + H(y) - H(x, y) over shifts 1..p, for p = 1..max_lag."""
    pairwise = []
    for k in range(1, max_lag + 1):
        x, y = resid[k:], resid[:-k]
        joint = np.bincount(_bin_index(x, bins) * bins + _bin_index(y, bins),
                            minlength=bins * bins).reshape(bins, bins)
        pairwise.append(_entropy(joint.sum(axis=1)) + _entropy(joint.sum(axis=0))
                        - _entropy(joint.ravel()))
    return np.cumsum(pairwise) / np.arange(1, max_lag + 1)


def stabilised_lag(delta):
    """Smallest p whose later profile increments all stay below
    max(EPS_REL * largest increment up to p, EPS_ABS)."""
    steps = np.abs(np.diff(delta))
    for p in range(1, delta.size + 1):
        seen = float(steps[: p - 1].max()) if p > 1 else 0.0
        if np.all(steps[p - 1 :] < max(EPS_REL * seen, EPS_ABS)):
            return p
    return delta.size


def check_entropy_profile(run_dir, values, selected_lag, max_lag, bins, train_fraction):
    """entropy_profile.csv against a histogram computed here on the training
    prefix of the residuals, and the selected lag against the rule."""
    resid = np.diff(values)
    want = entropy_profile(resid[: int(math.floor(train_fraction * resid.size))], max_lag, bins)
    try:
        with open(os.path.join(run_dir, "entropy_profile.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        lags = [int(r[0]) for r in rows]
        got = [float(r[1]) for r in rows]
    except (OSError, ValueError, IndexError) as exc:
        raise CheckError(f"entropy_profile.csv: {exc}") from exc
    if lags != list(range(1, max_lag + 1)):
        raise CheckError(f"entropy_profile.csv lags {lags}")
    for lag, g, w in zip(lags, got, want):
        _close(f"entropy profile at lag {lag}", g, float(w), atol=1e-12)
    if stabilised_lag(want) != selected_lag:
        raise CheckError(f"selected lag {selected_lag}, profile stabilises at {stabilised_lag(want)}")


def kpss_statistic(x):
    """KPSS level statistic with a Bartlett long-run variance at
    truncation lag floor(4 (T/100)^(1/4))."""
    t_len = x.size
    e = x - x.mean()
    lag = int(math.floor(4.0 * (t_len / 100.0) ** 0.25))
    acov = np.array([e[j:] @ e[: t_len - j] for j in range(lag + 1)]) / t_len
    weights = 1.0 - np.arange(1, lag + 1) / (lag + 1.0)
    long_run = acov[0] + 2.0 * float(weights @ acov[1:])
    partial = np.cumsum(e)
    return float(partial @ partial) / (t_len * t_len * long_run), lag


def check_kpss(run_dir, values):
    """kpss.json for the raw series and its first differences."""
    payload = _load_json(os.path.join(run_dir, "kpss.json"))
    for key, x in (("raw", values), ("residuals", np.diff(values))):
        stat, lag = kpss_statistic(x)
        entry = payload[key]
        _close(f"kpss {key} statistic", entry["statistic"], stat)
        if entry["truncation_lag"] != lag or entry["reject_at_5pct"] != (stat > KPSS_CRITICAL_5PCT):
            raise CheckError(f"kpss {key}: lag {entry['truncation_lag']} / reject "
                             f"{entry['reject_at_5pct']}, expected {lag} / {stat > KPSS_CRITICAL_5PCT}")


def check_evaluate(eval_dir, model_path, values):
    """The reported test MSE must equal the MSE of the saved model with its
    saved normaliser.  Raises KnownFault when it equals the MSE with a
    normaliser refitted on the evaluation series instead."""
    model = _load_json(model_path)
    report = _load_json(os.path.join(eval_dir, "eval_report.json"))
    got = report["test_stats"]["mean_squared_error"]
    norm = model["provenance"]["norm"]
    try:
        _close("evaluate test MSE", got, _test_mse(model, values, norm["min"], norm["max"]))
    except CheckError as exc:
        refit = _test_mse(model, values, *training_norm(
            values, model["input_dim"], model["provenance"]["train_fraction"]))
        if math.isfinite(got) and abs(got - refit) <= RTOL * abs(refit):
            raise KnownFault(f"{exc} (equals the MSE with a normaliser refitted on "
                             "the evaluation series)") from exc
        raise


def check_compare(run_dir, values, lag, hidden, max_epochs, train_fraction):
    """comparison.json: every trainer present, no error, and each test MSE
    within COMPARE_BAND of the persistence MSE.  Returns the largest ratio."""
    result = _load_json(os.path.join(run_dir, "comparison.json"))
    if result["lag"] != lag or result["hidden"] != hidden:
        raise CheckError(f"comparison.json lag {result['lag']} hidden {result['hidden']}")
    if sorted(result["algorithms"]) != sorted(ALGORITHMS):
        raise CheckError(f"comparison.json algorithms {sorted(result['algorithms'])}")
    base = persistence_mse(values, lag, train_fraction)
    ratios = []
    for algorithm in ALGORITHMS:
        entry = result["algorithms"][algorithm]
        if "error" in entry:
            raise CheckError(f"{algorithm} failed: {entry['error']}")
        if not 0 <= entry["epochs_used"] <= max_epochs:
            raise CheckError(f"{algorithm} epochs_used {entry['epochs_used']}")
        mse = entry["test_stats"]["mean_squared_error"]
        if not (isinstance(mse, float) and math.isfinite(mse)):
            raise CheckError(f"{algorithm} test MSE {mse!r}")
        ratio = mse / base
        if not COMPARE_BAND[0] <= ratio <= COMPARE_BAND[1]:
            raise CheckError(f"{algorithm} test MSE is {ratio:.4f} x persistence, "
                             f"outside {COMPARE_BAND}")
        ratios.append(ratio)
    return max(ratios)
