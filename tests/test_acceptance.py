"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion NN] name: PASS|FAIL` line so the
suite output doubles as a release checklist. Run with `pytest -s` (or
read the captured output) to see the lines.
"""

import json

import numpy as np
import pytest

from vrpcast import (
    TrainConfig,
    cli,
    difference,
    entropy_profile,
    extract_patterns,
    generate_synthetic,
    grid_search_fit,
    init,
    kernels,
    kpss_level,
    mlp,
    paired_ttest,
    relative_entropy_pair,
    shannon_entropy,
    train,
    two_sample_ttest,
    undifference,
)
from vrpcast.data_ingest import save_csv
from vrpcast.errors import DegenerateDataError
from vrpcast.trainers import lm_least_squares, scg_minimize


def _verdict(number, name, ok):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# --------------------------------------------------------------------------
# 1. Analytic Jacobian vs central finite differences


def _fd_jacobian(model, inputs, targets, step=1e-6):
    theta = mlp.flatten(model)
    p, h = model.input_dim, model.hidden_dim

    def residuals(t):
        return targets - mlp.forward_batch(mlp.unflatten(t, p, h), inputs)

    jac = np.empty((inputs.shape[0], theta.size))
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += step
        down[j] -= step
        jac[:, j] = (residuals(up) - residuals(down)) / (2 * step)
    return jac


def test_criterion_01_jacobian_correctness():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        p = int(rng.integers(1, 8))
        h = int(rng.integers(1, 10))
        n = int(rng.integers(3, 25))
        model = init(p, h, int(rng.integers(0, 10_000)))
        inputs = rng.uniform(-1, 1, (n, p))
        targets = rng.normal(size=n)
        res = targets - mlp.forward_batch(model, inputs)
        _, jac = kernels.residuals_and_jacobian(inputs, res,
                                                kernels._hidden(inputs, model.w1, model.b1),
                                                model.w2)
        fd = _fd_jacobian(model, inputs, targets)
        tol = np.maximum(1e-6 * np.abs(fd), 1e-9)
        ok = ok and bool(np.all(np.abs(jac - fd) <= tol))
    _verdict(1, "jacobian-matches-finite-differences", ok)


# --------------------------------------------------------------------------
# 2. Differencing round-trip


def test_criterion_02_differencing_round_trip():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 5001))
        x = rng.normal(0, 1, n) * 10.0 ** rng.integers(-3, 9)
        diff = difference(x)
        back = undifference(diff.residuals, diff.anchor)
        rel = np.max(np.abs(back - x[1:])) / np.max(np.abs(x))
        ok = ok and bool(rel < 1e-12)
    _verdict(2, "differencing-round-trip", ok)


# --------------------------------------------------------------------------
# 3. Pattern-count identity


def test_criterion_03_pattern_count_identity():
    rng = np.random.default_rng(303)
    ok = True
    for n in range(3, 201):
        residuals = rng.normal(size=n - 1)
        for p in range(1, n - 2):
            patterns = extract_patterns(residuals, p, 0.8)
            ok = ok and patterns.n_patterns == n - 1 - p
        # one lag past the usable maximum must fail loudly, not misreport
        boundary_p = n - 2
        if boundary_p >= 1:
            try:
                extract_patterns(residuals, boundary_p, 0.8)
                ok = False
            except DegenerateDataError:
                pass
    # published counts: 4,713 observations -> 4,706 patterns at p = 6,
    # split 3,765 / 941 at fraction 0.8
    residuals = rng.normal(size=4712)
    patterns = extract_patterns(residuals, 6, 0.8)
    ok = ok and patterns.n_patterns == 4706
    ok = ok and patterns.split_index == 3765
    ok = ok and patterns.n_patterns - patterns.split_index == 941
    _verdict(3, "pattern-count-identity", ok)


# --------------------------------------------------------------------------
# 4. KPSS calibration


def test_criterion_04_kpss_calibration():
    keep_noise = keep_diff = reject_walk = 0
    for seed in range(100):
        noise = generate_synthetic({"kind": "white_noise", "n": 500}, seed)
        walk = generate_synthetic({"kind": "random_walk", "n": 500}, seed)
        keep_noise += not kpss_level(noise.values).reject_at_5pct
        reject_walk += kpss_level(walk.values).reject_at_5pct
        keep_diff += not kpss_level(np.diff(walk.values)).reject_at_5pct
    ok = keep_noise >= 95 and reject_walk >= 95 and keep_diff >= 95
    _verdict(4, "kpss-calibration", ok)


# --------------------------------------------------------------------------
# 5. Entropy estimator


def test_criterion_05_entropy_estimator():
    rng = np.random.default_rng(505)
    x = rng.normal(size=5000)
    ok = relative_entropy_pair(x, x, 16) == shannon_entropy(x, 16)
    u, v = rng.uniform(size=(2, 10_000))
    ok = ok and relative_entropy_pair(u, v, 16) < 0.05
    equal = np.repeat(np.arange(16.0), 8)
    ok = ok and abs(shannon_entropy(equal, 16) - np.log(16)) < 1e-12
    _verdict(5, "entropy-estimator", ok)


# --------------------------------------------------------------------------
# 6. Lag selection oracle on AR(6)


def test_criterion_06_lag_selection_oracle():
    spec = {"kind": "ar", "n": 5000, "phi": [0.2, 0.1, 0.05, 0.05, 0.1, 0.45]}
    hits = 0
    for seed in range(10):
        series = generate_synthetic(spec, seed)
        profile = entropy_profile(series.values, 12)
        hits += 5 <= profile.selected_lag <= 8
    _verdict(6, "lag-selection-oracle", hits >= 8)


# --------------------------------------------------------------------------
# 7. Trainer convergence


def test_criterion_07_trainer_convergence():
    rng = np.random.default_rng(707)
    # LM: linear least squares solved in one accepted step
    design = rng.normal(size=(30, 5))
    theta_star = rng.normal(size=5)
    targets = design @ theta_star

    def resid(theta):
        return targets - design @ theta

    def normal_eqs(theta):
        return design.T @ design, -design.T @ resid(theta)

    _, report = lm_least_squares(
        resid, normal_eqs, np.zeros(5), TrainConfig(algorithm="lm", mu_init=1e-12)
    )
    ok = len(report.epoch_trace) >= 2 and report.epoch_trace[1] < 1e-10

    # SCG: 50-dim convex quadratic
    a = rng.normal(size=(50, 50))
    a = a @ a.T + np.eye(50)
    b = rng.normal(size=50)
    x_star = np.linalg.solve(a, b)
    offset = 0.5 * x_star @ a @ x_star - b @ x_star
    _, trace, _, iters = scg_minimize(
        lambda x: 0.5 * x @ a @ x - b @ x - offset,
        lambda x: a @ x - b,
        np.zeros(50),
        max_iter=200,
        grad_tol=1e-10,
    )
    ok = ok and trace[-1] < 1e-10 and iters <= 200

    # both algorithms fit y = sin(2*pi*x)
    x = np.linspace(0.0, 1.0, 200)[:, None]
    y = np.sin(2 * np.pi * x[:, 0])
    m0 = init(1, 9, 0)
    for algo in ("lm", "scg"):
        _, rep = train(m0, (x, y), TrainConfig(algorithm=algo, max_epochs=1000))
        ok = ok and rep.e_d / y.size < 1e-4
    _verdict(7, "trainer-convergence", ok)


# --------------------------------------------------------------------------
# 8. Bayesian regularization: reduction to LM, held-out wins, gamma bounds


def _noisy_line(seed):
    rng = np.random.default_rng(seed)
    x_train = rng.uniform(0, 1, (30, 1))
    y_train = 2 * x_train[:, 0] + rng.normal(0, 0.1, 30)
    x_test = rng.uniform(0, 1, (200, 1))
    y_test = 2 * x_test[:, 0] + rng.normal(0, 0.1, 200)
    return x_train, y_train, x_test, y_test


def test_criterion_08_brnn_reduction_and_regularization():
    x = np.linspace(0.0, 1.0, 100)[:, None]
    y = np.sin(2 * np.pi * x[:, 0])
    m0 = init(1, 9, 1)
    m_lm, r_lm = train(m0, (x, y), TrainConfig(algorithm="lm", max_epochs=60))
    m_br, r_br = train(
        m0, (x, y), TrainConfig(algorithm="brnn", max_epochs=60, fixed_alpha=0.0)
    )
    ok = np.max(np.abs(mlp.flatten(m_lm) - mlp.flatten(m_br))) < 1e-10
    ok = ok and np.allclose(r_lm.epoch_trace, r_br.epoch_trace, rtol=1e-10)

    wins = 0
    for seed in range(10):
        x_train, y_train, x_test, y_test = _noisy_line(seed)
        m0 = init(1, 9, seed)
        m_lm, _ = train(m0, (x_train, y_train), TrainConfig(algorithm="lm"))
        m_br, report = train(
            m0, (x_train, y_train), TrainConfig(algorithm="brnn")
        )
        mse_lm = float(np.mean((y_test - mlp.forward_batch(m_lm, x_test)) ** 2))
        mse_br = float(np.mean((y_test - mlp.forward_batch(m_br, x_test)) ** 2))
        wins += mse_br < mse_lm
        # training is deterministic, so truncated reruns expose the
        # per-epoch gamma values of the full run
        n_w = m0.n_params
        checkpoints = sorted(set(
            list(range(1, 11))
            + list(np.geomspace(11, max(report.epochs_used, 11), 12).astype(int))
        ))
        for epochs in checkpoints:
            _, partial = train(
                m0, (x_train, y_train),
                TrainConfig(algorithm="brnn", max_epochs=int(epochs)),
            )
            ok = ok and 0.0 <= partial.gamma_effective <= n_w
    ok = ok and wins >= 8
    _verdict(8, "brnn-reduction-and-regularization", ok)


# --------------------------------------------------------------------------
# 9. Algorithm ranking on the noisy teacher task


def test_criterion_09_algorithm_ranking():
    teacher = init(6, 4, 77)
    mse = {"lm": [], "scg": [], "brnn": []}
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(0, 1, (700, 6))
        signal = mlp.forward_batch(teacher, x)
        y = signal + rng.normal(0, 0.2 * signal.std(), 700)
        x_train, y_train = x[:200], y[:200]
        x_test, y_test = x[200:], y[200:]
        m0 = init(6, 9, seed)
        for algo in ("lm", "scg", "brnn"):
            model, _ = train(
                m0, (x_train, y_train),
                TrainConfig(algorithm=algo, max_epochs=500),
            )
            err = y_test - mlp.forward_batch(model, x_test)
            mse[algo].append(float(np.mean(err**2)))
    medians = {algo: float(np.median(v)) for algo, v in mse.items()}
    ok = medians["brnn"] <= medians["lm"] and medians["brnn"] <= medians["scg"]
    print(f"  median test MSE: {medians}")
    _verdict(9, "algorithm-ranking", ok)


# --------------------------------------------------------------------------
# 10. End-to-end determinism of `compare`


def test_criterion_10_end_to_end_determinism(tmp_path):
    series = generate_synthetic({"kind": "persistence_bursts", "n": 1200}, 17)
    csv = tmp_path / "series.csv"
    save_csv(series, str(csv))
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main([
            "compare", "--input", str(csv), "--lag", "4", "--hidden", "5",
            "--algo", "brnn", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        payloads.append((out / "comparison.json").read_bytes())
    _verdict(10, "end-to-end-determinism", payloads[0] == payloads[1])


# --------------------------------------------------------------------------
# 11. Statistical tests: identities and type-I calibration


def test_criterion_11_statistical_tests():
    rng = np.random.default_rng(1111)
    a = rng.normal(size=50)
    paired = paired_ttest(a, a.copy())
    welch = two_sample_ttest(a, a.copy())
    ok = paired.t_statistic == 0.0 and paired.p_value == 1.0
    ok = ok and welch.t_statistic == 0.0 and welch.p_value == 1.0

    false_positives = 0
    for seed in range(1000):
        r = np.random.default_rng(seed)
        x = r.normal(size=40)
        y = r.normal(size=40)
        false_positives += two_sample_ttest(x, y).p_value < 0.05
    rate = false_positives / 1000.0
    ok = ok and 0.03 <= rate <= 0.07
    print(f"  type-I error rate at nominal 5%: {rate:.3f}")
    _verdict(11, "statistical-tests", ok)


# --------------------------------------------------------------------------
# 12. Hidden-node grid search


def test_criterion_12_grid_search():
    rng = np.random.default_rng(1212)
    # full sweep emits one entry per size in [2, 25]
    x = rng.uniform(0, 1, (60, 2))
    y = np.sin(3 * x[:, 0]) + rng.normal(0, 0.05, 60)
    _, table = grid_search_fit(
        (x, y), range(2, 26), TrainConfig(algorithm="lm", max_epochs=15), seed=0
    )[:2]
    ok = len(table) == 24 and [r.hidden for r in table] == list(range(2, 26))

    # teacher with 4 hidden nodes: selected size lands near the truth
    r5 = np.random.default_rng(5)
    teacher = init(6, 4, 77)
    xt = r5.uniform(0, 1, (200, 6))
    signal = mlp.forward_batch(teacher, xt)
    yt = signal + r5.normal(0, 0.2 * signal.std(), 200)
    best, _ = grid_search_fit(
        (xt, yt), range(2, 10), TrainConfig(algorithm="brnn", max_epochs=150), seed=3
    )[:2]
    ok = ok and 3 <= best <= 8

    # degenerate data: every size reaches the same objective, tie -> smallest
    xz = rng.uniform(0, 1, (40, 2))
    best_tie, _ = grid_search_fit(
        (xz, np.zeros(40)), range(2, 7),
        TrainConfig(algorithm="lm", max_epochs=30), seed=0,
    )[:2]
    ok = ok and best_tie == 2
    _verdict(12, "grid-search", ok)
