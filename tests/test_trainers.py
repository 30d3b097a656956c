import json
import os
import signal
import threading
import time
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from vrpcast import (
    TrainConfig,
    grid_search_fit,
    init,
    train,
)
from vrpcast import generate_synthetic, kernels, mlp, series_ops, trainers
from vrpcast.errors import TrainingError
from vrpcast.trainers import lm_least_squares, scg_minimize


def sin_task(n=200):
    x = np.linspace(0.0, 1.0, n)[:, None]
    return x, np.sin(2 * np.pi * x[:, 0])


@pytest.fixture(scope="module")
def bursts():
    """Lag-1 patterns of the 2000-point persistence_bursts series of seed 7,
    the lag the pipeline selects on it."""
    series = generate_synthetic({"kind": "persistence_bursts", "n": 2000}, 7)
    return series_ops.extract_patterns(series_ops.difference(series).residuals, 1, 0.8)


def linear_problem(rng, n=30, k=5):
    design = rng.normal(size=(n, k))
    theta_star = rng.normal(size=k)
    targets = design @ theta_star

    def resid(theta):
        return targets - design @ theta

    def normal_eqs(theta):
        return design.T @ design, -design.T @ resid(theta)

    return resid, normal_eqs, k


@pytest.mark.parametrize("max_epochs", [0, -5])
def test_config_rejects_max_epochs_below_one(max_epochs):
    with pytest.raises(ValueError, match="max_epochs must be at least 1"):
        TrainConfig(max_epochs=max_epochs)


@pytest.mark.parametrize("algorithm", ["lm", "scg"])
def test_config_rejects_fixed_alpha_outside_brnn(algorithm):
    with pytest.raises(ValueError, match="fixed_alpha"):
        TrainConfig(algorithm=algorithm, fixed_alpha=0.0)


class TestEngineSelector:
    """lm_least_squares runs BRNN only under a brnn config."""

    def test_scg_config_is_rejected(self, rng):
        resid, normal_eqs, k = linear_problem(rng)
        with pytest.raises(ValueError, match="not scg"):
            lm_least_squares(resid, normal_eqs, np.zeros(k), TrainConfig(algorithm="scg"))

    def test_lm_config_has_no_bayes_trace(self, rng):
        resid, normal_eqs, k = linear_problem(rng)
        _, report = lm_least_squares(resid, normal_eqs, np.zeros(k),
                                     TrainConfig(algorithm="lm", max_epochs=5))
        assert report.bayes_trace is None
        assert (report.alpha, report.beta, report.gamma_effective) == (None, None, None)

    def test_pinned_brnn_has_a_constant_bayes_trace(self, rng):
        resid, normal_eqs, k = linear_problem(rng)
        _, report = lm_least_squares(resid, normal_eqs, np.zeros(k),
                                     TrainConfig(algorithm="brnn", max_epochs=5,
                                                 fixed_alpha=0.25))
        trace = report.bayes_trace
        assert len(trace.alpha) == len(report.epoch_trace) > 1
        assert set(trace.alpha) == {0.25}
        assert set(trace.beta) == {1.0}
        assert set(trace.gamma) == {float(k)}


class TestLm:
    def test_linear_exact_in_one_accepted_step(self, rng):
        resid, normal_eqs, k = linear_problem(rng)
        cfg = TrainConfig(algorithm="lm", mu_init=1e-12)
        _, report = lm_least_squares(resid, normal_eqs, np.zeros(k), cfg)
        assert report.epoch_trace[1] < 1e-10

    def test_sin_fit(self):
        x, y = sin_task()
        model, report = train(init(1, 9, 0), (x, y), TrainConfig(algorithm="lm"))
        assert report.e_d / y.size < 1e-4

    def test_accepted_trace_non_increasing(self, rng):
        x = rng.uniform(0, 1, (50, 3))
        y = rng.normal(size=50)
        _, report = train(init(3, 4, 1), (x, y),
                          TrainConfig(algorithm="lm", max_epochs=50))
        trace = np.array(report.epoch_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_deterministic(self, rng):
        x = rng.uniform(0, 1, (40, 2))
        y = rng.normal(size=40)
        cfg = TrainConfig(algorithm="lm", max_epochs=30)
        m1, r1 = train(init(2, 3, 5), (x, y), cfg)
        m2, r2 = train(init(2, 3, 5), (x, y), cfg)
        np.testing.assert_array_equal(mlp.flatten(m1), mlp.flatten(m2))
        assert r1.epoch_trace == r2.epoch_trace


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_scg_gradients(monkeypatch):
    """Make trainers.scg_minimize count its gradient calls in the returned list."""
    gradients = []
    scg = trainers.scg_minimize

    def counting_scg(f, grad, x0, **kwargs):
        def counted_grad(theta):
            gradients.append(1)
            return grad(theta)
        return scg(f, counted_grad, x0, **kwargs)

    monkeypatch.setattr(trainers, "scg_minimize", counting_scg)
    return gradients


def kernel_args(inputs, targets, theta, p, h):
    """(res, a, w2) of the flat vector theta, the residual kernels' arguments
    after the inputs, computed apart from mlp.residual_fns."""
    w1, b1, w2, b2 = kernels.layers(theta, p, h)
    a = kernels._hidden(inputs, w1, b1)
    return targets - (w2 @ a + b2), a, w2


class TestEngine:
    @pytest.mark.parametrize("algorithm", ["lm", "brnn"])
    def test_one_jacobian_per_accepted_step(self, monkeypatch, algorithm):
        x, y = sin_task(100)
        jacobians = count_calls(monkeypatch, kernels, "residuals_and_jacobian")
        _, report = train(init(1, 6, 4), (x, y),
                          TrainConfig(algorithm=algorithm, max_epochs=40))
        accepted = len(report.epoch_trace) - 1
        assert accepted > 5
        # a validation stop skips the Jacobian of the last point, which nothing uses
        assert len(jacobians) == accepted + (report.stop_reason != "validation")

    def test_scg_gradients_skip_the_jacobian(self, monkeypatch):
        x, y = sin_task(100)
        jacobians = count_calls(monkeypatch, kernels, "residuals_and_jacobian")
        backprops = count_calls(monkeypatch, kernels, "residuals_and_gradient")
        gradients = []
        scg = trainers.scg_minimize

        def counting_scg(f, grad, x0, **kwargs):
            def counted_grad(theta):
                gradients.append(1)
                return grad(theta)
            return scg(f, counted_grad, x0, **kwargs)

        monkeypatch.setattr(trainers, "scg_minimize", counting_scg)
        _, report = train(init(1, 6, 4), (x, y),
                          TrainConfig(algorithm="scg", max_epochs=40))
        assert report.epochs_used > 5
        assert len(jacobians) == 0
        assert len(backprops) == len(gradients)

    def test_eigenbasis_step_matches_damped_solve(self, rng):
        n, k = 40, 6
        design = rng.normal(size=(n, k))
        targets = rng.normal(size=n)

        def resid(theta):
            return targets - design @ theta

        def normal_eqs(theta):
            return design.T @ design, -design.T @ resid(theta)

        theta0 = rng.normal(size=k)
        alpha, mu = 0.3, 0.05
        cfg = TrainConfig(algorithm="brnn", max_epochs=1, mu_init=mu, fixed_alpha=alpha)
        theta, report = lm_least_squares(resid, normal_eqs, theta0, cfg)
        assert len(report.epoch_trace) == 2  # the step was accepted
        jtj, jtr = normal_eqs(theta0)
        lhs = jtj + (mu + alpha) * np.eye(k)       # beta = 1
        step = np.linalg.solve(lhs, -(jtr + alpha * theta0))
        np.testing.assert_allclose(theta, theta0 + step, rtol=0, atol=1e-10)

    def test_non_finite_trial_is_rejected(self):
        # J'J = 0 and alpha = -mu_init: the first trial divides by zero and
        # must count as a rejected step; the retry at mu = 10 is accepted
        def resid(theta):
            return np.ones(1)

        def normal_eqs(theta):
            return np.zeros((1, 1)), np.zeros(1)

        cfg = TrainConfig(algorithm="brnn", max_epochs=1, mu_init=1.0, fixed_alpha=-1.0)
        theta, report = lm_least_squares(resid, normal_eqs, np.ones(1), cfg)
        assert len(report.epoch_trace) == 2
        np.testing.assert_allclose(theta, [1.0 + 1.0 / 9.0], rtol=1e-15)

    @pytest.mark.parametrize("config", [
        TrainConfig(algorithm="lm", max_epochs=40),
        TrainConfig(algorithm="brnn", max_epochs=40, fixed_alpha=0.0),
        TrainConfig(algorithm="brnn", max_epochs=40),
    ], ids=["lm", "pinned-brnn", "brnn"])
    def test_one_solve_per_trial_and_eigenvalues_for_gamma_only(self, monkeypatch, config):
        x, y = sin_task(100)
        model = init(1, 6, 4)
        resid, normal_eqs, _ = mlp.residual_fns(model, x, y)
        points, jacobians = [], []

        def counted(calls, fn):
            def call(theta):
                calls.append(1)
                return fn(theta)
            return call

        linalg = {name: count_calls(monkeypatch, np.linalg, name)
                  for name in ("solve", "eigh", "eigvalsh")}
        _, report = lm_least_squares(counted(points, resid), counted(jacobians, normal_eqs),
                                     mlp.flatten(model), config)
        accepted = len(report.epoch_trace) - 1
        assert accepted > 5
        # every trial step here is finite, so resid evaluates each one
        assert len(linalg["solve"]) == len(points) - 1 > accepted
        assert len(linalg["eigh"]) == 0
        # gamma is re-estimated at each accepted point, from its J'J
        assert len(jacobians) == accepted + 1
        assert len(linalg["eigvalsh"]) == (accepted if config.reestimates_alpha else 0)

    @pytest.mark.parametrize("algorithm", ["lm", "brnn"])
    def test_normal_eqs_come_where_resid_evaluated_last(self, algorithm):
        x, y = sin_task(100)
        model = init(1, 6, 4)
        resid, normal_eqs, _ = mlp.residual_fns(model, x, y)
        calls = []      # ("resid" or "normal_eqs", bytes of theta)

        def recording(name, fn):
            def call(theta):
                calls.append((name, theta.tobytes()))
                return fn(theta)
            return call

        _, report = lm_least_squares(recording("resid", resid),
                                     recording("normal_eqs", normal_eqs),
                                     mlp.flatten(model),
                                     TrainConfig(algorithm=algorithm, max_epochs=40))
        jacobians = [i for i, (name, _) in enumerate(calls) if name == "normal_eqs"]
        assert len(jacobians) == len(report.epoch_trace) > 5
        assert len(calls) > 2 * len(jacobians)     # rejected trials came between
        for i in jacobians:
            assert calls[i - 1] == ("resid", calls[i][1])

    @pytest.mark.parametrize("algorithm", ["lm", "brnn", "scg"])
    def test_one_model_built_per_fit(self, monkeypatch, algorithm):
        x, y = sin_task(100)
        built = count_calls(monkeypatch, mlp, "unflatten")
        _, report = trainers.train(init(1, 6, 4), (x, y),
                                   TrainConfig(algorithm=algorithm, max_epochs=40))
        assert report.epochs_used > 5
        assert len(built) == 1

    @pytest.mark.parametrize("algorithm", ["lm", "brnn", "scg"])
    def test_one_tanh_per_evaluated_point(self, monkeypatch, algorithm):
        # every tanh is a forward pass's: the residual kernels take the
        # activations and only differentiate
        x, y = sin_task(100)
        hidden = count_calls(monkeypatch, kernels, "_hidden")
        passes = count_calls(monkeypatch, kernels, "forward_batch")
        _, report = trainers.train(init(1, 6, 4), (x, y),
                                   TrainConfig(algorithm=algorithm, max_epochs=40))
        assert report.epochs_used > 5
        assert len(hidden) == len(passes) > len(report.epoch_trace)

    @pytest.mark.parametrize("algorithm", ["lm", "brnn", "scg"])
    def test_derivatives_reuse_the_last_forward_pass(self, monkeypatch, algorithm):
        # lm/brnn: the Jacobian at an accepted step reads its trial's
        # activations, so normal_eqs runs no forward pass. scg: f(x0) serves
        # grad(x0) and each accepted f(x + alpha p) serves grad(x), so only
        # the finite-difference gradients at x + sigma p run one.
        inside, passes_inside = [False], []
        real_fns, real_forward = mlp.residual_fns, kernels.forward_batch

        def derivative(fn):
            def call(theta):
                inside[0] = True
                try:
                    return fn(theta)
                finally:
                    inside[0] = False
            return call

        def recording_fns(model, inputs, targets):
            resid, normal_eqs, resid_grad = real_fns(model, inputs, targets)
            return resid, derivative(normal_eqs), derivative(resid_grad)

        def forward(*args, **kwargs):
            if inside[0]:
                passes_inside.append(1)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(mlp, "residual_fns", recording_fns)
        monkeypatch.setattr(kernels, "forward_batch", forward)
        gradients = count_scg_gradients(monkeypatch)
        _, report = trainers.train(init(1, 6, 4), sin_task(100),
                                   TrainConfig(algorithm=algorithm, max_epochs=40))
        assert report.epochs_used > 5
        if algorithm == "scg":
            finite_difference = len(gradients) - len(report.epoch_trace)
            assert len(passes_inside) == finite_difference > 0
        else:
            assert passes_inside == []

    @pytest.mark.parametrize("algorithm", ["lm", "brnn", "scg"])
    def test_reused_activations_give_the_recomputing_fit(self, monkeypatch, algorithm):
        x, y = sin_task(100)
        config = TrainConfig(algorithm=algorithm, max_epochs=40)
        model, report = trainers.train(init(1, 6, 4), (x, y), config)
        real = mlp.residual_fns

        def recomputing(model, inputs, targets):
            # each derivative call runs the forward pass at its theta first
            resid, normal_eqs, resid_grad = real(model, inputs, targets)
            return (resid, lambda theta: (resid(theta), normal_eqs(theta))[1],
                    lambda theta: (resid(theta), resid_grad(theta))[1])

        monkeypatch.setattr(mlp, "residual_fns", recomputing)
        recomputed, report_recomputed = trainers.train(init(1, 6, 4), (x, y), config)
        assert report.e_d == report_recomputed.e_d
        assert report.epoch_trace == report_recomputed.epoch_trace
        np.testing.assert_array_equal(mlp.flatten(model), mlp.flatten(recomputed))

    def test_residual_fns_match_model_path(self, rng):
        p, h, n = 4, 7, 300
        theta = rng.normal(size=h * p + 2 * h + 1)
        model = mlp.unflatten(theta, p, h)
        inputs = rng.uniform(0, 1, (n, p))
        targets = rng.normal(size=n)
        resid, normal_eqs, _ = mlp.residual_fns(model, inputs, targets)
        expected_r, expected_jac = kernels.residuals_and_jacobian(
            inputs, *kernel_args(inputs, targets, theta, p, h))
        jtj, jtr = normal_eqs(theta)
        np.testing.assert_array_equal(jtj, expected_jac.T @ expected_jac)
        np.testing.assert_array_equal(jtr, expected_jac.T @ expected_r)
        np.testing.assert_array_equal(resid(theta), targets - mlp.forward_batch(model, inputs))


class TestResidualFnsReuse:
    """resid(theta) keeps its activations for normal_eqs and resid_grad at an
    equal theta; any other theta must get a fresh evaluation."""

    P, H, N = 3, 7, 200

    def fit_fns(self, rng):
        model = init(self.P, self.H, 3)
        inputs = rng.uniform(-1, 1, (self.N, self.P))
        targets = rng.normal(size=self.N)
        return model, inputs, targets, mlp.residual_fns(model, inputs, targets)

    def expected(self, inputs, targets, theta):
        args = kernel_args(inputs, targets, theta, self.P, self.H)
        return (kernels.residuals_and_jacobian(inputs, *args),
                kernels.residuals_and_gradient(inputs, *args))

    def assert_matches(self, normal_eqs, resid_grad, inputs, targets, theta):
        (r_exp, jac_exp), (rg_exp, grad_exp) = self.expected(inputs, targets, theta.copy())
        jtj, jtr = normal_eqs(theta)
        np.testing.assert_array_equal(jtj, jac_exp.T @ jac_exp)
        np.testing.assert_array_equal(jtr, jac_exp.T @ r_exp)
        r, grad = resid_grad(theta)
        np.testing.assert_array_equal(r, rg_exp)
        np.testing.assert_array_equal(grad, grad_exp)

    def test_other_theta_is_evaluated_fresh(self, rng):
        model, inputs, targets, (resid, normal_eqs, resid_grad) = self.fit_fns(rng)
        t1 = mlp.flatten(model)
        t2 = t1 + 0.1 * rng.normal(size=t1.size)
        resid(t1)
        self.assert_matches(normal_eqs, resid_grad, inputs, targets, t2)

    def test_theta_mutated_in_place_is_evaluated_fresh(self, rng):
        model, inputs, targets, (resid, normal_eqs, resid_grad) = self.fit_fns(rng)
        theta = mlp.flatten(model)
        resid(theta)
        theta[0] += 0.5
        theta[-2] -= 0.25
        self.assert_matches(normal_eqs, resid_grad, inputs, targets, theta)

    def test_fresh_evaluation_takes_the_buffer(self, monkeypatch, rng):
        model, inputs, targets, (resid, normal_eqs, resid_grad) = self.fit_fns(rng)
        t1 = mlp.flatten(model)
        t2 = t1 + 0.1 * rng.normal(size=t1.size)
        resid(t1)
        hidden = count_calls(monkeypatch, kernels, "_hidden")
        normal_eqs(t2)
        resid_grad(t2)
        assert len(hidden) == 1     # normal_eqs's forward pass serves resid_grad
        self.assert_matches(normal_eqs, resid_grad, inputs, targets, t2.copy())

    def test_resid_grad_returns_resids_residuals(self, rng):
        model, inputs, targets, (resid, _, resid_grad) = self.fit_fns(rng)
        theta = mlp.flatten(model)
        r = resid(theta)
        assert resid_grad(theta)[0] is r

    def test_gradient_scratch_is_reused(self, monkeypatch, rng):
        model, inputs, targets, (resid, _, resid_grad) = self.fit_fns(rng)
        scratches = []
        real = kernels.residuals_and_gradient

        def recording(*args, scratch=None, **kwargs):
            scratches.append(scratch)
            return real(*args, scratch=scratch, **kwargs)

        monkeypatch.setattr(kernels, "residuals_and_gradient", recording)
        t1 = mlp.flatten(model)
        t2 = t1 + 0.1 * rng.normal(size=t1.size)
        resid(t1)
        for theta in (t1, t2, t1):
            r, grad = resid_grad(theta)
            r_exp, grad_exp = real(inputs, *kernel_args(inputs, targets, theta, self.P, self.H))
            np.testing.assert_array_equal(r, r_exp)
            np.testing.assert_array_equal(grad, grad_exp)
        assert scratches[0].shape == (self.H, self.N)
        assert all(s is scratches[0] for s in scratches)


class TestBlocks:
    """resid_normal_eqs sums J'J and J'r over row blocks of mlp.BLOCK_ROWS."""

    P, H = 3, 5

    def problem(self, rng, n):
        model = init(self.P, self.H, 3)
        inputs = rng.uniform(-1, 1, (n, self.P))
        targets = rng.normal(size=n)
        theta = mlp.flatten(model) + 0.1 * rng.normal(size=model.n_params)
        return model, inputs, targets, theta

    def evaluate(self, model, inputs, targets, theta, cached):
        resid, normal_eqs, _ = mlp.residual_fns(model, inputs, targets)
        if cached:
            resid(theta)
        return normal_eqs(theta)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("n", [1000, 1024])
    def test_blocks_match_one_block(self, monkeypatch, rng, n, cached):
        model, inputs, targets, theta = self.problem(rng, n)
        expected = self.evaluate(model, inputs, targets, theta, cached)
        jacobians = count_calls(monkeypatch, kernels, "residuals_and_jacobian")
        monkeypatch.setattr(mlp, "BLOCK_ROWS", 64)
        blocked = self.evaluate(model, inputs, targets, theta, cached)
        assert len(jacobians) == -(-n // 64)
        for got, want in zip(blocked, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block_rows", [None, 64])
    def test_blocks_take_slices_of_resids_residuals(self, monkeypatch, rng, block_rows):
        n = 1000
        model, inputs, targets, theta = self.problem(rng, n)
        if block_rows:
            monkeypatch.setattr(mlp, "BLOCK_ROWS", block_rows)
        given = []      # the residuals normal_eqs hands the kernel, per block
        real = kernels.residuals_and_jacobian

        def recording(inputs, res, *args, **kwargs):
            given.append(res)
            return real(inputs, res, *args, **kwargs)

        monkeypatch.setattr(kernels, "residuals_and_jacobian", recording)
        resid, normal_eqs, _ = mlp.residual_fns(model, inputs, targets)
        r = resid(theta)
        normal_eqs(theta)
        assert len(given) == -(-n // (block_rows or n))
        assert all(np.shares_memory(g, r) for g in given)
        # runs on two threads hand their blocks over in either order
        given.sort(key=lambda g: g.ctypes.data)
        np.testing.assert_array_equal(np.concatenate(given), r)

    @pytest.mark.parametrize("cached", [False, True])
    def test_one_block_is_the_whole_jacobian(self, rng, cached):
        model, inputs, targets, theta = self.problem(rng, mlp.BLOCK_ROWS)
        jtj, jtr = self.evaluate(model, inputs, targets, theta, cached)
        expected_r, jac = kernels.residuals_and_jacobian(
            inputs, *kernel_args(inputs, targets, theta, self.P, self.H))
        np.testing.assert_array_equal(jtj, jac.T @ jac)
        np.testing.assert_array_equal(jtr, jac.T @ expected_r)

    def test_memory_does_not_grow_with_the_jacobian(self):
        # beyond the (h, n) activation buffer, a fit's residual functions and
        # one evaluation allocate far less than the n x P Jacobian would take
        n, p, h = 100_000, 1, 9
        model = init(p, h, 0)
        rng = np.random.default_rng(0)
        inputs, targets = rng.uniform(-1, 1, (n, p)), rng.normal(size=n)
        tracemalloc.start()
        try:
            _, normal_eqs, _ = mlp.residual_fns(model, inputs, targets)
            normal_eqs(mlp.flatten(model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        jacobian_bytes = n * model.n_params * 8
        assert peak - h * n * 8 < jacobian_bytes / 4


class TestRuns:
    """A fit of more than one block splits its blocks into one run per CPU
    that BLAS leaves free, and no result depends on the number of runs."""

    P, H = 3, 5
    N = 3 * 64 + 17     # four blocks of 64 rows

    @pytest.fixture
    def problem(self, monkeypatch, rng):
        monkeypatch.setattr(mlp, "BLOCK_ROWS", 64)
        monkeypatch.setattr(mlp, "_pool", None)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")     # the other CPUs are the runs'
        model = init(self.P, self.H, 3)
        inputs = rng.uniform(-1, 1, (self.N, self.P))
        targets = rng.normal(size=self.N)
        theta = mlp.flatten(model) + 0.1 * rng.normal(size=model.n_params)
        return model, inputs, targets, theta

    def test_no_result_depends_on_the_cpu_count(self, monkeypatch, problem):
        model, inputs, targets, theta = problem
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(mlp, "_cpus", lambda: cpus)
            resid, normal_eqs, resid_grad = mlp.residual_fns(model, inputs, targets)
            passes = count_calls(monkeypatch, kernels, "forward_batch")
            r = resid(theta).copy()
            assert len(passes) == cpus      # one forward pass per run
            jtj, jtr = normal_eqs(theta)
            results.append([r, jtj, jtr, resid_grad(theta)[1]])
            for algorithm in ("lm", "brnn", "scg"):
                fit, report = train(model, (inputs, targets),
                                    TrainConfig(algorithm=algorithm, max_epochs=20))
                assert report.epochs_used > 5
                results[-1] += [fit.params, np.array(report.epoch_trace)]
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 64])
    def test_one_block_makes_no_pool(self, monkeypatch, problem, n):
        model, inputs, targets, _ = problem
        monkeypatch.setattr(mlp, "_cpus", lambda: 3)
        for algorithm in ("lm", "brnn", "scg"):
            train(model, (inputs[:n], targets[:n]), TrainConfig(algorithm=algorithm, max_epochs=5))
        assert mlp._pool is None

    def test_runs_follow_the_cpus_this_process_may_use(self, monkeypatch, problem):
        model, inputs, targets, theta = problem
        resid = mlp.residual_fns(model, inputs, targets)[0]
        passes = count_calls(monkeypatch, kernels, "forward_batch")
        resid(theta)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert len(passes) == min(4, cpus)
        assert (mlp._pool is None) == (cpus == 1)

    @pytest.mark.parametrize("env, runs", [
        ({}, 1),                                    # BLAS may use every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 6),
        ({"OPENBLAS_NUM_THREADS": "2"}, 3),
        ({"OPENBLAS_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "12"}, 1),
        ({"MKL_NUM_THREADS": "3"}, 2),
        ({"OMP_NUM_THREADS": "1"}, 6),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 3),
        ({"OPENBLAS_NUM_THREADS": "two", "MKL_NUM_THREADS": "-1"}, 1),
    ])
    def test_runs_leave_blas_its_threads(self, monkeypatch, env, runs):
        monkeypatch.setattr(mlp, "_cpus", lambda: 6)
        for name in mlp._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert len(mlp.split_runs(range(8))) == mlp.free_cpus() == runs
        assert len(mlp.split_runs(range(2))) == min(runs, 2)

    def test_runs_inside_a_run_make_one_run(self, monkeypatch):
        monkeypatch.setattr(mlp, "_cpus", lambda: 3)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert [len(mlp.split_runs(range(n))) for n in (1, 2, 8)] == [1, 2, 3]

        def run(i):
            return [(i, threading.current_thread() is threading.main_thread(),
                     len(mlp.split_runs(range(8))))]

        assert mlp.in_runs(run, [0, 1, 2]) == [(0, True, 1), (1, False, 1), (2, False, 1)]
        assert len(mlp.split_runs(range(8))) == 3      # the caller's context is its own

    def test_a_raising_run_waits_for_the_others(self):
        ended = []

        def run(i):
            if i == 0:
                raise ValueError("run 0")
            time.sleep(0.05)
            ended.append(i)
            return [i]

        with pytest.raises(ValueError, match="run 0"):
            mlp.in_runs(run, [0, 1, 2])
        assert sorted(ended) == [1, 2]

    def test_runs_keep_the_callers_numpy_error_state(self):
        def divide(i):
            return [np.float64(1.0) / np.float64(i)]

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                mlp.in_runs(divide, [1, 0])    # 1 / 0 is the pool's run

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_makes_its_own_pool(self, monkeypatch, problem):
        model, inputs, targets, theta = problem
        monkeypatch.setattr(mlp, "_cpus", lambda: 2)
        resid, normal_eqs, _ = mlp.residual_fns(model, inputs, targets)
        resid(theta)
        expected = normal_eqs(theta)[0]
        assert mlp._pool is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)     # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                fresh = mlp._pool is None
                resid, normal_eqs, _ = mlp.residual_fns(model, inputs, targets)
                resid(theta)
                code = 0 if fresh and np.array_equal(normal_eqs(theta)[0], expected) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's fit hung")
        assert os.waitstatus_to_exitcode(done[1]) == 0


class TestStopReason:
    """TrainReport.stop_reason names the branch that ended the fit."""

    def test_lm_gradient(self, rng):
        resid, normal_eqs, k = linear_problem(rng)
        _, report = lm_least_squares(resid, normal_eqs, np.zeros(k), TrainConfig(algorithm="lm"))
        assert (report.stop_reason, report.converged) == ("gradient", True)

    def test_lm_objective(self):
        # the engine with no validation block; train would stop this fit on one
        rng = np.random.default_rng(2)
        x, y = rng.uniform(0, 1, (50, 3)), rng.normal(size=50)
        model = init(3, 4, 1)
        resid, normal_eqs, _ = mlp.residual_fns(model, x, y)
        _, report = lm_least_squares(resid, normal_eqs, mlp.flatten(model),
                                     TrainConfig(algorithm="lm"))
        assert (report.stop_reason, report.converged) == ("objective", True)
        assert report.epochs_used < 1000

    def test_lm_mu_overflow(self):
        # every trial is worse than the start point
        _, report = lm_least_squares(lambda th: np.full(3, 2.0 if th.any() else 1.0),
                                     lambda th: (np.full((1, 1), 3.0), np.full(1, 3.0)),
                                     np.zeros(1),
                                     TrainConfig(algorithm="lm"))
        assert (report.stop_reason, report.converged, report.epochs_used) == (
            "mu_overflow", False, 1)

    def test_validation_wins_over_objective_on_the_same_epoch(self):
        # the sixth epoch without a lower validation SSE also changes F by
        # less than OBJECTIVE_TOLERANCE, relative
        theta, report = lm_least_squares(lambda th: np.array([np.sqrt(1.0 + 10.0 ** th[0])]),
                                         lambda th: (np.ones((1, 1)), np.ones(1)),
                                         np.zeros(1), TrainConfig(algorithm="lm"),
                                         validation=lambda th: np.array([th[0] + 2.0]))
        trace = report.epoch_trace
        assert abs(trace[-1] - trace[-2]) < trainers.OBJECTIVE_TOLERANCE * trace[-2]
        assert (report.stop_reason, report.converged, report.epochs_used) == (
            "validation", True, 8)
        assert np.argmin(report.validation_trace) == 8 - trainers.MAX_FAIL
        assert theta[0] == pytest.approx(-1.9989, abs=1e-4)

    @pytest.mark.parametrize("algorithm", ["lm", "brnn", "scg"])
    def test_max_epochs(self, algorithm):
        x, y = sin_task(100)
        _, report = trainers.train(init(1, 6, 4), (x, y),
                                   TrainConfig(algorithm=algorithm, max_epochs=5))
        assert (report.stop_reason, report.converged, report.epochs_used) == (
            "max_epochs", False, 5)

    def test_scg_gradient(self):
        _, _, reason, iters = scg_minimize(lambda x: float(x @ x), lambda x: 2.0 * x,
                                           np.full(3, 0.1), grad_tol=1e-8)
        assert (reason, iters) == ("gradient", 2)
        assert scg_minimize(lambda x: 0.0, lambda x: 0.0 * x, np.ones(2))[2:] == (
            "gradient", 0)

    def test_scg_objective_stall(self):
        x, y = sin_task(100)
        _, report = train(init(1, 6, 4), (x, y), TrainConfig(algorithm="scg"))
        assert (report.stop_reason, report.converged) == ("objective_stall", False)
        assert report.epochs_used < 1000

    def test_scg_lambda_overflow(self):
        x0 = np.ones(3)

        def f(x):     # every trial point is worse than the start point
            return 0.0 if np.array_equal(x, x0) else 1.0

        _, trace, reason, _ = scg_minimize(f, lambda x: 2.0 * x, x0)
        assert reason == "lambda_overflow"
        assert trace == [0.0]

    def test_scg_zero_direction(self):
        # p'p underflows to 0 while the gradient, 1e-170, fails grad_tol = 0
        _, _, reason, iters = scg_minimize(lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                                           np.full(2, 1e-170), grad_tol=0.0)
        assert (reason, iters) == ("zero_direction", 1)

    def test_brnn_e_d_and_gamma(self, bursts):
        # with alpha and beta asked to settle to 1e-7 this fit ran to the cap
        _, report = train(init(1, 2, 2), bursts, TrainConfig())
        assert (report.stop_reason, report.converged) == ("e_d_and_gamma", True)
        assert report.epochs_used < 1000
        e_d, gamma = report.bayes_trace.e_d, report.bayes_trace.gamma
        assert abs(e_d[-1] - e_d[-2]) < trainers.E_D_TOLERANCE * e_d[-2]
        assert abs(gamma[-1] - gamma[-2]) <= trainers.GAMMA_TOLERANCE * max(1.0, gamma[-1])

    def test_brnn_period_two_cycle_stops(self):
        # gamma alternates near 5.15 and 5.45 from step to step, so the
        # one-step test never holds; this fit ran to the 1000-epoch cap
        series = generate_synthetic({"kind": "persistence_bursts", "n": 5000}, 31005)
        patterns = series_ops.extract_patterns(series_ops.difference(series).residuals, 6, 0.8)
        _, report = train(init(6, 9, 0), patterns, TrainConfig())
        assert (report.stop_reason, report.converged) == ("e_d_and_gamma", True)
        assert report.epochs_used < 200
        e_d, gamma = report.bayes_trace.e_d, report.bayes_trace.gamma
        assert abs(gamma[-1] - gamma[-2]) > trainers.GAMMA_TOLERANCE * max(1.0, gamma[-1])
        assert abs(e_d[-1] - e_d[-3]) < trainers.E_D_TOLERANCE * e_d[-3]
        assert abs(gamma[-1] - gamma[-3]) <= trainers.GAMMA_TOLERANCE * max(1.0, gamma[-1])

    def test_written_to_train_report(self):
        x, y = sin_task(100)
        _, report = train(init(1, 6, 4), (x, y), TrainConfig(algorithm="lm", max_epochs=5))
        assert asdict(report)["stop_reason"] == "max_epochs"


class TestScg:
    def test_convex_quadratic(self, rng):
        dim = 50
        a = rng.normal(size=(dim, dim))
        a = a @ a.T + np.eye(dim)
        b = rng.normal(size=dim)
        x_star = np.linalg.solve(a, b)
        offset = 0.5 * x_star @ a @ x_star - b @ x_star

        def f(x):
            return 0.5 * x @ a @ x - b @ x - offset

        def g(x):
            return a @ x - b

        _, trace, _, iters = scg_minimize(f, g, np.zeros(dim), max_iter=200,
                                          grad_tol=1e-10)
        assert trace[-1] < 1e-10
        assert iters <= 200

    def test_converged_implies_small_gradient(self, rng):
        def f(x):
            return float(x @ x)

        def g(x):
            return 2.0 * x

        x, _, reason, _ = scg_minimize(f, g, rng.normal(size=10), grad_tol=1e-8)
        assert reason == "gradient"
        assert np.max(np.abs(g(x))) < 1e-8

    def test_sin_fit_within_factor_of_lm(self):
        x, y = sin_task()
        m0 = init(1, 9, 0)
        _, rep_lm = train(m0, (x, y), TrainConfig(algorithm="lm"))
        _, rep_scg = train(m0, (x, y), TrainConfig(algorithm="scg"))
        assert rep_scg.e_d / y.size < 1e-4
        assert rep_scg.e_d <= 10 * max(rep_lm.e_d, 1e-4 * y.size)


class TestBrnn:
    def test_alpha_zero_gives_full_gamma(self, rng):
        x = rng.uniform(0, 1, (30, 2))
        y = rng.normal(size=30)
        model = init(2, 3, 0)
        _, report = train(model, (x, y),
                          TrainConfig(algorithm="brnn", max_epochs=20,
                                      fixed_alpha=0.0))
        assert report.gamma_effective == model.n_params

    def test_reduces_to_lm_with_alpha_pinned(self):
        x, y = sin_task(100)
        m0 = init(1, 9, 1)
        cfg_lm = TrainConfig(algorithm="lm", max_epochs=60)
        cfg_br = TrainConfig(algorithm="brnn", max_epochs=60, fixed_alpha=0.0)
        m_lm, r_lm = train(m0, (x, y), cfg_lm)
        m_br, r_br = train(m0, (x, y), cfg_br)
        assert np.max(np.abs(mlp.flatten(m_lm) - mlp.flatten(m_br))) < 1e-10
        np.testing.assert_allclose(r_lm.epoch_trace, r_br.epoch_trace, rtol=1e-10)

    def test_gamma_from_undamped_hessian(self, bursts):
        # the damped sum reported gamma = N_w = 28 for this fit
        model, report = train(init(1, 9, 9), bursts, TrainConfig())
        _, jac = kernels.residuals_and_jacobian(
            bursts.train_inputs, *kernel_args(bursts.train_inputs, bursts.train_targets,
                                              mlp.flatten(model), model.input_dim,
                                              model.hidden_dim))
        lam = np.clip(np.linalg.eigvalsh(jac.T @ jac), 0.0, None)
        # the last re-estimate took gamma from the alpha and beta before it
        alpha, beta = report.bayes_trace.alpha[-2], report.bayes_trace.beta[-2]
        expected = float(np.sum(beta * lam / (beta * lam + alpha)))
        assert report.gamma_effective == pytest.approx(expected, rel=1e-9)
        assert report.gamma_effective < model.n_params / 2

    def test_bayes_trace_per_epoch(self):
        x, y = sin_task(100)
        config = TrainConfig(algorithm="brnn", max_epochs=40)
        _, report = train(init(1, 6, 4), (x, y), config)
        trace = report.bayes_trace
        assert {len(v) for v in asdict(trace).values()} == {len(report.epoch_trace)}
        assert (trace.e_d[-1], trace.gamma[-1], trace.alpha[-1], trace.beta[-1]) == (
            report.e_d, report.gamma_effective, report.alpha, report.beta)
        assert (trace.alpha[0], trace.beta[0], trace.mu[0]) == (0.0, 1.0, config.mu_init)
        assert len(set(trace.gamma)) > 2 and len(set(trace.e_d)) > 2
        assert json.loads(json.dumps(asdict(report)))["bayes_trace"]["gamma"] == list(trace.gamma)
        _, report_lm = train(init(1, 6, 4), (x, y), TrainConfig(algorithm="lm", max_epochs=5))
        assert report_lm.bayes_trace is None

    def test_noisy_line_regularization(self):
        rng = np.random.default_rng(2)
        x_train = rng.uniform(0, 1, (30, 1))
        y_train = 2 * x_train[:, 0] + rng.normal(0, 0.1, 30)
        x_test = rng.uniform(0, 1, (200, 1))
        y_test = 2 * x_test[:, 0] + rng.normal(0, 0.1, 200)
        m0 = init(1, 9, 2)
        m_lm, _ = train(m0, (x_train, y_train), TrainConfig(algorithm="lm"))
        m_br, report = train(m0, (x_train, y_train), TrainConfig(algorithm="brnn"))

        def mse(model):
            return float(np.mean((y_test - mlp.forward_batch(model, x_test)) ** 2))

        assert mse(m_br) < mse(m_lm)
        assert report.gamma_effective < 10
        assert 0 <= report.gamma_effective <= m0.n_params
        assert report.alpha > 0 and report.beta > 0
        # beta estimates the inverse noise variance 1/(2*sigma^2) = 50
        assert 25 <= report.beta <= 100

    def test_gamma_bounded_every_run(self, rng):
        x = rng.uniform(0, 1, (25, 2))
        y = rng.normal(size=25)
        model = init(2, 5, 3)
        _, report = train(model, (x, y),
                          TrainConfig(algorithm="brnn", max_epochs=200))
        assert 0 <= report.gamma_effective <= model.n_params

    @pytest.mark.parametrize("seed", range(6))
    def test_pure_noise_keeps_alpha_positive(self, seed):
        # alpha comes to dominate every eigenvalue term, so gamma is near 0,
        # where N_w - 2*alpha*tr(H^-1) cancels to rounding noise of either sign
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (50, 3))
        y = rng.normal(size=50)
        model = init(3, 4, seed)
        _, report = train(model, (x, y), TrainConfig(algorithm="brnn"))
        assert report.alpha > 0
        assert 0 <= report.gamma_effective <= model.n_params


class TestGridSearch:
    def test_sweep_size(self, rng):
        x = rng.uniform(0, 1, (60, 2))
        y = np.sin(3 * x[:, 0]) + rng.normal(0, 0.05, 60)
        cfg = TrainConfig(algorithm="lm", max_epochs=20)
        _, table = grid_search_fit((x, y), range(2, 26), cfg, seed=0)[:2]
        assert len(table) == 24

    def test_tie_breaks_to_smallest(self, rng, monkeypatch):
        # every size reports the same e_d: an exact tie
        def train(model, patterns, config):
            return model, trainers.TrainReport((1.0,), True, "gradient", 0, e_d=1.0, e_w=0.0)

        monkeypatch.setattr(trainers, "train", train)
        x = rng.uniform(0, 1, (40, 2))
        best, table, model, _ = grid_search_fit((x, np.zeros(40)), range(2, 7),
                                                TrainConfig(algorithm="lm"))
        assert [r.objective for r in table] == [1.0 / 40] * 5
        assert best == model.hidden_dim == 2

    @pytest.mark.parametrize("seed", [0, 7])
    def test_size_h_starts_from_seed_plus_h(self, rng, seed):
        x = rng.uniform(0, 1, (60, 2))
        y = np.sin(3 * x[:, 0]) + rng.normal(0, 0.05, 60)
        cfg = TrainConfig(algorithm="lm", max_epochs=20)
        best, _, model, report = grid_search_fit((x, y), range(2, 6), cfg, seed=seed)
        expected, expected_report = train(init(2, best, seed + best), (x, y), cfg)
        np.testing.assert_array_equal(mlp.flatten(model), mlp.flatten(expected))
        assert report == expected_report

    def test_teacher_task_selects_near_truth(self):
        rng = np.random.default_rng(5)
        teacher = init(6, 4, 77)
        x = rng.uniform(0, 1, (200, 6))
        signal = mlp.forward_batch(teacher, x)
        y = signal + rng.normal(0, 0.2 * signal.std(), 200)
        cfg = TrainConfig(algorithm="brnn", max_epochs=150)
        best, table = grid_search_fit((x, y), range(2, 10), cfg, seed=3)[:2]
        assert 3 <= best <= 8
        assert len(table) == 8

    def test_brnn_grid_stops_when_gamma_plateaus(self, bursts):
        best, table, _, report = trainers.grid_search_fit(bursts, range(2, 26), TrainConfig())
        trained = [r for r in table if r.objective is not None]
        skipped = [r for r in table if r.objective is None]
        assert [r.hidden for r in table] == list(range(2, 26))
        assert 3 <= len(trained) < 24
        assert [r.hidden for r in trained] == list(range(2, 2 + len(trained)))
        assert all(r.skipped.startswith("gamma stopped growing at h = ") and r.error is None
                   and (r.converged, r.epochs_used, r.gamma) == (None, None, None)
                   for r in skipped)
        assert all(r.skipped is None and r.gamma > 0 for r in trained)
        assert best == min(trained, key=lambda r: (r.objective, r.hidden)).hidden
        assert report.e_d / bursts.train_targets.size == next(
            r.objective for r in table if r.hidden == best)

    def test_aborted_size_gets_an_error_row(self, rng, abort_training, caplog):
        x = rng.uniform(0, 1, (60, 2))
        y = np.sin(3 * x[:, 0]) + rng.normal(0, 0.05, 60)
        cfg = TrainConfig(algorithm="lm", max_epochs=20)
        _, full = grid_search_fit((x, y), range(2, 6), cfg, seed=0)[:2]
        best_h = min(full, key=lambda r: (r.objective, r.hidden)).hidden
        abort_training({"lm"}, {best_h})
        best, table, model, report = trainers.grid_search_fit((x, y), range(2, 6), cfg, seed=0)
        assert [r.hidden for r in table] == [2, 3, 4, 5]
        aborted = next(r for r in table if r.hidden == best_h)
        assert aborted == trainers.GridRow(best_h, error=f"abort lm h = {best_h}")
        assert f"hidden size {best_h} aborted" in caplog.text
        assert [r for r in table if r.hidden != best_h] == [
            r for r in full if r.hidden != best_h]
        assert best != best_h and model.hidden_dim == best
        assert best == min((r for r in table if r.objective is not None),
                           key=lambda r: (r.objective, r.hidden)).hidden
        assert report.e_d / y.size == next(r.objective for r in table if r.hidden == best)

    def test_aborted_size_is_left_out_of_the_plateau(self, bursts, abort_training):
        abort_training({"brnn"}, {3})
        _, table = grid_search_fit(bursts, range(2, 26), TrainConfig(max_epochs=50))[:2]
        assert table[1] == trainers.GridRow(3, error="abort brnn h = 3")
        trained = [r for r in table if r.gamma is not None]
        last = table.index(trained[-1])
        assert all(r.skipped is not None for r in table[last + 1:])
        assert all(r.skipped is None for r in table[:last + 1])
        gammas = [r.gamma for r in trained]
        grew = [b >= (1 + trainers.GAMMA_PLATEAU) * a for a, b in zip(gammas, gammas[1:])]
        k = trainers.PLATEAU_SIZES
        assert len(grew) >= k and not any(grew[-k:])
        assert all(any(grew[i:i + k]) for i in range(len(grew) - k))

    def test_every_size_aborting_raises(self, rng, abort_training):
        x = rng.uniform(0, 1, (40, 2))
        abort_training({"lm"}, {2, 3, 4})
        with pytest.raises(TrainingError, match="every hidden size aborted"):
            grid_search_fit((x, x[:, 0]), range(2, 5), TrainConfig(algorithm="lm"))[:2]

    def test_lm_grid_trains_every_size(self, bursts):
        _, table = grid_search_fit(bursts, range(2, 26),
                                   TrainConfig(algorithm="lm", max_epochs=5))[:2]
        assert all(r.objective is not None and r.skipped is None and r.gamma is None
                   for r in table)
        assert len(table) == 24


@pytest.fixture(scope="module")
def bursts_5000():
    """Lag-6 patterns of a 5000-point persistence_bursts series, as
    `compare --lag 6` builds them."""
    series = generate_synthetic({"kind": "persistence_bursts", "n": 5000}, 9001)
    return series_ops.extract_patterns(series_ops.difference(series).residuals, 6, 0.8)


def validation_sse(model, patterns):
    n = patterns.split_index
    n_val = int(trainers.VALIDATION_FRACTION * n)
    x, y = patterns.train_inputs[n - n_val:], patterns.train_targets[n - n_val:]
    err = y - mlp.forward_batch(model, x)
    return float(err @ err)


class TestValidationStop:
    """lm and pinned-alpha brnn hold out the last VALIDATION_FRACTION of
    the training rows and stop after MAX_FAIL epochs without a lower
    validation SSE."""

    CONFIG = {"max_epochs": 50}

    def test_pinned_brnn_takes_lms_stop(self, bursts_5000):
        m0 = init(6, 9, 0)
        m_lm, r_lm = train(m0, bursts_5000, TrainConfig(algorithm="lm", **self.CONFIG))
        m_br, r_br = train(m0, bursts_5000, TrainConfig(algorithm="brnn", fixed_alpha=0.0,
                                                        **self.CONFIG))
        np.testing.assert_array_equal(mlp.flatten(m_lm), mlp.flatten(m_br))
        assert r_lm.epoch_trace == r_br.epoch_trace
        assert r_lm.validation_trace == r_br.validation_trace
        assert (r_lm.stop_reason, r_lm.epochs_used) == (r_br.stop_reason, r_br.epochs_used)
        assert r_lm.e_d == r_br.e_d

    def test_stops_at_max_fail_and_returns_the_best_point(self, bursts_5000):
        model, report = train(init(6, 9, 0), bursts_5000,
                              TrainConfig(algorithm="lm", **self.CONFIG))
        trace = report.validation_trace
        assert (report.stop_reason, report.converged) == ("validation", True)
        assert report.epochs_used < 50
        assert len(trace) == len(report.epoch_trace) == report.epochs_used + 1
        best = int(np.argmin(trace))
        assert best == len(trace) - 1 - trainers.MAX_FAIL
        assert validation_sse(model, bursts_5000) == pytest.approx(trace[best], rel=1e-12)
        # e_d covers every training row, the validation block included
        err = bursts_5000.train_targets - mlp.forward_batch(model, bursts_5000.train_inputs)
        assert report.e_d == pytest.approx(float(err @ err), rel=1e-12)
        assert report.e_w == pytest.approx(float(mlp.flatten(model) @ mlp.flatten(model)))

    @pytest.mark.parametrize("max_epochs", [1, 5])
    def test_best_point_on_every_stop(self, bursts_5000, max_epochs):
        model, report = train(init(6, 9, 0), bursts_5000,
                              TrainConfig(algorithm="lm", max_epochs=max_epochs))
        assert report.stop_reason == "max_epochs"
        trace = report.validation_trace
        assert validation_sse(model, bursts_5000) == pytest.approx(min(trace), rel=1e-12)
        if max_epochs == 5:     # the validation SSE rose after epoch 2
            assert np.argmin(trace) < len(trace) - 1

    def test_descends_the_rows_before_the_block(self, bursts_5000, monkeypatch):
        sizes = []
        real = mlp.residual_fns

        def recording(model, inputs, targets):
            sizes.append(len(targets))
            return real(model, inputs, targets)

        monkeypatch.setattr(mlp, "residual_fns", recording)
        train(init(6, 9, 0), bursts_5000, TrainConfig(algorithm="lm", max_epochs=2))
        n = bursts_5000.split_index
        n_val = int(trainers.VALIDATION_FRACTION * n)
        assert sizes == [n - n_val, n_val]

    @pytest.mark.parametrize("algorithm", ["scg", "brnn"])
    def test_others_fit_every_row(self, bursts_5000, algorithm):
        _, report = trainers.train(init(6, 9, 0), bursts_5000,
                                   TrainConfig(algorithm=algorithm, max_epochs=5))
        assert report.validation_trace is None
        assert asdict(report)["validation_trace"] is None

    def test_engine_e_d_adds_the_held_out_sse(self, rng):
        design, held_out = rng.normal(size=(30, 4)), rng.normal(size=(10, 4))
        targets = design @ rng.normal(size=4) + rng.normal(0, 0.1, 30)
        theta0 = rng.normal(size=4)
        held_targets = held_out @ theta0 + rng.normal(0, 0.1, 10)

        def resid(theta):
            return targets - design @ theta

        def normal_eqs(theta):
            return design.T @ design, -design.T @ resid(theta)

        def validation(theta):
            return held_targets - held_out @ theta

        theta, report = lm_least_squares(resid, normal_eqs, theta0, TrainConfig(algorithm="lm"),
                                         validation=validation)
        # the start is the best validation point, so the fit returns it
        assert np.argmin(report.validation_trace) == 0 and report.epochs_used >= 1
        np.testing.assert_array_equal(theta, theta0)
        r, v = resid(theta), validation(theta)
        assert float(v @ v) == min(report.validation_trace) > 0.0
        assert report.e_d == float(r @ r) + float(v @ v)

    def test_pair_is_split_like_a_pattern_set(self, bursts_5000):
        cfg = TrainConfig(algorithm="lm", **self.CONFIG)
        m_set, r_set = train(init(6, 9, 0), bursts_5000, cfg)
        pair = (bursts_5000.train_inputs, bursts_5000.train_targets)
        m_pair, r_pair = train(init(6, 9, 0), pair, cfg)
        np.testing.assert_array_equal(mlp.flatten(m_set), mlp.flatten(m_pair))
        assert r_set.epoch_trace == r_pair.epoch_trace
        assert r_set.validation_trace == r_pair.validation_trace
        assert r_set.stop_reason == r_pair.stop_reason == "validation"


def test_config_rejects_mu_init_not_positive():
    for mu_init in (0.0, -1e-3):
        with pytest.raises(ValueError, match="mu_init must be positive"):
            TrainConfig(mu_init=mu_init)


class TestEngineInputs:
    def test_no_residuals(self):
        with pytest.raises(TrainingError, match="no training patterns"):
            lm_least_squares(lambda theta: np.empty(0), None, np.zeros(2),
                             TrainConfig(algorithm="lm"))

    def test_non_finite_objective_at_the_start(self):
        with pytest.raises(TrainingError, match="non-finite objective at the initial point"):
            lm_least_squares(lambda theta: np.array([np.inf, 1.0]), None, np.zeros(2),
                             TrainConfig(algorithm="lm"))

    def test_non_finite_alpha_reestimate(self):
        # r = c (t - theta) with c = 1e100: the first step from 2t lands on
        # the minimiser t = 1e-160, where E_w = t^2 is subnormal and
        # alpha = gamma / (2 E_w) = 1 / (2 E_w) overflows
        c, t = 1e100, 1e-160

        def resid(theta):
            return c * (t - theta)

        def normal_eqs(theta):
            return np.array([[c * c]]), -c * resid(theta)    # J = -c

        with pytest.raises(TrainingError, match="non-finite alpha/beta reestimate"):
            lm_least_squares(resid, normal_eqs, np.array([2 * t]), TrainConfig(algorithm="brnn"))


class TestGridSearchRange:
    @pytest.mark.parametrize("h_range, message", [
        ([], "h_range must be non-empty"),
        ([2, 2, 3], r"h_range must strictly ascend, not \[2, 2, 3\]"),
        ([4, 3, 2], r"h_range must strictly ascend, not \[4, 3, 2\]"),
    ])
    def test_rejected_before_any_fit(self, rng, monkeypatch, h_range, message):
        fits = count_calls(monkeypatch, trainers, "train")
        x = rng.uniform(0, 1, (40, 2))
        with pytest.raises(ValueError, match=message):
            grid_search_fit((x, x[:, 0]), h_range, TrainConfig(algorithm="lm"))
        assert fits == []
