from dataclasses import asdict

import numpy as np
import pytest

from vrpcast import (
    TrainConfig,
    grid_search_hidden,
    init,
    train_brnn,
    train_lm,
    train_scg,
)
from vrpcast import kernels, mlp, trainers
from vrpcast.trainers import lm_least_squares, scg_minimize


def sin_task(n=200):
    x = np.linspace(0.0, 1.0, n)[:, None]
    return x, np.sin(2 * np.pi * x[:, 0])


def linear_problem(rng, n=30, k=5):
    design = rng.normal(size=(n, k))
    theta_star = rng.normal(size=k)
    targets = design @ theta_star

    def resid_jac(theta):
        return targets - design @ theta, -design

    return resid_jac, k


class TestLm:
    def test_linear_exact_in_one_accepted_step(self, rng):
        resid_jac, k = linear_problem(rng)
        cfg = TrainConfig(algorithm="lm", mu_init=1e-12)
        _, report = lm_least_squares(resid_jac, np.zeros(k), cfg)
        assert report.epoch_trace[1] < 1e-10

    def test_sin_fit(self):
        x, y = sin_task()
        model, report = train_lm(init(1, 9, 0), (x, y), TrainConfig(algorithm="lm"))
        assert report.e_d / y.size < 1e-4

    def test_accepted_trace_non_increasing(self, rng):
        x = rng.uniform(0, 1, (50, 3))
        y = rng.normal(size=50)
        _, report = train_lm(init(3, 4, 1), (x, y),
                             TrainConfig(algorithm="lm", max_epochs=50))
        trace = np.array(report.epoch_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_deterministic(self, rng):
        x = rng.uniform(0, 1, (40, 2))
        y = rng.normal(size=40)
        cfg = TrainConfig(algorithm="lm", max_epochs=30)
        m1, r1 = train_lm(init(2, 3, 5), (x, y), cfg)
        m2, r2 = train_lm(init(2, 3, 5), (x, y), cfg)
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


class TestEngine:
    @pytest.mark.parametrize("train_fn, algorithm", [(train_lm, "lm"), (train_brnn, "brnn")])
    def test_one_jacobian_per_accepted_step(self, monkeypatch, train_fn, algorithm):
        x, y = sin_task(100)
        jacobians = count_calls(monkeypatch, kernels, "residuals_and_jacobian")
        _, report = train_fn(init(1, 6, 4), (x, y),
                             TrainConfig(algorithm=algorithm, max_epochs=40))
        accepted = len(report.epoch_trace) - 1
        assert accepted > 5
        assert len(jacobians) == accepted + 1

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
        _, report = train_scg(init(1, 6, 4), (x, y),
                              TrainConfig(algorithm="scg", max_epochs=40))
        assert report.epochs_used > 5
        assert len(jacobians) == 0
        assert len(backprops) == len(gradients)

    def test_eigenbasis_step_matches_damped_solve(self, rng):
        n, k = 40, 6
        design = rng.normal(size=(n, k))
        targets = rng.normal(size=n)

        def resid_jac(theta):
            return targets - design @ theta, -design

        theta0 = rng.normal(size=k)
        alpha, mu = 0.3, 0.05
        cfg = TrainConfig(algorithm="brnn", max_epochs=1, mu_init=mu, fixed_alpha=alpha)
        theta, report = lm_least_squares(resid_jac, theta0, cfg, bayes=True)
        assert len(report.epoch_trace) == 2  # the step was accepted
        r, jac = resid_jac(theta0)
        lhs = jac.T @ jac + (mu + alpha) * np.eye(k)       # beta = 1
        step = np.linalg.solve(lhs, -(jac.T @ r + alpha * theta0))
        np.testing.assert_allclose(theta, theta0 + step, rtol=0, atol=1e-10)

    def test_non_finite_trial_is_rejected(self):
        # J'J = 0 and alpha = -mu_init: the first trial divides by zero and
        # must count as a rejected step; the retry at mu = 10 is accepted
        def resid_jac(theta):
            return np.ones(1), np.zeros((1, 1))

        cfg = TrainConfig(algorithm="brnn", max_epochs=1, mu_init=1.0, fixed_alpha=-1.0)
        theta, report = lm_least_squares(resid_jac, np.ones(1), cfg, bayes=True)
        assert len(report.epoch_trace) == 2
        np.testing.assert_allclose(theta, [1.0 + 1.0 / 9.0], rtol=1e-15)

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
        # lm/brnn: the Jacobian at an accepted step reuses its trial's
        # activations, so only the start point and the trials evaluate tanh.
        # scg: f(x0) serves grad(x0) and each accepted f(x + alpha p) serves
        # grad(x), so only objective calls and the finite-difference
        # gradients at x + sigma p evaluate it.
        x, y = sin_task(100)
        hidden = count_calls(monkeypatch, kernels, "_hidden")
        trials = count_calls(monkeypatch, kernels, "forward_batch")
        gradients = []
        scg = trainers.scg_minimize

        def counting_scg(f, grad, x0, **kwargs):
            def counted_grad(theta):
                gradients.append(1)
                return grad(theta)
            return scg(f, counted_grad, x0, **kwargs)

        monkeypatch.setattr(trainers, "scg_minimize", counting_scg)
        _, report = trainers.train(init(1, 6, 4), (x, y),
                                   TrainConfig(algorithm=algorithm, max_epochs=40))
        assert report.epochs_used > 5
        if algorithm == "scg":
            finite_difference = len(gradients) - len(report.epoch_trace)
            assert finite_difference > 0
            assert len(hidden) == len(trials) + finite_difference
        else:
            assert len(hidden) == len(trials) + 1

    @pytest.mark.parametrize("algorithm", ["lm", "brnn", "scg"])
    def test_reused_activations_give_the_recomputing_fit(self, monkeypatch, algorithm):
        x, y = sin_task(100)
        config = TrainConfig(algorithm=algorithm, max_epochs=40)
        model, report = trainers.train(init(1, 6, 4), (x, y), config)
        for name in ("residuals_and_jacobian", "residuals_and_gradient"):
            fn = getattr(kernels, name)
            monkeypatch.setattr(kernels, name,
                                lambda *a, fn=fn, hidden=None, **kw: fn(*a, **kw))
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
        resid, resid_jac, _ = mlp.residual_fns(model, inputs, targets)
        expected_r, expected_jac = mlp.batch_residuals_and_jacobian(model, inputs, targets)
        r, jac = resid_jac(theta)
        np.testing.assert_array_equal(r, expected_r)
        np.testing.assert_array_equal(jac, expected_jac)
        np.testing.assert_array_equal(resid(theta), targets - mlp.forward_batch(model, inputs))


class TestResidualFnsReuse:
    """resid(theta) keeps its activations for resid_jac and resid_grad at an
    equal theta; any other theta must get a fresh evaluation."""

    P, H, N = 3, 7, 200

    def fit_fns(self, rng):
        model = init(self.P, self.H, 3)
        inputs = rng.uniform(-1, 1, (self.N, self.P))
        targets = rng.normal(size=self.N)
        return model, inputs, targets, mlp.residual_fns(model, inputs, targets)

    def expected(self, inputs, targets, theta):
        layers = mlp._layers(theta, self.P, self.H)
        return (kernels.residuals_and_jacobian(inputs, targets, *layers),
                kernels.residuals_and_gradient(inputs, targets, *layers))

    def assert_matches(self, resid_jac, resid_grad, inputs, targets, theta):
        (r_exp, jac_exp), (rg_exp, grad_exp) = self.expected(inputs, targets, theta.copy())
        r, jac = resid_jac(theta)
        np.testing.assert_array_equal(r, r_exp)
        np.testing.assert_array_equal(jac, jac_exp)
        r, grad = resid_grad(theta)
        np.testing.assert_array_equal(r, rg_exp)
        np.testing.assert_array_equal(grad, grad_exp)

    def test_other_theta_is_evaluated_fresh(self, rng):
        model, inputs, targets, (resid, resid_jac, resid_grad) = self.fit_fns(rng)
        t1 = mlp.flatten(model)
        t2 = t1 + 0.1 * rng.normal(size=t1.size)
        resid(t1)
        self.assert_matches(resid_jac, resid_grad, inputs, targets, t2)

    def test_theta_mutated_in_place_is_evaluated_fresh(self, rng):
        model, inputs, targets, (resid, resid_jac, resid_grad) = self.fit_fns(rng)
        theta = mlp.flatten(model)
        resid(theta)
        theta[0] += 0.5
        theta[-2] -= 0.25
        self.assert_matches(resid_jac, resid_grad, inputs, targets, theta)

    def test_fresh_evaluation_keeps_the_buffer(self, monkeypatch, rng):
        model, inputs, targets, (resid, resid_jac, resid_grad) = self.fit_fns(rng)
        t1 = mlp.flatten(model)
        t2 = t1 + 0.1 * rng.normal(size=t1.size)
        resid(t1)
        resid_jac(t2)
        resid_grad(t2)
        hidden = count_calls(monkeypatch, kernels, "_hidden")
        self.assert_matches(resid_jac, resid_grad, inputs, targets, t1.copy())
        assert len(hidden) == 2     # the two reference evaluations only


class TestStopReason:
    """TrainReport.stop_reason names the branch that ended the fit."""

    def test_lm_gradient(self, rng):
        resid_jac, k = linear_problem(rng)
        _, report = lm_least_squares(resid_jac, np.zeros(k), TrainConfig(algorithm="lm"))
        assert (report.stop_reason, report.converged) == ("gradient", True)

    def test_lm_objective(self):
        rng = np.random.default_rng(2)
        x, y = rng.uniform(0, 1, (50, 3)), rng.normal(size=50)
        _, report = train_lm(init(3, 4, 1), (x, y), TrainConfig(algorithm="lm"))
        assert (report.stop_reason, report.converged) == ("objective", True)
        assert report.epochs_used < 1000

    def test_lm_mu_overflow(self):
        # every trial is worse than the start point
        _, report = lm_least_squares(lambda th: (np.ones(3), np.ones((3, 1))), np.zeros(1),
                                     TrainConfig(algorithm="lm"),
                                     resid=lambda th: np.full(3, 2.0))
        assert (report.stop_reason, report.converged, report.epochs_used) == (
            "mu_overflow", False, 1)

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
        _, report = train_scg(init(1, 6, 4), (x, y), TrainConfig(algorithm="scg"))
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

    def test_written_to_train_report(self):
        x, y = sin_task(100)
        _, report = train_lm(init(1, 6, 4), (x, y), TrainConfig(algorithm="lm", max_epochs=5))
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
        _, rep_lm = train_lm(m0, (x, y), TrainConfig(algorithm="lm"))
        _, rep_scg = train_scg(m0, (x, y), TrainConfig(algorithm="scg"))
        assert rep_scg.e_d / y.size < 1e-4
        assert rep_scg.e_d <= 10 * max(rep_lm.e_d, 1e-4 * y.size)


class TestBrnn:
    def test_alpha_zero_gives_full_gamma(self, rng):
        x = rng.uniform(0, 1, (30, 2))
        y = rng.normal(size=30)
        model = init(2, 3, 0)
        _, report = train_brnn(model, (x, y),
                               TrainConfig(algorithm="brnn", max_epochs=20,
                                           fixed_alpha=0.0))
        assert report.gamma_effective == model.n_params

    def test_reduces_to_lm_with_alpha_pinned(self):
        x, y = sin_task(100)
        m0 = init(1, 9, 1)
        cfg_lm = TrainConfig(algorithm="lm", max_epochs=60)
        cfg_br = TrainConfig(algorithm="brnn", max_epochs=60, fixed_alpha=0.0)
        m_lm, r_lm = train_lm(m0, (x, y), cfg_lm)
        m_br, r_br = train_brnn(m0, (x, y), cfg_br)
        assert np.max(np.abs(mlp.flatten(m_lm) - mlp.flatten(m_br))) < 1e-10
        np.testing.assert_allclose(r_lm.epoch_trace, r_br.epoch_trace, rtol=1e-10)

    def test_noisy_line_regularization(self):
        rng = np.random.default_rng(2)
        x_train = rng.uniform(0, 1, (30, 1))
        y_train = 2 * x_train[:, 0] + rng.normal(0, 0.1, 30)
        x_test = rng.uniform(0, 1, (200, 1))
        y_test = 2 * x_test[:, 0] + rng.normal(0, 0.1, 200)
        m0 = init(1, 9, 2)
        m_lm, _ = train_lm(m0, (x_train, y_train), TrainConfig(algorithm="lm"))
        m_br, report = train_brnn(m0, (x_train, y_train), TrainConfig(algorithm="brnn"))

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
        _, report = train_brnn(model, (x, y),
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
        _, report = train_brnn(model, (x, y), TrainConfig(algorithm="brnn"))
        assert report.alpha > 0
        assert 0 <= report.gamma_effective <= model.n_params


class TestGridSearch:
    def test_sweep_size(self, rng):
        x = rng.uniform(0, 1, (60, 2))
        y = np.sin(3 * x[:, 0]) + rng.normal(0, 0.05, 60)
        cfg = TrainConfig(algorithm="lm", max_epochs=20, seed=0)
        _, table = grid_search_hidden((x, y), range(2, 26), cfg)
        assert len(table) == 24

    def test_tie_breaks_to_smallest(self, rng):
        # constant targets: every hidden size reaches the same zero objective
        x = rng.uniform(0, 1, (40, 2))
        y = np.zeros(40)
        cfg = TrainConfig(algorithm="lm", max_epochs=30, seed=0)
        best, table = grid_search_hidden((x, y), range(2, 7), cfg)
        objectives = {r["objective"] for r in table}
        assert best == 2
        assert all(v < 1e-10 for v in objectives)

    def test_teacher_task_selects_near_truth(self):
        rng = np.random.default_rng(5)
        teacher = init(6, 4, 77)
        x = rng.uniform(0, 1, (200, 6))
        signal = mlp.forward_batch(teacher, x)
        y = signal + rng.normal(0, 0.2 * signal.std(), 200)
        cfg = TrainConfig(algorithm="brnn", max_epochs=150, seed=3)
        best, table = grid_search_hidden((x, y), range(2, 10), cfg)
        assert 3 <= best <= 8
        assert len(table) == 8
