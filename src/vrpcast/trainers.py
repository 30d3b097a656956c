"""Training algorithms: Levenberg-Marquardt, Moller's scaled conjugate
gradient, and the Bayesian-regularized LM variant, plus the hidden-node
grid search.

The LM family minimizes F = beta*E_D + alpha*E_w where E_D is the sum of
squared residuals and E_w the sum of squared parameters. Plain LM is the
alpha = 0, beta = 1 case of the same engine, so pinning alpha to 0 in the
Bayesian variant reproduces LM's iterates exactly.

Fits run on the flat parameter vector (mlp.residual_fns) and build one model,
from the result. Fixed constants: MU_FACTOR, MU_FLOOR, MU_MAX (damping,
Marquardt 1963), OBJECTIVE_TOLERANCE, GRADIENT_TOLERANCE (stopping, Foresee &
Hagan 1997), SCG_SIGMA and SCG_LAMBDA_INIT (sigma and lambda_1, Moller 1993).
"""

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import mlp
from .errors import TrainingError
from .series_ops import PatternSet

log = logging.getLogger(__name__)

MU_MAX = 1e12
MU_FLOOR = 1e-20
MU_FACTOR = 10.0
OBJECTIVE_TOLERANCE = 1e-7      # relative
GRADIENT_TOLERANCE = 1e-6       # infinity norm
SCG_SIGMA = 1e-4
SCG_LAMBDA_INIT = 1e-6

ALGORITHMS = ("lm", "scg", "brnn")


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = "brnn"
    max_epochs: int = 1000
    mu_init: float = 1e-3
    seed: int = 0
    # brnn only: pin alpha (disables alpha/beta reestimation); None = adapt
    fixed_alpha: Optional[float] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.mu_init <= 0.0:
            raise ValueError("mu_init must be positive")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one fit. stop_reason names the branch that ended it: for
    lm and brnn "gradient", "objective" (relative change, with alpha and beta
    stable for brnn), "mu_overflow" or "max_epochs"; for scg "gradient",
    "objective_stall", "lambda_overflow", "zero_direction" or "max_epochs".
    converged is True for "gradient" and the LM family's "objective"."""

    final_objective: float
    epoch_trace: tuple
    converged: bool
    stop_reason: str
    epochs_used: int
    e_d: float
    e_w: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma_effective: Optional[float] = None


def _as_xy(patterns):
    if isinstance(patterns, PatternSet):
        return patterns.train_inputs, patterns.train_targets
    inputs, targets = patterns
    return np.asarray(inputs, dtype=float), np.asarray(targets, dtype=float)


def lm_least_squares(
    resid_jac: Callable,
    theta0: np.ndarray,
    config: TrainConfig,
    bayes: bool = False,
    resid: Optional[Callable] = None,
):
    """Damped Gauss-Newton engine shared by train_lm and train_brnn.

    resid_jac(theta) -> (residuals, jacobian) with jacobian = d(res)/d(theta)
    is called at theta0 and after each accepted step only, so it may return
    the same Jacobian buffer every time. J is read only through J'J and J'r,
    so its memory order does not matter. Trial steps evaluate
    resid(theta) -> residuals (default: the residuals of resid_jac).

    One eigendecomposition J'J = V diag(lam) V' per Jacobian serves every
    damping retry, as the diagonal solve
    step = -V (V'g) / (beta*(lam + mu) + alpha) with g = beta*J'r + alpha*theta,
    and BRNN's tr(H^-1). A trial step that is not finite is rejected.
    With bayes=True alpha/beta are reestimated from the Gauss-Newton Hessian
    after each accepted step (unless config.fixed_alpha pins alpha).
    """
    if resid is None:
        def resid(theta):
            return resid_jac(theta)[0]

    theta = np.asarray(theta0, dtype=float).copy()
    n_w = theta.size
    r, jac = resid_jac(theta)
    n_d = r.size
    if n_d == 0:
        raise TrainingError("no training patterns")
    e_d = float(r @ r)
    e_w = float(theta @ theta)
    reestimate = bayes and config.fixed_alpha is None
    alpha = float(config.fixed_alpha) if (bayes and config.fixed_alpha is not None) else 0.0
    beta = 1.0
    gamma = float(n_w)
    objective = beta * e_d + alpha * e_w
    if not np.isfinite(objective):
        raise TrainingError("non-finite objective at the initial point")
    mu = config.mu_init
    trace = [objective]
    stop_reason = "max_epochs"
    epochs = 0
    eig = None  # (lam, V) of the current J'J
    for _ in range(config.max_epochs):
        g = beta * (jac.T @ r) + alpha * theta
        if np.max(np.abs(2.0 * g)) < GRADIENT_TOLERANCE:
            stop_reason = "gradient"
            break
        epochs += 1
        if eig is None:
            eig = np.linalg.eigh(jac.T @ jac)
        lam, vecs = eig
        g_eig = vecs.T @ g
        accepted = False
        while mu <= MU_MAX:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta_new = theta - vecs @ (g_eig / (beta * (lam + mu) + alpha))
            if np.all(np.isfinite(theta_new)):
                r_new = resid(theta_new)
                e_d_new = float(r_new @ r_new)
                e_w_new = float(theta_new @ theta_new)
                obj_new = beta * e_d_new + alpha * e_w_new
                if np.isfinite(obj_new) and obj_new <= objective:
                    accepted = True
                    break
            mu *= MU_FACTOR
        if not accepted:
            stop_reason = "mu_overflow"  # no further descent possible
            break
        mu_used = mu
        mu = max(mu / MU_FACTOR, MU_FLOOR)
        rel_change = abs(objective - obj_new) / max(abs(objective), 1e-300)
        theta, e_d, e_w = theta_new, e_d_new, e_w_new
        r, jac = resid_jac(theta)
        eig = None
        params_stable = True
        if reestimate:
            old_alpha, old_beta = alpha, beta
            eig = np.linalg.eigh(jac.T @ jac)
            # gamma = N_w - 2*alpha*tr(H^-1), summed per eigenvalue as
            # d/(d + alpha) with d = beta*(lam + mu_used): the difference
            # cancels to rounding noise, possibly negative, when alpha
            # dominates every d. The accepted step's damping keeps H
            # positive definite even when J'J is rank deficient.
            d = beta * (np.clip(eig[0], 0.0, None) + mu_used)
            gamma = float(np.sum(d / (d + alpha)))
            if e_w > 0.0:
                alpha = gamma / (2.0 * e_w)
            if gamma <= n_d - 1 and e_d > 0.0:
                beta = (n_d - gamma) / (2.0 * e_d)
            if not (np.isfinite(alpha) and np.isfinite(beta)):
                raise TrainingError("non-finite alpha/beta reestimate")
            params_stable = (
                abs(alpha - old_alpha) <= OBJECTIVE_TOLERANCE * max(abs(old_alpha), 1e-300)
                and abs(beta - old_beta) <= OBJECTIVE_TOLERANCE * max(abs(old_beta), 1e-300)
            )
        objective = beta * e_d + alpha * e_w
        trace.append(objective)
        if rel_change < OBJECTIVE_TOLERANCE and params_stable:
            stop_reason = "objective"
            break
    report = TrainReport(
        final_objective=objective,
        epoch_trace=tuple(trace),
        converged=stop_reason in ("gradient", "objective"),
        stop_reason=stop_reason,
        epochs_used=epochs,
        e_d=e_d,
        e_w=e_w,
        alpha=alpha if bayes else None,
        beta=beta if bayes else None,
        gamma_effective=gamma if bayes else None,
    )
    return theta, report


def scg_minimize(
    f: Callable,
    grad: Callable,
    x0: np.ndarray,
    max_iter: int = 1000,
    grad_tol: float = GRADIENT_TOLERANCE,
):
    """Moller's scaled conjugate gradient with finite-difference
    Hessian-vector products. Returns (x, trace, stop_reason, iters), the
    reason as in TrainReport; only "gradient" means the gradient criterion
    was met."""
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    fx = float(f(x))
    g = grad(x)
    r = -g
    p = r.copy()
    lam = SCG_LAMBDA_INIT
    lam_bar = 0.0
    success = True
    trace = [fx]
    stop_reason = "max_epochs"
    iters = 0
    delta = 0.0
    pnorm2 = float(p @ p)
    if np.max(np.abs(g)) < grad_tol:
        return x, trace, "gradient", 0
    for k in range(1, max_iter + 1):
        iters = k
        if success:
            pnorm2 = float(p @ p)
            if pnorm2 == 0.0:
                # g failed the gradient test when it was computed
                stop_reason = "zero_direction"
                break
            sigma = SCG_SIGMA / np.sqrt(pnorm2)
            s = (grad(x + sigma * p) - g) / sigma
            delta = float(p @ s)
        delta_k = delta + (lam - lam_bar) * pnorm2
        if delta_k <= 0.0:
            lam_bar = 2.0 * (lam - delta_k / pnorm2)
            delta_k = -delta_k + lam * pnorm2
            lam = lam_bar
        mu = float(p @ r)
        alpha = mu / delta_k
        f_new = float(f(x + alpha * p))
        comparison = 2.0 * delta_k * (fx - f_new) / (mu * mu)
        if np.isfinite(comparison) and comparison >= 0.0:
            x = x + alpha * p
            fx_old, fx = fx, f_new
            g = grad(x)
            r_new = -g
            lam_bar = 0.0
            success = True
            if k % n == 0:
                p = r_new.copy()
            else:
                beta_cg = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta_cg * p
            r = r_new
            trace.append(fx)
            if comparison >= 0.75:
                lam = max(0.25 * lam, 1e-18)
            if np.max(np.abs(g)) < grad_tol:
                stop_reason = "gradient"
                break
            if abs(fx_old - fx) < OBJECTIVE_TOLERANCE * max(abs(fx_old), 1e-300):
                stop_reason = "objective_stall"
                break
        else:
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam = lam + delta_k * (1.0 - comparison) / pnorm2
        if lam > 1e20:
            stop_reason = "lambda_overflow"
            break
    return x, trace, stop_reason, iters


def _train_lm_family(model, patterns, config, bayes):
    resid, resid_jac, _ = mlp.residual_fns(model, *_as_xy(patterns))
    theta, report = lm_least_squares(
        resid_jac, mlp.flatten(model), config, bayes=bayes, resid=resid
    )
    return mlp.unflatten(theta, model.input_dim, model.hidden_dim), report


def train_lm(model, patterns, config: TrainConfig):
    """Levenberg-Marquardt minimization of the sum of squared residuals."""
    return _train_lm_family(model, patterns, config, bayes=False)


def train_brnn(model, patterns, config: TrainConfig):
    """LM on F = beta*E_D + alpha*E_w with evidence-style alpha/beta updates.

    After each accepted step: H ~ 2*beta*J'J + 2*alpha*I,
    gamma = N_w - 2*alpha*tr(H^-1) (computed as a sum of per-eigenvalue
    terms, each in [0, 1]), alpha = gamma/(2*E_w),
    beta = (N_D - gamma)/(2*E_D). alpha starts at 0, beta at 1, with the
    first reestimation after the first accepted step."""
    return _train_lm_family(model, patterns, config, bayes=True)


def train_scg(model, patterns, config: TrainConfig):
    """Moller's scaled conjugate gradient on the sum of squared residuals."""
    resid, _, resid_grad = mlp.residual_fns(model, *_as_xy(patterns))

    def objective(theta):
        r = resid(theta)
        return float(r @ r)

    def gradient(theta):
        return 2.0 * resid_grad(theta)[1]

    theta, trace, stop_reason, iters = scg_minimize(
        objective,
        gradient,
        mlp.flatten(model),
        max_iter=config.max_epochs,
    )
    report = TrainReport(
        final_objective=trace[-1],
        epoch_trace=tuple(trace),
        converged=stop_reason == "gradient",
        stop_reason=stop_reason,
        epochs_used=iters,
        e_d=trace[-1],
        e_w=float(theta @ theta),
    )
    return mlp.unflatten(theta, model.input_dim, model.hidden_dim), report


_TRAINERS = {"lm": train_lm, "scg": train_scg, "brnn": train_brnn}


def train(model, patterns, config: TrainConfig):
    return _TRAINERS[config.algorithm](model, patterns, config)


def grid_search_fit(patterns, h_range, config: TrainConfig):
    """Train one model per hidden size (seed derived as config.seed + h) and
    pick the size with the lowest final training MSE; ties go to the
    smaller h. Sizes whose training aborts are excluded.

    Returns (best_h, table, model, report), the last two from best_h's fit."""
    h_values = list(h_range)
    if not h_values:
        raise ValueError("h_range must be non-empty")
    inputs, targets = _as_xy(patterns)
    n_train = targets.size
    results = []
    fits = {}
    for h in h_values:
        model0 = mlp.init(inputs.shape[1], h, config.seed + h)
        try:
            trained, report = train(model0, (inputs, targets), config)
        except TrainingError as exc:
            log.warning("hidden size %d aborted: %s", h, exc)
            results.append({"hidden": h, "objective": None, "error": str(exc)})
            continue
        fits[h] = trained, report
        results.append({
            "hidden": h,
            "objective": report.e_d / n_train,
            "converged": report.converged,
            "epochs_used": report.epochs_used,
        })
    usable = [r for r in results if r["objective"] is not None]
    if not usable:
        raise TrainingError("every hidden size aborted during grid search")
    best = min(usable, key=lambda r: (r["objective"], r["hidden"]))["hidden"]
    return best, results, *fits[best]


def grid_search_hidden(patterns, h_range, config: TrainConfig):
    """grid_search_fit's (best_h, table), without the winning fit."""
    best, results, _, _ = grid_search_fit(patterns, h_range, config)
    return best, results
