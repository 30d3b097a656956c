"""Training algorithms: Levenberg-Marquardt, Moller's scaled conjugate
gradient, and the Bayesian-regularized LM variant, plus the hidden-node
grid search, which the pipeline runs for one hidden size as for many.

The LM family minimizes F = beta*E_D + alpha*E_w where E_D is the sum of
squared residuals and E_w the sum of squared parameters. Plain LM is the
alpha = 0, beta = 1 case of the same engine, so pinning alpha to 0 in the
Bayesian variant reproduces LM's iterates exactly. Each damping trial is one
linear solve of the damped normal equations, as in MATLAB's trainlm and
trainbr; only the Bayesian variant's gamma takes J'J's eigenvalues.

Fits run on the flat parameter vector (mlp.residual_fns) and build one model,
from the result. Each rule has one owner: train alone decides which rows a
fit descends and builds their residual functions, and CONVERGED alone names
the stop reasons that mean converged. Fixed constants: MU_FACTOR, MU_FLOOR,
MU_MAX (damping, Marquardt 1963), OBJECTIVE_TOLERANCE, GRADIENT_TOLERANCE
(stopping), E_D_TOLERANCE and GAMMA_TOLERANCE (the BRNN stop), GAMMA_PLATEAU
and PLATEAU_SIZES (the BRNN grid stop, Foresee & Hagan 1997),
VALIDATION_FRACTION and MAX_FAIL (the validation stop, MATLAB's trainlm with
divideblock's time-ordered split; Prechelt 1998), SCG_SIGMA and
SCG_LAMBDA_INIT (sigma and lambda_1, Moller 1993).
"""

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import mlp
from .errors import TrainingError
from .series_ops import PatternSet, dot

log = logging.getLogger(__name__)

MU_MAX = 1e12
MU_FLOOR = 1e-20
MU_FACTOR = 10.0
OBJECTIVE_TOLERANCE = 1e-7      # relative
GRADIENT_TOLERANCE = 1e-6       # infinity norm
E_D_TOLERANCE = 1e-6            # relative change in E_D
GAMMA_TOLERANCE = 1e-3          # change in gamma, times max(1, gamma)
GAMMA_PLATEAU = 0.05            # relative growth of gamma from one size to the next
PLATEAU_SIZES = 2               # consecutive sizes below GAMMA_PLATEAU
VALIDATION_FRACTION = 0.15      # last share of a fit's training rows
MAX_FAIL = 6                    # epochs in a row without a better validation SSE
SCG_SIGMA = 1e-4
SCG_LAMBDA_INIT = 1e-6

ALGORITHMS = ("lm", "scg", "brnn")
# the stop reasons (TrainReport.stop_reason) that mean a fit converged
CONVERGED = ("gradient", "objective", "validation", "e_d_and_gamma")


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = "brnn"
    max_epochs: int = 1000
    mu_init: float = 1e-3
    # brnn only: pin alpha (disables alpha/beta reestimation); None = adapt
    fixed_alpha: Optional[float] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, not {self.max_epochs}")
        if self.mu_init <= 0.0:
            raise ValueError("mu_init must be positive")
        if self.fixed_alpha is not None and self.algorithm != "brnn":
            raise ValueError(f"fixed_alpha applies to brnn only, not {self.algorithm}")

    @property
    def reestimates_alpha(self) -> bool:
        """brnn with alpha free: alpha and beta follow the data after each step."""
        return self.algorithm == "brnn" and self.fixed_alpha is None


@dataclass(frozen=True)
class BayesTrace:
    """A brnn fit's state at its start (entry 0) and after each accepted
    step: E_D, gamma and the alpha and beta re-estimated from it, and mu, the
    damping of that step (mu_init at entry 0). Entry k's gamma was computed
    with entry k-1's alpha and beta."""

    e_d: tuple
    gamma: tuple
    alpha: tuple
    beta: tuple
    mu: tuple


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one fit. stop_reason names the branch that ended it: for
    lm, and brnn with alpha pinned, "gradient", "objective" (F changed by
    less than OBJECTIVE_TOLERANCE, relative), "validation" (MAX_FAIL epochs
    in a row without a lower validation SSE; it wins over "objective" on the
    same epoch), "mu_overflow" or "max_epochs";
    for brnn re-estimating alpha "gradient", "e_d_and_gamma" (E_D and gamma
    are within E_D_TOLERANCE, relative, and GAMMA_TOLERANCE * max(1, gamma)
    of their values one or two accepted steps back; two steps back ends a
    fit that swaps between two states), "mu_overflow" or "max_epochs"; for scg
    "gradient", "objective_stall", "lambda_overflow", "zero_direction" or
    "max_epochs". converged is stop_reason in CONVERGED.

    epoch_trace holds F at the start and at each accepted point, under the
    alpha and beta that its step minimized, over the rows the fit descends.
    validation_trace holds the validation block's SSE at the same points
    when the fit held one out (see train), else it is None; the fit then
    returns the point of its lowest entry. e_d is the SSE over every
    training row at the returned point, validation block included, and e_w
    the sum of squared weights there. gamma_effective is gamma of the last
    re-estimate, N_w when alpha is pinned; bayes_trace is set for brnn
    only."""

    epoch_trace: tuple
    converged: bool
    stop_reason: str
    epochs_used: int
    e_d: float
    e_w: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma_effective: Optional[float] = None
    bayes_trace: Optional[BayesTrace] = None
    validation_trace: Optional[tuple] = None


@dataclass(frozen=True)
class GridRow:
    """One hidden size of a grid search. A fit that aborted has its message
    in error; a size the grid did not train has its reason in skipped. Both
    have None in objective, converged, epochs_used and gamma. gamma is the
    fit's gamma_effective, None for lm and scg."""

    hidden: int
    objective: Optional[float] = None
    converged: Optional[bool] = None
    epochs_used: Optional[int] = None
    gamma: Optional[float] = None
    error: Optional[str] = None
    skipped: Optional[str] = None


def _sse(r):
    return dot(r, r)


def _as_xy(patterns):
    if isinstance(patterns, PatternSet):
        return patterns.train_inputs, patterns.train_targets
    inputs, targets = patterns
    return np.asarray(inputs, dtype=float), np.asarray(targets, dtype=float)


def lm_least_squares(
    resid: Callable,
    normal_eqs: Callable,
    theta0: np.ndarray,
    config: TrainConfig,
    validation: Optional[Callable] = None,
):
    """Damped Gauss-Newton engine of the lm and brnn fits: BRNN when
    config.algorithm is "brnn", plain LM when it is "lm". A ValueError
    names any other algorithm.

    resid(theta) -> residuals evaluates theta0 and each trial step;
    normal_eqs(theta) -> (J'J, J'r), J = d(res)/d(theta) the Jacobian, is
    called at theta0 and after each accepted step only, always at the point
    resid evaluated last, so mlp.residual_fns reuses resid's activations.
    The engine reads J only through these products, so the caller may build
    them from J in row blocks and never hold it whole.

    Each damping trial is one linear solve: theta - s, where
    (beta*J'J + (beta*mu + alpha)*I) s = g and g = beta*J'r + alpha*theta.
    A trial whose system is singular or whose step is not finite is
    rejected, and mu grows as for a step that raises F. Nothing is
    decomposed, except for BRNN's gamma.
    A brnn fit pins alpha at config.fixed_alpha when that is set; otherwise
    (config.reestimates_alpha) alpha/beta are reestimated after each
    accepted step from the undamped Gauss-Newton Hessian
    2*beta*J'J + 2*alpha*I: gamma = sum of beta*lam/(beta*lam + alpha)
    over the eigenvalues lam of the new J'J (np.linalg.eigvalsh, once per
    accepted step), a 0/0 term counted as 0, then
    alpha = gamma/(2*E_w) and beta = (N_D - gamma)/(2*E_D), from alpha = 0
    and beta = 1 at the start (Foresee & Hagan 1997). Such a fit stops
    when E_D and gamma have both settled, or repeat their values of two
    steps back (TrainReport, "e_d_and_gamma"); any other stops when F has.

    validation(theta) -> residuals on a held-out block, given only for a fit
    that does not re-estimate alpha, is evaluated at the start and after
    each accepted step. The fit then also stops after MAX_FAIL epochs in a
    row that do not lower the best validation SSE so far, and whatever the
    stop it returns the point of that best SSE. The report's e_d is the SSE
    at the returned point over the rows of resid and, given validation, the
    held-out block.
    """
    if config.algorithm not in ("lm", "brnn"):
        raise ValueError(f"lm_least_squares runs lm and brnn, not {config.algorithm}")
    theta = np.asarray(theta0, dtype=float).copy()
    n_w = theta.size
    r = resid(theta)
    n_d = r.size
    if n_d == 0:
        raise TrainingError("no training patterns")
    e_d = _sse(r)
    e_w = float(theta @ theta)
    bayes = config.algorithm == "brnn"
    reestimate = config.reestimates_alpha
    alpha = 0.0 if config.fixed_alpha is None else float(config.fixed_alpha)
    beta = 1.0
    gamma = float(n_w)
    objective = beta * e_d + alpha * e_w
    if not np.isfinite(objective):
        raise TrainingError("non-finite objective at the initial point")
    jtj, jtr = normal_eqs(theta)
    eye = np.eye(n_w)
    mu = config.mu_init
    trace = [objective]
    history = [(e_d, gamma, alpha, beta, mu)]
    if validation is not None:
        best_val = _sse(validation(theta))
        val_trace = [best_val]
        best = theta, e_d, e_w     # theta is never written in place
        fails = 0
    stop_reason = None
    epochs = 0
    for _ in range(config.max_epochs):
        g = beta * jtr + alpha * theta
        if 2.0 * abs(g).max() < GRADIENT_TOLERANCE:
            stop_reason = "gradient"
            break
        epochs += 1
        beta_jtj = beta * jtj
        accepted = False
        while mu <= MU_MAX:
            try:
                # a step so large that E_w overflows reads inf and is rejected
                with np.errstate(over="ignore"):
                    theta_new = theta - np.linalg.solve(beta_jtj + (beta * mu + alpha) * eye, g)
                    e_w_new = float(theta_new @ theta_new)
            except np.linalg.LinAlgError:
                e_w_new = np.nan    # a singular system, rejected as a non-finite step is
            if np.isfinite(e_w_new):
                e_d_new = _sse(resid(theta_new))
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
        trace.append(obj_new)
        if validation is not None:
            val_trace.append(_sse(validation(theta)))
            if val_trace[-1] < best_val:
                best, best_val, fails = (theta, e_d, e_w), val_trace[-1], 0
            else:
                fails += 1
        if validation is not None and fails == MAX_FAIL:
            stop_reason = "validation"  # J at this point would go unused
        else:
            jtj, jtr = normal_eqs(theta)
        if reestimate:
            # positive beta*lam only: eigvalsh's rounding can make a zero
            # eigenvalue slightly negative, and a 0/0 term counts as 0
            d = beta * np.linalg.eigvalsh(jtj)
            d = d[d > 0.0]
            gamma = float(np.sum(d / (d + alpha)))
            if e_w > 0.0:
                alpha = gamma / (2.0 * e_w)
            if gamma <= n_d - 1 and e_d > 0.0:
                beta = (n_d - gamma) / (2.0 * e_d)
            if not (np.isfinite(alpha) and np.isfinite(beta)):
                raise TrainingError("non-finite alpha/beta reestimate")
            # settled, or swapping between two states: one and two steps back
            if any(abs(e_d - e_d_then) / max(e_d_then, 1e-300) < E_D_TOLERANCE
                   and abs(gamma - gamma_then) <= GAMMA_TOLERANCE * max(1.0, gamma)
                   for e_d_then, gamma_then, *_ in history[-2:]):
                stop_reason = "e_d_and_gamma"
        elif not stop_reason and rel_change < OBJECTIVE_TOLERANCE:
            stop_reason = "objective"
        history.append((e_d, gamma, alpha, beta, mu_used))
        objective = beta * e_d + alpha * e_w
        if stop_reason:
            break
    stop_reason = stop_reason or "max_epochs"
    if validation is not None:
        theta, e_d, e_w = best
        e_d += best_val
    report = TrainReport(
        epoch_trace=tuple(trace),
        converged=stop_reason in CONVERGED,
        stop_reason=stop_reason,
        epochs_used=epochs,
        e_d=e_d,
        e_w=e_w,
        alpha=alpha if bayes else None,
        beta=beta if bayes else None,
        gamma_effective=gamma if bayes else None,
        bayes_trace=BayesTrace(*zip(*history)) if bayes else None,
        validation_trace=None if validation is None else tuple(val_trace),
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


def train(model, patterns, config: TrainConfig):
    """Fit model to patterns, a PatternSet or an (inputs, targets) pair, with
    config.algorithm; returns (trained model, TrainReport).

    lm: Levenberg-Marquardt on the sum of squared residuals. It holds out
    the last VALIDATION_FRACTION of the training rows, in the order given,
    as MATLAB's trainlm with divideblock does, and stops on them. brnn: the
    same engine on F = beta*E_D + alpha*E_w, re-estimating alpha and beta
    after each step (Foresee & Hagan 1997) on every training row; with
    config.fixed_alpha it is lm with alpha pinned, validation block
    included. scg: Moller's scaled conjugate gradient on the sum of squared
    residuals of every training row. lm_least_squares and TrainReport give
    the details."""
    inputs, targets = _as_xy(patterns)
    scg = config.algorithm == "scg"
    n_val = 0 if scg or config.reestimates_alpha else int(VALIDATION_FRACTION * targets.size)
    n_fit = targets.size - n_val
    resid, normal_eqs, resid_grad = mlp.residual_fns(model, inputs[:n_fit], targets[:n_fit])
    if scg:
        theta, trace, stop_reason, iters = scg_minimize(
            lambda theta: _sse(resid(theta)), lambda theta: 2.0 * resid_grad(theta)[1],
            mlp.flatten(model), max_iter=config.max_epochs)
        report = TrainReport(tuple(trace), stop_reason in CONVERGED, stop_reason, iters,
                             e_d=trace[-1], e_w=float(theta @ theta))
    else:
        validation = (mlp.residual_fns(model, inputs[n_fit:], targets[n_fit:])[0]
                      if n_val else None)
        theta, report = lm_least_squares(resid, normal_eqs, mlp.flatten(model), config,
                                         validation=validation)
    return mlp.unflatten(theta, model.input_dim, model.hidden_dim), report


def initial_model(p, h, seed):
    """The start of every fit of size h, alone or in a grid: init(p, h, seed + h)."""
    return mlp.init(p, h, seed + h)


def grid_search_fit(patterns, h_range, config: TrainConfig, seed: int = 0):
    """Train one model per hidden size of h_range, which must strictly ascend
    (ValueError otherwise), from initial_model(p, h, seed), and pick the
    trained size with the lowest final training MSE, the report's e_d over
    the number of training rows; a tie stays with the smaller h. Sizes whose
    training aborts are excluded. Only the best fit so far is kept.

    A brnn grid that re-estimates alpha stops growing h once gamma has grown
    by less than GAMMA_PLATEAU, relative, from one trained size to the next
    for PLATEAU_SIZES sizes in a row (Foresee & Hagan 1997): the larger
    sizes are not trained and their rows name the size where gamma stopped
    growing in skipped. lm, scg and pinned-alpha grids train every size.

    Returns (best_h, table of one GridRow per size of h_range, model,
    report), the last two from best_h's fit. TrainingError, ending with the
    last size's message, when every size aborts."""
    if not h_range:
        raise ValueError("h_range must be non-empty")
    if not all(a < b for a, b in zip(h_range, h_range[1:])):
        raise ValueError(f"h_range must strictly ascend, not {list(h_range)}")
    inputs, targets = _as_xy(patterns)
    rows = []
    best = None     # (row, model, report) of the best trained size so far
    skipped = None
    for h in h_range:
        if skipped is not None:
            rows.append(GridRow(h, skipped=skipped))
            continue
        try:
            trained, report = train(initial_model(inputs.shape[1], h, seed), (inputs, targets),
                                    config)
        except TrainingError as exc:
            log.warning("hidden size %d aborted: %s", h, exc)
            rows.append(GridRow(h, error=str(exc)))
            continue
        row = GridRow(h, report.e_d / targets.size, report.converged, report.epochs_used,
                      report.gamma_effective)
        rows.append(row)
        if best is None or row.objective < best[0].objective:
            best = row, trained, report
        recent = [r for r in rows if r.objective is not None][-1 - PLATEAU_SIZES:]
        if config.reestimates_alpha and len(recent) > PLATEAU_SIZES and not any(
                b.gamma >= (1.0 + GAMMA_PLATEAU) * a.gamma for a, b in zip(recent, recent[1:])):
            start = recent[0]
            skipped = (f"gamma stopped growing at h = {start.hidden}: it grew by under "
                       f"{100 * GAMMA_PLATEAU:g}% per size up to h = {h}")
            log.info("gamma stopped growing at h = %d (gamma %.4g; %.4g at h = %d); "
                     "sizes above %d are not trained", start.hidden, start.gamma, row.gamma, h, h)
    if best is None:
        raise TrainingError(f"every hidden size aborted; h = {h}: {rows[-1].error}")
    return best[0].hidden, rows, *best[1:]

