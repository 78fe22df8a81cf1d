"""Per-response estimation: modified quasi-likelihood and naive MLE.

Each response column is fit separately by maximising either

* the modified quasi-log-likelihood
  ``Q(f) = (1/n) sum_i integral_0^{f.x_i} (y_i - b'(s)) / b''(s) ds``
  whose closed-form terms live in :mod:`ghive.families`, or
* the ordinary log-likelihood ``(1/n) sum_i [y_i f.x_i - b(f.x_i)]``
  (the naive baseline that ignores hidden confounding).

Both use the same damped Newton ascent: solve the Newton system against the
negated Hessian, fall back to a plain gradient step when the curvature matrix
is not usable, and halve the step until the objective strictly increases.
Accepted iterates therefore have a monotone objective path.

The two-fold split used for cross-fitting is a seeded permutation; all
randomness here is confined to :func:`make_split`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DataValidationError
from .families import (
    GlmFamily,
    b_derivs,
    quasi_hessian_weight,
    quasi_loglik_term,
    weighted_residual,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
MAX_STEP_HALVINGS = 30

# Coefficient-norm bound for the quasi-likelihood ascent. The quasi-objective
# rewards correctly classified bernoulli observations linearly in the linear
# predictor, so on (near-)separated folds the unconstrained maximum sits at
# infinity or at an absurd norm; the theory behind the estimator restricts
# attention to a compact coefficient class anyway (a lower bound on b'' along
# fitted predictors amounts to the same thing). Fits are therefore maximised
# over the L2 ball of this radius. Population-level coefficient rows in every
# setting exercised by the tests stay below norm ~9, so the bound leaves
# regular problems untouched.
DEFAULT_RADIUS = 20.0


@dataclass(frozen=True)
class SplitPlan:
    """A two-fold partition of row indices {0..n-1}.

    ``d1`` holds ceil(n/2) indices, ``d2`` the rest; both are sorted.
    The plan is a deterministic function of (n, seed).
    """

    n: int
    seed: int
    d1: np.ndarray
    d2: np.ndarray


def make_split(n: int, seed: int) -> SplitPlan:
    """Randomly split ``range(n)`` into two folds via a seeded permutation."""
    if n < 2:
        raise DataValidationError(f"need at least 2 rows to split, got n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    half = (n + 1) // 2
    d1 = np.sort(perm[:half])
    d2 = np.sort(perm[half:])
    return SplitPlan(n=n, seed=seed, d1=d1, d2=d2)


@dataclass
class CoefMatrix:
    """Stacked per-response coefficient fits.

    values     : (M, p) coefficient rows
    converged  : (M,) bool, gradient sup-norm below tolerance at the solution
    grad_norm  : (M,) final gradient sup-norms
    """

    values: np.ndarray
    converged: np.ndarray
    grad_norm: np.ndarray


@dataclass
class ResponseFit:
    """Result of a single-response maximisation."""

    f_hat: np.ndarray
    converged: bool
    grad_norm: float
    q_value: float
    n_iter: int = 0
    objective_path: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# objective / gradient evaluations


def quasi_objective(x: np.ndarray, y: np.ndarray, family: GlmFamily, coef) -> float:
    """Mean modified quasi-log-likelihood at coefficient vector ``coef``."""
    eta = x @ np.asarray(coef, dtype=float)
    return float(np.mean(quasi_loglik_term(family, y, eta)))


def quasi_gradient(x: np.ndarray, y: np.ndarray, family: GlmFamily, coef) -> np.ndarray:
    """Gradient of :func:`quasi_objective`: mean of weighted residual times x."""
    eta = x @ np.asarray(coef, dtype=float)
    return x.T @ weighted_residual(family, y, eta) / x.shape[0]


def loglik_objective(x: np.ndarray, y: np.ndarray, family: GlmFamily, coef) -> float:
    """Mean ordinary log-likelihood (up to the y-only term) at ``coef``."""
    eta = x @ np.asarray(coef, dtype=float)
    b = b_derivs(family, eta)[0]
    with np.errstate(invalid="ignore"):
        return float(np.mean(y * eta - b))


def loglik_gradient(x: np.ndarray, y: np.ndarray, family: GlmFamily, coef) -> np.ndarray:
    eta = x @ np.asarray(coef, dtype=float)
    b1 = b_derivs(family, eta)[1]
    return x.T @ (y - b1) / x.shape[0]


def weighted_gram(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``x.T @ diag(weights) @ x`` without forming the diagonal matrix."""
    return x.T @ (weights[:, None] * x)


def _curvature(x, y, family, eta, kind) -> np.ndarray:
    """Negated Hessian of the mean objective (a p x p matrix)."""
    if kind == "quasi":
        w = quasi_hessian_weight(family, y, eta)
    else:
        w = b_derivs(family, eta)[2]
    return weighted_gram(x, w) / x.shape[0]


def _ascent_direction(curv: np.ndarray, grad: np.ndarray):
    """Newton direction from the negated Hessian, or None if unusable.

    A failed Cholesky factorisation gets one retry after adding
    ``delta = 1e-8 * (1 + |min eigenvalue|)`` to the diagonal; if that still
    fails the caller takes a plain gradient step.
    """
    try:
        d = cho_solve(cho_factor(curv, lower=True), grad)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(curv)[0])
        delta = 1e-8 * (1.0 + abs(lam_min))
        try:
            reg = curv + delta * np.eye(curv.shape[0])
            d = cho_solve(cho_factor(reg, lower=True), grad)
        except np.linalg.LinAlgError:
            return None
    if not np.all(np.isfinite(d)) or float(grad @ d) <= 0.0:
        return None
    return d


def _ball_project(f: np.ndarray, radius) -> np.ndarray:
    if radius is None:
        return f
    norm = float(np.linalg.norm(f))
    if norm <= radius:
        return f
    return f * (radius / norm)


def _newton_ascent(x, y, family, start, tol, max_iter, kind, radius=None) -> ResponseFit:
    objective = quasi_objective if kind == "quasi" else loglik_objective
    gradient = quasi_gradient if kind == "quasi" else loglik_gradient

    f = _ball_project(np.asarray(start, dtype=float).copy(), radius)
    value = objective(x, y, family, f)
    if not np.isfinite(value):
        # unusable warm start; report it as-is and let the caller's other
        # starts compete
        return ResponseFit(f, False, np.inf, value, 0, [value])

    path = [value]
    grad = gradient(x, y, family, f)
    gnorm = float(np.max(np.abs(grad)))
    it = 0
    while gnorm >= tol and it < max_iter:
        it += 1
        curv = _curvature(x, y, family, x @ f, kind)
        direction = _ascent_direction(curv, grad)
        if direction is None:
            direction = grad
        if radius is not None:
            # keep the backtracking scale meaningful: a near-singular
            # curvature matrix can suggest steps many orders of magnitude
            # longer than the feasible ball
            dnorm = float(np.linalg.norm(direction))
            if dnorm > 2.0 * radius:
                direction = direction * (2.0 * radius / dnorm)
        step = 1.0
        accepted = False
        for _ in range(MAX_STEP_HALVINGS):
            cand = _ball_project(f + step * direction, radius)
            cand_value = objective(x, y, family, cand)
            if np.isfinite(cand_value) and cand_value > value:
                f, value = cand, cand_value
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        path.append(value)
        grad = gradient(x, y, family, f)
        gnorm = float(np.max(np.abs(grad)))
    return ResponseFit(f, gnorm < tol, gnorm, value, it, path)


# ---------------------------------------------------------------------------
# public fitting entry points


def fit_qml_one(
    x: np.ndarray,
    y: np.ndarray,
    family: GlmFamily,
    starts,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    radius=DEFAULT_RADIUS,
) -> ResponseFit:
    """Maximise the quasi-log-likelihood for one response column.

    Runs the damped Newton ascent from every vector in ``starts`` and keeps
    the candidate with the largest final objective (first wins ties). The
    search is confined to the L2 ball ``|f| <= radius`` (pass None to lift
    the bound).
    """
    if not starts:
        raise DataValidationError("need at least one start vector")
    best = None
    for start in starts:
        fit = _newton_ascent(x, y, family, start, tol, max_iter, "quasi", radius)
        if best is None or fit.q_value > best.q_value:
            best = fit
    return best


def fit_naive_mle(
    data,
    family: GlmFamily,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    radius=DEFAULT_RADIUS,
) -> CoefMatrix:
    """Ordinary per-response GLM maximum likelihood on the full sample.

    This is the baseline that treats each response as a plain GLM in x,
    ignoring any hidden structure. The log-likelihood is concave under the
    canonical link, so a single zero start suffices. The same coefficient
    ball as the quasi-likelihood fits applies (separation sends the MLE to
    infinity just the same).
    """
    return _fit_matrix(data.x, data.y, family, tol, max_iter, kind="loglik", radius=radius)


def _fit_matrix(x, y, family, tol, max_iter, kind, radius=DEFAULT_RADIUS) -> CoefMatrix:
    """Fit every response column: ``kind="loglik"`` is the naive MLE from
    zero; ``kind="quasi"`` maximises the quasi-likelihood from both zero and
    that MLE."""
    n, p = x.shape
    m_dim = y.shape[1]
    values = np.zeros((m_dim, p))
    converged = np.zeros(m_dim, dtype=bool)
    grad_norm = np.zeros(m_dim)
    zero = np.zeros(p)
    for m in range(m_dim):
        col = y[:, m]
        fit = _newton_ascent(x, col, family, zero, tol, max_iter, "loglik", radius)
        if kind == "quasi":
            fit = fit_qml_one(x, col, family, [zero, fit.f_hat], tol, max_iter, radius)
        values[m] = fit.f_hat
        converged[m] = fit.converged
        grad_norm[m] = fit.grad_norm
    return CoefMatrix(values, converged, grad_norm)


def fit_qml_all(
    data,
    family: GlmFamily,
    split: SplitPlan,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    radius=DEFAULT_RADIUS,
):
    """Quasi-likelihood fits on both folds plus their entrywise average.

    Each response within each fold starts from both the zero vector and the
    fold's own naive MLE. The averaged CoefMatrix marks a response converged
    only when both fold fits converged, and reports the larger of the two
    gradient norms.

    Returns
    -------
    (CoefMatrix, CoefMatrix, CoefMatrix)
        Fold-1 fit, fold-2 fit, and their average.
    """
    x, y = data.x, data.y
    p = x.shape[1]
    fold_fits = []
    for label, idx in (("d1", split.d1), ("d2", split.d2)):
        if len(idx) < p:
            raise DataValidationError(
                f"fold {label} has {len(idx)} rows but the design has p={p} "
                "columns; too few observations to fit"
            )
        fold_fits.append(
            _fit_matrix(x[idx], y[idx], family, tol, max_iter, kind="quasi", radius=radius)
        )
    fit1, fit2 = fold_fits
    avg = CoefMatrix(
        values=0.5 * (fit1.values + fit2.values),
        converged=fit1.converged & fit2.converged,
        grad_norm=np.maximum(fit1.grad_norm, fit2.grad_norm),
    )
    return fit1, fit2, avg
