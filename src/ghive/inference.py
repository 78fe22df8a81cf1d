"""Confidence intervals for entries (and contrasts) of the projected fit.

For a contrast pair (u, v) the point estimate is ``u' theta_hat v``. Its
uncertainty is built from per-observation influence terms

    h_i[m] = eps_i[m] * v' G_m^{-1} x_i

where eps are full-sample weighted residuals at the averaged coefficient
matrix and G_m is the curvature matrix ``(1/n) sum_i w_i x_i x_i'`` with the
same weights the quasi-likelihood Hessian uses (shared code path). The
accumulated scale is

    s_sq = sum_i (u' p_perp h_i)^2

and the interval half-width is ``normal_quantile(1 - alpha/2) * se``; the
normalisation turning s_sq into ``se`` is pinned in :func:`confidence_interval`.

The naive baseline gets textbook Wald intervals from the per-response
observed information, for comparison in the simulation study.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .data_io import Dataset
from .errors import (
    DataValidationError, NumericalError, require_finite_array, require_instance, require_integer,
    require_number,
)
from . import families
from .families import GlmFamily, cumulant_d2, hessian_weight, validate_response, weighted_residual
from .pipeline import GhiveFit
from .qml import CoefMatrix, bump_diagonal, weighted_gram

INFERENCE_FORMAT_VERSION = 1

# relative threshold deciding when a curvature matrix needs a diagonal bump
_G_EIG_RTOL = 1e-8


@dataclass(frozen=True)
class Contrast:
    """A pair of direction vectors: u over responses, v over covariates.

    Both are normalised to unit length on construction; a warning is issued
    if the supplied vectors were not already unit length. Each is first
    scaled by the power of two just above its largest absolute entry, so
    that the norm of a vector with huge or tiny entries neither overflows
    nor underflows; the scaling is exact, so other vectors keep every bit.
    """

    u: np.ndarray
    v: np.ndarray

    def __init__(self, u, v):
        for name, vec in (("u", u), ("v", v)):
            vec = require_finite_array(f"contrast {name}", vec).ravel()
            peak = np.max(np.abs(vec), initial=0.0)
            if peak == 0.0:
                raise DataValidationError(f"contrast {name} is the zero vector")
            exponent = np.frexp(peak)[1]
            vec = np.ldexp(vec, -exponent)
            norm = float(np.linalg.norm(vec))
            length = float(np.ldexp(norm, exponent))  # inf when it overflows
            if abs(length - 1.0) > 1e-8:
                warnings.warn(
                    f"contrast {name} had norm {length:.6g}; renormalising to 1",
                    RuntimeWarning,
                    stacklevel=2,
                )
            object.__setattr__(self, name, vec / norm)


def basis_contrast(i: int, j: int, m_dim: int, p: int) -> Contrast:
    """Contrast picking out entry (i, j), 0-based: response i of m_dim,
    covariate j of p."""
    require_integer("m_dim", m_dim, low=1)
    require_integer("p", p, low=1)
    require_integer("i", i, 0, m_dim - 1)
    require_integer("j", j, 0, p - 1)
    return Contrast(np.eye(m_dim)[i], np.eye(p)[j])


def normal_quantile(q: float) -> float:
    """Standard normal quantile by Wichura's AS241, as ``statistics.NormalDist``
    has it; on (0.5, 1) within 6 ulp of the correctly rounded value, the most
    found over 650k random levels."""
    require_number("quantile level q", q)
    if not 0.0 < q < 1.0:
        raise DataValidationError(f"quantile level must be in (0, 1), got {q}")
    return NormalDist().inv_cdf(q)


def _residuals(data: Dataset, family: GlmFamily, coef_values: np.ndarray):
    """Predictors ``eta`` and floored weighted residuals ``eps`` (both n x M)
    at the coefficient rows, computed once for the G matrices and the
    influence terms."""
    eta = _finite_predictors(data.x @ coef_values.T, coef_values)
    return eta, weighted_residual(family, data.y, eta, floor=families.RESIDUAL_CURVATURE_FLOOR)


def _finite_predictors(eta: np.ndarray, coef_values: np.ndarray) -> np.ndarray:
    """``eta``, checked: a non-finite fit is a DataValidationError, overflow a NumericalError."""
    if not np.isfinite(coef_values).all():
        raise DataValidationError("fit coefficients are not finite")
    if not np.isfinite(eta).all():
        raise NumericalError("the linear predictors are not finite; the data are too large")
    return eta


def _g_matrices(x: np.ndarray, family: GlmFamily, eta: np.ndarray, eps: np.ndarray):
    """Curvature matrices ``G_m = (1/n) sum_i w_i x_i x_i'`` on the full sample,
    from the predictors and residuals of :func:`_residuals`.

    Uses exactly the weights of the quasi-likelihood Hessian and the
    solver's :func:`weighted_gram`. A matrix whose smallest eigenvalue falls
    below ``_G_EIG_RTOL * max(1, largest eigenvalue)`` gets the solver's
    diagonal bump, :func:`~ghive.qml.bump_diagonal` by that eigenvalue, and
    is flagged. Returns the (M, p, p) matrices and the (M,) bool flags.
    """
    g = _finite_grams(x, hessian_weight(family, eta.T, eps.T), "a curvature matrix") / len(x)
    g = 0.5 * (g + g.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(g)
    bumped = eigs[:, 0] < _G_EIG_RTOL * np.maximum(1.0, eigs[:, -1])
    g[bumped] = bump_diagonal(g[bumped], eigs[bumped, 0])
    return g, bumped


def _finite_grams(x: np.ndarray, weights: np.ndarray, name: str) -> np.ndarray:
    """:func:`weighted_gram` of ``x`` per weight row; overflow is a NumericalError."""
    grams = weighted_gram(x, weights)
    if not np.isfinite(grams).all():
        raise NumericalError(f"{name} is not finite; the data are too large to form intervals")
    return grams


def _solve_each(a: np.ndarray, v: np.ndarray, name: str) -> np.ndarray:
    """Rows ``a[k]^{-1} v`` of a stack of (p, p) matrices, one stacked solve;
    a singular matrix is a NumericalError naming it."""
    try:
        return np.linalg.solve(a, np.broadcast_to(v[:, None], a.shape[:2] + (1,)))[..., 0]
    except np.linalg.LinAlgError:
        raise NumericalError(f"{name} is singular; cannot form intervals") from None


def _influence_terms(x: np.ndarray, eps: np.ndarray, g: np.ndarray, v: np.ndarray):
    """Per-observation influence terms h (n x M) for direction v, from the
    residuals ``eps`` of :func:`_residuals` and the curvature matrices ``g``
    (M, p, p) of :func:`_g_matrices`."""
    # rows w_m = G_m^{-1} v, so h[i, m] = eps[i, m] * x_i . w_m
    return eps * (x @ _solve_each(g, v, "a curvature matrix").T)


@dataclass
class InferenceResult:
    estimate: float
    se: float
    ci_lo: float
    ci_hi: float
    alpha: float
    quantile: float
    s_sq: float
    g_regularized: list  # response indices whose G matrix needed a bump


def _checked_quantile(data, family, coef: CoefMatrix, contrast: Contrast, alpha) -> float:
    """Check an interval's inputs, and return the normal quantile of its
    two-sided level 1 - alpha; alpha = 1 is allowed and gives a zero-width
    interval. ``data`` must be a Dataset whose responses ``family`` (a
    GlmFamily, ``coef``'s) admits, ``coef`` an (M, p) CoefMatrix for the
    data, and ``contrast`` a Contrast of lengths (M, p)."""
    require_instance("data", data, Dataset)
    validate_response(family, data.y)
    require_instance("coef", coef, CoefMatrix)
    require_instance("contrast", contrast, Contrast)
    require_number("alpha", alpha)
    if not 0.0 < alpha <= 1.0:
        raise DataValidationError(f"alpha must be in (0, 1], got {alpha}")
    if family != coef.family:
        raise DataValidationError(f"family {family.kind!r} is not the fit's {coef.family.kind!r}")
    if coef.values.shape != (data.m_dim, data.p):
        msg = f"fit (M, p) = {coef.values.shape} do not match data {(data.m_dim, data.p)}"
        raise DataValidationError(msg)
    if (len(contrast.u), len(contrast.v)) != coef.values.shape:
        msg = f"contrast (u, v) has lengths {(len(contrast.u), len(contrast.v))}, expected (M, p)"
        raise DataValidationError(f"{msg} = {coef.values.shape}")
    return 0.0 if alpha == 1.0 else normal_quantile(1.0 - alpha / 2.0)


def _interval(estimate, se, s_sq, alpha, q, g_regularized) -> InferenceResult:
    """The interval ``estimate +- q * se``; one that is not finite is a NumericalError."""
    half = q * se
    lo, hi = estimate - half, estimate + half
    if not all(map(math.isfinite, (estimate, se, s_sq, lo, hi))):
        raise NumericalError("the interval is not finite; the data are too large")
    return InferenceResult(estimate, se, lo, hi, alpha, q, s_sq, g_regularized)


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught as non-finite
def confidence_interval(
    data: Dataset, family: GlmFamily, fit: GhiveFit, contrast: Contrast, alpha: float = 0.05
) -> InferenceResult:
    """Two-sided interval for ``u' theta_hat v`` at level 1 - alpha.

    Accumulates ``s_sq = sum_i (u' p_perp h_i)^2`` over the influence terms.
    Convention: se = sqrt(s_sq / n), the root-mean-square of the projected
    influence terms, giving the interval rule
    ``u' theta_hat v +- quantile * sqrt(s_sq / n)``. Of the candidate
    normalisations of s_sq this is the only one whose intervals attain
    nominal coverage in the simulation study; see README for the
    discussion. It is computed under ``fit.family``: another ``family``, or
    a response outside its support, is a DataValidationError.
    """
    require_instance("fit", fit, GhiveFit)
    q = _checked_quantile(data, family, fit.f_hat, contrast, alpha)
    if fit.n != data.n:
        raise DataValidationError(f"the fit was made on n={fit.n} rows, the data have n={data.n}")
    eta, eps = _residuals(data, fit.family, fit.f_hat.values)
    g, regularized = _g_matrices(data.x, fit.family, eta, eps)
    h = _influence_terms(data.x, eps, g, contrast.v)
    projected = h @ (fit.spectral.p_perp @ contrast.u)
    s_sq = float(projected @ projected)
    estimate = float(contrast.u @ fit.theta_hat @ contrast.v)
    se = float(np.sqrt(s_sq / data.n))
    return _interval(estimate, se, s_sq, alpha, q, np.flatnonzero(regularized).tolist())


@np.errstate(over="ignore", invalid="ignore")
def naive_wald_interval(
    data: Dataset, family: GlmFamily, coef: CoefMatrix, contrast: Contrast, alpha: float = 0.05
) -> InferenceResult:
    """Textbook Wald interval for ``u' coef v`` from per-response Fisher info.

    Treats each response as an ordinary GLM in x: the coefficient covariance
    for response m is the inverse of ``sum_i b''(eta_i) x_i x_i'`` and the
    responses are treated as independent. A ``family`` other than
    ``coef.family``, a response outside its support, or a fit not (M, p) for
    the data, is a DataValidationError.
    """
    q = _checked_quantile(data, family, coef, contrast, alpha)
    rows = np.flatnonzero(contrast.u)
    eta = _finite_predictors((data.x @ coef.values.T).T[rows], coef.values[rows])
    name = "the Fisher information of a response in u"
    w = _solve_each(_finite_grams(data.x, cumulant_d2(family, eta), name), contrast.v, name)
    var = max(float(contrast.u[rows] ** 2 @ w @ contrast.v), 0.0)
    estimate = float(contrast.u[rows] @ coef.values[rows] @ contrast.v)
    return _interval(estimate, float(np.sqrt(var)), var * data.n, alpha, q, [])


def serialize_inference(result: InferenceResult, contrast: Contrast) -> dict:
    """JSON-ready dict: the fields of ``result`` plus ``format_version`` and
    the contrast's ``u`` and ``v``; see schemas/inference_result.schema.json."""
    u, v = ([float(x) for x in vec] for vec in (contrast.u, contrast.v))
    return {"format_version": INFERENCE_FORMAT_VERSION, **asdict(result), "u": u, "v": v}
