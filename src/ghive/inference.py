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
normalisation turning s_sq into ``se`` is pinned in :func:`variance_estimate`.

The naive baseline gets textbook Wald intervals from the per-response
observed information, for comparison in the simulation study.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .data_io import Dataset
from .errors import DataValidationError, NumericalError
from . import families
from .families import GlmFamily, b_derivs, quasi_hessian_weight, weighted_residual
from .qml import CoefMatrix, weighted_gram

INFERENCE_FORMAT_VERSION = 1

# relative threshold deciding when a curvature matrix needs a diagonal bump
_G_EIG_RTOL = 1e-8


@dataclass(frozen=True)
class Contrast:
    """A pair of direction vectors: u over responses, v over covariates.

    Both are normalised to unit length on construction; a warning is issued
    if the supplied vectors were not already unit length.
    """

    u: np.ndarray
    v: np.ndarray

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float).ravel()
        v = np.asarray(v, dtype=float).ravel()
        for name, vec in (("u", u), ("v", v)):
            if not np.all(np.isfinite(vec)):
                raise DataValidationError(f"contrast {name} has non-finite entries")
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise DataValidationError(f"contrast {name} is the zero vector")
            if abs(norm - 1.0) > 1e-8:
                warnings.warn(
                    f"contrast {name} had norm {norm:.6g}; renormalising to 1",
                    RuntimeWarning,
                    stacklevel=3,
                )
        object.__setattr__(self, "u", u / np.linalg.norm(u))
        object.__setattr__(self, "v", v / np.linalg.norm(v))


def basis_contrast(i: int, j: int, m_dim: int, p: int) -> Contrast:
    """Contrast picking out entry (i, j), 0-based."""
    u = np.zeros(m_dim)
    v = np.zeros(p)
    u[i] = 1.0
    v[j] = 1.0
    return Contrast(u, v)


def normal_quantile(q: float) -> float:
    """Standard normal quantile, accurate to well below 1e-9."""
    if not 0.0 < q < 1.0:
        raise DataValidationError(f"quantile level must be in (0, 1), got {q}")
    return float(ndtri(q))


@dataclass
class GMatrices:
    """Per-response curvature matrices with conditioning diagnostics."""

    matrices: np.ndarray  # (M, p, p)
    regularized: np.ndarray  # (M,) bool, True where a diagonal bump was added


def g_matrices(data: Dataset, family: GlmFamily, coef_values: np.ndarray) -> GMatrices:
    """Curvature matrices ``G_m = (1/n) sum_i w_i x_i x_i'`` on the full sample.

    Uses exactly the weights of the quasi-likelihood Hessian. A matrix whose
    smallest eigenvalue falls below ``1e-8 * max(1, largest eigenvalue)`` gets
    ``delta = 1e-8 * (1 + |min eig|)`` added to its diagonal and is flagged.
    """
    x, y = data.x, data.y
    n = data.n
    m_dim = coef_values.shape[0]
    p = x.shape[1]
    mats = np.zeros((m_dim, p, p))
    regularized = np.zeros(m_dim, dtype=bool)
    eta = x @ coef_values.T
    for m in range(m_dim):
        w = quasi_hessian_weight(
            family, y[:, m], eta[:, m], floor=families.RESIDUAL_CURVATURE_FLOOR
        )
        g = weighted_gram(x, w) / n
        g = 0.5 * (g + g.T)
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] < _G_EIG_RTOL * max(1.0, eigs[-1]):
            delta = 1e-8 * (1.0 + abs(eigs[0]))
            g = g + delta * np.eye(p)
            regularized[m] = True
        mats[m] = g
    return GMatrices(mats, regularized)


@dataclass
class VarianceEstimate:
    """Accumulated influence scale for one contrast.

    s_sq is the raw sum of squared projected influence terms; ``se`` is the
    value used for interval half-widths (see variance_estimate for the
    pinned convention).
    """

    s_sq: float
    se: float
    n: int
    g: GMatrices


def influence_terms(
    data: Dataset, family: GlmFamily, coef_values: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, GMatrices]:
    """Matrix of per-observation influence terms h (n x M) for direction v."""
    g = g_matrices(data, family, coef_values)
    eta = data.x @ coef_values.T
    eps = weighted_residual(
        family, data.y, eta, floor=families.RESIDUAL_CURVATURE_FLOOR
    )
    try:
        # columns w_m = G_m^{-1} v, so h[i, m] = eps[i, m] * x_i . w_m
        w_cols = np.stack(
            [np.linalg.solve(g.matrices[m], v) for m in range(coef_values.shape[0])],
            axis=1,
        )
    except np.linalg.LinAlgError:
        raise NumericalError("a curvature matrix is singular; cannot form intervals")
    h = eps * (data.x @ w_cols)
    return h, g


def variance_estimate(
    data: Dataset, family: GlmFamily, fit, contrast: Contrast
) -> VarianceEstimate:
    """Accumulate s_sq = sum_i (u' p_perp h_i)^2 and derive the se.

    Convention: se = sqrt(s_sq / n), the root-mean-square of the projected
    influence terms, giving the interval rule
    ``u' theta_hat v +- quantile * sqrt(s_sq / n)``. Of the candidate
    normalisations of s_sq this is the only one whose intervals attain
    nominal coverage in the simulation study; see README for the
    discussion.
    """
    if fit.m_dim != data.m_dim or fit.p != data.p:
        raise DataValidationError(
            f"fit dimensions (M={fit.m_dim}, p={fit.p}) do not match data "
            f"(M={data.m_dim}, p={data.p})"
        )
    if len(contrast.u) != fit.m_dim:
        raise DataValidationError(
            f"contrast u has length {len(contrast.u)}, expected M={fit.m_dim}"
        )
    if len(contrast.v) != fit.p:
        raise DataValidationError(
            f"contrast v has length {len(contrast.v)}, expected p={fit.p}"
        )
    h, g = influence_terms(data, family, fit.f_hat.values, contrast.v)
    projected = h @ (fit.spectral.p_perp @ contrast.u)
    s_sq = float(projected @ projected)
    return VarianceEstimate(s_sq=s_sq, se=float(np.sqrt(s_sq / data.n)), n=data.n, g=g)


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


def _validate_alpha(alpha: float) -> None:
    # alpha = 1 is allowed and produces a zero-width interval
    if not 0.0 < alpha <= 1.0:
        raise DataValidationError(f"alpha must be in (0, 1], got {alpha}")


def confidence_interval(
    data: Dataset, family: GlmFamily, fit, contrast: Contrast, alpha: float = 0.05
) -> InferenceResult:
    """Two-sided interval for ``u' theta_hat v`` at level 1 - alpha."""
    _validate_alpha(alpha)
    var = variance_estimate(data, family, fit, contrast)
    estimate = float(contrast.u @ fit.theta_hat @ contrast.v)
    q = 0.0 if alpha == 1.0 else normal_quantile(1.0 - alpha / 2.0)
    half = q * var.se
    return InferenceResult(
        estimate=estimate,
        se=var.se,
        ci_lo=estimate - half,
        ci_hi=estimate + half,
        alpha=alpha,
        quantile=q,
        s_sq=var.s_sq,
        g_regularized=[int(m) for m in np.nonzero(var.g.regularized)[0]],
    )


def naive_wald_interval(
    data: Dataset,
    family: GlmFamily,
    coef: CoefMatrix,
    contrast: Contrast,
    alpha: float = 0.05,
) -> InferenceResult:
    """Textbook Wald interval for ``u' coef v`` from per-response Fisher info.

    Treats each response as an ordinary GLM in x: the coefficient covariance
    for response m is the inverse of ``sum_i b''(eta_i) x_i x_i'`` and the
    responses are treated as independent.
    """
    _validate_alpha(alpha)
    if len(contrast.u) != coef.values.shape[0] or len(contrast.v) != coef.values.shape[1]:
        raise DataValidationError("contrast dimensions do not match the fit")
    eta = data.x @ coef.values.T
    var = 0.0
    for m in np.nonzero(contrast.u)[0]:
        b2 = b_derivs(family, eta[:, m])[2]
        info = weighted_gram(data.x, b2)
        try:
            w = np.linalg.solve(info, contrast.v)
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"Fisher information for response {m} is singular"
            )
        var += float(contrast.u[m] ** 2 * (contrast.v @ w))
    if var < 0:
        var = 0.0
    se = float(np.sqrt(var))
    estimate = float(contrast.u @ coef.values @ contrast.v)
    q = 0.0 if alpha == 1.0 else normal_quantile(1.0 - alpha / 2.0)
    return InferenceResult(
        estimate=estimate,
        se=se,
        ci_lo=estimate - q * se,
        ci_hi=estimate + q * se,
        alpha=alpha,
        quantile=q,
        s_sq=var * data.n,
        g_regularized=[],
    )


def serialize_inference(result: InferenceResult, contrast: Contrast) -> dict:
    """JSON-ready dict; see schemas/inference_result.schema.json."""
    return {
        "format_version": INFERENCE_FORMAT_VERSION,
        "estimate": result.estimate,
        "se": result.se,
        "ci_lo": result.ci_lo,
        "ci_hi": result.ci_hi,
        "alpha": result.alpha,
        "quantile": result.quantile,
        "s_sq": result.s_sq,
        "g_regularized": result.g_regularized,
        "u": [float(x) for x in contrast.u],
        "v": [float(x) for x in contrast.v],
    }
