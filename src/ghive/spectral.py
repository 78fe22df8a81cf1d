"""Cross-fitted residual covariance, its spectrum, and projectors.

The hidden-variable direction is recovered from the covariance of
inverse-variance weighted residuals, computed out-of-fold: rows in fold 2
are evaluated with the coefficients fitted on fold 1 and vice versa. The
covariance is the average of the two per-fold outer-product means. The
number of latent factors is picked by the largest adjacent eigenvalue ratio
over j <= floor(min(n, M) / 2), and the estimated factor subspace is removed
with the complement projector I - V V^T.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, NumericalError
from . import families
from .families import GlmFamily, weighted_residual
from .qml import CoefMatrix, SplitPlan

# ratio denominators are floored here to keep the eigenvalue-ratio statistic
# finite when trailing eigenvalues hit exact zero
_RATIO_FLOOR = 1e-300


@dataclass
class SpectralResult:
    sigma_hat: np.ndarray  # (M, M) cross-fitted residual covariance
    eigvals: np.ndarray  # all M eigenvalues, non-increasing
    k_hat: int | None  # selected factor count (None in oracle-projector mode)
    p_perp: np.ndarray  # (M, M) complement projector applied to coefficients


@np.errstate(over="ignore", invalid="ignore")  # overflow leaves sigma_hat non-finite
def crossfit_residuals(
    data, family: GlmFamily, coef_d1: CoefMatrix, coef_d2: CoefMatrix, split: SplitPlan
) -> np.ndarray:
    """Weighted residuals (n x M) where each row uses the opposite fold's fit:
    fold-2 rows are scored with the fold-1 coefficients and vice versa."""
    n, m_dim = data.y.shape
    if split.n != n:
        raise DataValidationError(
            f"split was built for n={split.n} but data has n={n} rows"
        )
    values = np.zeros((n, m_dim))
    for rows, coef in ((split.d2, coef_d1), (split.d1, coef_d2)):
        eta = data.x[rows] @ coef.values.T
        values[rows] = weighted_residual(
            family, data.y[rows], eta, floor=families.RESIDUAL_CURVATURE_FLOOR
        )
    return values


@np.errstate(over="ignore", invalid="ignore")
def covariance_crossfit(resid: np.ndarray, split: SplitPlan) -> np.ndarray:
    """Average of the two per-fold residual second-moment matrices."""
    e1 = resid[split.d1]
    e2 = resid[split.d2]
    sigma = 0.5 * (e1.T @ e1 / len(split.d1) + e2.T @ e2 / len(split.d2))
    return 0.5 * (sigma + sigma.T)


def eigendecomposition(sigma: np.ndarray):
    """Eigenvalues (non-increasing) and matching orthonormal eigenvectors.

    The residual covariance is not forced to be PSD; an eigenvalue below
    ``-1e-10 * lambda_1`` indicates something numerically off and triggers
    a warning; a non-finite ``sigma`` is a NumericalError.
    """
    if not np.isfinite(sigma).all():
        raise NumericalError("the residual covariance is not finite; the data are too large")
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if vals[-1] < -1e-10 * max(vals[0], 0.0):
        warnings.warn(
            f"residual covariance has a negative eigenvalue {vals[-1]:.3e}; "
            "results may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    return vals, vecs


def select_k(eigvals: np.ndarray, n: int) -> int:
    """Largest adjacent-ratio choice of the factor count.

    Maximises ``lambda_j / lambda_{j+1}`` over ``1 <= j <= floor(min(n, M)/2)``
    of all M eigenvalues, non-increasing, breaking ties toward the smaller j.
    """
    m_dim = len(eigvals)
    k_bar = min(n, m_dim) // 2
    if k_bar < 1:
        raise DataValidationError(
            f"cannot select a factor count with n={n}, M={m_dim}: "
            "floor(min(n, M)/2) < 1"
        )
    if eigvals[0] <= 0.0:
        raise NumericalError(
            "degenerate residual covariance spectrum: no positive eigenvalues"
        )
    # heavy-tailed residuals can spread the spectrum across hundreds of
    # orders of magnitude; an overflowing ratio is a legitimate argmax
    with np.errstate(over="ignore"):
        ratios = eigvals[:k_bar] / np.maximum(eigvals[1 : k_bar + 1], _RATIO_FLOOR)
    return int(np.argmax(ratios)) + 1


def projector_complement(eigvecs: np.ndarray, k: int) -> np.ndarray:
    """``I - V_k V_k^T`` for the leading k eigenvector columns."""
    m_dim = eigvecs.shape[0]
    if not 0 <= k <= m_dim:
        raise DataValidationError(f"k={k} outside the valid range 0..{m_dim}")
    v = eigvecs[:, :k]
    return np.eye(m_dim) - v @ v.T
