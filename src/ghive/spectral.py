"""The spectrum of the cross-fitted residual covariance, and projectors.

The hidden-variable direction is recovered from the eigenvectors of the
residual covariance ``sigma_hat`` (built by :mod:`ghive.pipeline`). The
number of latent factors is picked by the largest adjacent eigenvalue ratio
over j <= floor(min(n, M) / 2), and the estimated factor subspace is removed
with the complement projector I - V V^T.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, NumericalError, require_integer

# ratio denominators are floored here to keep the eigenvalue-ratio statistic
# finite when trailing eigenvalues hit exact zero
_RATIO_FLOOR = 1e-300


@dataclass
class SpectralResult:
    sigma_hat: np.ndarray  # (M, M) cross-fitted residual covariance
    eigvals: np.ndarray  # all M eigenvalues, non-increasing
    k_hat: int | None  # selected factor count (None in oracle-projector mode)
    p_perp: np.ndarray  # (M, M) complement projector applied to coefficients


def eigendecomposition(sigma: np.ndarray):
    """Eigenvalues (non-increasing) and matching orthonormal eigenvectors.

    The residual covariance is not forced to be PSD; an eigenvalue below
    ``-1e-10 * lambda_1`` indicates something numerically off and triggers
    a warning. ``sigma`` is symmetrised first, as ``0.5 * (sigma + sigma.T)``;
    a ``sigma`` whose symmetrised form is not finite (entries past about
    9e307 overflow its sum) is a NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (sigma + sigma.T)
    if not np.isfinite(sym).all():
        raise NumericalError("the residual covariance is not finite; the data are too large")
    vals, vecs = np.linalg.eigh(sym)
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
    require_integer("k", k, 0, m_dim)
    v = eigvecs[:, :k]
    return np.eye(m_dim) - v @ v.T
