"""Eigenstructure of the residual covariance, factor-count selection, projectors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghive.errors import DataValidationError, NumericalError
from ghive.spectral import (
    eigendecomposition,
    projector_complement,
    select_k,
)


def test_eigendecomposition_reconstructs_and_orders():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((6, 6))
    sigma = a @ a.T
    eigvals, eigvecs = eigendecomposition(sigma)
    assert np.all(np.diff(eigvals) <= 1e-12)  # descending
    assert np.allclose(eigvecs @ np.diag(eigvals) @ eigvecs.T, sigma, atol=1e-10)
    assert np.allclose(eigvecs.T @ eigvecs, np.eye(6), atol=1e-10)


def test_eigendecomposition_warns_on_clearly_negative_spectrum():
    sigma = np.diag([1.0, -1.0])
    with pytest.warns(RuntimeWarning):
        eigendecomposition(sigma)


def test_eigendecomposition_refuses_a_non_finite_covariance():
    # the second is finite, but its symmetrised form overflows: a fit's
    # sigma_hat past about 9e307 fails here, as when the fit symmetrised it
    for sigma in ([[np.inf, 0.0], [0.0, 1.0]], [[1e308, 1.0], [1.0, 1.0]]):
        with pytest.raises(NumericalError, match="residual covariance is not finite"):
            eigendecomposition(np.array(sigma))


def test_select_k_picks_the_largest_adjacent_ratio():
    # ratios up to k_bar=3: 8/4=2, 4/1=4, 1/0.25=4 -> tie at j=2,3, prefer 2
    lam = np.array([8.0, 4.0, 1.0, 0.25, 0.1, 0.05])
    assert select_k(lam, n=100) == 2
    # dominant first gap
    assert select_k(np.array([50.0, 2.0, 1.9, 1.8]), n=100) == 1
    # the search range stops at floor(min(n, M)/2): with n=4 only j=1,2
    # are eligible, so the huge ratio at j=3 must be ignored
    lam = np.array([4.0, 3.0, 2.0, 1e-8])
    assert select_k(lam, n=4) <= 2


def test_select_k_rejects_degenerate_inputs():
    with pytest.raises(NumericalError):
        select_k(np.array([0.0, 0.0]), n=50)
    with pytest.raises(DataValidationError):
        select_k(np.array([1.0]), n=1)


def test_select_k_survives_zero_tail_eigenvalues():
    # exact zeros below the gap must not produce nan/inf choices
    lam = np.array([5.0, 4.0, 0.0, 0.0])
    k = select_k(lam, n=100)
    assert k == 2


@given(seed=st.integers(0, 10_000), k=st.integers(0, 5))
def test_projector_complement_properties(seed, k):
    rng = np.random.default_rng(seed)
    m = 5
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    p = projector_complement(q, min(k, m))
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.trace(p) == pytest.approx(m - min(k, m), abs=1e-8)
    if k > 0:
        assert np.allclose(p @ q[:, : min(k, m)], 0.0, atol=1e-10)


def test_projector_complement_edge_cases():
    q = np.eye(3)
    assert np.array_equal(projector_complement(q, 0), np.eye(3))
    assert np.allclose(projector_complement(q, 3), np.zeros((3, 3)), atol=1e-12)
    with pytest.raises(DataValidationError):
        projector_complement(q, 4)
    with pytest.raises(DataValidationError):
        projector_complement(q, -1)
