"""Cross-fit residual covariance, eigenstructure, factor-count selection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import small_sim_dataset
from ghive import BERNOULLI, GAUSSIAN
from ghive.data_io import Dataset
from ghive.errors import DataValidationError, NumericalError
from ghive.families import RESIDUAL_CURVATURE_FLOOR, weighted_residual
from ghive.qml import CoefMatrix, fit_qml_many, make_split
from ghive.spectral import (
    covariance_crossfit,
    crossfit_residuals,
    eigendecomposition,
    projector_complement,
    select_k,
)


def _coef(values):
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    return CoefMatrix(values=values, grad_norm=np.zeros(m))


def test_crossfit_residuals_swap_folds():
    # Rows in fold 2 must be scored with the fold-1 coefficients and vice
    # versa; with a gaussian family the residual is exactly y - x f'.
    data, _, _ = small_sim_dataset(n=30, p=3, m_dim=2, family="gaussian", seed=6)
    split = make_split(data.n, seed=13)
    rng = np.random.default_rng(99)
    c1 = _coef(rng.standard_normal((2, 3)))
    c2 = _coef(rng.standard_normal((2, 3)))
    resid = crossfit_residuals(data, GAUSSIAN, c1, c2, split)
    assert resid.shape == (data.n, 2)
    for i in split.d2:
        assert np.allclose(resid[i], data.y[i] - c1.values @ data.x[i])
    for i in split.d1:
        assert np.allclose(resid[i], data.y[i] - c2.values @ data.x[i])


def test_crossfit_residuals_apply_the_curvature_cap():
    # A coefficient row that forces a confident wrong prediction must come
    # back capped at 1/floor rather than at the raw quotient.
    x = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
    y = np.ones((8, 1))
    data_split = make_split(8, seed=0)
    big = _coef([[-8.0, -8.0]])
    resid = crossfit_residuals(Dataset(x, y), BERNOULLI, big, big, data_split)
    cap = 1.0 / RESIDUAL_CURVATURE_FLOOR
    assert np.allclose(resid, cap)
    # sanity: the uncapped quotient would have been far larger
    assert weighted_residual(BERNOULLI, 1.0, -8.0) > 10 * cap


def test_covariance_crossfit_averages_the_fold_moments():
    data, _, _ = small_sim_dataset(n=21, p=3, m_dim=3, seed=14)
    split = make_split(data.n, seed=5)
    ((f1, f2, _),) = fit_qml_many([data], BERNOULLI, [split])
    resid = crossfit_residuals(data, BERNOULLI, f1, f2, split)
    sigma = covariance_crossfit(resid, split)
    e1 = resid[split.d1]
    e2 = resid[split.d2]
    hand = 0.5 * (e1.T @ e1 / len(split.d1) + e2.T @ e2 / len(split.d2))
    assert np.allclose(sigma, hand, atol=1e-12)
    assert np.array_equal(sigma, sigma.T)


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
    with pytest.raises(NumericalError, match="residual covariance is not finite"):
        eigendecomposition(np.array([[np.inf, 0.0], [0.0, 1.0]]))


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
