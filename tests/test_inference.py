"""Confidence intervals: contrasts, quantiles, variance pieces, Wald baseline."""

import inspect
import json
import math

import jsonschema
import mpmath
import numpy as np
import pytest

from conftest import small_sim_dataset
from ghive import BERNOULLI, GAUSSIAN, POISSON, qml
from ghive.data_io import Dataset
from ghive.errors import DataValidationError, NumericalError
from ghive.families import (
    RESIDUAL_CURVATURE_FLOOR,
    cumulant_d2,
    hessian_weight,
    weighted_residual,
)
from ghive.inference import (
    Contrast,
    _g_matrices,
    _influence_terms,
    _residuals,
    basis_contrast,
    confidence_interval,
    naive_wald_interval,
    normal_quantile,
    serialize_inference,
)
from ghive.pipeline import Mode, ghive_fit
from ghive.qml import fit_naive_mle, weighted_gram


def _schema(name):
    from importlib.resources import files

    return json.loads(files("ghive").joinpath("schemas", name).read_text())


def test_contrast_renormalizes_with_a_warning():
    with pytest.warns(RuntimeWarning) as record:
        line = inspect.currentframe().f_lineno + 1
        c = Contrast(u=np.array([2.0, 0.0]), v=np.array([0.0, 3.0]))
    # each warning names the line that built the contrast
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)] * 2
    assert np.linalg.norm(c.u) == pytest.approx(1.0)
    assert np.linalg.norm(c.v) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "scale", [1e200, 1e-200, 2.0**1023, 2.0**-1070], ids=["1e200", "1e-200", "2^1023", "2^-1070"]
)
def test_contrasts_with_huge_or_tiny_entries_give_the_basis_direction(scale):
    with pytest.warns(RuntimeWarning):
        c = Contrast(u=np.array([scale, 0.0, 0.0, 0.0]), v=np.array([0.0, -scale]))
    assert np.array_equal(c.u, np.eye(4)[0]) and np.array_equal(c.v, [0.0, -1.0])
    with pytest.warns(RuntimeWarning):
        c = Contrast(u=np.array([0.75, 1.0]) * scale, v=np.array([1.0]))
    assert np.allclose(c.u, [0.6, 0.8], rtol=1e-15, atol=0.0)


def test_contrast_rejects_zero_directions():
    with pytest.raises(DataValidationError):
        Contrast(u=np.zeros(2), v=np.array([1.0, 0.0]))


def test_basis_contrast_selects_coordinates():
    c = basis_contrast(1, 2, m_dim=3, p=4)
    assert np.array_equal(c.u, np.eye(3)[1])
    assert np.array_equal(c.v, np.eye(4)[2])
    with pytest.raises(DataValidationError, match="i must be in"):
        basis_contrast(5, 0, m_dim=3, p=4)


# levels where statistics.NormalDist().inv_cdf is 6 ulp off, the most found
# over 650k random levels in (0.5, 1); scipy's ndtri reached 4 ulp there
_WORST_QUANTILE_LEVELS = (0.6770544708353293, 0.6843596672875154, 0.6914156538935732)


def test_normal_quantile_matches_an_erfinv_oracle():
    # within 6 ulp of the correctly rounded value on a dense grid of (0.5, 1)
    grid = np.linspace(0.5, 1.0, 1001)[1:-1]
    tail = 1.0 - np.logspace(-3, -15, 13)
    with mpmath.workdps(40):
        for q in (0.6, 0.75, 0.9, 0.975, 0.999, *grid, *tail, *_WORST_QUANTILE_LEVELS):
            q = float(q)
            ref = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(q) - 1))
            assert abs(normal_quantile(q) - ref) <= 6 * math.ulp(ref), q
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DataValidationError):
            normal_quantile(bad)


def test_gaussian_g_matrices_are_the_design_gram():
    data, _, _ = small_sim_dataset(n=40, p=3, m_dim=5, family="gaussian", seed=2)
    coef = np.zeros((5, 3))
    g, regularized = _g_matrices(data.x, GAUSSIAN, *_residuals(data, GAUSSIAN, coef))
    gram = data.x.T @ data.x / data.n
    one = weighted_gram(data.x, np.ones((1, data.n))) / data.n  # one response's gram
    assert g.tobytes() == np.repeat(0.5 * (one + one.swapaxes(1, 2)), 5, axis=0).tobytes()
    for m in range(5):
        assert np.array_equal(g[m], gram)
    assert not regularized.any()


def test_g_matrices_match_hand_weights_on_tame_bernoulli_fits():
    # With linear predictors well inside [-2, 2] the curvature floor never
    # binds, so G_m must equal the plain weighted Gram matrix.
    data, _, _ = small_sim_dataset(n=60, p=3, m_dim=2, eta=1.0, seed=21)
    coef = 0.1 * np.random.default_rng(2).standard_normal((2, 3))
    eta = data.x @ coef.T
    assert np.max(np.abs(eta)) < 2.0
    g, _ = _g_matrices(data.x, BERNOULLI, *_residuals(data, BERNOULLI, coef))
    for m in range(2):
        res = weighted_residual(BERNOULLI, data.y[:, m], eta[:, m])
        w = hessian_weight(BERNOULLI, eta[:, m], res)
        hand = data.x.T @ (w[:, None] * data.x) / data.n
        assert np.array_equal(g[m], 0.5 * (hand + hand.T))


def test_duplicated_covariate_gets_the_diagonal_bump_and_a_flag():
    data, _, _ = small_sim_dataset(n=60, p=3, m_dim=3, eta=1.0, seed=21)
    data = Dataset(np.hstack([data.x, data.x[:, :1]]), data.y)  # x_4 = x_1
    coef = 0.1 * np.random.default_rng(2).standard_normal((3, 4))
    g, regularized = _g_matrices(data.x, BERNOULLI, *_residuals(data, BERNOULLI, coef))
    assert regularized.all()
    eta = data.x @ coef.T
    for m in range(3):
        res = weighted_residual(
            BERNOULLI, data.y[:, m], eta[:, m], floor=RESIDUAL_CURVATURE_FLOOR
        )
        w = hessian_weight(BERNOULLI, eta[:, m], res)
        hand = data.x.T @ (w[:, None] * data.x) / data.n
        hand = 0.5 * (hand + hand.T)
        delta = 1e-8 * (1.0 + abs(np.linalg.eigvalsh(hand)[0]))
        assert np.array_equal(g[m], hand + delta * np.eye(4))
    fit = ghive_fit(data, BERNOULLI, seed=1)
    res = confidence_interval(data, BERNOULLI, fit, basis_contrast(0, 0, 3, 4))
    assert res.g_regularized == [0, 1, 2]
    assert np.isfinite([res.estimate, res.se, res.ci_lo, res.ci_hi]).all()


def test_grams_scaled_one_response_at_a_time_match_one_pass(monkeypatch):
    data, _, _ = small_sim_dataset(n=60, p=3, m_dim=10, eta=1.0, seed=21)
    fit = ghive_fit(data, BERNOULLI, seed=1)
    naive = fit_naive_mle(data, BERNOULLI)
    with pytest.warns(RuntimeWarning):
        c = Contrast(u=np.random.default_rng(1).standard_normal(10), v=np.array([0.3, -1.0, 0.5]))

    def intervals():
        g = _g_matrices(data.x, BERNOULLI, *_residuals(data, BERNOULLI, fit.f_hat.values))
        return (
            g,
            confidence_interval(data, BERNOULLI, fit, c),
            naive_wald_interval(data, BERNOULLI, naive, c),
        )

    (g, reg), ci, wald = intervals()
    assert len(qml.gram_buffer(data.x, data.m_dim)) == data.m_dim  # every response in one pass
    # a buffer one response wide: each gram's rows scaled on a pass of its own
    monkeypatch.setattr(qml, "BLOCK_ELEMENTS", 3 * data.n)
    assert len(qml.gram_buffer(data.x, data.m_dim)) == 1
    (g_split, reg_split), ci_split, wald_split = intervals()
    assert np.array_equal(g_split, g) and np.array_equal(reg_split, reg)
    assert ci_split == ci and wald_split == wald

    eta = data.x @ naive.values.T
    var = 0.0
    for m in range(data.m_dim):  # the one-response-at-a-time arithmetic
        info = weighted_gram(data.x, cumulant_d2(BERNOULLI, eta[:, m])[None])[0]
        var += float(c.u[m] ** 2 * (c.v @ np.linalg.solve(info, c.v)))
    assert wald.se == float(np.sqrt(var)) and wald.s_sq == var * data.n


def test_influence_terms_compose_residual_and_inverse_curvature():
    data, _, _ = small_sim_dataset(n=30, p=3, m_dim=2, eta=1.0, seed=4)
    coef = 0.2 * np.random.default_rng(7).standard_normal((2, 3))
    v = np.eye(3)[0]
    eta, eps = _residuals(data, BERNOULLI, coef)
    g, _ = _g_matrices(data.x, BERNOULLI, eta, eps)
    h = _influence_terms(data.x, eps, g, v)
    assert h.shape == (data.n, 2)
    for m in range(2):
        eps_m = np.array(
            [
                weighted_residual(
                    BERNOULLI, data.y[i, m], data.x[i] @ coef[m],
                    floor=RESIDUAL_CURVATURE_FLOOR,
                )
                for i in range(data.n)
            ]
        )
        direction = np.linalg.solve(g[m], v)
        assert np.allclose(h[:, m], eps_m * (data.x @ direction), atol=1e-10)


def test_interval_se_is_root_mean_square():
    data, _, _ = small_sim_dataset(n=50, p=3, m_dim=3, seed=9)
    fit = ghive_fit(data, BERNOULLI, seed=1)
    c = basis_contrast(0, 0, data.m_dim, data.p)
    res = confidence_interval(data, BERNOULLI, fit, c)
    assert res.s_sq > 0.0
    assert res.se == np.sqrt(res.s_sq / data.n)


def test_interval_width_is_quantile_times_se():
    data, _, _ = small_sim_dataset(n=50, p=3, m_dim=3, seed=9)
    fit = ghive_fit(data, BERNOULLI, seed=1)
    c = basis_contrast(1, 1, data.m_dim, data.p)
    res = confidence_interval(data, BERNOULLI, fit, c, alpha=0.05)
    assert res.ci_hi - res.estimate == pytest.approx(res.quantile * res.se, rel=1e-12)
    assert res.estimate - res.ci_lo == pytest.approx(res.quantile * res.se, rel=1e-12)
    assert res.estimate == pytest.approx(fit.theta_hat[1, 1])


def test_alpha_one_gives_a_point_interval_and_bad_alpha_raises():
    data, _, _ = small_sim_dataset(n=40, p=3, m_dim=2, seed=5)
    fit = ghive_fit(data, BERNOULLI, seed=3)
    c = basis_contrast(0, 0, data.m_dim, data.p)
    res = confidence_interval(data, BERNOULLI, fit, c, alpha=1.0)
    assert res.ci_lo == res.ci_hi == res.estimate
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(DataValidationError):
            confidence_interval(data, BERNOULLI, fit, c, alpha=bad)


def test_noiseless_gaussian_data_yield_zero_width_intervals():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 3))
    coef = rng.standard_normal((2, 3))
    data = Dataset(x, x @ coef.T)  # exact linear responses
    fit = ghive_fit(data, GAUSSIAN, seed=0, mode=Mode.oracle_p(np.eye(2)))
    c = basis_contrast(0, 0, 2, 3)
    res = confidence_interval(data, GAUSSIAN, fit, c)
    assert res.se == pytest.approx(0.0, abs=1e-10)
    assert res.estimate == pytest.approx(coef[0, 0], abs=1e-8)


def test_naive_wald_interval_matches_hand_linear_algebra():
    data, _, _ = small_sim_dataset(n=50, p=3, m_dim=2, family="gaussian", seed=12)
    coef = fit_naive_mle(data, GAUSSIAN)
    u = np.array([0.6, 0.8])
    v = np.array([1.0, 0.0, 0.0])
    res = naive_wald_interval(data, GAUSSIAN, coef, Contrast(u=u, v=v), alpha=0.05)
    info_inv = np.linalg.inv(data.x.T @ data.x)  # gaussian: b'' = 1
    var = sum(u[m] ** 2 * v @ info_inv @ v for m in range(2))
    assert res.se == pytest.approx(np.sqrt(var), rel=1e-10)
    assert res.estimate == float(u @ coef.values @ v)
    assert res.ci_hi - res.ci_lo == pytest.approx(2 * res.quantile * res.se, rel=1e-10)


def test_naive_wald_interval_rejects_singular_information():
    rng = np.random.default_rng(8)
    col = rng.standard_normal((30, 1))
    x = np.hstack([col, col])  # exactly collinear
    y = (rng.random((30, 2)) < 0.5).astype(float)
    data = Dataset(x, y)
    coef = fit_naive_mle(data, BERNOULLI)
    c = Contrast(u=np.array([1.0, 0.0]), v=np.array([1.0, 0.0]))
    with pytest.raises(NumericalError):
        naive_wald_interval(data, BERNOULLI, coef, c)


def test_a_naive_interval_is_refused_under_another_family_or_for_other_data():
    data, _, _ = small_sim_dataset(n=200, p=3, m_dim=4, k=2, eta=2, seed=1, rep_seed=2)
    naive = fit_naive_mle(data, BERNOULLI)
    c = basis_contrast(0, 0, data.m_dim, data.p)
    assert naive.family is BERNOULLI and naive_wald_interval(data, BERNOULLI, naive, c).se > 0.0
    with pytest.raises(DataValidationError, match="'poisson' is not the fit's 'bernoulli'"):
        naive_wald_interval(data, POISSON, naive, c)
    wider = Dataset(np.c_[data.x, data.x[:, :1]], data.y)  # p = 4 data on a p = 3 fit
    with pytest.raises(DataValidationError, match=r"\(4, 3\) do not match data \(4, 4\)"):
        naive_wald_interval(wider, BERNOULLI, naive, c)
    small, _, _ = small_sim_dataset(n=50, p=3, m_dim=2, family="gaussian", seed=12)
    other, _, _ = small_sim_dataset(n=40, p=3, m_dim=5, family="gaussian", seed=13)
    with pytest.raises(DataValidationError, match=r"\(2, 3\) do not match data \(5, 3\)"):
        naive_wald_interval(other, GAUSSIAN, fit_naive_mle(small, GAUSSIAN), basis_contrast(0, 0, 2, 3))


def _overflowing(family, seed, scale):
    """40 x 2 data whose x is scaled by ``scale``, or whose first cell is
    1e200 when ``scale`` is None."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, 2))
    if scale is None:
        x[0, 0] = 1e200
    else:
        x *= scale
    y = (rng.random((40, 2)) < 0.5).astype(float)
    return Dataset(x, y if family is BERNOULLI else rng.standard_normal((40, 2)))


@pytest.mark.parametrize(
    "family, seed, scale, naive, match",
    [
        (GAUSSIAN, 0, 1e160, False, "a curvature matrix is not finite"),
        (GAUSSIAN, 0, 1e160, True, "the Fisher information of a response in u is not finite"),
        (BERNOULLI, 2, None, False, "the interval is not finite"),
    ],
    ids=["curvature", "fisher-information", "interval"],
)
def test_intervals_from_overflowing_numbers_are_a_numerical_error(family, seed, scale, naive, match):
    data = _overflowing(family, seed, scale)
    c = basis_contrast(0, 0, data.m_dim, data.p)
    with pytest.raises(NumericalError, match=match):
        if naive:
            naive_wald_interval(data, family, fit_naive_mle(data, family), c)
        else:
            confidence_interval(data, family, ghive_fit(data, family, seed=0), c)


def test_predictors_that_overflow_are_a_numerical_error():
    # a fit made from the data, the fold holding the 1.7e308 cell unconverged
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 2))
    y = (rng.random((60, 2)) < 1 / (1 + np.exp(-1.5 * x[:, :1] - 0.3 * x[:, 1:]))).astype(float)
    x[0, 0] = 1.7e308
    data = Dataset(x, y)
    fit = ghive_fit(data, BERNOULLI, seed=0)
    assert np.isfinite(fit.theta_hat).all() and not fit.f_hat.converged.all()
    with pytest.raises(NumericalError, match="linear predictors are not finite"):
        confidence_interval(data, BERNOULLI, fit, basis_contrast(0, 0, 2, 2))


def test_contrast_dimension_mismatch_is_rejected():
    data, _, _ = small_sim_dataset(n=40, p=3, m_dim=2, seed=5)
    fit = ghive_fit(data, BERNOULLI, seed=3)
    wrong = Contrast(u=np.array([1.0, 0.0, 0.0]), v=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DataValidationError):
        confidence_interval(data, BERNOULLI, fit, wrong)


def test_data_with_another_row_count_than_the_fit_is_rejected():
    data, _, _ = small_sim_dataset(n=40, p=3, m_dim=2, seed=5)
    fit = ghive_fit(data, BERNOULLI, seed=3)
    fewer = Dataset(data.x[:30], data.y[:30])
    with pytest.raises(DataValidationError, match="n=40"):
        confidence_interval(fewer, BERNOULLI, fit, basis_contrast(0, 0, data.m_dim, data.p))


def test_an_interval_is_refused_under_another_family_or_an_out_of_family_response():
    data, _, _ = small_sim_dataset(n=200, p=3, m_dim=4, k=2, eta=2.0, seed=1, rep_seed=2)
    fit = ghive_fit(data, BERNOULLI, seed=0)
    c = basis_contrast(0, 0, data.m_dim, data.p)
    res = confidence_interval(data, BERNOULLI, fit, c)
    assert (round(res.ci_lo, 2), round(res.ci_hi, 2)) == (-3.75, 3.59)
    with pytest.raises(DataValidationError, match="'poisson' is not the fit's 'bernoulli'"):
        confidence_interval(data, POISSON, fit, c)
    halved = Dataset(data.x, 0.5 * data.y)
    with pytest.raises(DataValidationError, match="bernoulli response must be 0 or 1; found 0.5"):
        confidence_interval(halved, BERNOULLI, fit, c)


def test_non_finite_fit_coefficients_are_rejected():
    # a fit read from a file can carry NaN; inference rejects it, not the kernels
    data, _, _ = small_sim_dataset(n=40, p=3, m_dim=2, seed=5)
    fit = ghive_fit(data, BERNOULLI, seed=3)
    fit.f_hat.values[1, 0] = np.nan
    c = basis_contrast(0, 1, data.m_dim, data.p)
    with pytest.raises(DataValidationError):
        confidence_interval(data, BERNOULLI, fit, c)
    with pytest.raises(DataValidationError):
        naive_wald_interval(data, BERNOULLI, fit.f_hat, basis_contrast(1, 1, data.m_dim, data.p))
    assert naive_wald_interval(data, BERNOULLI, fit.f_hat, c).se > 0.0


def test_serialized_inference_validates_against_the_schema():
    data, _, _ = small_sim_dataset(n=40, p=3, m_dim=2, seed=5)
    fit = ghive_fit(data, BERNOULLI, seed=3)
    c = basis_contrast(0, 1, data.m_dim, data.p)
    res = confidence_interval(data, BERNOULLI, fit, c)
    doc = json.loads(json.dumps(serialize_inference(res, c)))
    jsonschema.validate(doc, _schema("inference_result.schema.json"))
