"""Family kernels: cumulant derivatives, weighted residuals, objective terms."""

import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from conftest import quasi_loglik_term
from ghive import BERNOULLI, GAUSSIAN, POISSON
from ghive.errors import DataValidationError
from ghive.families import (
    RESIDUAL_CURVATURE_FLOOR,
    VARIANCE_FLOOR,
    cumulant,
    cumulant_d1,
    cumulant_d2,
    family_from_name,
    hessian_weight,
    is_quadratic,
    quasi_residual,
    quasi_response,
    quasi_term,
    validate_response,
    weighted_residual,
)

FAMILIES = {"gaussian": GAUSSIAN, "bernoulli": BERNOULLI, "poisson": POISSON}

# Ranges where every derivative is comfortably inside float64 territory.
SAFE_T = {"gaussian": (-50.0, 50.0), "bernoulli": (-8.0, 8.0), "poisson": (-5.0, 5.0)}


def _b3(family, t):
    """Test-local closed form of b''' (the package needs only b, b' and b'')."""
    t = np.asarray(t, dtype=float)
    if family.kind == "gaussian":
        return np.zeros_like(t)
    if family.kind == "bernoulli":
        return expit(t) * expit(-t) * (1.0 - 2.0 * expit(t))
    return np.exp(t)


def _b4(family, t):
    """Test-local closed form of b''''."""
    t = np.asarray(t, dtype=float)
    if family.kind == "gaussian":
        return np.zeros_like(t)
    if family.kind == "bernoulli":
        b2 = expit(t) * expit(-t)
        return b2 * (1.0 - 6.0 * b2)
    return np.exp(t)


# b, b', b'', b''', b'''' in order
DERIVS = (cumulant, cumulant_d1, cumulant_d2, _b3, _b4)


def _central_diff(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2.0 * h)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_b_derivs_chain_matches_central_differences(name):
    family = FAMILIES[name]
    lo, hi = SAFE_T[name]
    ts = np.linspace(lo, hi, 17)
    for order in range(4):  # check b' through b'''' against the level below
        f = lambda t: DERIVS[order](family, t)
        g = lambda t: DERIVS[order + 1](family, t)
        for t in ts:
            num = _central_diff(f, t)
            ana = g(t)
            assert np.isclose(ana, num, rtol=1e-5, atol=1e-6 * max(1.0, abs(ana)))


def test_b_derivs_known_values():
    # gaussian: b(t) = t^2/2
    b, b1, b2, b3, b4 = (d(GAUSSIAN, 3.0) for d in DERIVS)
    assert (b, b1, b2, b3, b4) == (4.5, 3.0, 1.0, 0.0, 0.0)
    # bernoulli at t=0: p=1/2
    b, b1, b2, b3, b4 = (d(BERNOULLI, 0.0) for d in DERIVS)
    assert np.isclose(b, np.log(2.0))
    assert b1 == 0.5 and np.isclose(b2, 0.25) and b3 == 0.0
    assert np.isclose(b4, 0.25 * (1 - 6 * 0.25))
    # poisson: every derivative is exp(t)
    vals = [d(POISSON, 1.3) for d in DERIVS]
    assert np.allclose(vals, np.exp(1.3))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_weighted_residual_equals_quotient_when_curvature_is_healthy(name):
    # Wherever b'' stays above the floor, the closed forms must agree with
    # the literal (y - b')/b'' quotient.
    family = FAMILIES[name]
    rng = np.random.default_rng(5)
    for _ in range(50):
        eta = float(rng.uniform(-2.0, 2.0))
        if name == "bernoulli":
            y = float(rng.integers(0, 2))
        elif name == "poisson":
            y = float(rng.poisson(np.exp(eta)))
        else:
            y = float(rng.normal(eta))
        b1, b2 = cumulant_d1(family, eta), cumulant_d2(family, eta)
        assert b2 > RESIDUAL_CURVATURE_FLOOR
        got = weighted_residual(family, y, eta, floor=RESIDUAL_CURVATURE_FLOOR)
        assert np.isclose(got, (y - b1) / b2, rtol=1e-12, atol=1e-12)


def test_weighted_residual_cap_binds_in_the_tails():
    floor = RESIDUAL_CURVATURE_FLOOR
    cap = 1.0 / floor
    # bernoulli, badly wrong side: quotient would be 1 + e^{4} ~ 55.6
    assert weighted_residual(BERNOULLI, 1.0, -4.0, floor=floor) == cap
    assert weighted_residual(BERNOULLI, 0.0, 4.0, floor=floor) == -cap
    # far tail with y on the correct side must stay near +/-1, never zero
    r = weighted_residual(BERNOULLI, 1.0, 30.0, floor=floor)
    assert r == pytest.approx(1.0 + np.exp(-30.0), abs=1e-16)
    assert r > 1.0
    assert weighted_residual(BERNOULLI, 0.0, -30.0, floor=floor) < -1.0
    # poisson with an overflowing mean degrades to -1, not nan
    assert weighted_residual(POISSON, 0.0, 800.0, floor=floor) == -1.0
    assert np.isfinite(weighted_residual(POISSON, 3.0, -800.0, floor=floor))


def test_weighted_residual_without_floor_keeps_exact_quotient():
    # The optimizer path passes no floor; the bernoulli value must be the
    # exact 1 + e^{-eta} even where the capped version saturates.
    assert weighted_residual(BERNOULLI, 1.0, -4.0) == pytest.approx(
        1.0 + np.exp(4.0), rel=1e-14
    )


def test_quasi_hessian_weight_matches_literal_formula():
    rng = np.random.default_rng(11)
    for name in ("bernoulli", "poisson"):
        family = FAMILIES[name]
        for _ in range(50):
            eta = float(rng.uniform(-2.0, 2.0))
            y = (
                float(rng.integers(0, 2))
                if name == "bernoulli"
                else float(rng.poisson(np.exp(eta)))
            )
            b1, b2, b3 = (d(family, eta) for d in DERIVS[1:4])
            lit = 1.0 + (y - b1) * b3 / b2**2
            got = hessian_weight(family, eta, weighted_residual(family, y, eta))
            assert np.isclose(got, lit, rtol=1e-10, atol=1e-10)


def test_quasi_hessian_weight_gaussian_is_one():
    ys = np.array([-3.0, 0.0, 7.5])
    etas = np.array([1.0, -2.0, 0.0])
    weight = hessian_weight(GAUSSIAN, etas, weighted_residual(GAUSSIAN, ys, etas))
    assert np.array_equal(weight, np.ones(3))


def test_gaussian_quasi_kernels_are_the_loglik_kernels_bit_for_bit():
    # b'' == 1: the quasi term, score residual and curvature weight are the
    # log-likelihood's y eta - b, y - b' and b'', operation by operation,
    # signed zeros included
    assert [is_quadratic(f) for f in (GAUSSIAN, BERNOULLI, POISSON)] == [True, False, False]
    rng = np.random.default_rng(12)
    eta, y = rng.standard_normal((2, 2000)) * 10.0 ** rng.uniform(-8, 8, (2, 2000))
    eta[:4], y[:4] = [0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]
    r = quasi_response(GAUSSIAN, y)
    res = quasi_residual(GAUSSIAN, r, eta, VARIANCE_FLOOR)
    assert quasi_term(GAUSSIAN, r, eta).tobytes() == (y * eta - cumulant(GAUSSIAN, eta)).tobytes()
    assert res.tobytes() == (y - cumulant_d1(GAUSSIAN, eta)).tobytes()
    assert hessian_weight(GAUSSIAN, eta, res).tobytes() == cumulant_d2(GAUSSIAN, eta).tobytes()


def test_quasi_loglik_term_closed_forms_match_quadrature():
    # The term is the integral of the weighted residual from 0 to eta.
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(10):
        eta = float(rng.uniform(-6, 6))
        cases.append((BERNOULLI, float(rng.integers(0, 2)), eta))
        # keep the poisson integral's magnitude modest so the 1e-10 absolute
        # tolerance stays within what adaptive quadrature can deliver
        eta_p = float(rng.uniform(-3, 3))
        cases.append((POISSON, float(rng.poisson(np.exp(eta_p))), eta_p))
        cases.append((GAUSSIAN, float(rng.normal()), eta))
    for family, y, eta in cases:
        ref, _ = quad(
            lambda s: weighted_residual(family, y, s),
            0.0,
            eta,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        assert quasi_loglik_term(family, y, eta) == pytest.approx(ref, abs=1e-10)


def test_quasi_loglik_term_is_zero_at_origin():
    assert quasi_loglik_term(BERNOULLI, 1.0, 0.0) == 0.0
    assert quasi_loglik_term(BERNOULLI, 0.0, 0.0) == 0.0
    assert quasi_loglik_term(POISSON, 2.0, 0.0) == 0.0
    assert quasi_loglik_term(GAUSSIAN, -1.5, 0.0) == 0.0


@given(
    eta=st.floats(-30.0, 30.0),
    y=st.sampled_from([0.0, 1.0]),
)
def test_bernoulli_residual_sign_follows_response(eta, y):
    r = weighted_residual(BERNOULLI, y, eta, floor=RESIDUAL_CURVATURE_FLOOR)
    assert np.isfinite(r)
    assert abs(r) <= 1.0 / RESIDUAL_CURVATURE_FLOOR + 1e-12
    if y == 1.0:
        assert r > 0.0
    else:
        assert r < 0.0


@given(
    eta1=st.floats(-20.0, 20.0),
    delta=st.floats(1e-3, 10.0),
)
def test_bernoulli_success_term_increases_with_linear_predictor(eta1, delta):
    # For y=1 the integrand is strictly positive, so the term is increasing.
    lo = quasi_loglik_term(BERNOULLI, 1.0, eta1)
    hi = quasi_loglik_term(BERNOULLI, 1.0, eta1 + delta)
    assert hi > lo


def test_validate_response_rejects_out_of_family_values():
    msg = "bernoulli response must be 0 or 1; found 0.5 at position (0, 1)"
    with pytest.raises(DataValidationError, match=re.escape(msg) + "$"):
        validate_response(BERNOULLI, np.array([[0.0, 0.5]]))
    with pytest.raises(DataValidationError):
        validate_response(POISSON, np.array([[1.0, -1.0]]))
    with pytest.raises(DataValidationError):
        validate_response(GAUSSIAN, np.array([[np.nan]]))
    validate_response(BERNOULLI, np.array([[0.0, 1.0]]))
    validate_response(POISSON, np.array([[0.0, 4.0]]))
    validate_response(GAUSSIAN, np.array([[-3.7, 0.0]]))


def test_family_from_name_roundtrip_and_errors():
    for name, family in FAMILIES.items():
        assert family_from_name(name).kind == family.kind
    for bad in ("logit", 7, None):
        with pytest.raises(DataValidationError):
            family_from_name(bad)


# Every bernoulli edge case of the exponential: signed zeros, the smallest
# subnormal, tiny and moderate predictors, where sigma(-eta) underflows in
# b'' (~23, ~37), the edge of exp overflow (709.78 < log(max float) < 710)
# and where e^-eta underflows to zero (745).
_ETA_GRID = np.array(
    [s * a for a in (0.0, 5e-324, 1e-300, 23.0, 37.0, 709.78, 710.0, 745.0) for s in (1.0, -1.0)]
)


def _literal_sigmoid(t):
    """``1 / (1 + e^-t)``, written out; e^-t overflows to inf below -709.78."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def _two_branch_residual(y, eta, floor):
    """The bernoulli weighted residual written as its y=1 and y=0 branches."""
    cap = 1.0 / floor
    with np.errstate(over="ignore"):
        pos = 1.0 + np.exp(-eta)
        neg = -1.0 - np.exp(eta)
    return np.clip(np.where(y == 1.0, pos, neg), -cap, cap)


@pytest.mark.parametrize("floor", [None, RESIDUAL_CURVATURE_FLOOR], ids=["solver", "interval"])
def test_signed_bernoulli_kernels_equal_the_two_branch_forms_bit_for_bit(floor):
    eta = np.concatenate([_ETA_GRID, np.random.default_rng(3).uniform(-40.0, 40.0, 200)])
    y, eta = np.meshgrid([0.0, 1.0], eta)
    lit_floor = VARIANCE_FLOOR if floor is None else floor
    res = _two_branch_residual(y, eta, lit_floor)
    assert np.array_equal(weighted_residual(BERNOULLI, y, eta, floor=floor), res)
    weight = 1.0 + res * (1.0 - 2.0 * _literal_sigmoid(eta))
    composed = hessian_weight(BERNOULLI, eta, weighted_residual(BERNOULLI, y, eta, floor=floor))
    assert np.array_equal(composed, weight)
    assert np.array_equal(hessian_weight(BERNOULLI, eta, res), weight)
    with np.errstate(over="ignore"):
        term_one = eta - np.exp(-eta) + 1.0
        term_zero = -eta - np.exp(eta) + 1.0
    term = np.where(y == 1.0, term_one, term_zero)
    assert np.array_equal(quasi_loglik_term(BERNOULLI, y, eta), term)
    # signed zeros survive too, where array_equal would not tell them apart
    assert np.array_equal(np.signbit(quasi_loglik_term(BERNOULLI, y, eta)), np.signbit(term))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_b2_from_a_given_b1_is_the_b2_kernel_bit_for_bit(name):
    family = FAMILIES[name]
    t = np.concatenate([_ETA_GRID[np.abs(_ETA_GRID) < 700], np.linspace(-30.0, 30.0, 61)])
    assert np.array_equal(cumulant_d2(family, t, d1=cumulant_d1(family, t)), cumulant_d2(family, t))
    if name == "bernoulli":  # the literal two-sigma form
        assert np.array_equal(cumulant_d2(family, t), _literal_sigmoid(t) * _literal_sigmoid(-t))


def test_bernoulli_cumulant_is_the_two_branch_softplus_bit_for_bit():
    t = np.concatenate([_ETA_GRID, np.random.default_rng(4).uniform(-40.0, 40.0, 200)])
    with np.errstate(over="ignore"):
        softplus = np.where(t > 0.0, t + np.log1p(np.exp(-t)), np.log1p(np.exp(t)))
    assert np.array_equal(cumulant(BERNOULLI, t), softplus)


# Error budget of the float64 bernoulli kernels, in units in the last place
# of the correctly rounded value: exp and log1p within 1 ULP each, every
# +, / and * within half of one. Both the expit/logaddexp forms and the
# numpy exp/log1p forms measure at most 1.99, 1.45 and 3.42 ULP over 1.4e5
# random points in [-700, 700].
_ULP_BOUND = {"sigma": 2.0, "b": 2.0, "b2": 4.0}


def _ulp_error(got, ref):
    return float(abs(mpmath.mpf(float(got)) - ref) / mpmath.mpf(float(np.spacing(abs(float(ref))))))


def test_bernoulli_kernels_are_accurate_against_mpmath():
    rng = np.random.default_rng(8)
    t = np.concatenate(
        [_ETA_GRID[np.abs(_ETA_GRID) <= 709.78], rng.uniform(-40.0, 40.0, 2000), rng.uniform(-700.0, 700.0, 200)]
    )
    got = {
        "sigma": cumulant_d1(BERNOULLI, t),
        "b": cumulant(BERNOULLI, t),
        "b2": cumulant_d2(BERNOULLI, t),
    }
    worst = dict.fromkeys(got, 0.0)
    with mpmath.workdps(50):
        for i, v in enumerate(t):
            x = mpmath.mpf(float(v))
            sigma, sigma_neg = 1 / (1 + mpmath.exp(-x)), 1 / (1 + mpmath.exp(x))
            ref = {"sigma": sigma, "b": mpmath.log1p(mpmath.exp(x)), "b2": sigma * sigma_neg}
            for key in got:
                worst[key] = max(worst[key], _ulp_error(got[key][i], ref[key]))
    assert all(worst[key] <= _ULP_BOUND[key] for key in got), worst


def test_bernoulli_kernels_are_finite_and_quiet_in_the_far_tails():
    t = np.array([-1e3, -745.0, 745.0, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = cumulant_d1(BERNOULLI, t)
        b = cumulant(BERNOULLI, t)
        b2 = cumulant_d2(BERNOULLI, t)
        weight = hessian_weight(BERNOULLI, t, np.ones_like(t))
    # sigma(-745) ~ 2.8e-324 would round to the smallest subnormal, but e^745
    # overflows and 1 / (1 + inf) is 0, as with scipy's expit
    assert sigma.tolist() == [0.0, 0.0, 1.0, 1.0]
    # b(-745) = log1p(e^-745) does round to it
    assert b.tolist() == [0.0, 5e-324, 745.0, 1e3]
    assert b2.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert weight.tolist() == [2.0, 2.0, 0.0, 0.0]


QUASI_KERNELS = {
    "quasi_residual": lambda family, y, eta: quasi_residual(
        family, quasi_response(family, y), eta, VARIANCE_FLOOR),
    "quasi_term": lambda family, y, eta: quasi_term(family, quasi_response(family, y), eta),
    "hessian_weight": lambda family, y, eta: hessian_weight(
        family, eta, weighted_residual(family, y, eta)),
    "weighted_residual": weighted_residual,
}


@pytest.mark.parametrize("kernel, name, eta, y", [
    pytest.param(kernel, name, eta, y, marks=[pytest.mark.xfail(
        strict=True, reason="CHANGES.md FOUND on the poisson kernels' far tail, ROADMAP item 6: "
                            "0 * e^800 is NaN where the exact term is 800")]
                 if (kernel, name, eta, y) == ("quasi_term", "poisson", -800.0, 0.0) else [])
    for kernel in QUASI_KERNELS for name in ("bernoulli", "poisson")
    for eta in (-800.0, 800.0) for y in (0.0, 1.0)
])
def test_quasi_kernels_keep_the_overflow_rule_in_the_far_tails(kernel, name, eta, y):
    # families._exp's rule: an exponential past ~709.78 is inf, with no
    # warning, and no kernel turns it into NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = QUASI_KERNELS[kernel](FAMILIES[name], y, eta)
    assert not np.isnan(value)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kernels_writing_into_out_give_the_bits_they_allocate(name):
    # the solver's kernels write into the arrays of its workspace, whatever
    # they held; the far tails included: bernoulli at eta = +-800, and poisson
    # where e^eta overflows to inf and the weighted residual is -1
    family = FAMILIES[name]
    rng = np.random.default_rng(5)
    eta = np.concatenate([[-800.0, -0.0, 0.0, 800.0], rng.uniform(-30.0, 30.0, 60)])
    y = {"gaussian": rng.standard_normal, "bernoulli": lambda size: rng.integers(0, 2, size),
         "poisson": lambda size: rng.poisson(3.0, size)}[name](eta.size).astype(float)
    r = quasi_response(family, y)
    with np.errstate(over="ignore"):
        d1, res = cumulant_d1(family, eta), quasi_residual(family, r, eta, VARIANCE_FLOOR)
    calls = {
        "cumulant": (cumulant, (family, eta), ("out", "tmp")),
        "cumulant_d1": (cumulant_d1, (family, eta), ("out",)),
        "cumulant_d2": (cumulant_d2, (family, eta), ("out",)),
        "cumulant_d2 from b'": (cumulant_d2, (family, eta, d1), ("out",)),
        "hessian_weight": (hessian_weight, (family, eta, res), ("out",)),
        "quasi_residual": (quasi_residual, (family, r, eta, VARIANCE_FLOOR), ("out", "tmp")),
        "quasi_term": (quasi_term, (family, r, eta), ("out", "tmp")),
    }
    with np.errstate(over="ignore", invalid="ignore"):
        for label, (kernel, args, names) in calls.items():
            want = kernel(*args)
            given = {key: np.full(eta.shape, np.nan) for key in names}
            got = kernel(*args, **given)
            assert got.tobytes() == want.tobytes(), label
            # the result is ``out`` itself, except b'' handed back as the given b'
            handed_back = name == "poisson" and label.endswith("b'")
            assert got is (d1 if handed_back else given["out"]), label
    if name == "poisson":
        assert np.isinf(d1[3]) and res[3] == -1.0
