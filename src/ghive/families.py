"""Exponential-family building blocks used throughout the package.

Three one-parameter families with canonical link and dispersion fixed at 1:
gaussian (identity link), bernoulli (logit link) and poisson (log link).
Everything downstream needs the cumulant function ``b`` (the naive
log-likelihood), ``b'`` and ``b''``, one kernel each, the inverse-variance
weighted residual ``(y - b'(eta)) / b''(eta)``, and the antiderivative of
that residual in ``eta`` (the modified quasi-log-likelihood term), which has
a closed form for each family.

The bernoulli residual and quasi-log-likelihood term are written with the
sign ``s = +1`` (y=1) or ``-1`` (y=0), as ``s (1 + e^(-s eta))`` and
``s eta - e^(-s eta) + 1``: one exponential per element instead of one per
branch, and the same bits as the two-branch forms. Both kernels read the
response in that form, :func:`quasi_response`, which :func:`quasi_residual`
and :func:`quasi_term` take as given: the solver forms it once per column
block instead of on every call. Callers that already hold ``b'`` or the
weighted residual at a point pass it on, to ``cumulant_d2`` or
:func:`hessian_weight`, rather than have it recomputed.

The kernels the solver calls on every iteration compute in the one array
they return: each step writes over the last (``out=`` and in-place
operators) instead of allocating a temporary per arithmetic step, and a
step that needs a second array writes it into ``tmp``. A caller that passes
``out`` (and ``tmp``), arrays of the result's shape, gets the result in
``out`` and allocates nothing; the solver carves them out of one workspace
per solve. Without them each kernel allocates its own. The steps and their
order are those of the formulas either way, so the results are the same
bit for bit.

Every bernoulli kernel runs on numpy's vectorised ``exp`` and ``log1p``:
the sigmoid is ``1 / (1 + e^-t)``, the formula ``scipy.special.expit``
evaluates, and the softplus is ``max(t, 0) + log1p(e^-|t|)``, the formula
behind ``np.logaddexp(0, t)``. Those two routines make one scalar libm call
per element, several times slower than numpy's SIMD ``exp``. The
simulator's response draw has its own inline sigmoid, so simulated datasets
do not depend on these kernels.

All evaluation functions are vectorised: scalars and arrays of any shape are
accepted and broadcast together. They trust their inputs: responses are
checked once by :func:`validate_response` where a fit begins, and the solver
rejects any step whose objective is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, require_finite_array, require_instance

# Variance floor applied when dividing by b''(eta); keeps weighted residuals
# and curvature ratios finite when the linear predictor is far in the tails.
VARIANCE_FLOOR = 1e-10

# Stronger floor used where residuals are averaged into covariance and
# variance estimates (the residual covariance matrix, the G matrices and the
# influence terms behind confidence intervals). The estimator's theory
# assumes b'' is bounded away from zero along fitted predictors; without a
# working surrogate for that bound a single badly misclassified bernoulli
# observation (weight 1/b'' ~ e^|eta|) swamps every average it enters,
# degrading the factor direction estimates and the interval widths. The
# quasi-likelihood score itself is NOT floored this way: the optimizer must
# see the exact gradient of the objective it climbs. 0.05 caps a single
# weighted residual at 20; calibrated on the simulation designs, where looser
# caps let residual outliers dominate the covariance spectrum as the response
# count grows.
RESIDUAL_CURVATURE_FLOOR = 5e-2

FAMILY_NAMES = ("gaussian", "bernoulli", "poisson")


@dataclass(frozen=True)
class GlmFamily:
    """A canonical-link exponential family with fixed unit dispersion."""

    kind: str

    def __post_init__(self):
        if self.kind not in FAMILY_NAMES:
            raise DataValidationError(
                f"unknown family {self.kind!r}; expected one of {FAMILY_NAMES}"
            )

    def __str__(self):
        return self.kind


GAUSSIAN = GlmFamily("gaussian")
BERNOULLI = GlmFamily("bernoulli")
POISSON = GlmFamily("poisson")


def family_from_name(name: str) -> GlmFamily:
    """Look up a family by name, ignoring case and surrounding whitespace."""
    if not isinstance(name, str):
        raise DataValidationError(f"family must be a name, got {name!r}")
    return GlmFamily(name.strip().lower())


def cumulant(family: GlmFamily, t, out=None, tmp=None):
    """Cumulant ``b(t)``: t^2/2, softplus log(1 + e^t), e^t."""
    t = np.asarray(t, dtype=float)
    b = np.empty(t.shape) if out is None else out
    if family.kind == "gaussian":
        np.multiply(0.5, t, out=b)
        b *= t
    elif family.kind == "bernoulli":
        np.abs(t, out=b)
        np.negative(b, out=b)
        np.log1p(np.exp(b, out=b), out=b)
        b += np.maximum(t, 0.0, out=tmp)
    else:
        np.exp(t, out=b)
    return b


def cumulant_d1(family: GlmFamily, t, out=None):
    """Mean function ``b'`` at t: t, sigma(t), e^t."""
    t = np.asarray(t, dtype=float)
    if family.kind == "gaussian":
        return _filled(out, t)
    if family.kind == "bernoulli":
        return _sigmoid(t, out)
    return np.exp(t, out=out)


def cumulant_d2(family: GlmFamily, t, d1=None, out=None):
    """Variance function ``b''`` at t: 1, sigma(t) sigma(-t), e^t.

    A caller that already holds ``d1 = b'(t)`` passes it to save the second
    sigma(t) or e^t: b'' is then ``d1 * sigma(-t)``, or ``d1`` itself, which
    is returned as it is.
    """
    t = np.asarray(t, dtype=float)
    if family.kind == "gaussian":
        return _filled(out, 1.0, t.shape)
    if family.kind == "poisson":
        return cumulant_d1(family, t, out) if d1 is None else d1
    if d1 is None:
        d1 = cumulant_d1(family, t)
    # sigma(t) * sigma(-t) stays accurate in both tails, unlike p*(1-p).
    b2 = _sigmoid(-t if out is None else np.negative(t, out=out), out)
    b2 *= d1
    return b2


def weighted_residual(family: GlmFamily, y, eta, floor=None):
    """Inverse-variance weighted residual ``(y - b'(eta)) / b''(eta)``.

    Evaluated through the algebraically simplified ratio for each family
    rather than the literal quotient.  For bernoulli the literal form loses
    all precision once numerator and denominator underflow together
    (|eta| > ~23): the true value there is within e^-|eta| of +-1 on the
    correctly classified side, while the floored quotient collapses to 0.
    The simplified forms:

    gaussian:  y - eta
    bernoulli: y/sigma - (1-y)/(1-sigma)  ->  1 + e^-eta  (y=1)
                                             -1 - e^eta   (y=0)
               that is s (1 + e^(-s eta)) with the sign s = +1 (y=1), -1 (y=0)
    poisson:   (y - e^eta) / e^eta, denominator floored at VARIANCE_FLOOR

    The signed bernoulli form takes one exponential per element; negation
    is exact, so it gives the two-branch values bit for bit.

    Magnitudes on the misclassified side grow exponentially; they are capped
    at |y - b'| / floor, the same ceiling the floored quotient imposes. The
    floor defaults to VARIANCE_FLOOR; covariance/variance estimation passes
    RESIDUAL_CURVATURE_FLOOR instead (see that constant's comment).
    """
    floor = VARIANCE_FLOOR if floor is None else floor
    return quasi_residual(family, quasi_response(family, y), eta, floor)


def quasi_residual(family: GlmFamily, r, eta, floor, out=None, tmp=None):
    """:func:`weighted_residual` with the response given as
    :func:`quasi_response` forms it, and the floor given."""
    eta = np.asarray(eta, dtype=float)
    if family.kind == "gaussian":
        return np.subtract(r, eta, out=out)
    cap = 1.0 / floor
    res = np.empty(np.broadcast(r, eta).shape) if out is None else out
    if family.kind == "bernoulli":
        # e^(-s eta): -(s eta) has the bits of (-s) eta
        _exp(np.negative(np.multiply(r, eta, out=res), out=res), res)
        res += 1.0
        res *= r
        np.minimum(res, cap, out=res)  # np.clip's bits, without its Python wrapper
        return np.maximum(res, -cap, out=res)
    # poisson
    e = _exp(eta, np.empty(eta.shape) if tmp is None else tmp)
    np.subtract(r, e, out=res)
    np.maximum(e, floor, out=e)  # finite exactly where e^eta is
    with np.errstate(invalid="ignore"):
        res /= e
    # e overflows to inf for eta > ~709 where the true ratio tends to -1
    np.copyto(res, -1.0, where=~np.isfinite(e))
    return res


def hessian_weight(family: GlmFamily, eta, res, out=None):
    """Per-observation curvature weight, minus the ``eta``-derivative of the
    weighted residual ``res`` at ``eta``: ``1 + res * d/deta log b''(eta)``.

    Multiplied into x x^T gram matrices this gives the negated Hessian of the
    modified quasi-log-likelihood; the same weight drives the variance
    correction matrices used for confidence intervals.  The log-derivative
    of b'' is 0 (gaussian), 1 - 2*sigma (bernoulli) and 1 (poisson), so the
    weight is 1, ``1 + res (1 - 2 sigma)`` and ``1 + res``.
    """
    if family.kind == "gaussian":
        return _filled(out, 1.0, np.shape(res))
    if family.kind == "bernoulli":
        w = _sigmoid(eta, np.empty(np.broadcast(eta, res).shape) if out is None else out)
        w *= 2.0
        np.subtract(1.0, w, out=w)
        w *= res
        w += 1.0
        return w
    return np.add(1.0, res, out=out)


def quasi_term(family: GlmFamily, r, eta, out=None, tmp=None):
    """Antiderivative of the weighted residual in ``eta``, zero at eta = 0,
    with the response ``y`` given as :func:`quasi_response` forms it (``r``).

    Closed forms (all checked against adaptive quadrature in the tests):

    gaussian:  y*eta - eta^2/2
    bernoulli: y=1 term  eta - e^(-eta) + 1
               y=0 term  -eta - e^(eta) + 1
               that is s eta - e^(-s eta) + 1, s = +1 (y=1), -1 (y=0)
    poisson:   -y*e^(-eta) - eta + y

    The bernoulli form assumes binary y (see :func:`validate_response`) and,
    like the residual, takes one exponential per element.
    """
    eta = np.asarray(eta, dtype=float)
    term = np.empty(np.broadcast(r, eta).shape) if out is None else out
    if family.kind == "gaussian":
        np.multiply(r, eta, out=term)
        half = np.multiply(0.5, eta, out=tmp)
        half *= eta
        term -= half
        return term
    if family.kind == "bernoulli":
        np.multiply(r, eta, out=term)  # t = s eta
        e = np.empty(term.shape) if tmp is None else tmp
        term -= _exp(np.negative(term, out=e), e)
        term += 1.0
        return term
    # -(y e^(-eta)) has the bits of (-y) e^(-eta)
    _exp(np.negative(eta, out=term), term)
    term *= r
    np.negative(term, out=term)
    term -= eta
    term += r
    return term


def _filled(out, value, shape=None):
    """``value`` broadcast to ``shape`` (its own shape by default), in ``out``
    if given."""
    if out is None:
        out = np.empty(np.shape(value) if shape is None else shape)
    np.copyto(out, value)
    return out


@np.errstate(over="ignore")
def _exp(t, out=None):
    """``e^t``, in ``out`` if given, under the kernels' one overflow rule:
    where t exceeds ~709.78 the result is inf, with no warning, and the
    solver rejects any step whose objective is not finite. Every exponential
    of this module that can overflow when a kernel is called directly goes
    through here. Two are left unguarded: the bernoulli ``cumulant``'s
    ``e^(-|t|)``, which cannot overflow, and the poisson ``cumulant`` and
    ``cumulant_d1``, which only callers that guard themselves reach (the
    solver's Newton block), and which would otherwise pay for a second
    guard."""
    return np.exp(t, out=out)


def _sigmoid(t, out=None):
    """``1 / (1 + e^-t)``, in ``out`` if given; below t ~ -709.78 e^-t
    overflows to inf and the quotient flushes to 0 (as in ``expit``), where
    sigma is subnormal."""
    sigma = np.empty(np.shape(t)) if out is None else out
    _exp(np.negative(t, out=sigma), sigma)
    sigma += 1.0
    return np.divide(1.0, sigma, out=sigma)


def is_quadratic(family: GlmFamily) -> bool:
    """Whether the family's objective is quadratic in eta: ``b'' == 1``.

    Then the modified quasi-log-likelihood is the log-likelihood, and
    Wedderburn's (1976) quasi-score is the least-squares score:
    :func:`quasi_term`, :func:`quasi_residual` and :func:`hessian_weight`
    compute ``y*eta - cumulant``, ``y - cumulant_d1`` and ``cumulant_d2``
    operation by operation (pinned bit for bit by
    ``tests/test_families.py::test_gaussian_quasi_kernels_are_the_loglik_kernels_bit_for_bit``),
    and one Newton step from any start reaches the maximum. Only gaussian.
    """
    return family.kind == "gaussian"


def quasi_response(family: GlmFamily, y):
    """The response as the quasi-likelihood kernels read it: for bernoulli
    the sign ``s = 2y - 1``, +1 for y = 1 and -1 for y = 0 (an arithmetic
    pass is ten times cheaper than ``np.where``), and ``y`` itself for the
    other families. ``s * eta`` and ``-s * eta`` are exact negations, so the
    signed forms above reproduce the y=1 and y=0 branches bit for bit."""
    y = np.asarray(y, dtype=float)
    return 2.0 * y - 1.0 if family.kind == "bernoulli" else y


def validate_response(family: GlmFamily, y) -> None:
    """Check that a response matrix is usable under the family.

    ``family`` must be a GlmFamily (see :func:`family_from_name`); finite
    entries always; {0,1} entries for bernoulli; nonnegative entries for
    poisson.
    """
    require_instance("family", family, GlmFamily)
    y = require_finite_array("response", y)
    if family.kind == "bernoulli":
        bad = (y != 0.0) & (y != 1.0)
        if np.any(bad):
            idx = np.argwhere(bad)[0]
            raise DataValidationError(
                f"bernoulli response must be 0 or 1; found {float(y[tuple(idx)])} "
                f"at position {tuple(int(i) for i in idx)}"
            )
    elif family.kind == "poisson":
        if np.any(y < 0):
            idx = np.argwhere(y < 0)[0]
            raise DataValidationError(
                f"poisson response must be nonnegative; found negative entry "
                f"at position {tuple(int(i) for i in idx)}"
            )
