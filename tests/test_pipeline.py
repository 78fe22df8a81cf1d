"""End-to-end fitting pipeline: cross-fitting, modes, projection, serialization."""

import json
import threading

import jsonschema
import numpy as np
import pytest

from conftest import small_sim_dataset
from ghive import BERNOULLI, GAUSSIAN, POISSON, spectral
from ghive.data_io import Dataset, matrix_to_json
from ghive.errors import DataValidationError, NumericalError
from ghive.families import RESIDUAL_CURVATURE_FLOOR, weighted_residual
from ghive.inference import basis_contrast, naive_wald_interval
from ghive.qml import MAX_ITER, TOL, CoefMatrix, _fit_matrix, fit_naive_many, make_split
from ghive.spectral import eigendecomposition
from ghive.pipeline import (
    DERIVED_TOL,
    FIT_FORMAT_VERSION,
    Mode,
    _crossfit_sigma,
    deserialize_fit,
    ghive_fit,
    ghive_fit_many,
    serialize_fit,
    with_projection,
)


def _schema(name):
    from importlib.resources import files

    return json.loads(files("ghive").joinpath("schemas", name).read_text())


def _v1_doc(fit):
    """``fit`` as a format-1 document: eigvals, eigvecs and split.seed besides the
    format-2 fields."""
    doc = json.loads(json.dumps(serialize_fit(fit)))
    eigvals, eigvecs = eigendecomposition(fit.spectral.sigma_hat)
    doc.update(format_version=1, eigvals=eigvals.tolist(), eigvecs=matrix_to_json(eigvecs))
    doc["split"]["seed"] = doc["seed"]
    return doc


def _folds(data, split):
    return [(data.x[rows], data.y[rows]) for rows in (split.d1, split.d2)]


def test_sigma_hat_scores_each_fold_with_the_other_folds_fit():
    # fold d1's rows take the fold-d2 coefficients and vice versa; with a
    # gaussian family the weighted residual is exactly y - x f'
    data, _, _ = small_sim_dataset(n=30, p=3, m_dim=2, family="gaussian", seed=6)
    split = make_split(data.n, seed=13)
    rng = np.random.default_rng(99)
    c1, c2 = rng.standard_normal((2, 2, 3))
    e1 = data.y[split.d1] - data.x[split.d1] @ c2.T
    e2 = data.y[split.d2] - data.x[split.d2] @ c1.T
    hand = 0.5 * (e1.T @ e1 / len(split.d1) + e2.T @ e2 / len(split.d2))
    sigma = _crossfit_sigma(_folds(data, split), np.stack([c1, c2]), GAUSSIAN)
    assert np.allclose(sigma, hand, atol=1e-12)
    assert np.array_equal(sigma, sigma.T)
    # the fold-swapped pairing is another matrix
    swapped = _crossfit_sigma(_folds(data, split), np.stack([c2, c1]), GAUSSIAN)
    assert not np.allclose(swapped, hand, atol=1e-3)


def test_sigma_hat_caps_the_weighted_residuals():
    # a coefficient row that forces a confident wrong prediction must give
    # residuals capped at 1/floor rather than the raw quotient
    x = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
    folds = _folds(Dataset(x, np.ones((8, 1))), make_split(8, seed=0))
    sigma = _crossfit_sigma(folds, np.full((2, 1, 2), -8.0), BERNOULLI)
    cap = 1.0 / RESIDUAL_CURVATURE_FLOOR
    assert np.allclose(sigma, cap**2 * np.ones((1, 1)))
    # sanity: the uncapped quotient would have been far larger
    assert weighted_residual(BERNOULLI, 1.0, -8.0) > 10 * cap


def _fold_fits(data, split, family):
    """The fold fits a ghive fit averages, each fold solved alone."""
    return [CoefMatrix(*(a[0] for a in _fit_matrix([fold], family, "quasi")), family)
            for fold in _folds(data, split)]


def test_f_hat_averages_the_fold_fits():
    data, _, _ = small_sim_dataset(n=50, seed=4, rep_seed=2)
    fit = ghive_fit(data, BERNOULLI, seed=21)
    fit1, fit2 = _fold_fits(data, fit.split, BERNOULLI)
    assert np.allclose(fit.f_hat.values, 0.5 * (fit1.values + fit2.values), atol=1e-15)
    # both folds' norms, fold d1 first, and a flag per fold fit
    assert np.array_equal(fit.f_hat.grad_norm, np.column_stack([fit1.grad_norm, fit2.grad_norm]))
    assert np.array_equal(fit.f_hat.converged, np.column_stack([fit1.converged, fit2.converged]))
    assert np.array_equal(fit.f_hat.converged, fit.f_hat.grad_norm < TOL)
    assert fit.family is fit.f_hat.family is BERNOULLI


def test_sigma_hat_averages_the_out_of_fold_moments_of_the_fold_fits():
    data, _, _ = small_sim_dataset(n=21, p=3, m_dim=3, seed=14)
    fit = ghive_fit(data, BERNOULLI, seed=5)
    (d1, d2), (fit1, fit2) = (fit.split.d1, fit.split.d2), _fold_fits(data, fit.split, BERNOULLI)
    e1, e2 = (
        weighted_residual(BERNOULLI, data.y[rows], data.x[rows] @ coef.values.T,
                          floor=RESIDUAL_CURVATURE_FLOOR)
        for rows, coef in ((d1, fit2), (d2, fit1))
    )
    hand = 0.5 * (e1.T @ e1 / len(d1) + e2.T @ e2 / len(d2))
    assert np.allclose(fit.spectral.sigma_hat, hand, atol=1e-12)


@pytest.fixture
def fitted():
    data, truth, cfg = small_sim_dataset(n=50, p=3, m_dim=4, k=2, seed=10, rep_seed=7)
    fit = ghive_fit(data, BERNOULLI, seed=42)
    return data, fit


def test_fit_shapes_and_projection_identity(fitted):
    data, fit = fitted
    assert fit.f_hat.values.shape == (data.m_dim, data.p)
    assert fit.theta_hat.shape == (data.m_dim, data.p)
    assert np.allclose(
        fit.theta_hat, fit.spectral.p_perp @ fit.f_hat.values, atol=1e-14
    )
    assert fit.spectral.k_hat >= 1
    assert np.array_equal(fit.spectral.sigma_hat, fit.spectral.sigma_hat.T)


def test_fit_sizes_are_read_off_the_split_and_f_hat(fitted):
    data, fit = fitted
    assert (fit.n, fit.p, fit.m_dim) == (data.n, data.p, data.m_dim)
    for name in ("n", "p", "m_dim"):
        with pytest.raises(AttributeError):
            setattr(fit, name, 1)


def test_refit_with_same_seed_is_bitwise_identical(fitted):
    data, fit = fitted
    again = ghive_fit(data, BERNOULLI, seed=42)
    assert np.array_equal(fit.theta_hat, again.theta_hat)
    assert np.array_equal(fit.f_hat.values, again.f_hat.values)
    assert np.array_equal(fit.spectral.eigvals, again.spectral.eigvals)
    assert np.array_equal(fit.split.d1, again.split.d1)


def test_fits_running_in_two_threads_are_the_serial_fits_bit_for_bit():
    # each solve owns its workspace; nothing is shared between threads
    cases = [
        (small_sim_dataset(n=4000, p=10, m_dim=6, seed=5, rep_seed=6, family=family.kind)[0], family)
        for family in (POISSON, BERNOULLI)
    ]

    def bits(fit):
        return [a.tobytes() for a in (fit.f_hat.values, fit.f_hat.grad_norm, fit.theta_hat)]

    serial = [bits(ghive_fit(data, family, seed=1)) for data, family in cases]
    start, results = threading.Barrier(len(cases)), [[] for _ in cases]

    def run(i):
        start.wait()
        for _ in range(3):
            results[i].append(bits(ghive_fit(*cases[i], seed=1)))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [[want] * 3 for want in serial]


def test_different_split_seed_changes_the_answer(fitted):
    data, fit = fitted
    other = ghive_fit(data, BERNOULLI, seed=43)
    assert not np.array_equal(fit.theta_hat, other.theta_hat)


def test_identity_projector_mode_returns_unprojected_coefficients(fitted):
    data, _ = fitted
    mode = Mode.oracle_p(np.eye(data.m_dim))
    fit = ghive_fit(data, BERNOULLI, seed=42, mode=mode)
    assert np.array_equal(fit.theta_hat, fit.f_hat.values)


def test_oracle_k_mode_pins_the_factor_count(fitted):
    data, _ = fitted
    fit = ghive_fit(data, BERNOULLI, seed=42, mode=Mode.oracle_k(2))
    assert fit.spectral.k_hat == 2
    assert np.trace(fit.spectral.p_perp) == pytest.approx(data.m_dim - 2, abs=1e-8)


def test_with_projection_reuses_the_fold_fits(fitted):
    data, fit = fitted
    redone = with_projection(fit, Mode.oracle_k(1))
    fresh = ghive_fit(data, BERNOULLI, seed=42, mode=Mode.oracle_k(1))
    assert np.array_equal(redone.theta_hat, fresh.theta_hat)
    assert np.array_equal(redone.f_hat.values, fit.f_hat.values)


def test_serialize_roundtrip_preserves_the_fit(fitted):
    _, fit = fitted
    doc = json.loads(json.dumps(serialize_fit(fit)))
    back = deserialize_fit(doc)
    assert np.array_equal(back.theta_hat, fit.theta_hat)
    assert np.array_equal(back.f_hat.values, fit.f_hat.values)
    assert np.array_equal(back.spectral.p_perp, fit.spectral.p_perp)
    assert back.spectral.k_hat == fit.spectral.k_hat
    assert back.mode.kind == fit.mode.kind
    assert np.array_equal(back.split.d1, fit.split.d1)
    assert back.family == fit.family
    # one record per fold fit: fold d1 first, then by response
    assert [(d["fold"], d["response"]) for d in doc["diagnostics"]] == [
        (fold, m) for fold in ("d1", "d2") for m in range(fit.m_dim)
    ]


@pytest.mark.parametrize("mode", ["data-driven", "oracle-k", "oracle-p"])
@pytest.mark.parametrize("write", [serialize_fit, _v1_doc], ids=["v2", "v1"])
def test_reloaded_fits_derive_every_field_bit_for_bit(fitted, mode, write):
    _, fit = fitted
    _, truth, _ = small_sim_dataset(n=50, p=3, m_dim=4, k=2, seed=10, rep_seed=7)
    modes = {"oracle-k": Mode.oracle_k(1), "oracle-p": Mode.oracle_p(truth.p_b_perp)}
    fit = with_projection(fit, modes[mode]) if mode in modes else fit
    back = deserialize_fit(json.loads(json.dumps(write(fit))))
    assert back.mode.kind == mode and back.spectral.k_hat == fit.spectral.k_hat
    assert np.array_equal(back.theta_hat, fit.theta_hat)
    assert np.array_equal(back.spectral.p_perp, fit.spectral.p_perp)
    assert np.array_equal(back.spectral.eigvals, fit.spectral.eigvals)
    assert np.array_equal(back.f_hat.grad_norm, fit.f_hat.grad_norm)
    assert back.diagnostics == fit.diagnostics


def test_stored_copies_within_the_tolerance_are_accepted_and_replaced(fitted):
    _, fit = fitted
    doc = json.loads(json.dumps(serialize_fit(fit)))
    for name in ("theta_hat", "p_perp"):
        doc[name]["data"][0][0] += 0.5 * DERIVED_TOL
    back = deserialize_fit(doc)
    assert np.array_equal(back.theta_hat, fit.theta_hat)
    assert np.array_equal(back.spectral.p_perp, fit.spectral.p_perp)
    doc["p_perp"]["data"][0][0] += DERIVED_TOL
    with pytest.raises(DataValidationError, match="p_perp"):
        deserialize_fit(doc)


@pytest.mark.parametrize("center", [True, "no", None, 0])
def test_a_centred_fit_document_is_refused_with_guidance(fitted, center):
    _, fit = fitted
    doc = _v1_doc(fit)
    doc["center"] = False
    deserialize_fit(doc)
    doc["center"] = center
    with pytest.raises(DataValidationError, match="center.*standardise"):
        deserialize_fit(doc)


def test_serialized_fit_validates_against_the_schema(fitted):
    _, fit = fitted
    doc = json.loads(json.dumps(serialize_fit(fit)))
    jsonschema.validate(doc, _schema("fit_result.schema.json"))


def test_deserialize_rejects_unknown_format_version(fitted):
    _, fit = fitted
    doc = serialize_fit(fit)
    doc["format_version"] = FIT_FORMAT_VERSION + 1
    with pytest.raises(DataValidationError):
        deserialize_fit(doc)


@pytest.mark.parametrize(
    "field, edit",
    [
        ("mode", lambda doc: 3),
        ("mode", lambda doc: {"kind": "oracle-k"}),
        ("split", lambda doc: []),
        ("split", lambda doc: {k: v for k, v in doc.items() if k != "seed"}),
        ("split", lambda doc: {k: v for k, v in doc.items() if k != "d1"}),
        ("split", lambda doc: {k: v for k, v in doc.items() if k != "d2"}),
        ("mode", lambda doc: {"kind": "oracle-k", "k": None}),
        ("split", lambda doc: {**doc, "d1": "x"}),
        ("mode", lambda doc: {"kind": "oracle-k", "k": 2.5}),
        ("mode", lambda doc: {"kind": "oracle-k", "k": "2"}),
        ("split", lambda doc: {**doc, "seed": 1.5}),
        ("split", lambda doc: {**doc, "seed": False}),
        ("split", lambda doc: {**doc, "d1": [i + 0.7 for i in doc["d1"]]}),
        ("split", lambda doc: {**doc, "d2": [float(i) for i in doc["d2"]]}),
        ("split", lambda doc: {**doc, "d1": [True] + doc["d1"][1:]}),
        ("split", lambda doc: {**doc, "d2": [str(i) for i in doc["d2"]]}),
    ],
    ids=["mode-not-object", "oracle-k-without-k", "split-not-object",
         "split-without-seed", "split-without-d1", "split-without-d2",
         "oracle-k-null-k", "split-d1-not-indices", "oracle-k-float-k",
         "oracle-k-string-k", "split-float-seed", "split-bool-seed",
         "split-fractional-d1", "split-float-d2", "split-bool-d1", "split-string-d2"],
)
def test_malformed_mode_or_split_is_a_validation_error(fitted, field, edit):
    _, fit = fitted
    doc = _v1_doc(fit)  # format 1 also reads split.seed
    doc[field] = edit(doc[field])
    with pytest.raises(DataValidationError):
        deserialize_fit(doc)


@pytest.mark.parametrize(
    "tol", ["1e-8", True, 0.0, -1e-8, float("inf"), float("nan"), None, [1e-8]],
    ids=["string", "bool", "zero", "negative", "inf", "nan", "null", "list"],
)
def test_fit_document_tol_must_be_a_finite_positive_number(fitted, tol):
    _, fit = fitted
    doc = json.loads(json.dumps(serialize_fit(fit)))
    doc["tol"] = tol
    with pytest.raises(DataValidationError, match="tol"):
        deserialize_fit(doc)


@pytest.mark.parametrize(
    "field, value", [("tol", 1e-6), ("tol", 1), ("max_iter", 50), ("max_iter", 10**6)],
    ids=["tol-1e-6", "tol-integer", "max_iter-50", "max_iter-million"],
)
def test_fit_documents_from_another_stopping_rule_are_refused(fitted, field, value):
    _, fit = fitted
    doc = json.loads(json.dumps(serialize_fit(fit)))
    assert (doc["tol"], doc["max_iter"]) == (TOL, MAX_ITER)
    doc[field] = value
    with pytest.raises(DataValidationError, match=f"{field} is {value!r}.*refit"):
        deserialize_fit(doc)


def _drop_last_column(m):
    return {"dims": [m["dims"][0], m["dims"][1] - 1], "data": [r[:-1] for r in m["data"]]}


@pytest.mark.parametrize(
    "field, edit",
    [
        ("f_hat", _drop_last_column),
        ("theta_hat", lambda m: {"dims": [1, 1], "data": [[0.5]]}),
        ("sigma_hat", _drop_last_column),
        ("p_perp", lambda m: {"dims": [2, 2], "data": [[1.0, 0.0], [0.0, 1.0]]}),
        ("eigvals", lambda v: v[:-1]),
    ],
    ids=["f_hat-short-rows", "theta_hat-1x1", "sigma_hat-not-square", "p_perp-2x2",
         "eigvals-short"],
)
def test_matrix_shapes_must_match_the_declared_dimensions(fitted, field, edit):
    _, fit = fitted
    doc = _v1_doc(fit) if field == "eigvals" else json.loads(json.dumps(serialize_fit(fit)))
    doc[field] = edit(doc[field])
    with pytest.raises(DataValidationError, match=field):
        deserialize_fit(doc)


def _diagnostics_doc(fit, failed):
    """Serialized fit whose only unconverged fold fit is ``failed``, with
    gradient norms that agree with the flags."""
    doc = json.loads(json.dumps(serialize_fit(fit)))
    for i, record in enumerate(doc["diagnostics"]):
        record["converged"] = (record["response"], record["fold"]) != failed
        record["grad_norm"] = 0.0 if record["converged"] else 1.0 + i
    return doc


def test_fit_diagnostics_are_matched_by_key_not_position(fitted):
    _, fit = fitted
    doc = _diagnostics_doc(fit, failed=(0, "d1"))
    expected = deserialize_fit(doc).f_hat
    assert expected.converged.shape == (fit.m_dim, 2)
    assert np.flatnonzero(~expected.converged).tolist() == [0]  # response 0, fold d1
    doc["diagnostics"].reverse()
    jsonschema.validate(doc, _schema("fit_result.schema.json"))
    back = deserialize_fit(doc).f_hat
    assert np.array_equal(back.converged, expected.converged)
    assert np.array_equal(back.grad_norm, expected.grad_norm)


def test_fit_diagnostics_need_every_response_fold_pair_once(fitted):
    _, fit = fitted
    doc = _diagnostics_doc(fit, failed=None)
    for record in doc["diagnostics"]:
        record["converged"], record["grad_norm"] = False, 1.0
    dropped = json.loads(json.dumps(doc))
    del dropped["diagnostics"][3]
    jsonschema.validate(dropped, _schema("fit_result.schema.json"))
    with pytest.raises(DataValidationError):
        deserialize_fit(dropped)
    doubled = json.loads(json.dumps(doc))
    doubled["diagnostics"][3] = dict(doubled["diagnostics"][0])
    with pytest.raises(DataValidationError):
        deserialize_fit(doubled)
    assert not deserialize_fit(doc).f_hat.converged.any()


@pytest.mark.parametrize(
    "record, converged, grad_norm",
    [(0, False, 3.3e-16), (1, True, 5.0), (2, True, TOL), (3, False, 0.5 * TOL)],
    ids=["false-below-tol", "true-above-tol", "true-at-tol", "false-half-tol"],
)
def test_converged_flags_that_contradict_grad_norm_are_refused(fitted, record, converged,
                                                               grad_norm):
    _, fit = fitted
    doc = json.loads(json.dumps(serialize_fit(fit)))
    doc["diagnostics"][record].update(converged=converged, grad_norm=grad_norm)
    jsonschema.validate(doc, _schema("fit_result.schema.json"))
    with pytest.raises(DataValidationError, match="converged.*grad_norm"):
        deserialize_fit(doc)
    doc["diagnostics"][record]["converged"] = not converged  # the flag grad_norm gives
    assert deserialize_fit(doc).diagnostics == doc["diagnostics"]


def test_mode_constructors_validate():
    with pytest.raises(DataValidationError):
        Mode.oracle_k(0)
    with pytest.raises(DataValidationError):
        Mode.oracle_p(np.ones((2, 3)))
    with pytest.raises(DataValidationError):
        Mode.oracle_p(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    # not idempotent; idempotent but not symmetric
    for not_a_projector in ([[1.0, 0.0], [0.0, 0.5]], [[1.0, 1.0], [0.0, 0.0]]):
        with pytest.raises(DataValidationError, match="idempotent"):
            Mode.oracle_p(np.array(not_a_projector))
    assert Mode.oracle_p(np.eye(2) + 5e-9).kind == "oracle-p"  # within the 1e-8 tolerance
    assert Mode.data_driven().kind == "data-driven"


def test_negative_split_seed_is_rejected():
    data, _, _ = small_sim_dataset(n=40, p=2, m_dim=2, seed=3)
    with pytest.raises(DataValidationError, match="seed"):
        make_split(40, -1)
    with pytest.raises(DataValidationError, match="seed"):
        ghive_fit(data, BERNOULLI, seed=-1)


def test_non_binary_response_is_rejected_up_front():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 2))
    y = rng.random((30, 2)) * 2  # not 0/1
    with pytest.raises(DataValidationError):
        ghive_fit(Dataset(x, y), BERNOULLI, seed=0)


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
@pytest.mark.parametrize("n", [70, 101])
def test_many_datasets_fit_as_one_ghive_fit_each(family, n):
    datasets = [
        small_sim_dataset(n=n, p=4, m_dim=4, k=2, seed=g, rep_seed=g, family=family.kind)[0]
        for g in range(5)
    ]
    seeds = [11, 12, 13, 14, 15]
    for data, seed, fit in zip(datasets, seeds, ghive_fit_many(datasets, family, seeds)):
        # the document holds every fitted number, so equal documents are equal bits
        assert serialize_fit(fit) == serialize_fit(ghive_fit(data, family, seed))


# sigma_hat's GEMM sums an entry in another order at another position: over
# truth seeds 0-11 of each family at this shape its entries moved by at most
# 1.95 eps times the largest entry (7.1e-15 absolute).
SIGMA_PERMUTED_EPS = 4.0


@pytest.mark.parametrize("family, eta", [(GAUSSIAN, 4.0), (BERNOULLI, 4.0), (POISSON, 1.0)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permuting_the_responses_permutes_the_fits_bit_for_bit(family, eta, seed):
    data = small_sim_dataset(200, 4, 20, 3, eta, seed, seed, family.kind)[0]
    perm = np.random.default_rng(seed).permutation(20)
    moved = Dataset(data.x, data.y[:, perm])
    fit, fit_moved = ghive_fit(data, family, seed), ghive_fit(moved, family, seed)
    assert fit_moved.f_hat.values.tobytes() == fit.f_hat.values[perm].tobytes()
    assert fit_moved.f_hat.grad_norm.tobytes() == fit.f_hat.grad_norm[perm].tobytes()
    assert fit_moved.spectral.k_hat == fit.spectral.k_hat
    sigma = fit.spectral.sigma_hat[np.ix_(perm, perm)]
    bound = SIGMA_PERMUTED_EPS * np.finfo(float).eps * np.max(np.abs(sigma))
    assert np.max(np.abs(fit_moved.spectral.sigma_hat - sigma)) <= bound
    naive, naive_moved = fit_naive_many([data, moved], family)
    assert naive_moved.values.tobytes() == naive.values[perm].tobytes()
    assert naive_moved.grad_norm.tobytes() == naive.grad_norm[perm].tobytes()
    for m in range(0, 20, 5):
        wald = naive_wald_interval(data, family, naive, basis_contrast(perm[m], 1, 20, 4))
        wald_moved = naive_wald_interval(moved, family, naive_moved, basis_contrast(m, 1, 20, 4))
        assert (wald_moved.ci_lo, wald_moved.ci_hi) == (wald.ci_lo, wald.ci_hi)


# Permuting the covariates, or scaling one by 4, sums each product in another
# order, and a column that stops short of its optimum stops elsewhere. Over
# truth seeds 0-11 of each family at this shape, f_hat moved by at most
# 8.0e-16 (gaussian), 9.4e-9 (bernoulli) and 1.7e-8 (poisson) relative to
# max(1, |f|) under a permutation, and by 0, 6.0e-9 and 6.2e-9 under the
# scaling; k_hat never moved. Scaling down instead moves coefficients towards
# the ball, which is in the units of f: by 2**-3, gaussian fits moved by up to
# 0.17.
COVARIATE_MOVE = {"gaussian": 4e-15, "bernoulli": 5e-8, "poisson": 5e-8}


def _unit_change_cases(family, eta, seed):
    """The fit of a fit-small-shaped draw, and those of its covariates
    permuted and of covariate ``seed % 4`` scaled by 4, mapped back to the
    original covariates."""
    data = small_sim_dataset(200, 4, 20, 3, eta, seed, seed, family.kind)[0]
    perm, j = np.random.default_rng(seed).permutation(4), seed % 4
    scaled = data.x.copy()
    scaled[:, j] *= 4.0
    fit = ghive_fit(data, family, seed)
    permuted = ghive_fit(Dataset(data.x[:, perm], data.y), family, seed)
    rescaled = ghive_fit(Dataset(scaled, data.y), family, seed)
    f_permuted = np.empty_like(permuted.f_hat.values)
    f_permuted[:, perm] = permuted.f_hat.values
    f_rescaled = rescaled.f_hat.values.copy()
    f_rescaled[:, j] *= 4.0
    return fit, (permuted, f_permuted), (rescaled, f_rescaled)


@pytest.mark.parametrize("family, eta", [(GAUSSIAN, 4.0), (BERNOULLI, 4.0), (POISSON, 1.0)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permuting_or_rescaling_the_covariates_keeps_the_fits(family, eta, seed):
    fit, *moved = _unit_change_cases(family, eta, seed)
    f = fit.f_hat.values
    for other, f_other in moved:
        assert np.max(np.abs(f_other - f) / np.maximum(1.0, np.abs(f))) <= COVARIATE_MOVE[family.kind]
        assert other.spectral.k_hat == fit.spectral.k_hat


@pytest.mark.xfail(strict=True, reason="ROADMAP items 16 and 23: grad_norm < TOL is in the units of x")
def test_rescaling_a_covariate_keeps_the_converged_flags():
    # seed 0's bernoulli fit flips 3 of its 40 fold flags when x[:, 0] is scaled by 4
    fit, _, (rescaled, _) = _unit_change_cases(BERNOULLI, 4.0, 0)
    assert np.array_equal(rescaled.f_hat.converged, fit.f_hat.converged)


def test_a_dataset_that_fails_to_assemble_fails_alone(monkeypatch):
    datasets = [small_sim_dataset(n=60, p=3, m_dim=4, k=2, seed=g, rep_seed=g)[0] for g in range(3)]
    fits = [ghive_fit(data, BERNOULLI, seed=g) for g, data in enumerate(datasets)]
    select_k, calls = spectral.select_k, []

    def second_fails(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalError("degenerate residual covariance spectrum")
        return select_k(*args)

    monkeypatch.setattr(spectral, "select_k", second_fails)
    first, failed, last = ghive_fit_many(datasets, BERNOULLI, [0, 1, 2])
    assert isinstance(failed, NumericalError)
    assert serialize_fit(first) == serialize_fit(fits[0])
    assert serialize_fit(last) == serialize_fit(fits[2])
    calls.clear()
    calls.append(None)  # ghive_fit raises its dataset's failure
    with pytest.raises(NumericalError, match="degenerate"):
        ghive_fit(datasets[1], BERNOULLI, seed=1)


def test_a_dataset_whose_residuals_overflow_fails_alone():
    datasets = [small_sim_dataset(n=60, p=3, m_dim=4, k=2, seed=g, rep_seed=g,
                                  family="gaussian")[0] for g in range(3)]
    datasets[1] = Dataset(datasets[1].x, datasets[1].y * 1e300)
    first, failed, last = ghive_fit_many(datasets, GAUSSIAN, [0, 1, 2])
    assert isinstance(failed, NumericalError) and "residual covariance" in str(failed)
    assert serialize_fit(first) == serialize_fit(ghive_fit(datasets[0], GAUSSIAN, seed=0))
    assert serialize_fit(last) == serialize_fit(ghive_fit(datasets[2], GAUSSIAN, seed=2))
