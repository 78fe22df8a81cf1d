"""The failure contract: a numerical failure is a ``NumericalError`` where it
arises, and every call ends in a finite result or a typed error.

The inputs overflow the solver's curvatures (covariates scaled by 1e160, or
one cell of 1e200 or 1.7e308, where the predictors overflow too) or the
residual covariance (a response scaled by 1e300).
Each library call gives a finite result or raises ``DataValidationError`` or
``NumericalError``, without a Python warning; through the CLI the same input
exits 0, 2 or 1 respectively, with one ``error:`` line and no output file on
failure.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from ghive import GAUSSIAN
from ghive.cli import main
from ghive.data_io import Dataset, save_matrix_csv
from ghive.errors import (
    DataValidationError, GhiveError, NumericalError, require_finite_array, require_integer,
    require_number,
)
from ghive.families import FAMILY_NAMES, family_from_name
from ghive.inference import (
    Contrast, basis_contrast, confidence_interval, naive_wald_interval, normal_quantile,
)
from ghive.experiments import ExperimentSpec
from ghive.pipeline import Mode, deserialize_fit, ghive_fit, ghive_fit_many, with_projection
from ghive.qml import fit_naive_many, fit_naive_mle, make_split
from ghive.simulate import SimConfig, fstar_oracle, make_truth, sample_dataset

SEED = 0
EXIT_CODES = {None: 0, DataValidationError: 2, NumericalError: 1}


def _data(family: str, case: str) -> Dataset:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    y = {
        "gaussian": rng.standard_normal((40, 2)),
        "bernoulli": (rng.random((40, 2)) < 0.5).astype(float),
        "poisson": rng.poisson(2.0, (40, 2)).astype(float),
    }[family]
    if case == "x-1e160":
        x *= 1e160
    elif case.startswith("cell-"):
        x[0, 0] = float(case[5:])
    else:
        y *= 1e300
    return Dataset(x, y)


def _finite(result) -> bool:
    """Whether the numbers of a fit, coefficient matrix or interval are all
    finite; an interval must also hold its estimate."""
    if hasattr(result, "theta_hat"):
        parts = (result.theta_hat, result.spectral.sigma_hat, result.f_hat.values)
    elif hasattr(result, "ci_lo"):
        assert result.ci_lo <= result.estimate <= result.ci_hi
        parts = ([result.estimate, result.se, result.ci_lo, result.ci_hi, result.s_sq],)
    else:
        parts = (result.values,)
    return np.isfinite(np.concatenate([np.ravel(a) for a in parts])).all()


def _outcome(call):
    """``call()``'s result, or the ``GhiveError`` it raised; a fit list's
    one entry may be a returned ``GhiveError`` too. No warning may escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except GhiveError as failure:
            result = failure
    assert not caught, [str(w.message) for w in caught]
    if isinstance(result, list):
        (result,) = result
    if isinstance(result, GhiveError):
        assert type(result) in (DataValidationError, NumericalError), repr(result)
    else:
        assert _finite(result)
    return result


LIBRARY_CALLS = {
    "ghive_fit": lambda data, family: ghive_fit(data, family, SEED),
    "ghive_fit_many": lambda data, family: ghive_fit_many([data], family, [SEED]),
    "fit_naive_many": lambda data, family: fit_naive_many([data], family),
    "confidence_interval": lambda data, family: confidence_interval(
        data, family, ghive_fit(data, family, SEED), basis_contrast(0, 0, data.m_dim, data.p)
    ),
    "naive_wald_interval": lambda data, family: naive_wald_interval(
        data, family, fit_naive_many([data], family)[0], basis_contrast(0, 0, data.m_dim, data.p)
    ),
}

CASES = ["x-1e160", "cell-1e200", "cell-1.7e308", "y-1e300"]


@pytest.mark.parametrize("call", list(LIBRARY_CALLS))
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_library_calls_end_in_a_finite_result_or_a_typed_error(family, case, call):
    data = _data(family, case)
    _outcome(lambda: LIBRARY_CALLS[call](data, family_from_name(family)))


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_fold_fits_whose_curvature_overflows_are_flagged_unconverged(family):
    fit = _outcome(lambda: ghive_fit(_data(family, "x-1e160"), family_from_name(family), SEED))
    assert not fit.f_hat.converged.any() and not fit.f_hat.values.any()


BATCHED_FITS = {
    "ghive_fit_many": lambda datasets, family: ghive_fit_many(datasets, family, range(len(datasets))),
    "fit_naive_many": fit_naive_many,
}


@pytest.mark.parametrize("call", list(BATCHED_FITS))
@pytest.mark.parametrize(
    "other", [(50, 4, 2), (50, 3, 5), (40, 3, 5)], ids=["p", "m", "n-and-m"]
)
def test_batched_fits_refuse_datasets_that_do_not_share_p_and_m(call, other):
    rng = np.random.default_rng(0)
    datasets = [
        Dataset(rng.standard_normal((n, p)), rng.standard_normal((n, m_dim)))
        for n, p, m_dim in ((50, 3, 2), (40, 3, 2), other)
    ]
    fam = family_from_name("gaussian")
    # datasets of another n share a batch
    assert all(_finite(fit) for fit in BATCHED_FITS[call](datasets[:2], fam))
    match = r"one p and M; got \(p, M\) in \[\(3, 2\), \(%d, %d\)\]" % other[1:]
    with pytest.raises(DataValidationError, match=match):
        BATCHED_FITS[call](datasets, fam)


_ORACLE_CFG = SimConfig(n=50, p=3, m_dim=3, k=2, eta=1.0)
_SEEDS = r"must be in 0\.\.18446744073709551615"  # a seed keys Philox with 64 bits
_GOOD = Dataset(*np.random.default_rng(0).standard_normal((2, 40, 2)))


def _interval(kind, data=_GOOD, family=GAUSSIAN, alpha=0.05):
    """A ``kind`` ("ghive" or "naive") interval from a gaussian fit of
    ``_GOOD``, with its data, family or alpha replaced where given."""
    c = basis_contrast(0, 0, 2, 2)
    if kind == "naive":
        return naive_wald_interval(data, family, fit_naive_mle(_GOOD, GAUSSIAN), c, alpha)
    return confidence_interval(data, family, ghive_fit(_GOOD, GAUSSIAN, SEED), c, alpha)


# Arguments that entry points once refused with another exception type, or
# took silently (a negative response index, a fractional factor count or
# oracle draw, a negative seed that aliased one modulo 2**64, text parsed as
# numbers); each now names its argument in a DataValidationError. The last
# rows pin refusals that no other test reaches.
BAD_ARGUMENTS = {
    "contrast-row-below-zero": (lambda: basis_contrast(-1, 0, 4, 4), "i must be in"),
    "contrast-row-past-m": (lambda: basis_contrast(5, 0, 4, 4), "i must be in"),
    "contrast-row-fraction": (lambda: basis_contrast(0.5, 0, 4, 4), "i must be an integer"),
    "contrast-column-past-p": (lambda: basis_contrast(0, 4, 4, 4), "j must be in"),
    "seed-per-dataset": (
        lambda: ghive_fit_many([Dataset(np.eye(4), np.eye(4))], GAUSSIAN, [0, 1]), "seeds"
    ),
    "seeds-one-integer": (
        lambda: ghive_fit_many([Dataset(np.eye(4), np.eye(4))], GAUSSIAN, 0),
        "seeds must be a list or tuple or range, got int",
    ),
    "split-rows-fraction": (lambda: make_split(3.5, 0), "n must be an integer"),
    "oracle-k-fraction": (lambda: Mode.oracle_k(2.5), "k must be an integer"),
    "oracle-k-bool": (lambda: Mode.oracle_k(True), "k must be an integer"),
    "n-mc-string": (
        lambda: fstar_oracle(make_truth(_ORACLE_CFG), _ORACLE_CFG, n_mc="20000"),
        "n_mc must be an integer",
    ),
    "n-mc-fraction": (
        lambda: fstar_oracle(make_truth(_ORACLE_CFG), _ORACLE_CFG, n_mc=10000.7),
        "n_mc must be an integer",
    ),
    "rep-seed-fraction": (
        lambda: sample_dataset(make_truth(_ORACLE_CFG), _ORACLE_CFG, rep_seed=1.5),
        "rep_seed must be an integer",
    ),
    "ghive-alpha-string": (lambda: _interval("ghive", alpha="0.05"), "alpha must be a finite"),
    "ghive-alpha-none": (lambda: _interval("ghive", alpha=None), "alpha must be a finite"),
    "ghive-alpha-bool": (lambda: _interval("ghive", alpha=True), "alpha must be a finite"),
    "naive-alpha-string": (lambda: _interval("naive", alpha="0.05"), "alpha must be a finite"),
    "naive-alpha-none": (lambda: _interval("naive", alpha=None), "alpha must be a finite"),
    "naive-alpha-bool": (lambda: _interval("naive", alpha=True), "alpha must be a finite"),
    "contrast-size-fraction": (lambda: basis_contrast(0, 0, 2.5, 3), "m_dim must be an integer"),
    "contrast-columns-bool": (lambda: basis_contrast(0, 0, 2, True), "p must be an integer"),
    "quantile-string": (lambda: normal_quantile("0.5"), "q must be a finite number"),
    "projector-string": (lambda: Mode.oracle_p("abc"), "projector must be an array of numbers"),
    "projector-ragged": (
        lambda: Mode.oracle_p([[1.0, 0.0], [0.0]]), "projector must be an array of numbers"
    ),
    "contrast-string": (lambda: Contrast("abc", [1.0]), "contrast u must be an array of numbers"),
    "dataset-ragged": (
        lambda: Dataset([[1.0, 2.0], [3.0]], [[1.0], [2.0]]), "x must be an array of numbers"
    ),
    "fit-family-name": (lambda: ghive_fit(_GOOD, "gaussian", SEED), "family must be a GlmFamily"),
    "naive-family-name": (lambda: fit_naive_mle(_GOOD, "gaussian"), "family must be a GlmFamily"),
    "ghive-interval-family-name": (
        lambda: _interval("ghive", family="gaussian"), "family must be a GlmFamily"
    ),
    "naive-interval-family-name": (
        lambda: _interval("naive", family="gaussian"), "family must be a GlmFamily"
    ),
    "fit-data-tuple": (
        lambda: ghive_fit((_GOOD.x, _GOOD.y), GAUSSIAN, SEED), "data must be a Dataset"
    ),
    "naive-data-tuple": (
        lambda: fit_naive_mle((_GOOD.x, _GOOD.y), GAUSSIAN), "data must be a Dataset"
    ),
    "ghive-interval-data-tuple": (
        lambda: _interval("ghive", data=(_GOOD.x, _GOOD.y)), "data must be a Dataset"
    ),
    "config-seed-below-zero": (
        lambda: SimConfig(n=50, p=3, m_dim=3, k=2, eta=1.0, seed=-1), f"^seed {_SEEDS}, got -1$"
    ),
    "config-seed-past-64-bits": (
        lambda: SimConfig(n=50, p=3, m_dim=3, k=2, eta=1.0, seed=2**64 + 5), f"^seed {_SEEDS}"
    ),
    "rep-seed-below-zero": (
        lambda: sample_dataset(make_truth(_ORACLE_CFG), _ORACLE_CFG, rep_seed=-1),
        f"^rep_seed {_SEEDS}",
    ),
    "experiment-seed-below-zero": (
        lambda: ExperimentSpec("fig2-n", (_ORACLE_CFG,), reps=1, seed=-1), f"^seed {_SEEDS}"
    ),
    "ghive-interval-contrast-tuple": (
        lambda: confidence_interval(
            _GOOD, GAUSSIAN, ghive_fit(_GOOD, GAUSSIAN, SEED), ([1.0, 0.0], [1.0, 0.0])
        ),
        "contrast must be a Contrast, got tuple",
    ),
    "naive-interval-ghive-fit": (
        lambda: naive_wald_interval(
            _GOOD, GAUSSIAN, ghive_fit(_GOOD, GAUSSIAN, SEED), basis_contrast(0, 0, 2, 2)
        ),
        "coef must be a CoefMatrix, got GhiveFit",
    ),
    "ghive-interval-coef-matrix": (
        lambda: confidence_interval(
            _GOOD, GAUSSIAN, fit_naive_mle(_GOOD, GAUSSIAN), basis_contrast(0, 0, 2, 2)
        ),
        "fit must be a GhiveFit, got CoefMatrix",
    ),
    "fit-many-one-dataset": (
        lambda: ghive_fit_many(_GOOD, GAUSSIAN, [0]), "datasets must be a list or tuple, got Data"
    ),
    "naive-many-one-dataset": (
        lambda: fit_naive_many(_GOOD, GAUSSIAN), "datasets must be a list or tuple, got Dataset"
    ),
    "projection-mode-name": (
        lambda: with_projection(ghive_fit(_GOOD, GAUSSIAN, SEED), "oracle-k"),
        "mode must be a Mode, got str",
    ),
    "fit-mode-name": (
        lambda: ghive_fit(_GOOD, GAUSSIAN, SEED, mode="oracle-k"), "mode must be a Mode, got str"
    ),
    "dataset-text": (
        lambda: Dataset([["1", "2"], ["3", "4"]], [[1.0], [2.0]]), "x must be an array of numbers"
    ),
    "contrast-text": (
        lambda: Contrast(["1", "0"], [1.0]), "contrast u must be an array of numbers"
    ),
    "projector-text": (
        lambda: Mode.oracle_p([["1", "0"], ["0", "1"]]), "projector must be an array of numbers"
    ),
    "projector-past-m": (
        lambda: with_projection(ghive_fit(_GOOD, GAUSSIAN, SEED), Mode.oracle_p(np.eye(3))),
        "projector is 3x3 but the fit has M=2 responses",
    ),
    "config-decay-name": (
        lambda: SimConfig(n=50, p=3, m_dim=3, k=2, eta=1.0, sigma_z_decay="zero"),
        "sigma_z_decay must be one of",
    ),
    "dataset-three-dimensional": (
        lambda: Dataset(np.zeros((4, 2, 1)), np.zeros((4, 1))), "must both be 2-dimensional"
    ),
    "fit-document-list": (lambda: deserialize_fit([1, 2]), "missing format_version"),
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
def test_bad_arguments_are_refused_by_name(case):
    call, match = BAD_ARGUMENTS[case]
    with pytest.raises(DataValidationError, match=match):
        call()


def test_the_argument_checks_keep_their_bounds_and_refuse_bools_and_non_finite_numbers():
    for good in (1, 3, np.int64(2), np.uint8(3)):
        require_integer("k", good, 1, 3)
    for bad, message in [(0, "in 1..3, got 0"), (4, "in 1..3, got 4"), (True, "an integer"),
                         (np.bool_(True), "an integer"), (2.0, "an integer")]:
        with pytest.raises(DataValidationError, match=f"^k must be {message}"):
            require_integer("k", bad, 1, 3)
    with pytest.raises(DataValidationError, match="^n must be at least 2, got 1$"):
        require_integer("n", np.int32(1), low=2)
    for good in (0, 0.0, np.float64(0.5), np.int64(7), 1e308):
        require_number("eta", good, low=0)
    for bad, message in [(-1e-300, "at least 0"), (True, "a finite number"),
                         (math.inf, "a finite number"), (-math.inf, "a finite number"),
                         (math.nan, "a finite number"), (np.float64("nan"), "a finite number"),
                         (10**400, "a finite number"), ("1", "a finite number")]:
        with pytest.raises(DataValidationError, match=f"^eta must be {message}"):
            require_number("eta", bad, low=0)
    floats = np.arange(3.0)
    assert require_finite_array("x", floats) is floats
    assert require_finite_array("x", [[1, np.int64(2)]]).tolist() == [[1.0, 2.0]]
    for bad in ([1.0, math.inf], [[0.0], [math.nan]]):
        with pytest.raises(DataValidationError, match="^x must be an array of finite numbers"):
            require_finite_array("x", bad)
    for bad in ("1.5", b"1.5", [[1.0], [2.0, 3.0]], {"a": 1.0}, [True, "a"], [["1", "2"]], None,
                [1j]):
        with pytest.raises(DataValidationError, match="^x must be an array of numbers"):
            require_finite_array("x", bad)


_INT64 = rf"\.\.{2**63 - 1}"  # a document's integers other than seeds fit in a signed 64 bits


@pytest.mark.parametrize("case", ["fit-seed", "oracle-n", "oracle-n-mc"])
def test_integers_past_64_bits_exit_two_before_a_document_is_written(tmp_path, capsys, case):
    xp, yp, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "doc.json"
    save_matrix_csv(xp, _GOOD.x)
    save_matrix_csv(yp, _GOOD.y)
    oracle = ["fstar-oracle", "--family", "gaussian", "--p", "3", "--m", "3", "--k-true", "2",
              "--eta", "1"]
    argv, message = {
        "fit-seed": (["fit", "--x", str(xp), "--y", str(yp), "--family", "gaussian",
                      "--seed", str(2**70)], f"split seed {_SEEDS}, got {2**70}"),
        "oracle-n": ([*oracle, "--n", str(10**20)], f"n must be in 2{_INT64}, got {10**20}"),
        "oracle-n-mc": ([*oracle, "--n", "50", "--n-mc", str(10**20)],
                        f"n_mc must be in 10000{_INT64}, got {10**20}"),
    }[case]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not out.exists()


def _cli(capsys, argv, out, want):
    """Run ``ghive`` and check the exit code the library outcome ``want``
    maps to: on success a written file and a silent stderr, on failure one
    ``error:`` line and no file."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    failure = want if isinstance(want, GhiveError) else None
    assert code == EXIT_CODES[type(failure) if failure else None], err
    if failure:
        assert err == f"error: {failure}\n" and not out.exists()
    else:
        assert err == "" and out.exists()
    return code


@pytest.mark.parametrize("command", ["fit", "infer"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_the_cli_exits_with_the_library_outcome_and_no_traceback(
    tmp_path, capsys, family, case, command
):
    data, fam = _data(family, case), family_from_name(family)
    xp, yp, fit_path = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "fit.json"
    save_matrix_csv(xp, data.x)
    save_matrix_csv(yp, data.y)
    fitted = _outcome(lambda: ghive_fit(data, fam, SEED))
    argv = ["fit", "--x", str(xp), "--y", str(yp), "--family", family, "--seed", str(SEED)]
    code = _cli(capsys, argv, fit_path, fitted)
    if command == "infer" and code == 0:
        want = _outcome(
            lambda: confidence_interval(data, fam, fitted, basis_contrast(0, 0, 2, 2))
        )
        argv = ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
                "--u", "e1", "--v", "e1"]
        _cli(capsys, argv, tmp_path / "ci.json", want)
        if not isinstance(want, GhiveError):
            assert json.loads((tmp_path / "ci.json").read_text())["estimate"] == want.estimate
