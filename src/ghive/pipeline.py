"""End-to-end fitting pipeline.

A fit runs a seeded two-fold split, per-response quasi-likelihood fits on
each fold and the cross-fit, in :func:`ghive_fit_many` alone. Every fold of
every dataset is one solve, whose coefficient and grad-norm arrays it splits
by (dataset, fold) axes: ``f_hat`` averages the fold fits, and ``sigma_hat``
the folds' second moments of weighted residuals, each fold's gathered rows
scored with the other fold's fit.
The private builder :func:`_assemble` derives the rest from ``sigma_hat``:
its eigendecomposition, the factor count (or an oracle override), the
complement projector and ``theta_hat = p_perp @ f_hat``.
:func:`ghive_fit`, :func:`with_projection` and :func:`deserialize_fit` all
go through it. The three modes change the projection step only, so a
data-driven fit is cheaply re-projected under an oracle mode.

A fit document stores the builder's primary inputs plus copies of the
derived split, ``k_hat``, ``p_perp``, ``theta_hat`` and ``converged`` flags
(``grad_norm < tol``); the reader derives those again and rejects a document
whose copies disagree. A non-finite grad norm is written as ``null`` and read
as inf. Its ``tol`` and ``max_iter`` record the solver's fixed
stopping rule (``qml.TOL`` and ``qml.MAX_ITER``); any other rule is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families, spectral
from .data_io import Dataset, matrix_from_json, matrix_to_json
from .errors import (
    DataValidationError, GhiveError, require_finite_array, require_instance, require_integer,
)
from .families import GlmFamily, family_from_name, validate_response
from .qml import MAX_ITER, TOL, CoefMatrix, SplitPlan, _fit_matrix, check_fold_rows, make_split

FIT_FORMAT_VERSION = 2

# how far a document's copies of derived fields may sit from their derivation:
# absolute for p_perp, relative to max(1, |f_hat|) for theta_hat and to
# max(1, |eigvals|) for a format-1 eigvals. Rounding noise in sigma_hat moves
# them by about 1e-14.
DERIVED_TOL = 1e-10

DATA_DRIVEN = "data-driven"
ORACLE_K = "oracle-k"
ORACLE_P = "oracle-p"


@dataclass(frozen=True)
class Mode:
    """Projection mode: fully data-driven, known factor count, or a
    user-supplied complement projector."""

    kind: str
    k: int | None = None
    projector: np.ndarray | None = None

    @staticmethod
    def data_driven() -> "Mode":
        return Mode(DATA_DRIVEN)

    @staticmethod
    def oracle_k(k: int) -> "Mode":
        require_integer("oracle factor count k", k, low=1)
        return Mode(ORACLE_K, k=int(k))

    @staticmethod
    def oracle_p(projector: np.ndarray) -> "Mode":
        projector = require_finite_array("projector", projector)
        if projector.ndim != 2 or projector.shape[0] != projector.shape[1]:
            raise DataValidationError("projector must be a square matrix")
        defect = np.stack([projector - projector.T, projector @ projector - projector])
        if not np.all(np.abs(defect) <= 1e-8):  # the acceptance gate's projector tolerance
            msg = "projector (the fit's p_perp) must be symmetric and idempotent within 1e-8"
            raise DataValidationError(msg)
        return Mode(ORACLE_P, projector=projector)


@dataclass
class GhiveFit:
    """Everything produced by one pipeline run."""

    mode: Mode
    split: SplitPlan  # its seed is the fit's only source of randomness
    f_hat: CoefMatrix  # fold-averaged coefficients (M x p), grad norms (M x 2), family
    theta_hat: np.ndarray  # projected coefficients (M x p)
    spectral: spectral.SpectralResult

    @property
    def n(self) -> int:
        """Rows of the fitted data, as the split records them."""
        return self.split.n

    @property
    def m_dim(self) -> int:
        """Responses, the rows of ``f_hat``."""
        return self.f_hat.values.shape[0]

    @property
    def p(self) -> int:
        """Covariates, the columns of ``f_hat``."""
        return self.f_hat.values.shape[1]

    @property
    def family(self) -> GlmFamily:
        """The family the fit was made under, as ``f_hat`` records it."""
        return self.f_hat.family

    @property
    def diagnostics(self) -> list:
        """Per (response, fold) convergence records of the fold fits, read off
        ``f_hat``: fold d1 first, then by response. A non-finite grad norm is
        None, so that a fit document writes it as ``null``."""
        flags, norms = self.f_hat.converged.T.tolist(), self.f_hat.grad_norm.T.tolist()
        return [
            {"response": m, "fold": fold, "converged": flags[d][m],
             "grad_norm": norms[d][m] if np.isfinite(norms[d][m]) else None}
            for d, fold in enumerate(("d1", "d2"))
            for m in range(self.m_dim)
        ]


def _assemble(split, mode, f_hat, sigma_hat) -> GhiveFit:
    """The one way a GhiveFit is put together: the spectrum of ``sigma_hat``,
    the factor count and projector (or the mode's), ``theta_hat = p_perp @ f_hat``."""
    m_dim = len(f_hat.values)
    eigvals, eigvecs = spectral.eigendecomposition(sigma_hat)
    k_hat = None
    if mode.kind == ORACLE_P:
        if mode.projector.shape[0] != m_dim:
            raise DataValidationError(
                f"projector is {mode.projector.shape[0]}x{mode.projector.shape[1]} "
                f"but the fit has M={m_dim} responses"
            )
        p_perp = mode.projector.copy()
    else:  # projector_complement refuses an oracle k above M
        k_hat = mode.k if mode.kind == ORACLE_K else spectral.select_k(eigvals, split.n)
        p_perp = spectral.projector_complement(eigvecs, k_hat)
    return GhiveFit(
        mode=mode, split=split, f_hat=f_hat, theta_hat=p_perp @ f_hat.values,
        spectral=spectral.SpectralResult(sigma_hat, eigvals, k_hat, p_perp),
    )


def ghive_fit(data: Dataset, family: GlmFamily, seed: int, mode: Mode | None = None) -> GhiveFit:
    """Run the full pipeline on a dataset: the one-dataset case of
    :func:`ghive_fit_many`, raising what failed it.

    The same (data, seed, mode) always produces the same fit,
    bit for bit; the split seed is the only source of randomness.
    """
    (fit,) = ghive_fit_many([data], family, [seed], mode)
    if isinstance(fit, Exception):
        raise fit
    return fit


def ghive_fit_many(datasets, family: GlmFamily, seeds, mode: Mode | None = None) -> list:
    """Run the pipeline on several datasets with one p and M, one split seed
    each from the list, tuple or range ``seeds``, once every response is
    checked against the family and every fold's rows against p. All fold fits
    are one solve, never padding a fold (that would change the divisor of
    every mean), and each fit is the one its dataset gets alone, bit for
    bit. ``f_hat`` keeps both folds' grad norms, d1 first.

    Returns one entry per dataset: its GhiveFit, or the ``GhiveError``
    raised while assembling it (a non-finite ``sigma_hat`` or a spectrum with
    no positive eigenvalue), so that such a failure fails only its dataset.
    A fold fit that overflows is flagged unconverged, not raised. A seed or
    dataset that cannot be fitted at all raises for the whole call.
    """
    require_instance("seeds", seeds, (list, tuple, range))
    mode, seeds = mode or Mode.data_driven(), list(seeds)
    require_instance("mode", mode, Mode)
    require_instance("datasets", datasets, (list, tuple))
    if len(seeds) != len(datasets):
        msg = f"seeds must give one seed per dataset, got {len(seeds)} for {len(datasets)} datasets"
        raise DataValidationError(msg)
    for data in datasets:
        require_instance("data", data, Dataset)
        validate_response(family, data.y)
        check_fold_rows(data.n, data.p)
    splits = [make_split(data.n, seed) for data, seed in zip(datasets, seeds)]
    folds = [[(data.x[r], data.y[r]) for r in (s.d1, s.d2)] for data, s in zip(datasets, splits)]
    fitted = _fit_matrix([d for pair in folds for d in pair], family, kind="quasi")
    # coefficients (dataset, fold, M, p) and grad norms (dataset, fold, M), fold d1 first
    values, norms = (a.reshape((len(datasets), 2) + a.shape[1:]) for a in fitted)
    fits = []
    for split, pair, f, g in zip(splits, folds, values, norms):
        f_hat = CoefMatrix(0.5 * (f[0] + f[1]), g.T, family)
        try:
            fits.append(_assemble(split, mode, f_hat, _crossfit_sigma(pair, f, family)))
        except GhiveError as failure:
            fits.append(failure)
    return fits


@np.errstate(over="ignore", invalid="ignore")  # overflow leaves sigma_hat non-finite
def _crossfit_sigma(folds, f: np.ndarray, family: GlmFamily):
    """``sigma_hat``: the average of the two folds' second moments of weighted
    residuals, the ``(x, y)`` rows of fold d1 scored with fold d2's
    coefficients ``f[1]`` and fold d2's with ``f[0]``. numpy forms each
    ``e.T @ e`` as a symmetric rank-k update, so the average is exactly
    symmetric; :func:`~ghive.spectral.eigendecomposition` symmetrises every
    matrix it decomposes all the same."""
    e1, e2 = (
        families.weighted_residual(family, y, x @ coef.T, floor=families.RESIDUAL_CURVATURE_FLOOR)
        for (x, y), coef in zip(folds, f[::-1])
    )
    return 0.5 * (e1.T @ e1 / len(e1) + e2.T @ e2 / len(e2))


def with_projection(fit: GhiveFit, mode: Mode) -> GhiveFit:
    """Re-project an existing fit under a different mode.

    Reuses the fold fits and residual covariance, so oracle variants of a
    data-driven fit cost one M x M eigendecomposition and a matrix product.
    """
    require_instance("fit", fit, GhiveFit)
    require_instance("mode", mode, Mode)
    return _assemble(fit.split, mode, fit.f_hat, fit.spectral.sigma_hat)


# ---------------------------------------------------------------------------
# serialization


def serialize_fit(fit: GhiveFit) -> dict:
    """JSON-ready dict for a fit; see schemas/fit_result.schema.json."""
    return {
        "format_version": FIT_FORMAT_VERSION,
        "family": fit.family.kind,
        "n": fit.n,
        "p": fit.p,
        "m_dim": fit.m_dim,
        "seed": fit.split.seed,
        "tol": TOL,
        "max_iter": MAX_ITER,
        "mode": {"kind": fit.mode.kind, "k": fit.mode.k},
        "split": {
            "d1": [int(i) for i in fit.split.d1],
            "d2": [int(i) for i in fit.split.d2],
        },
        "f_hat": matrix_to_json(fit.f_hat.values),
        "theta_hat": matrix_to_json(fit.theta_hat),
        "sigma_hat": matrix_to_json(fit.spectral.sigma_hat),
        "k_hat": fit.spectral.k_hat,
        "p_perp": matrix_to_json(fit.spectral.p_perp),
        "diagnostics": fit.diagnostics,
    }


def _fold_diagnostics(diagnostics, m_dim: int):
    """The stored ``converged`` flags and ``grad_norm`` of the fold fits,
    each (M, 2) with fold d1 first; a null grad norm reads as inf.

    Records are matched by their (response, fold) key, never by list
    position; each of the 2M pairs must appear exactly once. A mistyped
    entry makes the fit document malformed.
    """
    keyed = {}
    try:
        for d in diagnostics:
            flag, norm = d["converged"], d["grad_norm"]
            norm = np.inf if norm is None else norm  # a non-finite norm is written as null
            if not isinstance(flag, bool) or type(norm) not in (int, float):  # type(True) is bool
                msg = "fit document diagnostics converged must be true or false, grad_norm a number or null"
                raise DataValidationError(f"{msg}: got {flag!r} and {norm!r}")
            keyed[_doc_integer(d["response"], "diagnostics response"), d["fold"]] = flag, norm
    except (TypeError, KeyError):
        raise DataValidationError(
            "fit diagnostics records need response, fold, converged and grad_norm"
        )
    pairs = [(m, fold) for m in range(m_dim) for fold in ("d1", "d2")]
    if len(diagnostics) != len(pairs) or set(keyed) != set(pairs):
        raise DataValidationError(
            f"fit diagnostics must hold exactly one record per (response, fold) "
            f"pair for M={m_dim} responses, got {len(diagnostics)} records"
        )
    # records[m, fold] = (converged, grad_norm)
    records = np.array([keyed[pair] for pair in pairs], dtype=float).reshape(m_dim, 2, 2)
    return records[..., 0] == 1.0, records[..., 1]


def _doc_integer(value, name: str, nullable: bool = False):
    """``value`` if it is an integer (a bool is not), or null where
    ``nullable``; anything else makes the fit document malformed."""
    if not (value is None and nullable):
        require_integer(f"fit document {name}", value)
    return value


def _doc_indices(value, name: str) -> np.ndarray:
    """``value`` as an index array if it is a list of integers; the first
    entry that is not one makes the fit document malformed."""
    if not isinstance(value, list):
        raise DataValidationError(f"fit document {name} must be a list of integers: {value!r}")
    if not all(type(i) is int for i in value):
        for i in value:
            _doc_integer(i, name)
    try:
        return np.array(value, dtype=int)
    except OverflowError:
        raise DataValidationError(f"fit document {name} holds an integer beyond 64 bits") from None


def _close(stored, derived, relative_to=None) -> bool:
    """Whether a stored copy of a derived array matches it to DERIVED_TOL, times
    max(1, the largest absolute entry of ``relative_to``) where that is given."""
    stored = np.asarray(stored, dtype=float)
    scale = 1.0 if relative_to is None else max(1.0, np.max(np.abs(relative_to)))
    return stored.shape == derived.shape and np.all(np.abs(stored - derived) <= DERIVED_TOL * scale)


def _require_match(name: str, matches, source: str = "sigma_hat, f_hat, mode, n and seed"):
    """Refuse a fit document whose stored copy ``name`` does not match its
    derivation from the document's ``source``, by default what most copies derive from."""
    if not matches:
        msg = f"fit document {name} does not match its derivation from the document's {source}"
        raise DataValidationError(msg)


def deserialize_fit(doc: dict) -> GhiveFit:
    """Rebuild a GhiveFit from its JSON document (format 2 or 1).

    Reads only the primary fields: family, n, p, m_dim, seed, mode (for
    oracle-p, the projector stored as ``p_perp``), ``f_hat``, ``sigma_hat``
    and the diagnostics' ``grad_norm`` (a null reads as inf); ``tol`` and
    ``max_iter`` must be the solver's ``TOL`` and ``MAX_ITER``. The fit
    returned holds the split (``make_split(n, seed)``), spectrum, ``k_hat``,
    ``p_perp`` and ``theta_hat`` derived by ``ghive_fit``'s builder, and the
    ``converged`` flags derived by ``CoefMatrix``. Stored copies must match: the split,
    ``k_hat`` and the flags exactly, the rest to ``DERIVED_TOL``.
    Format 1 adds ``eigvals``, compared the same way, and ``split.seed``,
    which must equal ``seed``; its ``eigvecs`` are not read, because
    eigenvectors are fixed only up to sign and to rotation among tied
    eigenvalues (the zeros when M > n). A ``center`` other than false is
    refused: fits on centred data are no longer supported.
    Anything missing, mistyped or mismatched is a ``DataValidationError``.
    """
    try:
        version = doc["format_version"]
    except (TypeError, KeyError):
        raise DataValidationError("fit document is missing format_version")
    if isinstance(version, bool) or version not in (1, FIT_FORMAT_VERSION):
        raise DataValidationError(
            f"unsupported fit format_version {version!r} "
            f"(this build reads versions 1 and {FIT_FORMAT_VERSION})"
        )
    if doc.get("center", False) is not False:
        raise DataValidationError(
            f"fit document center is {doc['center']!r}, but fits on centred data are no "
            "longer supported; standardise the x CSVs before `ghive fit` and refit"
        )
    try:
        family = family_from_name(doc["family"])
        n, p, m_dim, seed = (_doc_integer(doc[name], name) for name in ("n", "p", "m_dim", "seed"))
        for name, fixed in (("tol", TOL), ("max_iter", MAX_ITER)):
            if doc[name] != fixed:
                raise DataValidationError(
                    f"fit document {name} is {doc[name]!r}, but this build's solver stops at "
                    f"{name}={fixed!r}; refit the data with `ghive fit`"
                )
        mode_doc, split_doc = doc["mode"], doc["split"]
        if not (isinstance(mode_doc, dict) and isinstance(split_doc, dict)):
            raise DataValidationError("fit document fields mode and split must be objects")
        f_hat = matrix_from_json(doc["f_hat"], "f_hat", (m_dim, p))
        sigma_hat = matrix_from_json(doc["sigma_hat"], "sigma_hat", (m_dim, m_dim))
        mode_kind = mode_doc.get("kind")
        if mode_kind == ORACLE_P:
            mode = Mode.oracle_p(matrix_from_json(doc["p_perp"], "p_perp"))
        elif mode_kind == ORACLE_K:
            mode = Mode.oracle_k(_doc_integer(mode_doc["k"], "mode.k"))
        elif mode_kind == DATA_DRIVEN:
            mode = Mode.data_driven()
        else:
            raise DataValidationError(f"unknown fit mode {mode_kind!r}")
        d1, d2 = (_doc_indices(split_doc[f], f"split.{f}") for f in ("d1", "d2"))
        if len(d1) + len(d2) != n:  # also bounds make_split's work by the document's size
            raise DataValidationError(
                f"fit document split holds {len(d1) + len(d2)} indices but n={n}"
            )
        converged, grad_norm = _fold_diagnostics(doc["diagnostics"], m_dim)
        fit = _assemble(make_split(n, seed), mode, CoefMatrix(f_hat, grad_norm, family), sigma_hat)
        derived = fit.spectral
        flags_match = np.array_equal(converged, fit.f_hat.converged)
        _require_match("diagnostics converged", flags_match, "grad_norm")
        _require_match("split.d1", np.array_equal(d1, fit.split.d1))
        _require_match("split.d2", np.array_equal(d2, fit.split.d2))
        _require_match("k_hat", _doc_integer(doc["k_hat"], "k_hat", nullable=True) == derived.k_hat)
        _require_match("p_perp", _close(matrix_from_json(doc["p_perp"], "p_perp"), derived.p_perp))
        theta_hat = matrix_from_json(doc["theta_hat"], "theta_hat")
        _require_match("theta_hat", _close(theta_hat, fit.theta_hat, f_hat))
        if version == 1:
            _require_match("split.seed", _doc_integer(split_doc["seed"], "split.seed") == seed)
            _require_match("eigvals", _close(doc["eigvals"], derived.eigvals, derived.eigvals))
    except KeyError as missing:
        raise DataValidationError(f"fit document is missing field {missing}")
    except (TypeError, ValueError) as bad:
        raise DataValidationError(f"malformed fit document: {bad}")
    return fit
