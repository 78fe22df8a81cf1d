"""End-to-end fitting pipeline.

Given a dataset and family this runs, in order: a seeded two-fold split,
per-response quasi-likelihood fits on each fold, out-of-fold weighted
residuals, the averaged residual covariance and its eigendecomposition,
factor-count selection (or an oracle override), and finally the projection
of the averaged coefficient matrix onto the estimated complement subspace:

    theta_hat = p_perp @ f_hat

Three modes control the projection step only; the fitting work is shared,
so a data-driven fit can be cheaply re-projected under an oracle mode via
:func:`with_projection`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .data_io import Dataset, matrix_from_json, matrix_to_json
from .errors import DataValidationError
from .families import GlmFamily, family_from_name
from .qml import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    CoefMatrix,
    SplitPlan,
    fit_qml_all,
    make_split,
)

FIT_FORMAT_VERSION = 1

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
        if k < 1:
            raise DataValidationError(f"oracle factor count must be >= 1, got {k}")
        return Mode(ORACLE_K, k=int(k))

    @staticmethod
    def oracle_p(projector: np.ndarray) -> "Mode":
        projector = np.asarray(projector, dtype=float)
        if projector.ndim != 2 or projector.shape[0] != projector.shape[1]:
            raise DataValidationError("projector must be a square matrix")
        if not np.all(np.isfinite(projector)):
            raise DataValidationError("projector contains non-finite entries")
        return Mode(ORACLE_P, projector=projector)


@dataclass
class GhiveFit:
    """Everything produced by one pipeline run."""

    family: GlmFamily
    n: int
    p: int
    m_dim: int
    seed: int
    tol: float
    max_iter: int
    mode: Mode
    split: SplitPlan
    f_hat: CoefMatrix  # fold-averaged coefficients (M x p)
    theta_hat: np.ndarray  # projected coefficients (M x p)
    spectral: spectral.SpectralResult
    diagnostics: list  # per (response, fold) convergence records


def _build_spectral(sigma, eigvals, eigvecs, mode, n) -> spectral.SpectralResult:
    m_dim = sigma.shape[0]
    if mode.kind == ORACLE_P:
        if mode.projector.shape[0] != m_dim:
            raise DataValidationError(
                f"projector is {mode.projector.shape[0]}x{mode.projector.shape[1]} "
                f"but the fit has M={m_dim} responses"
            )
        return spectral.SpectralResult(
            sigma_hat=sigma,
            eigvals=eigvals,
            eigvecs=eigvecs,
            k_hat=None,
            p_perp=mode.projector.copy(),
        )
    if mode.kind == ORACLE_K:
        if mode.k > m_dim:
            raise DataValidationError(
                f"oracle factor count k={mode.k} exceeds M={m_dim}"
            )
        k = mode.k
    else:
        k = spectral.select_k(eigvals, n, m_dim)
    return spectral.SpectralResult(
        sigma_hat=sigma,
        eigvals=eigvals,
        eigvecs=eigvecs,
        k_hat=k,
        p_perp=spectral.projector_complement(eigvecs, k),
    )


def _diagnostics(coef_d1: CoefMatrix, coef_d2: CoefMatrix) -> list:
    records = []
    for fold, coef in (("d1", coef_d1), ("d2", coef_d2)):
        for m in range(coef.values.shape[0]):
            records.append(
                {
                    "response": m,
                    "fold": fold,
                    "converged": bool(coef.converged[m]),
                    "grad_norm": float(coef.grad_norm[m]),
                }
            )
    return records


def ghive_fit(
    data: Dataset,
    family: GlmFamily,
    seed: int,
    mode: Mode | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GhiveFit:
    """Run the full pipeline on a dataset.

    The same (data, seed, mode, tol) always produces the same fit,
    bit for bit; the split seed is the only source of randomness.
    """
    if max_iter < 1:
        raise DataValidationError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 < tol < np.inf:
        raise DataValidationError(f"tol must be a finite positive number, got {tol}")
    mode = mode or Mode.data_driven()
    split = make_split(data.n, seed)
    coef_d1, coef_d2, coef_avg = fit_qml_all(data, family, split, tol, max_iter)
    resid = spectral.crossfit_residuals(data, family, coef_d1, coef_d2, split)
    sigma = spectral.covariance_crossfit(resid, split)
    eigvals, eigvecs = spectral.eigendecomposition(sigma)
    spec = _build_spectral(sigma, eigvals, eigvecs, mode, data.n)
    theta_hat = spec.p_perp @ coef_avg.values
    return GhiveFit(
        family=family,
        n=data.n,
        p=data.p,
        m_dim=data.m_dim,
        seed=seed,
        tol=tol,
        max_iter=max_iter,
        mode=mode,
        split=split,
        f_hat=coef_avg,
        theta_hat=theta_hat,
        spectral=spec,
        diagnostics=_diagnostics(coef_d1, coef_d2),
    )


def with_projection(fit: GhiveFit, mode: Mode) -> GhiveFit:
    """Re-project an existing fit under a different mode.

    Reuses the fold fits and residual covariance, so oracle variants of a
    data-driven fit cost one eigenvector slice and a matrix product.
    """
    old = fit.spectral
    spec = _build_spectral(old.sigma_hat, old.eigvals, old.eigvecs, mode, fit.n)
    return replace(fit, mode=mode, theta_hat=spec.p_perp @ fit.f_hat.values, spectral=spec)


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
        "seed": fit.seed,
        "tol": fit.tol,
        "max_iter": fit.max_iter,
        "mode": {"kind": fit.mode.kind, "k": fit.mode.k},
        "split": {
            "seed": fit.split.seed,
            "d1": [int(i) for i in fit.split.d1],
            "d2": [int(i) for i in fit.split.d2],
        },
        "f_hat": matrix_to_json(fit.f_hat.values),
        "theta_hat": matrix_to_json(fit.theta_hat),
        "sigma_hat": matrix_to_json(fit.spectral.sigma_hat),
        "eigvals": [float(v) for v in fit.spectral.eigvals],
        "eigvecs": matrix_to_json(fit.spectral.eigvecs),
        "k_hat": None if fit.spectral.k_hat is None else int(fit.spectral.k_hat),
        "p_perp": matrix_to_json(fit.spectral.p_perp),
        "diagnostics": fit.diagnostics,
    }


def _fold_diagnostics(diagnostics, m_dim: int):
    """Per-response (converged, grad_norm) of the fold-averaged fit.

    Records are matched by their (response, fold) key, never by list
    position; each of the 2M pairs must appear exactly once. A response is
    converged only when both of its fold fits are, and reports the larger
    of the two gradient norms.
    """
    try:
        keyed = {
            (d["response"], d["fold"]): (bool(d["converged"]), float(d["grad_norm"]))
            for d in diagnostics
        }
    except (TypeError, KeyError, ValueError):
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
    return records[:, :, 0].all(axis=1), records[:, :, 1].max(axis=1)


def _doc_integer(value, name: str, nullable: bool = False):
    """``value`` if it is an integer (a bool is not), or null where
    ``nullable``; anything else makes the fit document malformed."""
    if (value is None and nullable) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    kind = "null or an integer" if nullable else "an integer"
    raise DataValidationError(f"fit document {name} must be {kind}: {value!r}")


def _doc_indices(value, name: str) -> np.ndarray:
    """``value`` as an index array if it is a list of integers."""
    if not isinstance(value, list):
        raise DataValidationError(f"fit document {name} must be a list of integers: {value!r}")
    return np.array([_doc_integer(i, name) for i in value], dtype=int)


def deserialize_fit(doc: dict) -> GhiveFit:
    """Rebuild a GhiveFit from its JSON document."""
    try:
        version = doc["format_version"]
    except (TypeError, KeyError):
        raise DataValidationError("fit document is missing format_version")
    if version != FIT_FORMAT_VERSION:
        raise DataValidationError(
            f"unsupported fit format_version {version!r} "
            f"(this build reads version {FIT_FORMAT_VERSION})"
        )
    try:
        family = family_from_name(doc["family"])
        mode_doc = doc["mode"]
        split_doc = doc["split"]
        f_hat = matrix_from_json(doc["f_hat"], "f_hat")
        theta_hat = matrix_from_json(doc["theta_hat"], "theta_hat")
        sigma_hat = matrix_from_json(doc["sigma_hat"], "sigma_hat")
        eigvecs = matrix_from_json(doc["eigvecs"], "eigvecs")
        p_perp = matrix_from_json(doc["p_perp"], "p_perp")
        eigvals = np.asarray(doc["eigvals"], dtype=float)
        k_hat = _doc_integer(doc["k_hat"], "k_hat", nullable=True)
        diagnostics = doc["diagnostics"]
        n, p, m_dim, seed, max_iter = (
            _doc_integer(doc[name], name) for name in ("n", "p", "m_dim", "seed", "max_iter")
        )
        tol = doc["tol"]
        if type(tol) not in (int, float) or not 0.0 < tol < np.inf:  # a bool is not a number
            msg = f"fit document tol must be a finite positive number: {tol!r}"
            raise DataValidationError(msg)
        if not (isinstance(mode_doc, dict) and isinstance(split_doc, dict)):
            raise DataValidationError("fit document fields mode and split must be objects")
        mode_kind = mode_doc.get("kind")
        if mode_kind == ORACLE_P:
            mode = Mode(ORACLE_P, projector=p_perp)
        elif mode_kind == ORACLE_K:
            mode = Mode(ORACLE_K, k=_doc_integer(mode_doc["k"], "mode.k"))
        elif mode_kind == DATA_DRIVEN:
            mode = Mode(DATA_DRIVEN)
        else:
            raise DataValidationError(f"unknown fit mode {mode_kind!r}")
        split = SplitPlan(
            n=n,
            seed=_doc_integer(split_doc["seed"], "split.seed"),
            d1=_doc_indices(split_doc["d1"], "split.d1"),
            d2=_doc_indices(split_doc["d2"], "split.d2"),
        )
    except KeyError as missing:
        raise DataValidationError(f"fit document is missing field {missing}")
    except (TypeError, ValueError) as bad:
        raise DataValidationError(f"malformed fit document: {bad}")
    square, rows = (m_dim, m_dim), (m_dim, p)
    for name, arr, shape in (
        ("f_hat", f_hat, rows), ("theta_hat", theta_hat, rows), ("sigma_hat", sigma_hat, square),
        ("eigvecs", eigvecs, square), ("p_perp", p_perp, square), ("eigvals", eigvals, (m_dim,)),
    ):
        if arr.shape != shape:
            raise DataValidationError(
                f"fit document {name} has shape {arr.shape}, expected {shape} "
                f"for m_dim={m_dim}, p={p}"
            )
    spec = spectral.SpectralResult(
        sigma_hat=sigma_hat,
        eigvals=eigvals,
        eigvecs=eigvecs,
        k_hat=k_hat,
        p_perp=p_perp,
    )
    coef = CoefMatrix(f_hat, *_fold_diagnostics(diagnostics, m_dim))
    return GhiveFit(
        family=family,
        n=n,
        p=p,
        m_dim=m_dim,
        seed=seed,
        tol=float(tol),
        max_iter=max_iter,
        mode=mode,
        split=split,
        f_hat=coef,
        theta_hat=theta_hat,
        spectral=spec,
        diagnostics=diagnostics,
    )
