"""Simulation-study harness: named experiments, grids, and CSV output.

Five named experiments cover the study: the approximation-bias sweep
("fig1-bias" over p), three estimation-error sweeps ("fig1-eta" over
confounding strength, "fig2-n" over sample size, "fig2-m" over response
count), and the coverage experiment ("table1"). Default grids and
replication counts are desk scale; ``full_scale=True`` restores the original
protocol sizes. Both scales of every experiment, with its default seed, are
one row of one table, ``_PROTOCOLS``, which :func:`experiment_spec` reads.
The rows carry no oracle size: fig1-bias's gaussian oracle is exact and
draws nothing, and table1's bernoulli oracle draws ``TABLE1_ORACLE_ROWS``
rows at both scales. ``ghive simulate`` runs a one-point error
spec through the same :func:`run_experiment`. Every spec, named or built
directly, is checked once, when it is built (:class:`ExperimentSpec`), so a
bad one fails before any grid point runs.

Seed discipline: the experiment seed is mixed (splitmix-style) with the grid
index to give each grid point its own stream family. Error experiments
redraw the ground truth every replication; the coverage experiment fixes the
truth per grid point (one pseudo-true target) and derives replication seeds
as grid_seed XOR rep, so the whole run is reproducible byte for byte.

One place, :func:`_kind`, decides what an experiment draws, fits and scores:
fig1-bias the oracle's bias, table1 interval coverage at fixed truths, and
every other name estimation error.

A grid point's replicates run in chunks, each one :func:`_replicates` task:
one chunk per grid point when serial, one per worker when the GHIVE_THREADS
environment variable asks for a process pool (the tasks are picklable
``functools.partial`` calls, and the parent raises each worker's warnings
again). A chunk draws each replicate (:func:`_draw`), then makes all its
pipeline fits in one ``ghive_fit_many`` call and all its naive MLEs in one
``fit_naive_many`` call, so the replicates' small fold fits share the
solver's Newton loops; fig1-bias chunks compute one oracle per replicate
and fit nothing. Every fit is the one its replicate gets alone,
bit for bit, so the rows do not depend on the chunking; output ordering is
canonicalised either way.

Each replicate's rows come from one call of its worker (``_bias_rep``,
``_error_rep``, ``_coverage_rep``), which hands ``_rows`` a
``score(estimator) -> {metric: value}`` over what the replicate drew and
fitted. ``_rows`` alone builds the long rows and records failures: when
``score`` raises a ``GhiveError`` (a failed draw or fit is kept as its error
and raised there), that estimator gets the experiment's failed metrics as
NaN with ``failed=1``, the aggregate leaves those rows out of its mean
and ``n_used``, and the error's message is raised as a ``RuntimeWarning``
(Python's default filter, which ``ghive`` uses, shows each distinct message
once). A failed draw is raised for every estimator, so it fails only its
replicate.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .data_io import write_csv_rows
from .errors import DataValidationError, GhiveError, require_integer
from .families import family_from_name
from .inference import basis_contrast, confidence_interval, naive_wald_interval
from .pipeline import DATA_DRIVEN, ORACLE_K, ORACLE_P, Mode, ghive_fit_many, with_projection
from .qml import check_fold_rows, fit_naive_many
from .simulate import (
    SimConfig, frob_err, fstar_oracle, make_truth, oracle_bias, proj_err, sample_dataset,
)

ESTIMATOR_NAIVE = "naive-mle"
ESTIMATOR_FSTAR = "fstar-oracle"

ERROR_ESTIMATORS = (ORACLE_P, ORACLE_K, DATA_DRIVEN, ESTIMATOR_NAIVE)

ALPHA = 0.05  # the coverage experiment's intervals are at level 1 - ALPHA

# Rows of table1's bernoulli oracle draw, at both scales (the gaussian and
# poisson oracles are exact and draw nothing).
TABLE1_ORACLE_ROWS = 100_000

# Fields a long row shares with the aggregate row of its grid point.
_POINT_FIELDS = ("experiment", "grid_index", "n", "p", "m_dim", "k_true", "eta", "estimator")
LONG_FIELDS = _POINT_FIELDS + ("rep", "metric", "value", "failed")
AGG_FIELDS = _POINT_FIELDS + ("metric", "mean", "stderr", "n_used")

_MASK64 = (1 << 64) - 1


def _mix(seed: int, index: int) -> int:
    """Splitmix64 finalizer over seed advanced by a golden-ratio stride."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def worker_count() -> int:
    """Size of the replication work pool, from GHIVE_THREADS (default 1)."""
    raw = os.environ.get("GHIVE_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-integer GHIVE_THREADS={raw!r}; running serially",
            RuntimeWarning,
        )
        return 1
    if value < 1:
        warnings.warn(f"ignoring GHIVE_THREADS={raw!r} below 1; running serially", RuntimeWarning)
        return 1
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One named experiment: a grid of generator configs plus run settings.
    The name decides what the experiment scores (:func:`_kind`).

    A spec is checked once, when it is built, so that a bad one fails before
    any replicate runs: reps must be an integer of at least 1, seed an
    integer, the grid not empty, and, for an experiment that fits, each
    grid config's folds must hold its covariates (:func:`check_fold_rows`)."""

    name: str
    grid: tuple
    reps: int
    seed: int

    def __post_init__(self):
        require_integer("reps", self.reps, low=1)
        require_integer("seed", self.seed, 0, _MASK64)
        if not self.grid:
            raise DataValidationError(f"experiment {self.name!r} has an empty grid")
        if _kind(self).fits:  # else every fit would fail instead
            for cfg in self.grid:
                check_fold_rows(cfg.n, cfg.p)


# The study protocol, one row per experiment: the SimConfig field its grid
# sweeps, that field's values and the default reps (each at desk scale, then
# at full scale), the default seed, and the SimConfig fields every grid point
# shares.
_PROTOCOLS = {
    # Identity link: the approximation error of the pseudo-true coefficient
    # has a closed form there, and its decay in p is clean.  Under the logit
    # link the attenuation of the population coefficients grows with p fast
    # enough to mask the decay on a grid this short.
    "fig1-bias": ("p", ((3, 6, 9, 12, 15), tuple(range(3, 16))), (5, 20), 0,
                  {"n": 100, "m_dim": 3, "k": 3, "eta": 10.0, "family": "gaussian"}),
    "fig1-eta": ("eta", ((1.0, 2.0, 4.0, 6.0, 8.0), tuple(map(float, range(1, 9)))), (100, 500),
                 0, {"n": 100, "p": 4, "m_dim": 4, "k": 3}),
    "fig2-n": ("n", ((100, 200, 300, 400), tuple(range(100, 401, 50))), (50, 200), 0,
               {"p": 4, "m_dim": 4, "k": 3, "eta": 4.0}),
    "fig2-m": ("m_dim", ((4, 12, 20), (4, 8, 12, 16, 20)), (30, 100), 0,
               {"n": 200, "p": 4, "k": 3, "eta": 4.0}),
    # The coverage table fixes one truth draw per grid point, and draws differ
    # in how far confounding shifts the target coordinate; seed 15 is one
    # where the shift is material, which is the regime the table is about.
    "table1": ("n", ((70,), (40, 70)), (100, 100), 15, {"p": 4, "m_dim": 4, "k": 3, "eta": 4.0}),
}
EXPERIMENT_NAMES = tuple(_PROTOCOLS)


def experiment_spec(
    name: str, reps: int | None = None, seed: int | None = None, full_scale: bool = False
) -> ExperimentSpec:
    """Build the canonical spec for a named experiment from its row of
    ``_PROTOCOLS``.

    ``reps=None`` takes the experiment's default replication count and
    ``seed=None`` its default seed. The grid and the replication count are
    desk scale unless ``full_scale``.
    """
    if name not in EXPERIMENT_NAMES:
        msg = f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}"
        raise DataValidationError(msg)
    field, values, default_reps, default_seed, shared = _PROTOCOLS[name]
    seed = default_seed if seed is None else seed
    grid = tuple(SimConfig(**shared, **{field: v}, seed=seed) for v in values[full_scale])
    reps = default_reps[full_scale] if reps is None else reps
    return ExperimentSpec(name=name, grid=grid, reps=reps, seed=seed)


# ---------------------------------------------------------------------------
# per-replication workers


class _Kind(NamedTuple):
    worker: Callable  # (spec, gi, rep, drawn[, fitted, naive][, point]) -> rows
    estimators: tuple
    failed: tuple  # the metrics a failed estimator reports, as NaN
    fits: bool  # draws and fits a dataset; else computes the oracle
    point: Callable | None  # (spec, gi) -> what a grid point fixes


def _kind(spec: ExperimentSpec) -> _Kind:
    """What an experiment does with its replicates. Any name but fig1-bias
    and table1 (``ghive simulate``'s too) is an estimation-error experiment."""
    if spec.name == "fig1-bias":
        failed = ("bias1", "bias2", "oracle_converged_frac")
        return _Kind(_bias_rep, (ESTIMATOR_FSTAR,), failed, False, None)
    if spec.name == "table1":
        failed = ("covered", "covered_theta", "se", "ci_length", "estimate")
        return _Kind(_coverage_rep, (DATA_DRIVEN, ESTIMATOR_NAIVE), failed, True, _targets)
    return _Kind(_error_rep, ERROR_ESTIMATORS, ("frob_err",), True, None)


def _targets(spec: ExperimentSpec, gi: int) -> tuple:
    """table1's grid point: its truth, and the oracle's and truth's targets."""
    cfg = replace(spec.grid[gi], seed=_mix(spec.seed, gi))
    truth = make_truth(cfg)
    oracle = fstar_oracle(truth, cfg, n_mc=TABLE1_ORACLE_ROWS)
    return truth, float((truth.p_b_perp @ oracle.values)[0, 0]), float(truth.theta[0, 0])


def _rows(spec: ExperimentSpec, gi: int, rep: int, score) -> list:
    """Long rows of one replicate, one per (estimator, metric), from
    ``score(estimator) -> {metric: value}``. A ``GhiveError`` in ``score``
    fails that estimator: it gets the experiment's failed metrics as NaN
    with ``failed=1``, and the error's message is raised as a
    ``RuntimeWarning``. A failed draw, kept as its error, is raised through
    :func:`_value` for every estimator.
    """
    cfg, kind = spec.grid[gi], _kind(spec)
    shared = {
        "experiment": spec.name, "grid_index": gi, "n": cfg.n, "p": cfg.p,
        "m_dim": cfg.m_dim, "k_true": cfg.k, "eta": float(cfg.eta), "rep": rep,
    }
    rows = []
    for est in kind.estimators:
        try:
            values, failed = score(est), 0
        except GhiveError as failure:
            values, failed = dict.fromkeys(kind.failed, np.nan), 1
            warnings.warn(f"{spec.name}: a replicate failed: {failure}", RuntimeWarning)
        rows.extend(
            {**shared, "estimator": est, "metric": m, "value": float(v), "failed": failed}
            for m, v in values.items()
        )
    return rows


def _attempt(fn, *args):
    """``fn(*args)``, or the ``GhiveError`` it raised."""
    try:
        return fn(*args)
    except GhiveError as failure:
        return failure


def _value(outcome):
    """The value of an outcome from :func:`_attempt`; a failure is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _draw(spec: ExperimentSpec, cfg: SimConfig, truth):
    """One replicate's draw under its seeded ``cfg``: the truth (made unless
    the grid point fixes it), then the dataset, or the oracle if the
    experiment fits nothing."""
    if truth is None:
        truth = make_truth(cfg)
    if _kind(spec).fits:
        return truth, sample_dataset(truth, cfg, rep_seed=cfg.seed)
    return truth, fstar_oracle(truth, cfg)


def _replicates(spec: ExperimentSpec, gi: int, point, reps) -> list:
    """Rows of a chunk of one grid point's replicates. ``point`` is what the
    grid point fixes (table1's :func:`_targets`), its replicates then seeded
    grid_seed XOR rep; elsewhere it is None. A failed draw keeps its
    failure, and a fit call that raises fails every dataset in it."""
    kind, cfg, grid_seed = _kind(spec), spec.grid[gi], _mix(spec.seed, gi)
    seeds = [grid_seed ^ rep if point else _mix(grid_seed, rep) for rep in reps]
    truth = point[0] if point else None
    draws = [_attempt(_draw, spec, replace(cfg, seed=seed), truth) for seed in seeds]
    drawn = [i for i, d in enumerate(draws) if not isinstance(d, Exception)]

    def each(fit_many, *args):
        datasets = [draws[i][1] for i in drawn]
        fits = _attempt(fit_many, datasets, family_from_name(cfg.family), *args)
        out = list(draws)
        for k, i in enumerate(drawn):
            out[i] = fits if isinstance(fits, Exception) else fits[k]
        return out

    outcomes = [draws]
    if kind.fits:
        outcomes += [each(ghive_fit_many, [seeds[i] for i in drawn]), each(fit_naive_many)]
    if point:
        outcomes.append([point] * len(reps))
    return [row for rep, *got in zip(reps, *outcomes) for row in kind.worker(spec, gi, rep, *got)]


def _bias_rep(spec: ExperimentSpec, gi: int, rep: int, drawn) -> list:
    """Rows of one oracle-bias replicate, from the outcome of its draw."""

    def score(est):  # the one estimator is the oracle
        truth, oracle = _value(drawn)
        bias1, bias2 = oracle_bias(oracle.values, truth)
        return {
            "bias1": bias1,
            "bias2": bias2,
            "oracle_converged_frac": float(np.mean(oracle.converged)),
        }

    return _rows(spec, gi, rep, score)


def _error_rep(spec: ExperimentSpec, gi: int, rep: int, drawn, fitted, naive) -> list:
    """Rows of one estimation-error replicate, from the outcomes of its
    draw (truth, data), its pipeline fit and its naive MLE."""
    cfg = spec.grid[gi]

    def score(est):
        truth, _ = _value(drawn)
        if est == ESTIMATOR_NAIVE:
            return {"frob_err": frob_err(_value(naive).values, truth)}
        fit = _value(fitted)
        if est == DATA_DRIVEN:
            return {
                "frob_err": frob_err(fit.theta_hat, truth),
                "k_hat": float(fit.spectral.k_hat),
                "proj_err": proj_err(fit.spectral.p_perp, truth),
            }
        mode = Mode.oracle_k(cfg.k) if est == ORACLE_K else Mode.oracle_p(truth.p_b_perp)
        return {"frob_err": frob_err(with_projection(fit, mode).theta_hat, truth)}

    return _rows(spec, gi, rep, score)


def _coverage_rep(spec: ExperimentSpec, gi: int, rep: int, drawn, fitted, naive, point) -> list:
    """Rows of one coverage replicate, from the outcomes of its draw
    (truth, data), its pipeline fit and its naive MLE, against the grid
    point's :func:`_targets`."""
    cfg = spec.grid[gi]
    family = family_from_name(cfg.family)
    contrast = basis_contrast(0, 0, cfg.m_dim, cfg.p)
    _, target_fstar, target_theta = point

    def score(est):
        _, data = _value(drawn)
        if est == ESTIMATOR_NAIVE:
            res = naive_wald_interval(data, family, _value(naive), contrast, ALPHA)
        else:
            res = confidence_interval(data, family, _value(fitted), contrast, ALPHA)
        values = {
            "covered": float(res.ci_lo <= target_fstar <= res.ci_hi),
            "covered_theta": float(res.ci_lo <= target_theta <= res.ci_hi),
            "se": res.se,
            "ci_length": res.ci_hi - res.ci_lo,
            "estimate": res.estimate,
        }
        if est != ESTIMATOR_NAIVE:
            values["rms_h"] = float(np.sqrt(res.s_sq / data.n))
        return values

    return _rows(spec, gi, rep, score)


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class ExperimentResult:
    long_rows: list
    agg_rows: list
    long_path: str | None = None
    agg_path: str | None = None


def _row_key(row):
    return (row["grid_index"], row["estimator"], row["rep"], row["metric"])


def aggregate_rows(long_rows) -> list:
    """Group long rows and average the non-failed values.

    Means are plain arithmetic means; stderr is the sample standard
    deviation over replications divided by sqrt(count). A group's grid-point
    fields come from its first row.
    """
    groups = {}
    for row in long_rows:
        groups.setdefault((row["grid_index"], row["estimator"], row["metric"]), []).append(row)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        values = np.array([float(r["value"]) for r in rows if not r["failed"]])
        mean = float(values.mean()) if len(values) else float("nan")
        stderr = float("nan")
        if len(values) > 1:
            stderr = float(values.std(ddof=1) / np.sqrt(len(values)))
        out.append(
            {f: rows[0][f] for f in _POINT_FIELDS}
            | {"metric": key[2], "mean": mean, "stderr": stderr, "n_used": len(values)}
        )
    return out


def _call(task) -> tuple:
    """``task()`` in a pool worker: its rows, and the warnings it raised,
    which the parent raises again so that its own filters and printer apply,
    as in a serial run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = task()
    return rows, [w.message for w in caught]


def _chunks(reps: int, workers: int) -> list:
    """A grid point's replicates split into ``workers`` consecutive chunks
    whose sizes differ by at most one (fewer when there are fewer reps)."""
    n_chunks = min(reps, workers)
    bounds = [reps * i // n_chunks for i in range(n_chunks + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _map_tasks(tasks, workers: int) -> list:
    if workers == 1 or len(tasks) < 2:
        results = [task() for task in tasks]
    else:  # imported here: concurrent.futures.process loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results, caught = zip(*pool.map(_call, tasks))
        for messages in caught:
            for message in messages:
                warnings.warn(message)
    return [row for rows in results for row in rows]


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Run all grid points and replications; optionally write the two CSVs.

    Each grid point's replicates go to the workers in chunks
    (:func:`_chunks`), one per worker, each a :func:`_replicates` task,
    after the grid point's fixed truth and targets if it has them.
    """
    kind, workers, tasks = _kind(spec), worker_count(), []
    chunks = _chunks(spec.reps, workers)
    for gi in range(len(spec.grid)):
        point = kind.point(spec, gi) if kind.point else None
        tasks.extend(partial(_replicates, spec, gi, point, chunk) for chunk in chunks)

    long_rows = sorted(_map_tasks(tasks, workers), key=_row_key)
    agg_rows = aggregate_rows(long_rows)

    long_path = agg_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        long_path = os.path.join(out_dir, f"{spec.name}_long.csv")
        agg_path = os.path.join(out_dir, f"{spec.name}_agg.csv")
        write_csv_rows(long_path, LONG_FIELDS, long_rows)
        write_csv_rows(agg_path, AGG_FIELDS, agg_rows)
    return ExperimentResult(long_rows, agg_rows, long_path, agg_path)
