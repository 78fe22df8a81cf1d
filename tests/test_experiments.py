"""Simulation-study harness: grids, replication, aggregation, file output."""

import concurrent.futures
import dataclasses
import functools
import itertools
import math
import multiprocessing
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import agg_lookup
from ghive import experiments
from ghive.errors import DataValidationError, NumericalError
from ghive.experiments import (
    ALPHA,
    AGG_FIELDS,
    EXPERIMENT_NAMES,
    LONG_FIELDS,
    ExperimentSpec,
    aggregate_rows,
    experiment_spec,
    run_experiment,
    worker_count,
)


# The study protocol, written out: per experiment, the SimConfig field its
# grid sweeps, the values at desk and at full scale, the fields every grid
# point shares, the default reps at desk and at full scale, the default seed,
# and the oracle draw size n_mc at desk and at full scale.
_PROTOCOL = {
    "fig1-bias": (
        "p", (3, 6, 9, 12, 15), tuple(range(3, 16)),
        {"n": 100, "m_dim": 3, "k": 3, "eta": 10.0, "family": "gaussian"},
        (5, 20), 0, (50_000, 200_000),
    ),
    "fig1-eta": (
        "eta", (1.0, 2.0, 4.0, 6.0, 8.0), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        {"n": 100, "p": 4, "m_dim": 4, "k": 3, "family": "bernoulli"},
        (100, 500), 0, (50_000, 50_000),
    ),
    "fig2-n": (
        "n", (100, 200, 300, 400), (100, 150, 200, 250, 300, 350, 400),
        {"p": 4, "m_dim": 4, "k": 3, "eta": 4.0, "family": "bernoulli"},
        (50, 200), 0, (50_000, 50_000),
    ),
    "fig2-m": (
        "m_dim", (4, 12, 20), (4, 8, 12, 16, 20),
        {"n": 200, "p": 4, "k": 3, "eta": 4.0, "family": "bernoulli"},
        (30, 100), 0, (50_000, 50_000),
    ),
    "table1": (
        "n", (70,), (40, 70),
        {"p": 4, "m_dim": 4, "k": 3, "eta": 4.0, "family": "bernoulli"},
        (100, 100), 15, (100_000, 100_000),
    ),
}


def test_experiment_catalog_grids():
    for (name, row), full_scale in itertools.product(_PROTOCOL.items(), (False, True)):
        field, desk, full, shared, reps, seed, n_mc = row
        spec = experiment_spec(name, full_scale=full_scale)
        assert (spec.name, spec.reps, spec.seed, spec.n_mc) == (
            name, reps[full_scale], seed, n_mc[full_scale]
        )
        values = full if full_scale else desk
        assert tuple(getattr(c, field) for c in spec.grid) == values
        assert all(type(getattr(c, field)) is type(values[0]) for c in spec.grid)
        rest = {"reps": 1, "sigma_z_decay": "negative", "seed": seed, **shared}
        for cfg in spec.grid:
            fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
            assert fields.pop(field) in values and fields == rest
        other = experiment_spec(name, reps=3, seed=7, full_scale=full_scale)
        assert (other.reps, other.seed, other.n_mc) == (3, 7, n_mc[full_scale])
        assert other.grid == tuple(dataclasses.replace(c, seed=7) for c in spec.grid)
    assert ALPHA == 0.05
    assert experiments._kind(experiment_spec("fig1-bias")).estimators == ("fstar-oracle",)
    assert set(experiments._kind(experiment_spec("table1")).estimators) == {"data-driven", "naive-mle"}
    with pytest.raises(DataValidationError, match="fig9"):
        experiment_spec("fig9")
    assert set(EXPERIMENT_NAMES) == set(_PROTOCOL)


def test_reps_override_shrinks_the_run():
    spec = experiment_spec("fig2-n", reps=3, seed=5)
    assert spec.reps == 3 and spec.seed == 5
    assert experiment_spec("fig2-n", reps=1).reps == 1


@pytest.mark.parametrize(
    "field, value",
    [("reps", 0), ("reps", -2), ("reps", 1.5), ("reps", True), ("seed", 1.5), ("grid", ())],
    ids=["0", "-2", "1.5", "True", "seed-1.5", "empty-grid"],
)
def test_reps_below_one_are_rejected(field, value):
    if field == "reps":
        with pytest.raises(DataValidationError, match="reps"):
            experiment_spec("table1", reps=value)
    # ghive simulate builds its spec directly, so the dataclass checks it
    spec = {"name": "simulate", "grid": experiment_spec("fig2-n").grid, "reps": 2, "seed": 4}
    with pytest.raises(DataValidationError, match=field):
        ExperimentSpec(**{**spec, field: value})


@pytest.mark.parametrize("name", ["fig1-bias", "table1"])
def test_too_small_oracle_sample_is_rejected_before_any_replicate(name, monkeypatch):
    monkeypatch.setattr(experiments, "_map_tasks", lambda tasks: pytest.fail("a replicate ran"))
    # the spec is refused when it is built, so no run can start
    with pytest.raises(DataValidationError, match="n_mc"):
        run_experiment(dataclasses.replace(experiment_spec(name, reps=2), n_mc=5000))


def _tiny_spec():
    spec = experiment_spec("fig2-n", reps=2, seed=123)
    return dataclasses.replace(spec, grid=(spec.grid[0],))


def test_rerunning_an_experiment_writes_identical_files(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(_tiny_spec(), out_dir=d1)
    run_experiment(_tiny_spec(), out_dir=d2)
    for name in ("fig2-n_long.csv", "fig2-n_agg.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_long_rows_cover_every_estimator_and_rep():
    res = run_experiment(_tiny_spec())
    assert res.long_path is None and res.agg_path is None
    assert {r["estimator"] for r in res.long_rows} == {
        "oracle-p",
        "oracle-k",
        "data-driven",
        "naive-mle",
    }
    assert {r["rep"] for r in res.long_rows} == {0, 1}
    assert all(set(LONG_FIELDS) == set(r) for r in res.long_rows)
    assert all(set(AGG_FIELDS) == set(r) for r in res.agg_rows)


def test_aggregate_rows_hand_check():
    base = dict(
        experiment="x", grid_index=0, n=10, p=2, m_dim=2, k_true=1, eta=1.0,
        estimator="e", metric="m",
    )
    rows = [
        {**base, "rep": 0, "value": 1.0, "failed": 0},
        {**base, "rep": 1, "value": 3.0, "failed": 0},
        {**base, "rep": 2, "value": 99.0, "failed": 1},  # excluded
    ]
    (agg,) = aggregate_rows(rows)
    assert agg["mean"] == pytest.approx(2.0)
    assert agg["stderr"] == pytest.approx(np.std([1.0, 3.0], ddof=1) / np.sqrt(2))
    assert agg["n_used"] == 2
    all_failed = [{**base, "rep": 0, "value": 5.0, "failed": 1}]
    (empty,) = aggregate_rows(all_failed)
    assert math.isnan(empty["mean"]) and empty["n_used"] == 0


def test_reaggregating_the_long_rows_reproduces_the_aggregate(fig2_m_run):
    redone = aggregate_rows(fig2_m_run.long_rows)
    assert len(redone) == len(fig2_m_run.agg_rows)
    by_key = {
        (r["grid_index"], r["estimator"], r["metric"]): r for r in redone
    }
    for row in fig2_m_run.agg_rows:
        twin = by_key[(row["grid_index"], row["estimator"], row["metric"])]
        assert twin["mean"] == pytest.approx(row["mean"], nan_ok=True)
        assert twin["stderr"] == pytest.approx(row["stderr"], nan_ok=True)
        assert twin["n_used"] == row["n_used"]


def test_worker_count_env_parsing(monkeypatch):
    monkeypatch.delenv("GHIVE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("GHIVE_THREADS", "3")
    assert worker_count() == 3
    for raw in ("zero", "0", "-2"):
        monkeypatch.setenv("GHIVE_THREADS", raw)
        with pytest.warns(RuntimeWarning, match=f"ignoring .*GHIVE_THREADS='{raw}'.*; running serially"):
            assert worker_count() == 1


def test_process_pool_rows_match_the_serial_run(monkeypatch):
    # the replicate tasks are functools.partial objects that must pickle; 3
    # replicates split unevenly between 2 workers
    bias = experiment_spec("fig1-bias", reps=3)
    specs = (
        _tiny_spec(),
        dataclasses.replace(_tiny_spec(), reps=3),
        experiment_spec("table1", reps=2, seed=15),
        dataclasses.replace(bias, grid=bias.grid[:1], n_mc=10_000),
    )
    assert experiments._chunks(3, 2) == [range(0, 1), range(1, 3)]
    monkeypatch.delenv("GHIVE_THREADS", raising=False)
    serial = [run_experiment(spec).long_rows for spec in specs]
    monkeypatch.setenv("GHIVE_THREADS", "2")
    assert worker_count() == 2
    pooled = [run_experiment(spec).long_rows for spec in specs]
    assert pooled == serial
    assert not any(row["failed"] for rows in serial for row in rows)


def test_the_process_pool_has_no_more_workers_than_tasks(monkeypatch):
    sizes = []

    class InlinePool:  # records the pool size and runs the tasks in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setenv("GHIVE_THREADS", "1000")
    spec = dataclasses.replace(experiment_spec("table1", reps=2), n_mc=10_000)
    assert not any(row["failed"] for row in run_experiment(spec).long_rows)
    assert sizes == [2]


def _warn_and_return(i):
    warnings.warn(f"task {i} warns")
    return [i]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_pool_worker_s_warnings_reach_the_parent(monkeypatch):
    # a forked worker records into its own copy of the parent's list, and a
    # spawned one prints with its own printer; the parent raises them again
    fork = multiprocessing.get_context("fork")
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    tasks = [functools.partial(_warn_and_return, i) for i in range(2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert experiments._map_tasks(tasks, workers=2) == [0, 1]
    messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    assert messages == ["task 0 warns", "task 1 warns"]


def _raise_on(monkeypatch, name, calls):
    """Make experiments.<name> fail on the given 0-based call numbers. A
    batched fit (``*_many``) counts as one call per dataset it is given, and
    returns the failure in place of that dataset's fit."""
    real, seen = getattr(experiments, name), []

    def failure():
        seen.append(None)
        if len(seen) - 1 in calls:
            error = DataValidationError if len(seen) % 2 else NumericalError
            return error(f"injected failure in {name}")
        return None

    def wrapped(*args, **kwargs):
        if name.endswith("_many"):
            return [failure() or fit for fit in real(*args, **kwargs)]
        injected = failure()
        if injected is not None:
            raise injected
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, wrapped)


COVERAGE_METRICS = {"covered", "covered_theta", "se", "ci_length", "estimate"}


@pytest.mark.parametrize(
    "name, injected, failed_pairs, failed_metrics",
    [
        # rep 0's draw fails every estimator; rep 1's pipeline fit fails the
        # pipeline estimators but leaves naive-mle scored; rep 2's naive fit
        # fails (the batched fits see only the datasets drawn: reps 1 and 2)
        (
            "fig2-n",
            {"sample_dataset": {0}, "ghive_fit_many": {0}, "fit_naive_many": {1}},
            {(0, e) for e in ("oracle-p", "oracle-k", "data-driven", "naive-mle")}
            | {(1, e) for e in ("oracle-p", "oracle-k", "data-driven")}
            | {(2, "naive-mle")},
            {"frob_err"},
        ),
        # rep 0's pipeline fit fails, rep 1's draw, rep 2's naive fit
        (
            "table1",
            {"sample_dataset": {1}, "ghive_fit_many": {0}, "fit_naive_many": {1}},
            {(0, "data-driven"), (1, "data-driven"), (1, "naive-mle"), (2, "naive-mle")},
            COVERAGE_METRICS,
        ),
        ("fig1-bias", {"fstar_oracle": {0}}, {(0, "fstar-oracle")},
         {"bias1", "bias2", "oracle_converged_frac"}),
        # failures while scoring, after a clean draw and fit: rep 1's
        # pipeline interval, and rep 1's oracle-k projection (the projections
        # run oracle-p then oracle-k for each replicate)
        ("table1", {"confidence_interval": {1}}, {(1, "data-driven")}, COVERAGE_METRICS),
        ("fig2-n", {"with_projection": {3}}, {(1, "oracle-k")}, {"frob_err"}),
        # rep 1's truth draw fails every estimator of rep 1 only
        (
            "fig2-n",
            {"make_truth": {1}},
            {(1, e) for e in ("oracle-p", "oracle-k", "data-driven", "naive-mle")},
            {"frob_err"},
        ),
    ],
)
def test_failed_estimators_get_nan_rows_and_drop_out_of_the_aggregate(
    monkeypatch, name, injected, failed_pairs, failed_metrics
):
    monkeypatch.delenv("GHIVE_THREADS", raising=False)
    spec = experiment_spec(name, reps=3)
    spec = dataclasses.replace(spec, grid=spec.grid[:1], n_mc=10_000)
    for fn, calls in injected.items():
        _raise_on(monkeypatch, fn, calls)
    res = run_experiment(spec)

    by_pair = {}
    for row in res.long_rows:
        by_pair.setdefault((row["rep"], row["estimator"]), []).append(row)
    assert set(by_pair) == {(r, e) for r in range(3) for e in experiments._kind(spec).estimators}
    for pair, rows in by_pair.items():
        if pair in failed_pairs:
            assert {r["metric"] for r in rows} == failed_metrics
            assert all(r["failed"] == 1 and math.isnan(r["value"]) for r in rows)
        else:
            assert failed_metrics <= {r["metric"] for r in rows}
            assert not any(r["failed"] for r in rows)
    for agg in res.agg_rows:
        if agg["metric"] in failed_metrics:
            n_failed = sum(1 for r, e in failed_pairs if e == agg["estimator"])
            assert agg["n_used"] == spec.reps - n_failed


def test_a_batched_fit_that_raises_fails_each_replicate_of_its_chunk(monkeypatch):
    monkeypatch.delenv("GHIVE_THREADS", raising=False)

    def broken(datasets, family, seeds):
        raise NumericalError("injected failure of the whole call")

    monkeypatch.setattr(experiments, "ghive_fit_many", broken)
    spec = dataclasses.replace(experiment_spec("table1", reps=3), n_mc=10_000)
    rows = run_experiment(spec).long_rows
    assert {(r["rep"], r["estimator"]) for r in rows if r["failed"]} == {
        (rep, "data-driven") for rep in range(3)
    }


def test_coverage_rows_have_interval_structure():
    spec = experiment_spec("table1", reps=4, seed=15)
    res = run_experiment(spec)
    cov = [r for r in res.long_rows if r["metric"] == "covered"]
    assert cov and all(r["value"] in (0.0, 1.0) for r in cov)
    ses = {
        (r["estimator"], r["rep"]): r["value"]
        for r in res.long_rows
        if r["metric"] == "se"
    }
    lens = {
        (r["estimator"], r["rep"]): r["value"]
        for r in res.long_rows
        if r["metric"] == "ci_length"
    }
    assert ses, "expected per-replicate standard errors"
    for key, se in ses.items():
        assert se > 0
        assert lens[key] == pytest.approx(2 * 1.959963984540054 * se, rel=1e-9)


def test_estimator_ranking_under_growing_confounding(fig1_eta_run):
    # As the confounding strength rises, the baseline deteriorates in a
    # monotone way while the oracle-projected variants stay much flatter.
    etas = [c.eta for c in experiment_spec("fig1-eta", seed=0).grid]
    naive = agg_lookup(fig1_eta_run, "naive-mle", "frob_err")
    naive_path = [naive[i] for i in range(len(etas))]
    rho = spearmanr(etas, naive_path).statistic
    assert rho > 0.8
    slope = np.polyfit(etas, naive_path, 1)[0]
    for estimator in ("oracle-p", "oracle-k"):
        other = agg_lookup(fig1_eta_run, estimator, "frob_err")
        other_slope = np.polyfit(etas, [other[i] for i in range(len(etas))], 1)[0]
        assert other_slope < slope
