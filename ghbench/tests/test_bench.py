"""Tests of the benchmark itself.

    python3 -m pytest ghbench/tests -q

The smoke runs start the benchmark in a subprocess, at the smallest run
length; the rest call its functions in-process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402

harness.import_ghive()

import tracer  # noqa: E402
import workloads  # noqa: E402
from ghive import cli, pipeline, qml  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "ghbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload, trace, seed=3):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))


# ---------------------------------------------------------------------------
# smoke runs


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    proc = smoke("fit-small", 0)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    lines = proc.stdout.splitlines()
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
        assert any(ln.startswith(name + " ") and ln.endswith(" " + m["unit"]) for ln in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric_with_its_unit(workload):
    result = result_of(smoke(workload, 1))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["metrics"]["qml.objective_evals"]["value"] > 0


def test_two_traced_runs_with_one_seed_give_identical_counts():
    counts = [
        {
            k: m["value"]
            for k, m in result_of(smoke("cli-roundtrip", 1, seed=5))["metrics"].items()
            if m["unit"] in ("count", "B") or k.endswith("_frac") and k != "trace.overhead_frac"
        }
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["data_io.bytes_read"] > 0


def test_refuses_to_run_without_the_measured_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "ghbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fit-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_a_ghive_imported_from_elsewhere(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "ghbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = bench("--workload", "fit-small", "--seed", "1", "--seconds", "1", cwd=tmp_path, env=env)
    assert proc.returncode == 2
    assert "not from" in proc.stderr


# ---------------------------------------------------------------------------
# failed ops


@pytest.fixture
def run_one(tmp_path):
    """Run one untraced op of a workload through the harness."""

    def go(workload, entry=0, ref=None, tracer_=None):
        refs = json.loads((BENCH_DIR / "refs" / f"{workload.name}.json").read_text())["entries"]
        inputs = workload.prepare(entry, workloads.fresh_dir(tmp_path / "input"))
        return harness.execute(
            workload, inputs, entry, refs[entry] if ref is None else ref,
            harness.schema_validators(), tmp_path, harness.SpeedProbe(), tracer_,
        )

    return go


FIT_SMALL = workloads.WORKLOADS["fit-small"]


def test_a_correct_op_passes(run_one):
    assert run_one(FIT_SMALL)["error"] is None


def test_a_perturbed_theta_hat_fails_the_op(run_one, monkeypatch):
    original = pipeline.ghive_fit

    def perturbed(*args, **kwargs):
        fit = original(*args, **kwargs)
        fit.theta_hat[0, 0] += 1e-3
        return fit

    monkeypatch.setattr(pipeline, "ghive_fit", perturbed)
    error = run_one(FIT_SMALL)["error"]
    assert error is not None and "p_perp @ f_hat" in error


def test_a_nonzero_cli_exit_fails_the_op(run_one, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    for name in ("study", "cli-roundtrip"):
        error = run_one(workloads.WORKLOADS[name])["error"]
        assert error is not None and "exit" in error


def test_a_reference_mismatch_fails_the_op(run_one):
    ref = json.loads((BENCH_DIR / "refs" / "fit-small.json").read_text())["entries"][0]
    ref["bernoulli"]["ci"][0] *= 1.0 + 1e-4
    error = run_one(FIT_SMALL, ref=ref)["error"]
    assert error is not None and "bernoulli" in error
    ref = json.loads((BENCH_DIR / "refs" / "fit-small.json").read_text())["entries"][0]
    ref["poisson"]["k_hat"] += 1
    assert "k_hat" in run_one(FIT_SMALL, ref=ref)["error"]


def test_an_exception_fails_the_op_without_ending_the_run(run_one, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(qml, "fit_naive_mle", broken)
    assert "singular" in run_one(FIT_SMALL)["error"]


# ---------------------------------------------------------------------------
# tracer


def test_traced_op_records_spans_and_restores_bindings(run_one):
    before = (pipeline.ghive_fit, qml.weighted_gram, cli.main)
    t = tracer.Tracer()
    assert run_one(FIT_SMALL, tracer_=t)["error"] is None
    assert (pipeline.ghive_fit, qml.weighted_gram, cli.main) == before
    metrics = t.metrics(1)
    assert set(metrics) == set(tracer.METRICS)
    assert metrics["qml.gram_s"] > 0 and metrics["families.calls"] > 0
    assert 0 < metrics["qml.accept_frac"] <= 1


def test_a_missing_traced_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(qml, "weighted_gram")
    for task in tracer.REPLICATE_TASKS:
        monkeypatch.delattr(f"ghive.experiments.{task}")
    metrics = tracer.Tracer().metrics(1)
    assert isinstance(metrics["qml.gram_s"], tracer.Absent)
    assert "weighted_gram" in metrics["qml.gram_s"]
    assert isinstance(metrics["experiments.replicates"], tracer.Absent)
    assert metrics["qml.busy_s"] == 0.0
    assert harness._metric_json(metrics["qml.gram_s"], "s")["value"] is None


# ---------------------------------------------------------------------------
# plan, metrics and the spec


def test_plan_depends_on_the_seed_and_length_only():
    assert workloads.plan(FIT_SMALL, 7, 15) == workloads.plan(FIT_SMALL, 7, 15)
    assert workloads.plan(FIT_SMALL, 7, 15) != workloads.plan(FIT_SMALL, 8, 15)
    warm, timed = workloads.plan(FIT_SMALL, 7, 15)
    assert len(timed) == round(15 / FIT_SMALL.nominal_op_s)
    assert warm not in timed
    assert workloads.plan(FIT_SMALL, 7, 15, traced=True)[1] == timed[: len(timed) // 2]


def test_tail_latency_keeps_ten_ops_beyond_it():
    walls = [float(i) for i in range(1, 41)]
    assert harness.tail_latency(walls) == (30.0, 75.0)
    assert harness.tail_latency(walls[:15]) == (8.0, 50.0)
    assert harness.tail_latency(walls[:20]) == (10.5, 50.0)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    per_layer = {name: unit for name, (unit, _) in tracer.METRICS.items()}
    per_layer.update(harness.PROCESS_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer
    better = {name: b for name, (_, b) in tracer.METRICS.items()}
    assert all(better.get(m["name"], m["better"]) == m["better"] for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
