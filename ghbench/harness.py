"""One benchmark run.

A run is a closed loop with one caller over a list of ops fixed before it
starts by the workload, the seed and ``--seconds`` (see
``workloads.plan``).  Each op's input is generated just before it, outside
the timed region, and every output is checked before the next op; a raised
exception or a failed check counts the op as failed and the run goes on.

Set-up time is measured in fresh interpreters (``--setup-probe``), each
running one untimed warm-up op, so the timed loop never pays for start-up.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
the plan is halved, every op runs twice on the same input, untraced and then
traced (see tracer.py), and the run prints the per-layer metrics.  Either
way the last stdout line is one JSON object, and a JSON record of the run
(environment, machine load, every op's latency) is written to
``ghbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from run import THREAD_VARS
from speed import REFERENCE_S, SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_RUNS = 3  # set-up is measured this many times; setup_s is the median
TAIL_BEYOND = 10  # latency_tail_s: highest percentile with this many ops beyond it
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PROCESS_METRICS = {
    "cli.startup_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def _clock():
    # CLOCK_MONOTONIC is shared by all processes, so set-up probes can be
    # timed from before their interpreter starts.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_ghive():
    """Import ghive from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import ghive
        import ghive.cli  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import ghive from {SRC}: {exc}") from None
    found = Path(ghive.__file__).resolve().parent
    if found != (SRC / "ghive").resolve():
        raise BenchError(f"ghive was imported from {found}, not from {SRC / 'ghive'}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ghive benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", type=int, metavar="ENTRY",
        help="internal: time start-up plus one op on pool entry ENTRY, then exit",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# run record


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(path):
    digest = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for f in files:
        digest.update(f.relative_to(path).as_posix().encode() + b"\0")
        digest.update(f.read_bytes() + b"\0")
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(),
        "src_sha256": tree_sha256(SRC / "ghive"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in (*THREAD_VARS, "GHIVE_THREADS")},
    }


def machine_state():
    """Load average and CPU steal ticks (read-only), to spot noisy runs."""
    try:
        with open("/proc/stat") as fh:
            steal = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        steal = None
    return {"time": time.time(), "loadavg": list(os.getloadavg()), "steal_ticks": steal}


def schema_validators():
    import jsonschema

    out = {}
    for key, name in (("fit", "fit_result"), ("inference", "inference_result")):
        schema = json.loads((SRC / "ghive" / "schemas" / f"{name}.schema.json").read_text())
        out[key] = jsonschema.Draft202012Validator(schema).validate
    return out


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload, entry):
    """Child side of a set-up measurement: import ghive, make the first
    input and run one op; report the clock after the import and after the
    op, and the speed kernel timed around the op (outside the set-up)."""
    import workloads

    imported = _clock()
    speed = SpeedProbe(workloads.kernel_passes(workload))
    work = workloads.fresh_dir(OUT / f"probe-{os.getpid()}")

    def first_op():
        inputs = workload.prepare(entry, work)
        workload.run(inputs, entry, workloads.fresh_dir(work / "output"))

    try:
        _, op_s, _, kernel = speed.timed(first_op)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"imported": imported, "op_s": op_s, "kernel_s": kernel}))
    return 0


def measure_setup(workload, entry):
    """Raw seconds from start-up to ``import ghive.cli`` and to the end of
    one op, plus the factor that scales them to reference speed."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload.name,
           "--seed", "0", "--setup-probe", str(entry)]
    start = _clock()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    startup = times["imported"] - start
    return {
        "startup_s": startup,
        "setup_s": startup + times["op_s"],
        "scale": REFERENCE_S / times["kernel_s"],
    }


# ---------------------------------------------------------------------------
# ops


def _error_text(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()[:500]


def execute(workload, inputs, entry, ref, validators, work, speed, tracer=None, op_id=0):
    """Run one op (timed) and check its output (untimed)."""
    import workloads

    outdir = workloads.fresh_dir(work / "output")
    gc.collect()

    def attempt():
        cpu0 = time.process_time()
        try:
            with tracer.op(op_id) if tracer else contextlib.nullcontext():
                out, error = workload.run(inputs, entry, outdir), None
        except Exception as exc:  # the run goes on; the op counts as failed
            out, error = None, _error_text(exc)
        return out, error, time.process_time() - cpu0

    (out, error, cpu), wall, scaled, kernel = speed.timed(attempt)
    if error is None:
        try:
            workload.check(inputs, out, validators)
            workloads.compare(workload.summary(inputs, out), ref, f"entry {entry}")
        except Exception as exc:  # a check that cannot run is a failed check
            error = _error_text(exc)
    return {
        "entry": entry, "wall_s": wall, "scaled_s": scaled, "kernel_s": kernel,
        "cpu_s": cpu, "error": error,
    }


def run_op(workload, entry, refs, validators, work, speed, tracer, op_id):
    """One op on a fresh input: untraced, then traced if a tracer is given."""
    import workloads

    inputs = workload.prepare(entry, workloads.fresh_dir(work / "input"))
    args = (workload, inputs, entry, refs[entry], validators, work, speed)
    untraced = execute(*args)
    traced = execute(*args, tracer, op_id) if tracer else None
    return untraced, traced


# ---------------------------------------------------------------------------
# metrics


def tail_latency(walls):
    """(latency, percentile): the highest percentile with TAIL_BEYOND ops
    beyond it; runs too short for that report the median as the tail."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(ops, setups):
    """End-to-end metrics; times are at reference speed (see speed.py)."""
    times = [o["scaled_s"] if o["error"] is None else math.inf for o in ops]
    done = sum(o["error"] is None for o in ops)
    tail, percentile = tail_latency(times)
    metrics = {
        "ops_per_s": done / sum(o["scaled_s"] for o in ops),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail,
        "setup_s": statistics.median(s["setup_s"] * s["scale"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"tail_percentile": percentile, "ops": len(times)}


def per_layer(tracer, ops, traced, setups):
    metrics = tracer.metrics(len(traced))
    metrics["cli.startup_s"] = statistics.median(s["startup_s"] for s in setups)
    metrics["process.cpu_s"] = sum(o["cpu_s"] for o in ops) / len(ops)
    metrics["trace.overhead_frac"] = (
        sum(o["scaled_s"] for o in traced) / sum(o["scaled_s"] for o in ops) - 1.0
    )
    return metrics


def _metric_json(value, unit):
    from tracer import Absent

    if isinstance(value, Absent):
        return {"value": None, "unit": unit, "absent": str(value)}
    return {"value": value if math.isfinite(value) else None, "unit": unit}


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    try:
        import_ghive()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import METRICS, Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return setup_probe(workload, args.setup_probe)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    warm_entry, entries = workloads.plan(workload, args.seed, args.seconds, bool(args.trace))
    refs = json.loads((BENCH_DIR / "refs" / f"{workload.name}.json").read_text())["entries"]
    validators = schema_validators()
    record = {
        "args": vars(args),
        "environment": environment(),
        "machine_start": machine_state(),
        "warm_up_entry": warm_entry,
        "entries": entries,
    }
    speed = SpeedProbe(workloads.kernel_passes(workload))
    try:
        setups = [measure_setup(workload, warm_entry) for _ in range(SETUP_RUNS)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["setup_runs"] = setups

    tracer = Tracer() if args.trace else None
    work = workloads.fresh_dir(OUT / f"work-{os.getpid()}")
    try:
        warm = run_op(workload, warm_entry, refs, validators, work, speed, None, -1)[0]
        ops, traced = [], []
        for op_id, entry in enumerate(entries):
            untraced_op, traced_op = run_op(
                workload, entry, refs, validators, work, speed, tracer, op_id
            )
            ops.append(untraced_op)
            if traced_op is not None:
                traced.append(traced_op)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["machine_end"] = machine_state()
    record["warm_up"] = warm
    record["ops"] = ops
    record["traced_ops"] = traced

    executions = ops + traced
    failed = sum(o["error"] is not None for o in executions) + (warm["error"] is not None)
    if args.trace:
        metrics = per_layer(tracer, ops, traced, setups)
        units = {name: unit for name, (unit, _) in METRICS.items()} | PROCESS_METRICS
        record["counters"] = tracer.totals()
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.save(spans_path)
        record["spans"] = spans_path.name
    else:
        metrics, record["latency_tail"] = end_to_end(ops, setups)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: _metric_json(metrics[name], unit) for name, unit in units.items()},
    }
    record["result"] = result
    record_path = OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for o in executions + [warm]:
        if o["error"] is not None:
            print(f"FAILED entry {o['entry']}: {o['error']}")
    for name, m in result["metrics"].items():
        shown = m.get("absent") or ("n/a" if m["value"] is None else f"{m['value']:.6g}")
        print(f"{name:<28} {shown} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
