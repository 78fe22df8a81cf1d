#!/usr/bin/env python3
"""Time REV's code against this checkout's in one process, on the same
inputs, and count each side's page faults and solver work.

    python scripts/ab.py REV [--workload fit-small] [--pairs 20] [--first 0]

Unpacks ``git archive REV src`` into a temporary directory, as
scripts/moved.py does, imports its ``ghive`` as ``ghive_alt`` (the package
uses only relative imports), and imports ghbench's ``workloads.py`` (never
changed) once more with ``ghive`` standing for REV's. Threads are pinned
as ghbench/run.py pins them.

Each pair runs the workload's op once on each side, on one pool entry and
one input: this checkout's ``prepare`` makes it, and REV's side gets each
dataset as REV's own ``Dataset`` of the same arrays. Which side runs first,
and so meets the heap the other side's op left, alternates from pair to
pair. Each op starts as a benchmark op does: ``gc.collect()``, then the
speed kernel right before and right after it, outside its measured CPU
time and minor page faults (the ``ru_minflt`` delta). One warm-up op per
side comes first; the pairs then cycle through the pool from ``--first``.
Every output is checked by the workload's ``check`` and against its
ghbench reference. An untimed pass per side then runs the op once more on
each entry with that side's ``qml.quasi_objective``, ``qml.loglik_objective``
and ``qml._ascent_block`` wrapped, and counts the objective calls, the
coefficient rows they evaluated (starts and line-search candidates), those
rows times their design rows, and the block-iterations (Newton iterations
summed over the op's blocks).

It prints, per side, the median and quartiles of op CPU
(``time.process_time``), the failed checks, and the medians of the minor
faults, of each count and of the CPU per block-iteration, which the
solver's fixed cost per iteration moves. Fit-small faults follow the
allocator's trim state, which changes from process to process: read them
only as a pair. Last come the median paired ratio of this checkout's CPU
over REV's and the pairs this checkout was faster in. Nothing is gated.
``REV = HEAD`` on a clean checkout checks the method: the ratio should read
about 1, the wins about half the pairs, the counts the same on both sides.
Measured so on a 2-core Intel Xeon VM with one BLAS thread: fit-small
0.999-1.001 over 20-40 pairs, study 1.004 over 16, but cli-roundtrip
0.95-0.98 over 8-12 pairs in seven runs, a side bias that changes from
process to process; read a cli-roundtrip ratio beside such checks.
Few pairs resolve no few-percent effect: on the same VM, HEAD-against-HEAD
runs of 12 fit-small pairs read 0.955-1.013 (this checkout "faster" in 10
of 12 pairs in one of them), and of 4 fit-large pairs 0.927-1.092. So a
ratio from CI's 4 and 12 pairs is only a sign; a claim needs 20 or more
pairs.
"""

import argparse
import gc
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "ghbench")]

import run  # noqa: E402

run.pin_threads()  # before numpy loads

import harness  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from ghive.data_io import Dataset  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ALT = "ghive_alt"


def import_alt(src):
    """The ``workloads`` module run against the ``ghive`` package in ``src``,
    imported as ``ghive_alt`` with every module of it loaded."""
    spec = importlib.util.spec_from_file_location(
        ALT, src / "ghive" / "__init__.py", submodule_search_locations=[str(src / "ghive")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[ALT] = package
    spec.loader.exec_module(package)
    for path in sorted((src / "ghive").glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{ALT}.{path.stem}")
    # workloads.py imports ``ghive``: let that name stand for REV's package
    # while a second copy of it is imported, then give it back
    alt = {name.replace(ALT, "ghive", 1): module
           for name, module in sys.modules.items() if name == ALT or name.startswith(ALT + ".")}
    own = {name: sys.modules[name] for name in alt if name in sys.modules}
    sys.modules.update(alt)
    try:
        spec = importlib.util.spec_from_file_location("workloads_alt", ROOT / "ghbench" / "workloads.py")
        alt_workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(alt_workloads)
    finally:
        for name in alt:
            del sys.modules[name]
        sys.modules.update(own)
    if Path(alt_workloads.pipeline.__file__).parent != src / "ghive":
        sys.exit(f"REV's workloads run {alt_workloads.pipeline.__file__}, not {src / 'ghive'}")
    return alt_workloads


def as_alt(value, dataset):
    """``value`` with each of this checkout's datasets remade as ``dataset``
    (REV's class) of the same arrays, through lists and tuples."""
    if isinstance(value, Dataset):
        return dataset(value.x, value.y)
    if isinstance(value, (list, tuple)):
        return type(value)(as_alt(v, dataset) for v in value)
    return value


def checker(module, src, refs):
    """The check of an op's output: the workload's own, with the document
    schemas of the package in ``src``, and the comparison with its ghbench
    reference, by ``module``'s rule."""
    own, harness.SRC = harness.SRC, src
    try:
        schemas = harness.schema_validators()
    finally:
        harness.SRC = own

    def check(workload, inputs, entry, out):
        workload.check(inputs, out, schemas)
        module.compare(workload.summary(inputs, out), refs[entry], f"entry {entry}")
    return check


def timed_op(workload, inputs, entry, work, speed, check):
    """CPU seconds and minor page faults of one op, and whether its output
    passed ``check``."""
    outdir = workloads.fresh_dir(work / "output")
    gc.collect()
    speed.kernel_s()
    minflt, cpu = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
    out = workload.run(inputs, entry, outdir)
    cpu = time.process_time() - cpu
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
    speed.kernel_s()
    try:
        check(workload, inputs, entry, out)
    except Exception:  # a check that cannot run is a failed check
        return cpu, minflt, False
    return cpu, minflt, True


def solver_work(qml, run_op, entries):
    """Per entry, the objective calls of ``run_op(entry)``, their coefficient
    rows, those rows times their design rows, and its block-iterations (the
    ``path`` of ``qml._ascent_block`` has a column per iteration after its
    start), with the block and the kernels it reads by name wrapped."""
    counts = []

    def wrapped(name, kernel):
        def wrapper(*args, **kwargs):
            out = kernel(*args, **kwargs)
            if name == "_ascent_block":
                counts[-1][3] += out[4].shape[1] - 1
            else:  # args are x, y, family, coef, ...
                rows = int(np.prod(np.shape(args[3])[:-1]))
                counts[-1] += (1, rows, rows * args[0].shape[-2], 0)
            return out
        return wrapper

    kernels = {name: getattr(qml, name) for name in ("quasi_objective", "loglik_objective", "_ascent_block")}
    try:
        for name, kernel in kernels.items():
            setattr(qml, name, wrapped(name, kernel))
        for entry in entries:
            counts.append(np.zeros(4, dtype=int))
            run_op(entry)
    finally:
        for name, kernel in kernels.items():
            setattr(qml, name, kernel)
    return dict(zip(entries, counts))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", default="fit-small", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--first", type=int, default=0, help="pool entry of the first pair")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    name = args.workload
    refs = json.loads((ROOT / "ghbench" / "refs" / f"{name}.json").read_text())["entries"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev, "src"], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        alt_workloads = import_alt(tmp / "src")
        sides = {
            label: (module, module.WORKLOADS[name], checker(module, src, refs))
            for label, module, src in (("REV", alt_workloads, tmp / "src"), ("this", workloads, ROOT / "src"))
        }
        convert = {"REV": lambda v: as_alt(v, alt_workloads.pipeline.Dataset), "this": lambda v: v}
        speed = SpeedProbe(workloads.kernel_passes(workloads.WORKLOADS[name]))
        work = tmp / "work"

        def prepare(entry):
            return workloads.WORKLOADS[name].prepare(entry, workloads.fresh_dir(work / "input"))

        ops = {label: [] for label in sides}  # (CPU, faults, passed) per pair, the warm-up first
        pool = workloads.WORKLOADS[name].pool
        entries = [pool - 1] + [(args.first + i) % pool for i in range(args.pairs)]
        for pair, entry in enumerate(entries):  # the first pair is the warm-up
            inputs = prepare(entry)
            for label in ("REV", "this") if pair % 2 else ("this", "REV"):
                _, workload, check = sides[label]
                ops[label].append(timed_op(workload, convert[label](inputs), entry, work, speed, check))
            del inputs
        counted = {
            label: solver_work(module.qml, lambda entry: workload.run(
                convert[label](prepare(entry)), entry, workloads.fresh_dir(work / "output")
            ), sorted(set(entries[1:])))
            for label, (module, workload, _) in sides.items()
        }
    ratios = [b[0] / a[0] for a, b in zip(ops["REV"][1:], ops["this"][1:])]
    print(f"{name}: {args.pairs} alternating pairs, entries from {args.first}, op CPU in ms")
    for label, text in (("REV", args.rev), ("this", "this checkout")):
        cpus, faults, passed = zip(*ops[label][1:])
        low, mid, high = (1e3 * v for v in statistics.quantiles(cpus, n=4))
        counts = [counted[label][entry] for entry in entries[1:]]
        calls, rows, elements, iters = (statistics.median(c) for c in zip(*counts))
        each = statistics.median(cpu / max(c[3], 1) for cpu, c in zip(cpus, counts))
        print(f"  {text:16} median {mid:8.2f}, quartiles {low:8.2f} - {high:8.2f}, "
              f"{passed.count(False)} of {args.pairs} ops failed their checks;\n  {'':16} medians "
              f"{statistics.median(faults):.1f} minor faults, {calls:.1f} objective calls on "
              f"{rows:.1f} rows ({elements:,.1f} row elements), {iters:.1f} block-iterations, "
              f"{each * 1e6:.1f} us CPU each")
    print(f"  this checkout / {args.rev}: median paired ratio {statistics.median(ratios):.4f}, "
          f"faster in {sum(r < 1.0 for r in ratios)} of {len(ratios)} pairs")


if __name__ == "__main__":
    main()
