#!/usr/bin/env python3
"""Time REV's code against this checkout's, in one process, on the same inputs.

    python scripts/ab.py REV [--workload fit-small] [--pairs 20] [--first 0]

Unpacks ``git archive REV src`` into a temporary directory (local git, no
network), as scripts/moved.py does, imports its ``ghive`` under a second
package name, ``ghive_alt`` (the package uses only relative imports), and
imports ghbench's ``workloads.py`` (never changed) once more with ``ghive``
standing for REV's. Threads are pinned as ghbench/run.py pins them.

Each pair runs the workload's op once on each side, on one pool entry and
one input: this checkout's ``prepare`` makes it, and REV's side gets each
dataset as REV's own ``Dataset`` of the same arrays. Which side runs first
alternates from pair to pair. Each op starts as scripts/op_faults.py starts
one: ``gc.collect()``, then the benchmark's speed kernel right before and
right after it, outside the measured CPU time. One warm-up op per side
comes first; the pairs then cycle through the pool from ``--first``.
Every output is checked by the workload's ``check`` and against its ghbench
reference, and the ops that fail are counted per side.

It prints each side's median and quartiles of op CPU (``time.process_time``),
the median over pairs of this checkout's CPU over REV's, and in how many
pairs this checkout was faster. Nothing is gated. ``REV = HEAD`` on a clean
checkout checks the method: the ratio should read about 1, and the wins
about half the pairs. Measured so, on a 2-core Intel Xeon VM with one BLAS
thread: fit-small 0.999-1.001 over 20-40 pairs and study 1.004 over 16,
but cli-roundtrip 0.95-0.98 over 8-12 pairs in seven runs, a side bias
whose size changes from process to process; read a cli-roundtrip ratio
beside such checks.
"""

import argparse
import gc
import importlib.util
import json
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


def validators(src):
    """The fit and inference document schemas of the package in ``src``."""
    own = harness.SRC
    harness.SRC = src
    try:
        return harness.schema_validators()
    finally:
        harness.SRC = own


def checker(module, schemas, refs):
    """The check of an op's output: the workload's own, with ``schemas``, and
    the comparison with its ghbench reference, by ``module``'s rule."""
    def check(workload, inputs, entry, out):
        workload.check(inputs, out, schemas)
        module.compare(workload.summary(inputs, out), refs[entry], f"entry {entry}")
    return check


def timed_op(workload, inputs, entry, work, speed, check):
    """CPU seconds of one op, and whether its output passed ``check``."""
    outdir = workloads.fresh_dir(work / "output")
    gc.collect()
    speed.kernel_s()
    cpu = time.process_time()
    out = workload.run(inputs, entry, outdir)
    cpu = time.process_time() - cpu
    speed.kernel_s()
    try:
        check(workload, inputs, entry, out)
    except Exception:  # a check that cannot run is a failed check
        return cpu, False
    return cpu, True


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
            label: (module.WORKLOADS[name], checker(module, validators(src), refs))
            for label, module, src in (("REV", alt_workloads, tmp / "src"), ("this", workloads, ROOT / "src"))
        }
        convert = {"REV": lambda v: as_alt(v, alt_workloads.pipeline.Dataset), "this": lambda v: v}
        speed = SpeedProbe(workloads.kernel_passes(workloads.WORKLOADS[name]))
        work = tmp / "work"
        cpus = {label: [] for label in sides}
        failed = dict.fromkeys(sides, 0)
        pool = workloads.WORKLOADS[name].pool
        entries = [pool - 1] + [(args.first + i) % pool for i in range(args.pairs)]
        for pair, entry in enumerate(entries):  # the first pair is the warm-up
            inputs = workloads.WORKLOADS[name].prepare(entry, workloads.fresh_dir(work / "input"))
            order = ("REV", "this") if pair % 2 else ("this", "REV")
            for label in order:
                workload, check = sides[label]
                cpu, ok = timed_op(workload, convert[label](inputs), entry, work, speed, check)
                if pair:
                    cpus[label].append(cpu)
                    failed[label] += not ok
            del inputs
    ratios = [b / a for a, b in zip(cpus["REV"], cpus["this"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"{name}: {args.pairs} alternating pairs, entries from {args.first}, op CPU in ms")
    for label, text in (("REV", args.rev), ("this", "this checkout")):
        low, mid, high = (1e3 * v for v in statistics.quantiles(cpus[label], n=4))
        print(f"  {text:16} median {mid:8.2f}, quartiles {low:8.2f} - {high:8.2f}, "
              f"{failed[label]} of {args.pairs} ops failed their checks")
    print(f"  this checkout / {args.rev}: median paired ratio {statistics.median(ratios):.4f}, "
          f"faster in {wins} of {len(ratios)} pairs")


if __name__ == "__main__":
    main()
