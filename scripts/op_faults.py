#!/usr/bin/env python3
"""Print the minor page faults and the CPU time of warm benchmark ops.

Runs ops of one ghbench workload in this process the way the benchmark's
timed loop does (see ghbench/harness.py): one warm-up op, then for each op
its input is made outside the measured region, ``gc.collect()`` runs, and
the benchmark's speed kernel runs right before and right after the op, so
each op starts from the heap a benchmark op starts from. Threads are pinned
as ghbench/run.py pins them. Each line gives an op's pool entry, its minor
page faults (the ``ru_minflt`` delta), its CPU seconds and its work: the
calls of the objective kernels (``qml.quasi_objective`` and
``qml.loglik_objective``), the coefficient rows they evaluated (the starts
and every line-search candidate) and those rows times their design rows;
then its block-iterations, the Newton iterations run summed over its
``qml._ascent_block`` calls, and its CPU per block-iteration, the figure
the solver's fixed cost per iteration moves. The work comes from a second,
untimed pass over the same entries with the kernels and the block wrapped,
so the timed ops run unwrapped. The last line gives the medians. Outputs
are not checked, and nothing is gated.

    python scripts/op_faults.py [--workload fit-large] [--ops 4] [--first 0]
"""

import argparse
import gc
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "ghbench")]

import run  # noqa: E402

run.pin_threads()  # before numpy loads

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from ghive import qml  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fit-large", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--ops", type=int, default=4)
    parser.add_argument("--first", type=int, default=0, help="pool entry of the first op")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    speed = SpeedProbe(workloads.kernel_passes(workload))
    entries = [(args.first + i) % workload.pool for i in range(args.ops)]
    faults, cpus = [], []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for op, entry in enumerate([workload.pool - 1, *entries]):  # the first is the warm-up
            inputs = workload.prepare(entry, workloads.fresh_dir(work / "input"))
            outdir = workloads.fresh_dir(work / "output")
            gc.collect()
            speed.kernel_s()
            minflt, cpu = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
            out = workload.run(inputs, entry, outdir)
            cpu = time.process_time() - cpu
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            speed.kernel_s()
            del out, inputs
            if op:
                faults.append(minflt)
                cpus.append(cpu)
        counts = objective_work(workload, entries, work)
    per_iter = [cpu / max(count[3], 1) for cpu, count in zip(cpus, counts)]
    for entry, minflt, cpu, (calls, rows, elements, iters), each in zip(
        entries, faults, cpus, counts, per_iter
    ):
        print(f"{args.workload} entry {entry:3d}: {minflt:7d} minor faults, {cpu * 1e3:8.1f} ms CPU, "
              f"{calls:4d} objective calls on {rows:6d} rows ({elements:9d} row elements), "
              f"{iters:4d} block-iterations, {each * 1e6:7.1f} us CPU each")
    calls, rows, elements, iters = (statistics.median(c) for c in zip(*counts))
    print(f"{args.workload} median of {len(cpus)} ops: {statistics.median(faults):9.1f} "
          f"minor faults, {statistics.median(cpus) * 1e3:8.1f} ms CPU, {calls:6.1f} objective "
          f"calls on {rows:8.1f} rows ({elements:11.1f} row elements), {iters:6.1f} "
          f"block-iterations, {statistics.median(per_iter) * 1e6:7.1f} us CPU each")


def objective_work(workload, entries, work):
    """Per op of ``entries``: the objective-kernel calls, the coefficient rows
    they evaluated, those rows times the rows of their design and the
    block-iterations, counted by wrapping the kernels that
    ``qml._ascent_block`` reads by name, and the block itself, whose ``path``
    has one column per iteration run after its start."""
    counts = []

    def counted(kernel):
        def wrapper(x, y, family, coef, *args, **kwargs):
            rows = int(np.prod(np.shape(coef)[:-1]))
            counts[-1] += (1, rows, rows * x.shape[-2], 0)
            return kernel(x, y, family, coef, *args, **kwargs)
        return wrapper

    def iterations(block):
        def wrapper(*args, **kwargs):
            out = block(*args, **kwargs)
            counts[-1][3] += out[4].shape[1] - 1
            return out
        return wrapper

    wrappers = {"quasi_objective": counted, "loglik_objective": counted, "_ascent_block": iterations}
    kernels = {name: getattr(qml, name) for name in wrappers}
    try:
        for name, kernel in kernels.items():
            setattr(qml, name, wrappers[name](kernel))
        for entry in entries:
            inputs = workload.prepare(entry, workloads.fresh_dir(work / "input"))
            counts.append(np.zeros(4, dtype=int))
            workload.run(inputs, entry, workloads.fresh_dir(work / "output"))
    finally:
        for name, kernel in kernels.items():
            setattr(qml, name, kernel)
    return [tuple(int(c) for c in count) for count in counts]


if __name__ == "__main__":
    main()
