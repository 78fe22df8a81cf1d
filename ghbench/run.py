"""Benchmark entry point; run it from the repository root:

    python3 ghbench/run.py --workload fit-small --seed 1 --seconds 15 --trace 0

BLAS and OpenMP pools are pinned to one thread and GHIVE_THREADS is cleared
here, before anything imports numpy, so every run measures the serial code
path on one core.  See harness.py for what a run does.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """One BLAS/OpenMP thread and ghive's serial path; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GHIVE_THREADS", None)


if __name__ == "__main__":
    pin_threads()
    from harness import main

    sys.exit(main())
