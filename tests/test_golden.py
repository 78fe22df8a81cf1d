"""Golden study outputs: ``ghive reproduce`` of table1 (``--reps 20``),
fig1-bias (``--reps 2``) and fig2-n (``--reps 5``), all at ``--seed 0``,
regenerated and compared with the CSVs recorded in ``tests/golden/``.

Every key column (grid point, estimator, rep, metric), every count
(``n_used``), ``failed``, and the numbers of the ``covered``,
``covered_theta``, ``k_hat`` and ``oracle_converged_frac`` metrics must
match exactly; every other number must match to the relative tolerance
RTOL. A failure lists the largest relative difference of each (file,
estimator, metric, column).

A change that moves study numbers on purpose re-records the files with one
BLAS thread, and states the moved numbers the failure listed:

    export OPENBLAS_NUM_THREADS=1 PYTHONPATH=src
    python -m ghive.cli reproduce table1 --reps 20 --seed 0 --out tests/golden
    python -m ghive.cli reproduce fig1-bias --reps 2 --seed 0 --out tests/golden
    python -m ghive.cli reproduce fig2-n --reps 5 --seed 0 --out tests/golden
"""

import csv
import math
from pathlib import Path

import pytest

from ghive import cli

GOLDEN = Path(__file__).parent / "golden"

# The files are bit-identical with one or two BLAS threads on the machine
# that recorded them; the tolerance leaves room for another CPU's rounding.
RTOL = 1e-12

FLOAT_COLUMNS = ("value", "mean", "stderr")
EXACT_METRICS = ("covered", "covered_theta", "k_hat", "oracle_converged_frac")  # flags and counts


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _relative_difference(got: str, want: str) -> float:
    g, w = float(got), float(want)
    if g == w or (math.isnan(g) and math.isnan(w)):
        return 0.0
    return abs(g - w) / abs(w) if w else math.inf


@pytest.mark.parametrize("experiment, reps", [("table1", 20), ("fig1-bias", 2), ("fig2-n", 5)])
def test_the_study_reproduces_the_golden_outputs(experiment, reps, tmp_path, capsys):
    argv = ["reproduce", experiment, "--reps", str(reps), "--seed", "0", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    largest = {}
    for name in (f"{experiment}_long.csv", f"{experiment}_agg.csv"):
        got, want = _rows(tmp_path / name), _rows(GOLDEN / name)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert list(g) == list(w), name
            floats = () if w["metric"] in EXACT_METRICS else FLOAT_COLUMNS
            for column in w:
                if column in floats:
                    key = (name, w["estimator"], w["metric"], column)
                    largest[key] = max(largest.get(key, 0.0), _relative_difference(g[column], w[column]))
                else:
                    assert g[column] == w[column], (name, column, w)
    table = "\n".join(
        f"{' '.join(key)}: {diff:.3g}"
        for key, diff in sorted(largest.items(), key=lambda kv: -kv[1])
    )
    assert max(largest.values()) <= RTOL, f"largest relative differences:\n{table}"
