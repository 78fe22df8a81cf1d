"""Golden outputs, regenerated and compared with the files recorded in
``tests/golden/``:

* the study: ``ghive reproduce`` of table1 (``--reps 20``), fig1-bias
  (``--reps 2``) and fig2-n (``--reps 5``), all at ``--seed 0``;
* table1's targets at ``--seed 0``: the projected oracle F* and the true
  theta entry its intervals cover (``experiments._targets``), which the
  CSVs carry only through the ``covered`` flags;
* one ``ghive fit`` document and one ``ghive infer --u e1 --v e1`` document
  per family, on a simulated dataset of odd n (so the two folds are two row
  counts).

In the CSVs every key column (grid point, estimator, rep, metric), every
count (``n_used``), ``failed``, and the numbers of the ``covered``,
``covered_theta``, ``k_hat`` and ``oracle_converged_frac`` metrics must match
exactly. In the JSON documents every int, bool, string and null (``k_hat``
and the split among them) must match exactly. Every other number must match
to the relative tolerance RTOL. A failure lists the largest relative
differences: of each (file, estimator, metric, column) of a CSV, and of each
field of a JSON document.

A change that moves numbers on purpose re-records the files with one BLAS
thread, and states the moved numbers the failure listed:

    export OPENBLAS_NUM_THREADS=1 PYTHONPATH=src
    python -m ghive.cli reproduce table1 --reps 20 --seed 0 --out tests/golden
    python -m ghive.cli reproduce fig1-bias --reps 2 --seed 0 --out tests/golden
    python -m ghive.cli reproduce fig2-n --reps 5 --seed 0 --out tests/golden
    python tests/test_golden.py  # table1_targets.json, fit_*.json, infer_*.json
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest

from ghive import SimConfig, cli, make_truth, sample_dataset
from ghive.data_io import save_matrix_csv, write_json_atomic
from ghive.experiments import _targets, experiment_spec

GOLDEN = Path(__file__).parent / "golden"

# The files are bit-identical with one or two BLAS threads on the machine
# that recorded them; the tolerance leaves room for another CPU's rounding.
RTOL = 1e-12

FLOAT_COLUMNS = ("value", "mean", "stderr")
EXACT_METRICS = ("covered", "covered_theta", "k_hat", "oracle_converged_frac")  # flags and counts

# The fit documents' datasets: n = 201 rows, so folds of 101 and 100. Each
# family's seed (truth, replicate and split) leaves every fold fit's gradient
# sup-norm more than 10x from qml.TOL, so no converged flag rests on a last bit.
FIT_CONFIG = {"n": 201, "p": 4, "m_dim": 8, "k": 3, "eta": 2.0}
FIT_SEEDS = {"gaussian": 0, "bernoulli": 21, "poisson": 283}


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _relative_difference(got, want) -> float:
    g, w = float(got), float(want)
    if g == w or (math.isnan(g) and math.isnan(w)):
        return 0.0
    return abs(g - w) / abs(w) if w else math.inf


def _largest_table(largest: dict) -> str:
    return "\n".join(
        f"{' '.join(key)}: {diff:.3g}"
        for key, diff in sorted(largest.items(), key=lambda kv: -kv[1])
    )


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
    assert max(largest.values()) <= RTOL, f"largest relative differences:\n{_largest_table(largest)}"


def _compare_json(got, want, field: str, largest: dict) -> None:
    """Walk two JSON values: floats go into ``largest`` by field (list
    positions dropped), everything else must be equal, type included."""
    if isinstance(want, float) and type(got) is float:
        largest[(field,)] = max(largest.get((field,), 0.0), _relative_difference(got, want))
    elif isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want), field
        for key in want:
            _compare_json(got[key], want[key], f"{field}.{key}".lstrip("."), largest)
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), field
        for g, w in zip(got, want):
            _compare_json(g, w, field, largest)
    else:
        assert (type(got), got) == (type(want), want), field


def _assert_matches_golden(out: Path, name: str) -> None:
    largest = {}
    got, want = (json.loads((d / name).read_text()) for d in (out, GOLDEN))
    _compare_json(got, want, "", largest)
    assert max(largest.values()) <= RTOL, f"{name}, largest relative differences:\n{_largest_table(largest)}"


def write_fit_documents(family: str, out: Path) -> None:
    """``fit_{family}.json`` and ``infer_{family}.json`` in ``out``, written
    by ``ghive fit`` and ``ghive infer --u e1 --v e1`` on CSVs of the
    family's FIT_CONFIG dataset."""
    cfg = SimConfig(family=family, seed=FIT_SEEDS[family], **FIT_CONFIG)
    data = sample_dataset(make_truth(cfg), cfg, rep_seed=cfg.seed)
    fit = str(out / f"fit_{family}.json")
    with tempfile.TemporaryDirectory() as tmp:
        x, y = f"{tmp}/x.csv", f"{tmp}/y.csv"
        save_matrix_csv(x, data.x)
        save_matrix_csv(y, data.y)
        data_args = ["--x", x, "--y", y]
        argv = ["fit", *data_args, "--family", family, "--seed", str(cfg.seed), "--out", fit]
        assert cli.main(argv) == 0
        argv = ["infer", "--fit", fit, *data_args, "--u", "e1", "--v", "e1"]
        assert cli.main(argv + ["--out", str(out / f"infer_{family}.json")]) == 0


def write_table1_targets(out: Path) -> None:
    """``table1_targets.json`` in ``out``: table1's targets at seed 0, one
    entry per grid point."""
    spec = experiment_spec("table1", seed=0)
    targets = [_targets(spec, gi)[1:] for gi in range(len(spec.grid))]
    doc = {
        "experiment": spec.name, "seed": spec.seed, "n_mc": spec.n_mc,
        "target_fstar": [fstar for fstar, _ in targets],
        "target_theta": [theta for _, theta in targets],
    }
    write_json_atomic(out / "table1_targets.json", doc)


@pytest.mark.parametrize("family", sorted(FIT_SEEDS))
def test_fit_and_infer_documents_match_the_golden_documents(family, tmp_path, capsys):
    write_fit_documents(family, tmp_path)
    capsys.readouterr()
    for kind in ("fit", "infer"):
        _assert_matches_golden(tmp_path, f"{kind}_{family}.json")


def test_table1_targets_match_the_golden_targets(tmp_path):
    write_table1_targets(tmp_path)
    _assert_matches_golden(tmp_path, "table1_targets.json")


if __name__ == "__main__":
    write_table1_targets(GOLDEN)
    for name in FIT_SEEDS:
        write_fit_documents(name, GOLDEN)
