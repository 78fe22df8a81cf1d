"""scripts/moved.py's report: ``compare`` on small synthetic cases, in process."""

import importlib.util
from pathlib import Path

import numpy as np

import test_golden

_SPEC = importlib.util.spec_from_file_location(
    "moved", Path(__file__).resolve().parent.parent / "scripts" / "moved.py"
)
moved = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(moved)

INDENT = "\n" + " " * 34


def _line(case, group, *notes):
    return f"{case:20} {group:12} " + INDENT.join(notes)


def test_compare_reports_each_kind_of_move_once():
    f_hat = np.array([[1.0, 2.0], [3.0, 4.0], [19.0, 5.0]])
    f_moved = f_hat.copy()
    f_moved[0, 1] = 2.5  # off the ball: abs 0.5, rel 0.25
    f_moved[2, 0] = 19.5  # on the ball in REV only: abs 0.5, rel 0.5 / 19
    covered = np.array([[0, 0, 1.0, 0], [0, 1, 1.0, 0], [1, 0, np.nan, 1]])
    covered_moved = covered.copy()
    covered_moved[1, 2] = 0.0
    ci = np.array([[-1.0, 1.0], [np.nan, np.nan]])
    spec = "ExperimentSpec(name='table1', n=200, reps=1000)"
    base = {
        ("same", "gaussian"): ({"f_hat": f_hat, "converged": np.array([True, False])},
                               {"f_hat": np.zeros(3, bool)}),
        ("fit", "bernoulli"): (
            {"f_hat": f_hat, "converged": np.array([True, True, False]),
             "ci": ci, "ci_error": np.array(["", "LinAlgError"])},
            {"f_hat": np.array([False, False, True])},
        ),
        ("table1 seed 0", "ghive"): ({"covered": covered}, {}),
        ("specs table1", "desk"): ({"defaults": np.array([spec])}, {}),
        ("gone", "poisson"): ({"f_hat": f_hat}, {}),
    }
    head = {
        ("same", "gaussian"): base[("same", "gaussian")],
        ("fit", "bernoulli"): (
            {"f_hat": f_moved, "converged": np.array([True, False, False]),
             "ci": ci.copy(), "ci_error": np.array(["NumericalError", "LinAlgError"])},
            {"f_hat": np.zeros(3, bool)},
        ),
        ("table1 seed 0", "ghive"): ({"covered": covered_moved}, {}),
        ("specs table1", "desk"): ({"defaults": np.array([spec.replace("1000", "100")])}, {}),
        ("new", "poisson"): ({"f_hat": f_hat}, {}),
    }
    assert moved.compare(base, head) == [
        _line("same", "gaussian", "bit-equal"),
        _line(
            "fit", "bernoulli",
            "f_hat: max abs 0.5, max rel 0.25 (1 of 2 rows moved)",
            "f_hat on the ball (1 rows): max abs 0.5, max rel 0.0263 (1 of 1 rows moved)",
            "converged: 2 -> 1 of 3 (1 flags flip)",
            # the NaN ends of a failed interval are bit-equal, so ci did not move
            "ci_error: none -> NumericalError (1 rows)",
        ),
        _line(
            "table1 seed 0", "ghive",
            "covered: max abs 1, max rel 1 (1 of 3 rows moved)",
            "grid point 0 rep 1: covered 1 -> 0",
        ),
        _line(
            "specs table1", "desk",
            # both texts from 20 characters before the first that differs
            "defaults: from character 25, \"e1', n=200, reps=1000)\" -> \"e1', n=200, reps=100)\"",
        ),
        _line("gone", "poisson", "only in REV"),
        _line("new", "poisson", "only in this tree"),
    ]


def test_the_golden_inputs_are_read_as_test_golden_holds_them():
    assert moved._golden_inputs() == (test_golden.FIT_CONFIG, test_golden.FIT_SEEDS)
