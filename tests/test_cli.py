"""Command-line interface: artifacts, exit codes, error reporting."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import json_bits, replay_draw, small_sim_dataset
import ghive
from ghive import cli, data_io, experiments
from ghive.cli import main
from ghive.data_io import save_matrix_csv
from ghive.experiments import (
    DEFAULT_SEEDS,
    EXPERIMENT_NAMES,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from ghive.pipeline import DERIVED_TOL
from ghive.simulate import ORACLE_SALT, SimConfig, make_truth

# format-1 fit documents with their CSVs and the intervals `ghive infer`
# wrote for them when they were made: a gaussian data-driven fit and a
# bernoulli oracle-p fit, n=60, p=3, M=4
FIT_V1 = Path(__file__).parent / "data" / "fit_v1"


def _schema(name):
    from importlib.resources import files

    return json.loads(files("ghive").joinpath("schemas", name).read_text())


@pytest.fixture
def csv_data(tmp_path):
    data, _, _ = small_sim_dataset(n=50, p=3, m_dim=3, seed=16, rep_seed=4)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    save_matrix_csv(xp, data.x)
    save_matrix_csv(yp, data.y)
    return xp, yp


def _fit(tmp_path, csv_data, *extra):
    xp, yp = csv_data
    out = tmp_path / "fit.json"
    code = main(
        ["fit", "--x", str(xp), "--y", str(yp), "--family", "bernoulli",
         "--seed", "7", "--out", str(out), *extra]
    )
    return code, out


def test_fit_then_infer_happy_path(tmp_path, csv_data):
    code, fit_path = _fit(tmp_path, csv_data)
    assert code == 0
    doc = json.loads(fit_path.read_text())
    jsonschema.validate(doc, _schema("fit_result.schema.json"))
    assert doc["family"] == "bernoulli" and doc["k_hat"] >= 1

    xp, yp = csv_data
    out = tmp_path / "ci.json"
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
         "--u", "e1", "--v", "e1", "--out", str(out)]
    )
    assert code == 0
    ci = json.loads(out.read_text())
    jsonschema.validate(ci, _schema("inference_result.schema.json"))
    half = 0.5 * (ci["ci_hi"] - ci["ci_lo"])
    assert half == pytest.approx(1.959964 * ci["se"], abs=1e-5 * max(1.0, ci["se"]))
    assert ci["ci_lo"] <= ci["estimate"] <= ci["ci_hi"]


def test_identity_projector_reports_the_raw_coefficient(tmp_path, csv_data):
    proj = tmp_path / "projector.csv"
    save_matrix_csv(proj, np.eye(3))
    code, fit_path = _fit(tmp_path, csv_data, "--projector", str(proj))
    assert code == 0
    doc = json.loads(fit_path.read_text())
    assert doc["mode"]["kind"] == "oracle-p"
    assert np.allclose(doc["theta_hat"]["data"], doc["f_hat"]["data"], atol=1e-14)

    xp, yp = csv_data
    out = tmp_path / "ci.json"
    assert (
        main(["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
              "--u", "e1", "--v", "e1", "--out", str(out)])
        == 0
    )
    ci = json.loads(out.read_text())
    assert ci["estimate"] == pytest.approx(doc["theta_hat"]["data"][0][0], rel=1e-12)


def test_a_projector_file_that_is_not_a_projector_exits_two(tmp_path, csv_data, capsys):
    proj = tmp_path / "projector.csv"
    save_matrix_csv(proj, np.random.default_rng(0).standard_normal((3, 3)))
    code, fit_path = _fit(tmp_path, csv_data, "--projector", str(proj))
    assert code == 2
    assert "idempotent" in capsys.readouterr().err
    assert not fit_path.exists()


def test_fit_is_deterministic_across_invocations(tmp_path, csv_data):
    _, first = _fit(tmp_path, csv_data)
    body1 = first.read_bytes()
    _, second = _fit(tmp_path, csv_data)
    assert second.read_bytes() == body1


def test_fixed_factor_count_flag(tmp_path, csv_data):
    code, fit_path = _fit(tmp_path, csv_data, "--k", "2")
    assert code == 0
    doc = json.loads(fit_path.read_text())
    assert doc["k_hat"] == 2 and doc["mode"]["kind"] == "oracle-k"


def test_zero_factor_count_is_rejected_with_guidance(tmp_path, csv_data, capsys):
    code, _ = _fit(tmp_path, csv_data, "--k", "0")
    assert code == 2
    assert "--projector" in capsys.readouterr().err


def test_negative_seed_exits_two(tmp_path, csv_data, capsys):
    code, out = _fit(tmp_path, csv_data, "--seed", "-1")
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
def test_the_solver_stopping_rule_is_not_a_fit_option(tmp_path, csv_data, capsys, flag):
    code, out = _fit(tmp_path, csv_data, flag, "50")
    assert code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_fit_file_exits_two_with_the_path(tmp_path, csv_data, capsys):
    xp, yp = csv_data
    missing = tmp_path / "nowhere.json"
    code = main(
        ["infer", "--fit", str(missing), "--x", str(xp), "--y", str(yp),
         "--u", "e1", "--v", "e1", "--out", str(tmp_path / "o.json")]
    )
    assert code == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content",
    [("fit", b"1.0,2.0\n3.0,\xe9\n"), ("infer", b"{not json"), ("simulate", b"{not json"),
     ("simulate", b"[1, 2]")],
    ids=["fit-latin-1-csv", "infer-non-json-fit", "simulate-non-json-config",
         "simulate-json-list-config"],
)
def test_undecodable_or_non_json_input_exits_two_with_the_path(
    tmp_path, csv_data, capsys, command, content
):
    xp, yp = csv_data
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    out = tmp_path / "out.json"
    argv = {
        "fit": ["fit", "--x", str(bad), "--y", str(yp), "--family", "bernoulli"],
        "infer": ["infer", "--fit", str(bad), "--x", str(xp), "--y", str(yp),
                  "--u", "e1", "--v", "e1"],
        "simulate": ["simulate", "--config", str(bad)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(bad) in line
    assert not out.exists()


def test_malformed_csv_cell_is_located_in_the_error(tmp_path, capsys):
    xp = tmp_path / "x.csv"
    xp.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n")
    yp = tmp_path / "y.csv"
    save_matrix_csv(yp, np.zeros((3, 2)))
    code = main(
        ["fit", "--x", str(xp), "--y", str(yp), "--family", "gaussian",
         "--out", str(tmp_path / "f.json")]
    )
    assert code == 2
    assert "row 2, column 2" in capsys.readouterr().err


def test_malformed_cell_under_a_header_counts_the_header_as_row_one(tmp_path, capsys):
    xp = tmp_path / "x.csv"
    xp.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    yp = tmp_path / "y.csv"
    save_matrix_csv(yp, np.zeros((2, 2)))
    code = main(
        ["fit", "--x", str(xp), "--y", str(yp), "--family", "gaussian",
         "--out", str(tmp_path / "f.json")]
    )
    assert code == 2
    assert "row 3, column 2" in capsys.readouterr().err


def test_out_of_family_response_exits_two(tmp_path, capsys):
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    rng = np.random.default_rng(0)
    save_matrix_csv(xp, rng.standard_normal((20, 2)))
    save_matrix_csv(yp, np.full((20, 2), 2.0))  # not a 0/1 response
    code = main(
        ["fit", "--x", str(xp), "--y", str(yp), "--family", "bernoulli",
         "--out", str(tmp_path / "f.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: bernoulli response must be 0 or 1; found 2.0 at position (0, 0)\n"


def test_malformed_fit_json_exits_two(tmp_path, csv_data, capsys):
    code, fit_path = _fit(tmp_path, csv_data)
    assert code == 0
    doc = json.loads(fit_path.read_text())
    doc["mode"] = 3
    fit_path.write_text(json.dumps(doc))
    xp, yp = csv_data
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
         "--u", "e1", "--v", "e1", "--out", str(tmp_path / "ci.json")]
    )
    assert code == 2
    assert "mode" in capsys.readouterr().err


def test_fit_json_with_misshapen_matrices_exits_two(tmp_path, csv_data, capsys):
    _, fit_path = _fit(tmp_path, csv_data)
    doc = json.loads(fit_path.read_text())
    doc["p_perp"] = {"dims": [2, 2], "data": [[1.0, 0.0], [0.0, 1.0]]}
    fit_path.write_text(json.dumps(doc))
    xp, yp = csv_data
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
         "--u", "e1", "--v", "e1", "--out", str(tmp_path / "ci.json")]
    )
    assert code == 2
    assert "p_perp" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("k_hat", "abc"), ("k_hat", [1]), ("k_hat", 2.7), ("k_hat", True), ("family", 3),
     ("max_iter", 50.9), ("n", "60"), ("p", 3.9), ("m_dim", 2.5), ("seed", True),
     ("max_iter", None), ("tol", "1e-8"), ("tol", True)],
    ids=["k_hat-string", "k_hat-list", "k_hat-float", "k_hat-bool", "family-number",
         "max_iter-float", "n-string", "p-float", "m_dim-float", "seed-bool", "max_iter-null",
         "tol-string", "tol-bool"],
)
def test_fit_json_with_a_mistyped_field_exits_two(tmp_path, csv_data, capsys, field, value):
    _, fit_path = _fit(tmp_path, csv_data)
    doc = json.loads(fit_path.read_text())
    doc[field] = value
    fit_path.write_text(json.dumps(doc))
    xp, yp = csv_data
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
         "--u", "e1", "--v", "e1", "--out", str(tmp_path / "ci.json")]
    )
    assert code == 2
    assert field in capsys.readouterr().err


def test_fit_json_with_fractional_split_indices_exits_two(tmp_path, csv_data, capsys):
    _, fit_path = _fit(tmp_path, csv_data)
    doc = json.loads(fit_path.read_text())
    doc["split"]["d1"] = [i + 0.7 for i in doc["split"]["d1"]]
    fit_path.write_text(json.dumps(doc))
    xp, yp = csv_data
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
         "--u", "e1", "--v", "e1", "--out", str(tmp_path / "ci.json")]
    )
    assert code == 2
    assert "split.d1" in capsys.readouterr().err
    assert not (tmp_path / "ci.json").exists()


@pytest.mark.parametrize("wider", ["x", "y"])
def test_infer_on_data_of_other_dimensions_exits_two(tmp_path, csv_data, capsys, wider):
    _, fit_path = _fit(tmp_path, csv_data)
    paths = dict(zip("xy", csv_data))
    data = np.loadtxt(paths[wider], delimiter=",")
    paths[wider] = tmp_path / f"wide_{wider}.csv"
    save_matrix_csv(paths[wider], np.column_stack([data, data[:, :1]]))
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(paths["x"]), "--y", str(paths["y"]),
         "--u", "e1", "--v", "e1", "--out", str(tmp_path / "ci.json")]
    )
    assert code == 2
    assert "do not match" in capsys.readouterr().err
    assert not (tmp_path / "ci.json").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["fit", "--k", "abc"], "--k"),
        (["fit", "--k", "-3"], "--k"),
        (["fit", "--projector", "{tmp}/2x2.csv"], "2x2.csv"),
        (["fit", "--k", "2", "--projector", "{tmp}/eye3.csv"], "--k"),
        (["fit", "--k", "auto", "--projector", "{tmp}/eye3.csv"], "--projector"),
        (["fit", "--y", "{tmp}/short.csv"], "short.csv"),
        (["infer", "--u", "{tmp}/2x2.csv"], "--u"),
        (["infer", "--y", "{tmp}/half.csv"], "bernoulli response must be 0 or 1; found 0.5"),
    ],
    ids=["k-abc", "k-negative", "projector-shape", "k-with-projector", "auto-with-projector",
         "rows-differ", "u-length", "infer-out-of-family-y"],
)
def test_bad_arguments_exit_two_with_one_error_line_naming_them(
    tmp_path, csv_data, capsys, argv, named
):
    xp, yp = csv_data
    save_matrix_csv(tmp_path / "2x2.csv", np.eye(2))
    save_matrix_csv(tmp_path / "eye3.csv", np.eye(3))
    save_matrix_csv(tmp_path / "short.csv", np.loadtxt(yp, delimiter=",")[:-1])
    save_matrix_csv(tmp_path / "half.csv", 0.5 * np.loadtxt(yp, delimiter=","))
    command, *flags = argv
    if command == "fit":
        base = ["fit", "--x", str(xp), "--y", str(yp), "--family", "bernoulli"]
    else:
        _, fit_path = _fit(tmp_path, csv_data)
        base = ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
                "--u", "e1", "--v", "e1"]
    out = tmp_path / "out.json"
    capsys.readouterr()
    # argparse keeps the last value of a repeated flag
    assert main([*base, *(f.format(tmp=tmp_path) for f in flags), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and named in line
    assert not out.exists()


def test_direction_index_out_of_range_exits_two(tmp_path, csv_data, capsys):
    _, fit_path = _fit(tmp_path, csv_data)
    xp, yp = csv_data
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
         "--u", "e9", "--v", "e1", "--out", str(tmp_path / "o.json")]
    )
    assert code == 2
    assert "e9" in capsys.readouterr().err or "range" in capsys.readouterr().err


def test_direction_vectors_can_come_from_files(tmp_path, csv_data):
    _, fit_path = _fit(tmp_path, csv_data)
    xp, yp = csv_data
    upath, vpath = tmp_path / "u.csv", tmp_path / "v.csv"
    save_matrix_csv(upath, np.array([[1.0, 0.0, 0.0]]))
    save_matrix_csv(vpath, np.array([[0.0, 1.0, 0.0]]))
    out = tmp_path / "o.json"
    code = main(
        ["infer", "--fit", str(fit_path), "--x", str(xp), "--y", str(yp),
         "--u", str(upath), "--v", str(vpath), "--out", str(out)]
    )
    assert code == 0
    fit_doc = json.loads(fit_path.read_text())
    ci = json.loads(out.read_text())
    assert ci["estimate"] == pytest.approx(fit_doc["theta_hat"]["data"][0][1])


def _infer(fit_path, x, y, out, u="e1", v="e1"):
    return main(["infer", "--fit", str(fit_path), "--x", str(x), "--y", str(y),
                 "--u", u, "--v", v, "--out", str(out)])


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_v1_fit_documents_give_the_intervals_they_were_written_with(tmp_path, family):
    fit_path = FIT_V1 / f"{family}_fit.json"
    scale = max(1.0, np.abs(json.loads(fit_path.read_text())["f_hat"]["data"]).max())
    for u, v in (("e1", "e1"), ("e2", "e3")):
        out = tmp_path / "ci.json"
        x, y = FIT_V1 / f"{family}_x.csv", FIT_V1 / f"{family}_y.csv"
        assert _infer(fit_path, x, y, out, u, v) == 0
        got = json.loads(out.read_text())
        want = json.loads((FIT_V1 / f"{family}_ci_{u}_{v}.json").read_text())
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):  # bit for bit where the document was written
                assert got[key] == pytest.approx(value, rel=DERIVED_TOL, abs=DERIVED_TOL * scale)
            else:
                assert got[key] == value, key


def _edit(*path, to):
    """An edit setting the document entry at ``path`` to ``to(old value)``."""

    def apply(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = to(doc[last])

    return apply


@pytest.mark.parametrize(
    "base, edits, rows, field",
    [
        ("v1", [_edit("theta_hat", "data", 0, 0, to=lambda t: t + 100), _edit("k_hat", to=lambda k: 3),
                _edit("eigvals", to=lambda e: [9.0, 3.0, 1.0, 0.5])], None, "k_hat"),
        ("v2", [_edit("theta_hat", "data", 0, 0, to=lambda t: t + 100)], None, "theta_hat"),
        ("v1", [_edit("eigvals", to=lambda e: [9.0, 3.0, 1.0, 0.5])], None, "eigvals"),
        ("v2", [], 45, "n=60"),
        ("v1", [_edit("center", to=lambda c: "no")], None, "center"),
        ("v2", [_edit("k_hat", to=lambda k: 99)], None, "k_hat"),
        ("v2", [_edit("seed", to=lambda s: s + 1)], None, "split.d1"),
        ("v1", [_edit("split", "seed", to=lambda s: s + 1)], None, "split.seed"),
        ("v1", [_edit("eigvals", to=lambda e: "nine")], None, "malformed fit document"),
        ("v2", [_edit("split", "d1", to=lambda d: [0, 0, 0])], None, "split"),
        ("v2", [_edit("split", "d1", to=lambda d: [d[1], d[0]] + d[2:])], None, "split.d1"),
        ("v2", [_edit("split", "d1", to=lambda d: [2**70] + d[1:])], None, "split.d1"),
        ("v2", [_edit("theta_hat", "data", 1, 2, to=lambda t: float("nan"))], None, "theta_hat"),
        ("v1-oracle-p", [_edit("p_perp", "data", 0, 0, to=lambda t: float("nan"))], None, "p_perp"),
        ("v1-oracle-p", [_edit("theta_hat", "data", 0, 0, to=lambda t: t + 1e-3)], None, "theta_hat"),
        ("v1-oracle-p", [_edit("p_perp", "data", 0, 1, to=lambda t: t + 1e-3)], None, "p_perp"),
        ("v2", [_edit("tol", to=lambda t: 1e-6)], None, "tol"),
        ("v1", [_edit("max_iter", to=lambda m: 50)], None, "max_iter"),
        ("v2", [_edit("diagnostics", 0, "converged", to=lambda c: "no")], None, "converged"),
        ("v2", [_edit("diagnostics", 0, "response", to=float)], None, "response"),
        ("v2", [_edit("diagnostics", 1, "grad_norm", to=lambda g: "1e-3")], None, "grad_norm"),
        ("v2", [_edit("diagnostics", 0, "converged", to=lambda c: not c)], None, "converged"),
        ("v1", [_edit("diagnostics", 0, "converged", to=lambda c: False),
                _edit("diagnostics", 1, "grad_norm", to=lambda g: 5.0)], None, "converged"),
        ("v2", [_edit("f_hat", "dims", to=lambda d: d[:1])], None, "f_hat"),
        ("v2", [_edit("f_hat", "dims", to=lambda d: [d[0] + 0.7, d[1]])], None, "f_hat"),
        ("v2", [_edit("f_hat", "dims", to=lambda d: [True, d[1]])], None, "f_hat"),
        ("v2", [_edit("f_hat", "dims", to=lambda d: [d[0], d[1] - 1])], None, "declared dims"),
        ("v2", [_edit("f_hat", to=lambda f: {"data": f["data"]})], None,
         "f_hat: expected an object with dims and data"),
        ("v2", [_edit("f_hat", "data", 0, 0, to=str)], None, "f_hat must be an array of numbers"),
        ("v2", [_edit("mode", "kind", to=lambda k: "oracle-x")], None, "unknown fit mode"),
        ("v2", [_edit("diagnostics", to=lambda d: 7)], None,
         "records need response, fold, converged and grad_norm"),
        ("v2", [_edit("diagnostics", 2, to=lambda r: {"response": r["response"]})], None,
         "records need response, fold, converged and grad_norm"),
    ],
    ids=["theta-k_hat-eigvals", "theta", "eigvals", "fewer-rows", "center-string", "k_hat-99",
         "seed", "split-seed", "eigvals-text", "split-d1-repeated", "split-d1-unsorted",
         "split-d1-beyond-64-bits", "theta-nan",
         "oracle-p-nan", "oracle-p-theta", "oracle-p-not-a-projector", "tol-1e-6", "max_iter-50",
         "converged-string", "response-float", "grad_norm-string", "converged-flipped",
         "converged-contradicts-grad_norm", "f_hat-dims-one", "f_hat-dims-float",
         "f_hat-dims-bool", "f_hat-dims-mismatch", "f_hat-no-dims", "f_hat-text",
         "mode-kind-unknown", "diagnostics-number", "diagnostics-record-keys"],
)
def test_edited_fit_documents_exit_two_naming_the_field(tmp_path, capsys, base, edits, rows, field):
    family = "bernoulli" if base == "v1-oracle-p" else "gaussian"
    x, y = FIT_V1 / f"{family}_x.csv", FIT_V1 / f"{family}_y.csv"
    fit_path = tmp_path / "fit.json"
    if base == "v2":
        assert main(["fit", "--x", str(x), "--y", str(y), "--family", family, "--seed", "3",
                     "--out", str(fit_path)]) == 0
        doc = json.loads(fit_path.read_text())
        assert _infer(fit_path, x, y, tmp_path / "unedited.json") == 0
    else:
        doc = json.loads((FIT_V1 / f"{family}_fit.json").read_text())
    for edit in edits:
        edit(doc)
    fit_path.write_text(json.dumps(doc))
    if rows is not None:
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        for path, name in ((x, "x"), (y, "y")):
            save_matrix_csv(path, np.loadtxt(FIT_V1 / f"{family}_{name}.csv", delimiter=",")[:rows])
    capsys.readouterr()
    assert _infer(fit_path, x, y, tmp_path / "ci.json") == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "ci.json").exists()


@pytest.mark.parametrize("entry", ["1e200", "1e-200"])
def test_direction_files_with_huge_or_tiny_entries_give_the_basis_interval(
    tmp_path, entry, capsys
):
    x, y = FIT_V1 / "gaussian_x.csv", FIT_V1 / "gaussian_y.csv"
    upath = tmp_path / "u.csv"
    upath.write_text(f"{entry},0,0,0\n")
    assert _infer(FIT_V1 / "gaussian_fit.json", x, y, tmp_path / "file.json", u=str(upath)) == 0
    # one warning line, in the CLI's own format
    (line,) = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"warning: contrast u had norm \S+; renormalising to 1", line), line
    assert _infer(FIT_V1 / "gaussian_fit.json", x, y, tmp_path / "e1.json") == 0
    got, want = (json.loads((tmp_path / f"{n}.json").read_text()) for n in ("file", "e1"))
    assert got == want and got["u"] == [1.0, 0.0, 0.0, 0.0]


SIMULATE_ARGS = ["simulate", "--family", "bernoulli", "--n", "30", "--p", "3",
                 "--m", "3", "--k-true", "2", "--eta", "2", "--reps", "2",
                 "--seed", "4"]


def test_simulate_writes_reproducible_artifacts(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(SIMULATE_ARGS + ["--out", str(d1)]) == 0
    assert main(SIMULATE_ARGS + ["--out", str(d2)]) == 0
    metrics1 = (d1 / "simulate_long.csv").read_bytes()
    assert metrics1 == (d2 / "simulate_long.csv").read_bytes()
    assert b"frob_err" in metrics1 and b"proj_err" in metrics1
    assert (d1 / "simulate_agg.csv").read_bytes() == (d2 / "simulate_agg.csv").read_bytes()
    cfg_doc = json.loads((d1 / "simulate_config.json").read_text())
    cfg = SimConfig.from_json_dict(cfg_doc)
    assert cfg.n == 30 and cfg.reps == 2 and cfg.family == "bernoulli"


def test_simulate_is_a_one_point_experiment(tmp_path):
    assert main(SIMULATE_ARGS + ["--out", str(tmp_path / "cli")]) == 0
    cfg = SimConfig(n=30, p=3, m_dim=3, k=2, eta=2.0, family="bernoulli", seed=4, reps=2)
    spec = ExperimentSpec(name="simulate", grid=(cfg,), reps=2, seed=4)
    run_experiment(spec, out_dir=tmp_path / "lib")
    for name in ("simulate_long.csv", "simulate_agg.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_simulate_config_file_reproduces_the_flags(tmp_path):
    assert main(SIMULATE_ARGS + ["--out", str(tmp_path / "flags")]) == 0
    config = tmp_path / "flags" / "simulate_config.json"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "file")]) == 0
    for name in ("simulate_long.csv", "simulate_config.json"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_simulate_config_file_saved_with_a_utf8_bom_reproduces_the_flags(tmp_path):
    assert main(SIMULATE_ARGS + ["--out", str(tmp_path / "flags")]) == 0
    config = tmp_path / "bom.json"
    config.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "flags" / "simulate_config.json").read_bytes())
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "file")]) == 0
    for name in ("simulate_long.csv", "simulate_config.json"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_every_simulation_flag_reaches_its_field(tmp_path, capsys):
    # every flag off its default, and no two flags at one value
    flags = ["--family", "poisson", "--n", "31", "--p", "2", "--m", "4", "--k-true", "1",
             "--eta", "2.5", "--seed", "6", "--sigma-z-decay", "positive", "--reps", "3"]
    assert main(["simulate", *flags, "--out", str(tmp_path / "sim")]) == 0
    assert json.loads((tmp_path / "sim" / "simulate_config.json").read_text()) == {
        "n": 31, "p": 2, "m_dim": 4, "k": 1, "eta": 2.5, "family": "poisson", "seed": 6,
        "reps": 3, "sigma_z_decay": "positive",
    }
    capsys.readouterr()
    out = tmp_path / "oracle.json"  # --reps belongs to simulate alone
    assert main(["fstar-oracle", *flags[:-2], "--reps", "2", "--out", str(out)]) == 2
    assert "unrecognized arguments: --reps 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", ["--reps", "3"]),
        ("simulate", ["--family", "poisson", "--seed", "7"]),
        ("fstar-oracle", ["--n", "40"]),
        ("fstar-oracle", ["--sigma-z-decay", "positive"]),
    ],
)
def test_config_file_with_simulation_flags_exits_two(tmp_path, capsys, command, extra):
    config = tmp_path / "c.json"
    cfg = SimConfig(n=30, p=3, m_dim=3, k=2, eta=2.0, family="gaussian")
    config.write_text(json.dumps(cfg.to_json_dict()))
    out = tmp_path / "out.json" if command == "fstar-oracle" else tmp_path / "out"
    code = main([command, "--config", str(config), *extra, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--config" in err and extra[0] in err
    assert not out.exists()


def _with_eta(args, eta):
    i = args.index("--eta")
    return [*args[: i + 1], eta, *args[i + 2 :]]


@pytest.mark.parametrize(
    "argv, field",
    [
        (_with_eta(SIMULATE_ARGS, "nan"), "eta"),
        (_with_eta(SIMULATE_ARGS, "inf"), "eta"),
        (["fstar-oracle"], {"eta": float("nan")}),
        (["fstar-oracle"], {"n": "100"}),
        (["fstar-oracle"], {"family": 7}),
        (["simulate"], {"reps": True}),
        (["fstar-oracle"], {"seed": -1}),
        (["simulate"], {"seed": 2**64}),
        (["simulate"], {"mystery": 1}),
        (["reproduce", "table1", "--reps", "2", "--seed", "-1"], "seed must be in"),
        (["simulate"], "--family"),
        (["simulate", "--family", "gaussian", "--n", "6", "--p", "4", "--m", "3", "--k-true", "2",
          "--eta", "1", "--reps", "3"], "n=6 leaves a fold of 3 rows, too few for p=4"),
    ],
    ids=["simulate-eta-nan", "simulate-eta-inf", "oracle-eta-nan", "oracle-n-string",
         "oracle-family-number", "simulate-reps-bool", "oracle-seed-below-zero",
         "simulate-seed-past-64-bits", "simulate-unknown-field", "reproduce-seed-below-zero",
         "simulate-neither-flags-nor-config",
         "simulate-fold-below-p"],
)
def test_malformed_simulation_config_exits_two(tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    if isinstance(field, dict):  # a config file with one bad field
        config = tmp_path / "c.json"
        doc = SimConfig(n=30, p=3, m_dim=3, k=2, eta=2.0, family="gaussian").to_json_dict()
        config.write_text(json.dumps({**doc, **field}))
        argv, field = [*argv, "--config", str(config)], next(iter(field))
    code = main([*argv, "--out", str(out)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and field in line
    assert not out.exists()


def test_fstar_oracle_command_emits_the_bias_summary(tmp_path):
    out = tmp_path / "oracle.json"
    code = main(
        ["fstar-oracle", "--family", "gaussian", "--n", "50", "--p", "3",
         "--m", "3", "--k-true", "2", "--eta", "2", "--seed", "3",
         "--n-mc", "10000", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "config", "n_mc", "f_star", "bias1", "bias2", "converged_fraction",
    }
    assert doc["n_mc"] == 10000
    f_star = np.array(doc["f_star"]["data"])
    assert f_star.shape == tuple(doc["f_star"]["dims"])
    assert doc["bias2"] <= doc["bias1"] + 1e-12
    assert doc["converged_fraction"] == pytest.approx(1.0)


@pytest.fixture
def written(monkeypatch):
    """Every object the CLI writes as a JSON document with the path and the
    text written for it, in order."""
    docs, write = [], cli.write_json_atomic

    def record(path, obj):
        write(path, obj)
        docs.append((Path(path), obj, Path(path).read_text()))

    monkeypatch.setattr(cli, "write_json_atomic", record)
    return docs


def test_every_document_the_cli_writes_reads_as_the_stdlib_encoding(tmp_path, written):
    # fits in three modes and three families with an interval on each, a
    # simulate config and an oracle summary (whose biases are np.float64)
    for family in ("gaussian", "bernoulli", "poisson"):
        data, _, _ = small_sim_dataset(n=50, p=3, m_dim=3, seed=16, rep_seed=4, family=family)
        xp, yp, proj = (tmp_path / f"{family}_{name}.csv" for name in ("x", "y", "proj"))
        save_matrix_csv(xp, data.x)
        save_matrix_csv(yp, data.y)
        save_matrix_csv(proj, np.eye(3))
        for mode in ([], ["--k", "2"], ["--projector", str(proj)]):
            fit_path = tmp_path / "fit.json"
            assert main(["fit", "--x", str(xp), "--y", str(yp), "--family", family,
                         "--seed", "7", "--out", str(fit_path), *mode]) == 0
            assert _infer(fit_path, xp, yp, tmp_path / "ci.json") == 0
    assert main(SIMULATE_ARGS + ["--out", str(tmp_path / "sim")]) == 0
    assert main(["fstar-oracle", "--family", "gaussian", "--n", "50", "--p", "3", "--m", "3",
                 "--k-true", "2", "--eta", "2", "--seed", "3", "--n-mc", "10000",
                 "--out", str(tmp_path / "oracle.json")]) == 0
    assert len(written) == 9 * 2 + 2
    assert type(written[-1][1]["bias1"]) is np.float64
    for path, obj, text in written:
        want = json_bits(json.loads(json.dumps(obj, indent=2, sort_keys=True)))
        assert json_bits(json.loads(text)) == want, path.name
        path.write_text(text)  # a later command may have overwritten it
        assert json_bits(data_io.read_json(path)) == want, path.name


def test_plain_fit_and_infer_documents_never_touch_the_stdlib_codec(
    tmp_path, csv_data, monkeypatch
):
    monkeypatch.setattr(data_io, "json", None)
    code, fit_path = _fit(tmp_path, csv_data)
    assert code == 0
    assert _infer(fit_path, *csv_data, tmp_path / "ci.json") == 0


def test_a_seed_beyond_64_bits_is_written_and_read_back(tmp_path, csv_data):
    code, fit_path = _fit(tmp_path, csv_data, "--seed", str(2**70))
    assert code == 0
    assert json.loads(fit_path.read_text())["seed"] == 2**70
    assert _infer(fit_path, *csv_data, tmp_path / "ci.json") == 0


def test_poisson_rates_too_large_to_draw_are_a_numerical_failure(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    for eta in ("12", "1e300"):  # rates past what numpy draws, and past overflow
        cfg = SimConfig(n=10_000, p=3, m_dim=3, k=2, eta=float(eta), family="poisson")
        _, _, lin = replay_draw(make_truth(cfg), cfg, cfg.seed ^ ORACLE_SALT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["fstar-oracle", "--family", "poisson", "--n", "50", "--p", "3", "--m", "3",
                 "--k-true", "2", "--eta", eta, "--n-mc", "10000", "--out", str(out)]
            )
        assert code == 1 and not caught
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: poisson rate exp({lin.max():.4g}) is")
        assert not out.exists()


def test_reproduce_runs_a_named_experiment(tmp_path, capsys):
    out = tmp_path / "study"
    code = main(
        ["reproduce", "fig2-m", "--reps", "2", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    assert (out / "fig2-m_long.csv").exists()
    assert (out / "fig2-m_agg.csv").exists()
    stdout = capsys.readouterr().out
    assert "naive-mle" in stdout and "frob_err" in stdout


def test_reproduce_all_runs_every_experiment_in_order(tmp_path, monkeypatch):
    calls = []

    def record(spec, out_dir=None):
        calls.append((spec.name, spec.seed))
        return ExperimentResult([], [], "long.csv", "agg.csv")

    monkeypatch.setattr(experiments, "run_experiment", record)
    assert main(["reproduce", "all", "--out", str(tmp_path)]) == 0
    assert calls == [(name, DEFAULT_SEEDS[name]) for name in EXPERIMENT_NAMES]
    assert dict(calls)["table1"] == 15
    calls.clear()
    assert main(["reproduce", "all", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert calls == [(name, 3) for name in EXPERIMENT_NAMES]


def test_a_library_warning_prints_as_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GHIVE_THREADS", "abc")
    assert main(["reproduce", "table1", "--reps", "2", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: ignoring non-integer GHIVE_THREADS='abc'; running serially"
    ]


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_reproduce_reps_below_one_exits_two(tmp_path, capsys, reps):
    out = tmp_path / "study"
    assert main(["reproduce", "table1", "--reps", reps, "--out", str(out)]) == 2
    assert "reps" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_name_is_an_argparse_error(tmp_path):
    code = main(["reproduce", "fig9", "--out", str(tmp_path / "x")])
    assert code == 2


# Fits, intervals and the study run on numpy alone: scipy brings its own
# OpenBLAS, which would double what a fresh process loads.
_NO_SCIPY = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from ghive.cli import main

out = sys.argv[2]
rng = np.random.default_rng(0)
x = rng.standard_normal((60, 3))
np.savetxt(out + "/x.csv", x, delimiter=",")
np.savetxt(out + "/y.csv", x @ rng.standard_normal((3, 4)) + rng.standard_normal((60, 4)), delimiter=",")
codes = [
    main(["fit", "--x", out + "/x.csv", "--y", out + "/y.csv", "--family", "gaussian",
          "--out", out + "/fit.json"]),
    main(["infer", "--fit", out + "/fit.json", "--x", out + "/x.csv", "--y", out + "/y.csv",
          "--u", "e1", "--v", "e1", "--out", out + "/ci.json"]),
    main(["reproduce", "table1", "--reps", "2", "--out", out + "/table1"]),
]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_module_entry_point_exits_two_with_one_error_line(tmp_path):
    # ``python -m ghive.cli`` runs the module's ``__main__`` call and
    # ``cli.entry``'s ``sys.exit(main())``, which the in-process tests skip
    src = str(Path(ghive.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ghive.cli", "reproduce", "table1", "--seed", "-1",
         "--out", str(tmp_path / "bad_seed")],
        capture_output=True, text=True, timeout=120,
        env=os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: seed must ")
    assert not any(tmp_path.iterdir())


def test_fit_infer_and_reproduce_import_no_scipy(tmp_path):
    src = str(Path(ghive.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, src, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
