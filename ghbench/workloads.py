"""The benchmark's four workloads: op inputs, the timed op, and its checks.

Every workload draws its op inputs from a fixed pool of entries numbered
0..pool-1; entry ``i`` always produces the same input, so references for
each entry can be recorded once (see ``record_refs.py``) and every timed op
is checked against them.  A run's seed only chooses which entries it runs
and in what order (see ``plan``).

An op is what one caller waits for:

* ``fit-small`` / ``fit-large``: ``ghive_fit`` + ``confidence_interval`` on
  contrast (1, 1) + ``fit_naive_mle`` + ``naive_wald_interval``, on one
  simulated dataset of each family, so every op costs about the same.
* ``study``: ``ghive reproduce table1 --reps 20`` through ``cli.main``.
* ``cli-roundtrip``: ``ghive fit`` then ``ghive infer`` for contrasts
  e1/e1 .. e4/e4 through ``cli.main``, on gaussian CSVs written beforehand.

Each workload's ``check`` asserts invariants that hold for any correct
output; ``summary`` gives the numbers compared with the recorded reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ghive import cli, families, inference, pipeline, qml, simulate

FAMILIES = ("gaussian", "bernoulli", "poisson")

# Reference comparison: k_hat and counts must match exactly; numbers within
# a tolerance loose enough for rounding-level solver changes.
RTOL = 1e-6
ATOL = 1e-8

# Invariants of a single output (no reference involved).
INVARIANT_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _sim_data(n, p, m_dim, family, entry):
    cfg = simulate.SimConfig(
        n=n, p=p, m_dim=m_dim, k=3, eta=4.0, family=family, seed=entry
    )
    truth = simulate.make_truth(cfg)
    return simulate.sample_dataset(truth, cfg, rep_seed=entry)


def _projections(mat):
    """Two fixed linear projections of a matrix, stored in references in
    place of the whole matrix."""
    mat = np.asarray(mat, dtype=float)
    rows = mat @ np.linspace(1.0, 2.0, mat.shape[1])
    cols = np.linspace(1.0, 2.0, mat.shape[0]) @ mat
    return [float(v) for v in rows], [float(v) for v in cols]


def _check_projection(theta, f_hat, p_perp, label):
    theta, f_hat, p_perp = (np.asarray(a, dtype=float) for a in (theta, f_hat, p_perp))
    scale = max(1.0, float(np.max(np.abs(f_hat))))
    _require(
        np.allclose(theta, p_perp @ f_hat, rtol=0.0, atol=INVARIANT_TOL * scale),
        f"{label}: theta_hat != p_perp @ f_hat",
    )
    _require(
        np.allclose(p_perp, p_perp.T, rtol=0.0, atol=INVARIANT_TOL),
        f"{label}: p_perp is not symmetric",
    )
    _require(
        np.allclose(p_perp @ p_perp, p_perp, rtol=0.0, atol=1e-8),
        f"{label}: p_perp is not idempotent",
    )


def _check_interval(est, lo, hi, expected, label):
    _require(
        all(np.isfinite(v) for v in (est, lo, hi)), f"{label}: non-finite interval"
    )
    _require(lo <= est <= hi, f"{label}: interval [{lo}, {hi}] misses {est}")
    _require(
        abs(est - expected) <= INVARIANT_TOL * (1.0 + abs(expected)),
        f"{label}: estimate {est} != u'theta v = {expected}",
    )


def _check_lstsq_oracle(x, y, d1, d2, f_hat, label):
    """Gaussian quasi-likelihood is least squares: the fold-averaged f_hat
    is the mean of the two per-fold least-squares fits."""
    x, y = np.asarray(x), np.asarray(y)
    folds = [np.linalg.lstsq(x[idx], y[idx], rcond=None)[0].T for idx in (d1, d2)]
    expected = 0.5 * (folds[0] + folds[1])
    _require(
        np.allclose(f_hat, expected, rtol=1e-6, atol=1e-8),
        f"{label}: f_hat differs from the per-fold least-squares mean "
        f"by {float(np.max(np.abs(np.asarray(f_hat) - expected))):.3g}",
    )


def compare(got, ref, where="output"):
    """Raise CheckFailed unless ``got`` matches the recorded ``ref``."""
    if isinstance(ref, dict):
        _require(
            isinstance(got, dict) and set(got) == set(ref),
            f"{where}: keys differ from the reference",
        )
        for key in ref:
            compare(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        _require(
            isinstance(got, list) and len(got) == len(ref),
            f"{where}: length differs from the reference",
        )
        if ref and all(isinstance(v, float) for v in ref):
            g, r = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
            _require(
                np.allclose(g, r, rtol=RTOL, atol=ATOL),
                f"{where}: max abs difference {float(np.max(np.abs(g - r))):.3g} "
                "from the reference",
            )
        else:
            for i, (g, r) in enumerate(zip(got, ref)):
                compare(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        _require(
            isinstance(got, float)
            and np.isclose(got, ref, rtol=RTOL, atol=ATOL),
            f"{where}: {got!r} != reference {ref!r}",
        )
    else:
        _require(got == ref, f"{where}: {got!r} != reference {ref!r}")


@contextlib.contextmanager
def _quiet():
    """Keep the CLI's progress lines off the benchmark's stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield sink


# ---------------------------------------------------------------------------


@dataclass
class FitWorkload:
    name: str
    n: int
    p: int
    m_dim: int
    nominal_op_s: float  # about one op with one BLAS thread; sizes a run (see plan)
    pool: int

    def prepare(self, entry, workdir):
        return [(fam, _sim_data(self.n, self.p, self.m_dim, fam, entry)) for fam in FAMILIES]

    def run(self, inputs, entry, outdir):
        out = []
        for fam, data in inputs:
            family = families.family_from_name(fam)
            fit = pipeline.ghive_fit(data, family, seed=entry)
            contrast = inference.basis_contrast(0, 0, data.m_dim, data.p)
            ci = inference.confidence_interval(data, family, fit, contrast)
            naive = qml.fit_naive_mle(data, family)
            wald = inference.naive_wald_interval(data, family, naive, contrast)
            out.append((fit, ci, naive, wald))
        return out

    def check(self, inputs, out, validators):
        for (fam, data), (fit, ci, naive, wald) in zip(inputs, out):
            _check_projection(fit.theta_hat, fit.f_hat.values, fit.spectral.p_perp, fam)
            _check_interval(ci.estimate, ci.ci_lo, ci.ci_hi, float(fit.theta_hat[0, 0]), f"{fam} ci")
            _check_interval(
                wald.estimate, wald.ci_lo, wald.ci_hi, float(naive.values[0, 0]), f"{fam} wald"
            )
            if fam == "gaussian":
                _check_lstsq_oracle(
                    data.x, data.y, fit.split.d1, fit.split.d2, fit.f_hat.values, fam
                )

    def summary(self, inputs, out):
        doc = {}
        for (fam, _), (fit, ci, naive, wald) in zip(inputs, out):
            theta_rows, theta_cols = _projections(fit.theta_hat)
            naive_rows, naive_cols = _projections(naive.values)
            doc[fam] = {
                "k_hat": int(fit.spectral.k_hat),
                "theta_rows": theta_rows,
                "theta_cols": theta_cols,
                "naive_rows": naive_rows,
                "naive_cols": naive_cols,
                "ci": [float(ci.estimate), float(ci.ci_lo), float(ci.ci_hi)],
                "wald": [float(wald.estimate), float(wald.ci_lo), float(wald.ci_hi)],
            }
        return doc


@dataclass
class StudyWorkload:
    name: str
    reps: int
    nominal_op_s: float
    pool: int

    def prepare(self, entry, workdir):
        return ["reproduce", "table1", "--reps", str(self.reps), "--seed", str(entry)]

    def run(self, argv, entry, outdir):
        with _quiet() as log:
            code = cli.main(argv + ["--out", str(outdir)])
        return code, log.getvalue(), outdir

    def _long_rows(self, outdir):
        with open(Path(outdir) / "table1_long.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, argv, out, validators):
        code, log, outdir = out
        _require(code == 0, f"ghive reproduce exited {code}: {log.strip()[-300:]}")
        rows = self._long_rows(outdir)
        reps = {int(r["rep"]) for r in rows}
        _require(reps == set(range(self.reps)), "table1_long.csv is missing replicates")
        for r in rows:
            if r["failed"] == "0" and r["metric"] == "covered":
                _require(float(r["value"]) in (0.0, 1.0), "covered is not 0 or 1")
            if r["failed"] == "0" and r["metric"] in ("se", "ci_length"):
                _require(float(r["value"]) >= 0.0, f"negative {r['metric']}")
        _require((Path(outdir) / "table1_agg.csv").is_file(), "table1_agg.csv missing")

    def summary(self, argv, out):
        outdir = out[2]
        rows = self._long_rows(outdir)
        with open(Path(outdir) / "table1_agg.csv", newline="") as fh:
            agg = list(csv.DictReader(fh))
        means = {}
        for r in agg:
            mean = float(r["mean"])
            means[f"{r['estimator']}/{r['metric']}"] = None if np.isnan(mean) else mean
        return {
            "rows": len(rows),
            "failed_rows": sum(int(r["failed"]) for r in rows),
            "means": means,
        }


@dataclass
class CliWorkload:
    name: str
    n: int
    p: int
    m_dim: int
    contrasts: int
    nominal_op_s: float
    pool: int

    def prepare(self, entry, workdir):
        data = _sim_data(self.n, self.p, self.m_dim, "gaussian", entry)
        x_path, y_path = Path(workdir) / "x.csv", Path(workdir) / "y.csv"
        np.savetxt(x_path, data.x, fmt="%.17g", delimiter=",")
        np.savetxt(y_path, data.y, fmt="%.17g", delimiter=",")
        return data, str(x_path), str(y_path)

    def run(self, inputs, entry, outdir):
        _, x_path, y_path = inputs
        fit_path = str(Path(outdir) / "fit.json")
        argvs = [
            ["fit", "--x", x_path, "--y", y_path, "--family", "gaussian",
             "--seed", str(entry), "--out", fit_path]
        ]
        for i in range(1, self.contrasts + 1):
            argvs.append(
                ["infer", "--fit", fit_path, "--x", x_path, "--y", y_path,
                 "--u", f"e{i}", "--v", f"e{i}", "--out", str(Path(outdir) / f"ci{i}.json")]
            )
        codes = []
        with _quiet() as log:
            for argv in argvs:
                codes.append(cli.main(argv))
        return codes, log.getvalue(), outdir

    def _docs(self, outdir):
        def load(name):
            return json.loads((Path(outdir) / name).read_text())

        return load("fit.json"), [load(f"ci{i}.json") for i in range(1, self.contrasts + 1)]

    def check(self, inputs, out, validators):
        data = inputs[0]
        codes, log, outdir = out
        _require(codes == [0] * len(codes), f"ghive exit codes {codes}: {log.strip()[-300:]}")
        fit, cis = self._docs(outdir)
        validators["fit"](fit)
        theta = np.asarray(fit["theta_hat"]["data"])
        f_hat = np.asarray(fit["f_hat"]["data"])
        _check_projection(theta, f_hat, fit["p_perp"]["data"], "fit.json")
        _check_lstsq_oracle(
            data.x, data.y, fit["split"]["d1"], fit["split"]["d2"], f_hat, "fit.json"
        )
        for i, ci in enumerate(cis):
            validators["inference"](ci)
            _check_interval(ci["estimate"], ci["ci_lo"], ci["ci_hi"], float(theta[i, i]), f"ci{i + 1}.json")

    def summary(self, inputs, out):
        fit, cis = self._docs(out[2])
        rows, cols = _projections(fit["theta_hat"]["data"])
        return {
            "k_hat": fit["k_hat"],
            "theta_rows": rows,
            "theta_cols": cols,
            "ci": [[float(c["estimate"]), float(c["ci_lo"]), float(c["ci_hi"])] for c in cis],
        }


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(
            "fit-small", 200, 4, 20, nominal_op_s=0.42, pool=48
        ),
        FitWorkload(
            "fit-large", 10_000, 20, 8, nominal_op_s=1.1, pool=16
        ),
        StudyWorkload(
            "study", 20, nominal_op_s=1.36, pool=16
        ),
        CliWorkload(
            "cli-roundtrip", 2000, 10, 50, 4, nominal_op_s=0.75, pool=24
        ),
    )
}


def plan(workload, seed, seconds, traced=False):
    """(warm-up entry, timed entries) for a run; a function of the seed, the
    run length and the mode only, never of how fast the ops go.  A traced
    run executes every op twice, so it plans half as many."""
    n_ops = max(2, round(seconds / workload.nominal_op_s))
    if traced:
        n_ops = max(1, n_ops // 2)
    order = random.Random(f"{workload.name}/{seed}").sample(range(workload.pool), workload.pool)
    timed = [order[i % (workload.pool - 1)] for i in range(n_ops)]
    return order[-1], timed


def kernel_passes(workload):
    """Speed-kernel passes on each side of an op: about one per 0.25 s of
    op, so the probe costs ~5% of the op on each side (see speed.py)."""
    return max(1, round(workload.nominal_op_s / 0.25))


def fresh_dir(path):
    path = Path(path)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
