#!/usr/bin/env python3
"""Say what a change moved: the numbers of this checkout against those of REV.

    python scripts/moved.py REV

Unpacks ``git archive REV src`` into a temporary directory (local git, no
network), then runs one fixed list of cases twice, in two subprocesses: one
on REV's ``src``, one on this checkout's, each with its own ``PYTHONPATH``,
one BLAS thread and no worker pool. The cases:

* fit-small entries 0-47 and fit-large entries 0-15: the ghbench op on each
  entry's input, both built by ``ghbench/workloads.py`` (imported, never
  changed): ``ghive_fit``, the interval on contrast (1, 1), the naive MLE
  and its Wald interval, for each family;
* the same op on the golden fit and infer inputs (``FIT_CONFIG`` and
  ``FIT_SEEDS`` of ``tests/test_golden.py``), one per family;
* the same op on bernoulli draws of table1's shape (n = 70, p = M = 4,
  k = 3, eta = 4) at the truth seeds ``BALL_SEEDS``, where a fold fit lies
  on the coefficient ball;
* "collinear": the same op on fit-small entries 0-11, each design with a
  copy of covariate 1 appended, so that its curvature matrices are singular
  and Newton solves reach the solver's diagonal-bump retry. An interval
  that raises a ``GhiveError`` (the naive Wald interval's singular
  information) is recorded as its error type, and a change of it is a move.
  The script also prints how many curvature matrices of the case's fold
  and naive fits fail their Cholesky factorisation (one per column and
  Newton iteration) in each tree;
* table1 at seeds 0, 5, 15 and 26, 100 replicates each;
* "specs": ``repr(experiment_spec(name, ...))`` of every named experiment,
  at desk and at full scale, with its defaults and with ``reps=3, seed=7``,
  compared as text.

Per case and family (table1: per seed and estimator) it prints ``bit-equal``,
or for each quantity that moved its max abs and max relative change (relative
to REV's value): ``f_hat``, ``theta_hat`` and the fold grad norms; the
interval ends, ``k_hat`` and the converged counts; the naive fits; table1's
two targets and each replicate metric; the fit cases' ``ci_error`` and
``wald_error``; a spec's text, from just before its first differing
character. In the fit cases, response rows where a fold fit (re-solved by
``qml._fit_matrix``) or the naive fit lies on the coefficient ball
(``qml.RADIUS``) in either tree are counted apart; the other quantities of
an entry with such a row are too. Each table1 replicate whose
``covered`` flips is listed. The script gates nothing: it exits 0 whatever
moved. Each subprocess runs ``moved.py --dump PATH``.
"""

import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIT_CASES = (("fit-small", range(48)), ("fit-large", range(16)))
COLLINEAR = ("fit-small", range(12))
TABLE1_SEEDS = (0, 5, 15, 26)
TABLE1_REPS = 100
ON_BALL = 1.0 - 1e-9  # a row of norm above ON_BALL * RADIUS lies on the ball
# table1's shape, drawn as ghbench draws its fit inputs; its 35-row folds put
# fits on the ball, which the ghbench and golden inputs never do
BALL_SHAPE = dict(n=70, p=4, m_dim=4, k=3, eta=4.0)
# the truth seeds in 0-199 at BALL_SHAPE where a bernoulli fold fit lies on
# the ball: 41 of their 288 fold fits do, and no naive fit
BALL_SEEDS = (0, 7, 14, 17, 20, 24, 30, 33, 41, 46, 60, 63, 65, 69, 71, 75, 79, 95, 96, 98, 99,
              109, 111, 121, 131, 133, 139, 143, 149, 153, 156, 157, 158, 166, 169, 190)


# ---------------------------------------------------------------------------
# the cases, run in the tree that PYTHONPATH names


def _fit_quantities(runs):
    """The compared quantities of fit ops ``(data, family, fit, ci, naive,
    wald)``, stacked over entries, and the rows of each that lie on the ball.
    An interval may be the ``GhiveError`` it raised: its ends are NaN."""
    from ghive.qml import RADIUS, _fit_matrix

    def on_ball(f):
        return np.linalg.norm(f, axis=-1) > ON_BALL * RADIUS

    def ends(interval):
        return [[np.nan] * 2] if isinstance(interval, Exception) else [[interval.ci_lo, interval.ci_hi]]

    def error(interval):
        return [type(interval).__name__ if isinstance(interval, Exception) else ""]

    got = {k: [] for k in ("f_hat", "theta_hat", "grad_norm", "converged", "k_hat", "ci", "ci_error",
                           "naive", "naive_grad_norm", "naive_converged", "wald", "wald_error",
                           "fold_ball", "naive_ball")}
    for data, family, fit, ci, naive, wald in runs:
        folds = [(data.x[rows], data.y[rows]) for rows in (fit.split.d1, fit.split.d2)]
        got["fold_ball"].append(on_ball(_fit_matrix(folds, family, "quasi")[0]).any(axis=0))
        got["naive_ball"].append(on_ball(naive.values))
        got["f_hat"].append(fit.f_hat.values)
        got["theta_hat"].append(fit.theta_hat)
        got["grad_norm"].append(fit.f_hat.grad_norm)
        got["converged"].append(fit.f_hat.converged)
        got["k_hat"].append([fit.spectral.k_hat])
        got["ci"].append(ends(ci))
        got["ci_error"].append(error(ci))
        got["naive"].append(naive.values)
        got["naive_grad_norm"].append(naive.grad_norm)
        got["naive_converged"].append(naive.converged)
        got["wald"].append(ends(wald))
        got["wald_error"].append(error(wald))
    out = {k: np.concatenate([np.asarray(a) for a in v]) for k, v in got.items()}
    fold_ball, naive_ball = out.pop("fold_ball"), out.pop("naive_ball")
    entry_ball = (fold_ball | naive_ball).reshape(len(runs), -1).any(axis=1)
    balls = {k: fold_ball for k in ("f_hat", "theta_hat", "grad_norm", "converged")}
    balls |= {k: naive_ball for k in ("naive", "naive_grad_norm", "naive_converged")}
    balls |= {k: entry_ball for k in ("k_hat", "ci", "wald")}
    return out, balls


def _fit_cases():
    import test_golden
    import workloads
    from ghive import families, make_truth, sample_dataset
    from ghive.simulate import SimConfig

    def ops(workload, inputs, seed):
        """``(data, family, fit, ci, naive, wald)`` of each family's op."""
        outs = workload.run(inputs, seed, None)
        return [(data, families.family_from_name(fam), *out) for (fam, data), out in zip(inputs, outs)]

    def drawn_op(fam, seed, shape):
        """The fit-small op on a draw of ``shape`` at truth and replicate seed ``seed``."""
        cfg = SimConfig(family=fam, seed=seed, **shape)
        data = sample_dataset(make_truth(cfg), cfg, rep_seed=cfg.seed)
        return ops(workloads.WORKLOADS["fit-small"], [(fam, data)], seed)

    cases = {}
    for name, entries in FIT_CASES:
        workload = workloads.WORKLOADS[name]
        runs = [ops(workload, workload.prepare(entry, None), entry) for entry in entries]
        for i, fam in enumerate(workloads.FAMILIES):
            cases[(f"{name} {entries[0]}-{entries[-1]}", fam)] = _fit_quantities([r[i] for r in runs])
    for fam, seed in test_golden.FIT_SEEDS.items():
        cases[("golden", fam)] = _fit_quantities(drawn_op(fam, seed, test_golden.FIT_CONFIG))
    runs = [run for seed in BALL_SEEDS for run in drawn_op("bernoulli", seed, BALL_SHAPE)]
    cases[("table1-shape ball", "bernoulli")] = _fit_quantities(runs)
    return cases


def _unfactorable(curv):
    """How many matrices of the stack ``curv`` (C, p, p), equilibrated as the
    solver equilibrates them, fail their Cholesky factorisation: the LAPACK
    gufunc behind ``np.linalg.cholesky`` fills each such factor with NaN."""
    s = np.ldexp(1.0, -(np.frexp(curv.diagonal(0, 1, 2))[1] >> 1))
    with np.errstate(invalid="ignore"):
        low = np.linalg._umath_linalg.cholesky_lo(curv * s[:, :, None] * s[:, None, :])
    return int(np.isnan(low).any(axis=(1, 2)).sum())


def _collinear_cases():
    """The collinear case per family, and per family the curvature matrices
    that fail their factorisation in its fold fits and its naive fits."""
    import workloads
    from ghive import families, inference, pipeline, qml
    from ghive.data_io import Dataset
    from ghive.errors import GhiveError

    flagged = {fam: {"fold": 0, "naive": 0} for fam in workloads.FAMILIES}
    counting, directions = [None], qml._ascent_directions

    def ascent_directions(curv, grad):
        if counting[0] is not None:
            flagged[counting[0]][counting[1]] += _unfactorable(curv)
        return directions(curv, grad)

    def interval(ci, *args):
        try:
            return ci(*args)
        except GhiveError as exc:
            return exc

    def op(fam, data, seed):
        """The fit-small op of ghbench's ``workloads.py``, its intervals allowed to raise."""
        family = families.family_from_name(fam)
        contrast = inference.basis_contrast(0, 0, data.m_dim, data.p)
        counting[:] = fam, "fold"
        fit = pipeline.ghive_fit(data, family, seed=seed)
        counting[1] = "naive"
        naive = qml.fit_naive_mle(data, family)
        counting[0] = None
        ci = interval(inference.confidence_interval, data, family, fit, contrast)
        wald = interval(inference.naive_wald_interval, data, family, naive, contrast)
        return data, family, fit, ci, naive, wald

    name, entries = COLLINEAR
    runs = {fam: [] for fam in workloads.FAMILIES}
    qml._ascent_directions = ascent_directions
    try:
        for entry in entries:
            for fam, data in workloads.WORKLOADS[name].prepare(entry, None):
                x = np.column_stack([data.x, data.x[:, 1]])
                runs[fam].append(op(fam, Dataset(x, data.y), entry))
    finally:
        qml._ascent_directions = directions
    label = f"collinear {entries[0]}-{entries[-1]}"
    return {(label, fam): _fit_quantities(r) for fam, r in runs.items()}, flagged


def _table1_cases():
    from ghive.experiments import _targets, experiment_spec, run_experiment

    cases = {}
    for seed in TABLE1_SEEDS:
        spec = experiment_spec("table1", reps=TABLE1_REPS, seed=seed)
        targets = np.array([_targets(spec, gi)[1:] for gi in range(len(spec.grid))])
        cases[(f"table1 seed {seed}", "targets")] = ({"target_fstar, target_theta": targets}, {})
        by_estimator = {}
        for row in run_experiment(spec).long_rows:  # sorted by grid point, estimator, rep, metric
            metrics = by_estimator.setdefault(row["estimator"], {})
            metrics.setdefault(row["metric"], []).append(
                (row["grid_index"], row["rep"], row["value"], row["failed"])
            )
        for est, metrics in by_estimator.items():
            quantities = {m: np.array(rows, dtype=float) for m, rows in metrics.items()}
            cases[(f"table1 seed {seed}", est)] = (quantities, {})
    return cases


def _spec_cases():
    from ghive.experiments import EXPERIMENT_NAMES, experiment_spec

    def text(spec):
        return np.array([repr(spec)])

    return {
        (f"specs {name}", "full" if full_scale else "desk"): ({
            "defaults": text(experiment_spec(name, full_scale=full_scale)),
            "reps=3 seed=7": text(experiment_spec(name, reps=3, seed=7, full_scale=full_scale)),
        }, {})
        for name in EXPERIMENT_NAMES for full_scale in (False, True)
    }


def dump(path):
    import ghive

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if Path(ghive.__file__).resolve().parent.parent != src:
        sys.exit(f"ghive was imported from {ghive.__file__}, not from {src}")
    collinear, flagged = _collinear_cases()
    with open(path, "wb") as fh:
        pickle.dump((_fit_cases() | collinear | _table1_cases() | _spec_cases(), flagged), fh)


# ---------------------------------------------------------------------------
# the comparison


def _changes(a, b):
    """Per row of ``a`` and ``b``: whether any bit differs, and the abs and
    relative (to ``a``) change of each element (inf where one is not finite)."""
    a, b = (np.ascontiguousarray(m).reshape(len(m), int(np.prod(m.shape[1:]))) for m in (a, b))
    same = a.view(f"u{a.itemsize}") == b.view(f"u{b.itemsize}")
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(same, 0.0, np.abs(b - a))
        diff[~same & ~np.isfinite(diff)] = np.inf
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(a))
        rel[np.isnan(rel)] = np.inf  # a NaN in REV, as a failed interval's ends
    return ~same.all(axis=1), diff, rel


def _moves(label, a, b, rows):
    """One line for rows ``rows`` of quantity ``label``, or None if none moved."""
    moved, diff, rel = _changes(a[rows], b[rows])
    if not moved.any():
        return None
    return (f"{label}: max abs {diff.max():.3g}, max rel {rel.max():.3g} "
            f"({moved.sum()} of {len(moved)} rows moved)")


def _flags(label, a, b):
    """One line for the flags ``label`` if any flips, else None."""
    flips = int((a != b).sum())
    if flips:
        return f"{label}: {int(a.sum())} -> {int(b.sum())} of {a.size} ({flips} flags flip)"
    return None


def _errors(label, a, b):
    """One line for the error types ``label`` ("" for none) if any changes, else None."""
    changed = a != b
    if not changed.any():
        return None
    pairs = Counter(zip(a[changed].tolist(), b[changed].tolist()))
    return f"{label}: " + ", ".join(f"{x or 'none'} -> {y or 'none'} ({k} rows)" for (x, y), k in pairs.items())


def _text(label, a, b):
    """One line for the text ``label`` if it changed, else None: both texts
    from a little before their first differing character."""
    a, b = str(a[0]), str(b[0])
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    start = max(0, i - 20)
    return f"{label}: from character {start}, {a[start:i + 40]!r} -> {b[start:i + 40]!r}"


def _covered_flips(a, b):
    """Each replicate whose covered value flips, from rows (grid point, rep,
    value, failed); a NaN (failed) value flips only to a number."""
    va, vb = a[:, 2], b[:, 2]
    flips = np.flatnonzero((va != vb) & ~(np.isnan(va) & np.isnan(vb)))
    return [f"grid point {a[i, 0]:g} rep {a[i, 1]:g}: covered {va[i]:g} -> {vb[i]:g}" for i in flips]


def compare(base, head):
    """The report lines of each (case, group), REV's numbers first."""
    lines = []
    for key in [*base, *(k for k in head if k not in base)]:
        if key not in base or key not in head:
            lines.append(f"{key[0]:20} {key[1]:12} only in {'REV' if key in base else 'this tree'}")
            continue
        (qa, balls_a), (qb, balls_b) = base[key], head[key]
        notes = []
        for q in [*qa, *(q for q in qb if q not in qa)]:
            a, b = qa.get(q), qb.get(q)
            if a is None or b is None or a.shape != b.shape:
                notes.append(f"{q}: shape {None if a is None else a.shape} -> "
                             f"{None if b is None else b.shape}")
            elif a.dtype == bool:
                notes.append(_flags(q, a, b))
            elif key[0].startswith("specs"):
                notes.append(_text(q, a, b))
            elif a.dtype.kind == "U":
                notes.append(_errors(q, a, b))
            elif q in balls_a:
                ball = balls_a[q] | balls_b[q]
                notes.append(_moves(q, a, b, ~ball))
                notes.append(_moves(f"{q} on the ball ({ball.sum()} rows)", a, b, ball))
            else:
                notes.append(_moves(q, a, b, slice(None)))
                if q == "covered":
                    notes.extend(_covered_flips(a, b))
        notes = [n for n in notes if n]
        lines.append(f"{key[0]:20} {key[1]:12} " + ("\n" + " " * 34).join(notes or ["bit-equal"]))
    return lines


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        return dump(sys.argv[2])
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    rev = sys.argv[1]
    start = time.perf_counter()
    env = {k: v for k, v in os.environ.items() if k != "GHIVE_THREADS"}
    env |= dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, "--dump", f"{tmp}/{name}.pickle"],
                env=env | {"PYTHONPATH": os.pathsep.join([src, str(ROOT / "ghbench"), str(ROOT / "tests")])},
            )
            for name, src in (("base", f"{tmp}/src"), ("head", str(ROOT / "src")))
        ]
        if any([p.wait() for p in procs]):
            sys.exit("a run of the cases failed")
        (base, flags_a), (head, flags_b) = (pickle.loads(Path(f"{tmp}/{name}.pickle").read_bytes())
                                            for name in ("base", "head"))
    print(f"{rev} -> this checkout, {time.perf_counter() - start:.1f} s")
    print("\n".join(compare(base, head)))
    print("curvature matrices failing their factorisation in the collinear case, fold / naive fits:")
    for fam, a in flags_a.items():
        b = flags_b[fam]
        print(f"  {fam:12} {a['fold']} / {a['naive']} -> {b['fold']} / {b['naive']}")


if __name__ == "__main__":
    main()
