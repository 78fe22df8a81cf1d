"""Command-line interface.

Subcommands:

* ``ghive fit``          fit the pipeline to CSV data, write a fit JSON
* ``ghive infer``        confidence interval for a contrast of a saved fit
* ``ghive simulate``     score the estimators on synthetic replicates of one
                         config: a one-point run of the study harness, with
                         the error experiments' seeds and CSVs
* ``ghive fstar-oracle`` pseudo-true coefficient matrix: exact for gaussian
                         and poisson, a Monte-Carlo fit of ``--n-mc`` drawn
                         rows for bernoulli
* ``ghive reproduce``    run one named simulation-study experiment, or ``all``

Exit codes: 0 success, 1 numerical failure, 2 usage or validation error.
Set GHIVE_THREADS to parallelise experiment replications.

The argument parser is built once per process, on the first ``main`` call;
``main`` runs the ``cmd_*`` function its subcommand names as bound when it
runs, so a wrapped or patched ``cmd_*`` is the one called.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import warnings

import numpy as np

from . import experiments as experiments_mod
from .data_io import load_dataset, matrix_to_json, read_csv_table, read_json, write_json_atomic
from .errors import DataValidationError, GhiveError, require_integer
from .families import FAMILY_NAMES, family_from_name
from .inference import Contrast, confidence_interval, serialize_inference
from .pipeline import Mode, deserialize_fit, ghive_fit, serialize_fit
from .simulate import DECAY_CONVENTIONS, SimConfig, fstar_oracle, make_truth, oracle_bias

# Each simulation flag: the SimConfig field it sets, whether it is required
# (unless --config gives the whole config instead), and its argparse options.
_SIM_FLAGS = {
    "--family": ("family", True, {"choices": FAMILY_NAMES}),
    "--n": ("n", True, {"type": int, "help": "sample size per replicate"}),
    "--p": ("p", True, {"type": int, "help": "number of covariates"}),
    "--m": ("m_dim", True, {"type": int, "help": "number of responses"}),
    "--k-true": ("k", True, {"type": int, "help": "true factor count"}),
    "--eta": ("eta", True, {"type": float, "help": "confounding strength"}),
    "--seed": ("seed", False, {"type": int, "help": "truth and replicate seed (default: 0)"}),
    "--sigma-z-decay": ("sigma_z_decay", False, {"choices": DECAY_CONVENTIONS,
                        "help": "circulant covariance convention (default: negative)"}),
    "--reps": ("reps", False, {"type": int, "help": "replicates (default: 1)"}),
}


def _add_sim_config_flags(sub, reps: bool):
    """Declare --config and the simulation flags on ``sub``; --reps only if ``reps``."""
    sub.add_argument("--config", help="simulation config JSON file (excludes the flags below)")
    for flag, (_, _, options) in _SIM_FLAGS.items():
        if reps or flag != "--reps":
            sub.add_argument(flag, **options)


def _sim_config_from_args(args) -> SimConfig:
    given = {f: getattr(args, f[2:].replace("-", "_"), None) for f in _SIM_FLAGS}  # default dests
    given = {f: v for f, v in given.items() if v is not None}
    if args.config:
        if given:
            raise DataValidationError(
                f"{' '.join(given)} cannot be combined with --config; "
                "set the values in the config file"
            )
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise DataValidationError(f"{args.config}: expected a JSON object")
        return SimConfig.from_json_dict(doc)
    missing = [f for f, (_, required, _) in _SIM_FLAGS.items() if required and f not in given]
    if missing:
        raise DataValidationError(
            f"missing {' '.join(missing)} (or pass --config FILE)"
        )
    return SimConfig(**{field: given[f] for f, (field, _, _) in _SIM_FLAGS.items() if f in given})


def _parse_direction(spec: str, dim: int, name: str) -> np.ndarray:
    """Parse a direction vector: ``e<i>`` shorthand (1-based) or a CSV path."""
    match = re.fullmatch(r"e(\d+)", spec.strip())
    if match:
        idx = int(match.group(1))
        require_integer(f"{name}={spec} index", idx, 1, dim)
        vec = np.zeros(dim)
        vec[idx - 1] = 1.0
        return vec
    vec = read_csv_table(spec).ravel()
    if vec.shape[0] != dim:
        raise DataValidationError(
            f"{name} vector from {spec} has length {vec.shape[0]}, expected {dim}"
        )
    return vec


def _resolve_mode(args, m_dim: int) -> Mode:
    if args.projector:
        if args.k is not None:
            raise DataValidationError("--k cannot be combined with --projector")
        projector = read_csv_table(args.projector)
        if projector.shape != (m_dim, m_dim):
            raise DataValidationError(
                f"projector from {args.projector} is {projector.shape[0]}x"
                f"{projector.shape[1]}, expected {m_dim}x{m_dim}"
            )
        return Mode.oracle_p(projector)
    k = (args.k or "auto").strip().lower()
    if k == "auto":
        return Mode.data_driven()
    try:
        k_int = int(k)
    except ValueError:
        raise DataValidationError(
            f"--k must be 'auto' or a positive integer, got {args.k!r}"
        ) from None
    if k_int == 0:
        raise DataValidationError(
            "--k 0 removes no factors; pass --projector FILE to supply "
            "an explicit projector instead"
        )
    require_integer("--k", k_int, low=1)
    return Mode.oracle_k(k_int)


def cmd_fit(args) -> int:
    family = family_from_name(args.family)
    data = load_dataset(args.x, args.y)
    mode = _resolve_mode(args, data.m_dim)
    fit = ghive_fit(data, family, seed=args.seed, mode=mode)
    write_json_atomic(args.out, serialize_fit(fit))
    converged = fit.f_hat.converged
    print(
        f"wrote {args.out} (k_hat={fit.spectral.k_hat}, "
        f"{converged.sum()}/{converged.size} fold fits converged)"
    )
    return 0


def cmd_infer(args) -> int:
    fit = deserialize_fit(read_json(args.fit))
    data = load_dataset(args.x, args.y)
    contrast = Contrast(
        _parse_direction(args.u, fit.m_dim, "--u"), _parse_direction(args.v, fit.p, "--v")
    )
    result = confidence_interval(data, fit.family, fit, contrast, alpha=args.alpha)
    write_json_atomic(args.out, serialize_inference(result, contrast))
    print(
        f"wrote {args.out} (estimate={result.estimate:.6g}, "
        f"ci=[{result.ci_lo:.6g}, {result.ci_hi:.6g}])"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _sim_config_from_args(args)
    spec = experiments_mod.ExperimentSpec(
        name="simulate",
        grid=(cfg,),
        reps=cfg.reps,
        seed=cfg.seed,
    )
    result = experiments_mod.run_experiment(spec, out_dir=args.out)
    write_json_atomic(os.path.join(args.out, "simulate_config.json"), cfg.to_json_dict())
    print(f"wrote {result.long_path} and {result.agg_path} ({cfg.reps} replicates)")
    return 0


def cmd_fstar_oracle(args) -> int:
    cfg = _sim_config_from_args(args)
    truth = make_truth(cfg)
    oracle = fstar_oracle(truth, cfg, n_mc=args.n_mc)
    bias1, bias2 = oracle_bias(oracle.values, truth)
    doc = {
        "config": cfg.to_json_dict(),
        "n_mc": args.n_mc,
        "f_star": matrix_to_json(oracle.values),
        "bias1": bias1,
        "bias2": bias2,
        "converged_fraction": float(np.mean(oracle.converged)),
    }
    write_json_atomic(args.out, doc)
    print(f"wrote {args.out} (bias1={bias1:.6g}, bias2={bias2:.6g})")
    return 0


def cmd_reproduce(args) -> int:
    names = (args.experiment,)
    if args.experiment == "all":
        names = experiments_mod.EXPERIMENT_NAMES
    for name in names:
        spec = experiments_mod.experiment_spec(
            name, reps=args.reps, seed=args.seed, full_scale=args.full_scale
        )
        result = experiments_mod.run_experiment(spec, out_dir=args.out)
        print(f"wrote {result.long_path}")
        print(f"wrote {result.agg_path}")
        for row in result.agg_rows:
            if row["metric"] in ("frob_err", "bias1", "bias2", "covered"):
                print(
                    f"  {row['estimator']:<13s} {row['metric']:<10s} "
                    f"n={row['n']} p={row['p']} M={row['m_dim']} eta={row['eta']}: "
                    f"{row['mean']:.4g}"
                )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghive",
        description="Multivariate-response GLM estimation under hidden confounding.",
        epilog="Set GHIVE_THREADS=N to parallelise experiment replications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the pipeline to CSV data")
    fit.add_argument("--x", required=True, help="covariate CSV (n x p)")
    fit.add_argument("--y", required=True, help="response CSV (n x M)")
    fit.add_argument("--family", required=True, choices=FAMILY_NAMES)
    fit.add_argument(
        "--k",
        help="factor count: 'auto' (eigenvalue-ratio selection, the default) or a positive integer",
    )
    fit.add_argument("--projector", help="CSV of an M x M complement projector (excludes --k)")
    fit.add_argument("--seed", type=int, default=0, help="split seed in 0..2**64-1 (default: 0)")
    fit.add_argument("--out", required=True, help="output fit JSON path")

    infer = sub.add_parser("infer", help="confidence interval from a saved fit")
    infer.add_argument("--fit", required=True, help="fit JSON from `ghive fit`")
    infer.add_argument("--x", required=True, help="the covariate CSV the fit was made on")
    infer.add_argument("--y", required=True, help="the response CSV the fit was made on")
    infer.add_argument(
        "--u", required=True, help="response direction: e<i> or a CSV vector file"
    )
    infer.add_argument(
        "--v", required=True, help="covariate direction: e<i> or a CSV vector file"
    )
    infer.add_argument("--alpha", type=float, default=0.05)
    infer.add_argument("--out", required=True, help="output JSON path")

    sim = sub.add_parser("simulate", help="score estimators on synthetic replicates")
    _add_sim_config_flags(sim, reps=True)
    sim.add_argument("--out", required=True, help="output directory")

    oracle = sub.add_parser(
        "fstar-oracle", help="pseudo-true coefficients for a config"
    )
    _add_sim_config_flags(oracle, reps=False)
    oracle.add_argument("--n-mc", type=int, default=50_000, help="rows of the bernoulli draw, "
                        "at least 10000 (default: 50000); gaussian and poisson are exact")
    oracle.add_argument("--out", required=True, help="output JSON path")

    rep = sub.add_parser(
        "reproduce", help="run a named simulation-study experiment, or all of them"
    )
    rep.add_argument("experiment", choices=experiments_mod.EXPERIMENT_NAMES + ("all",))
    rep.add_argument("--reps", type=int, default=None)
    rep.add_argument(
        "--seed",
        type=int,
        default=None,
        help="experiment seed (default: each experiment's own, 15 for table1, else 0)",
    )
    rep.add_argument("--out", required=True, help="output directory")
    rep.add_argument(
        "--full-scale",
        action="store_true",
        help="use the original protocol sizes instead of desk-scale defaults",
    )

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        with warnings.catch_warnings():  # a library warning prints as one line, as errors do
            warnings.simplefilter("default")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            command = globals()["cmd_" + args.command.replace("-", "_")]
            return int(command(args) or 0)
    except (DataValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GhiveError as exc:  # NumericalError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
