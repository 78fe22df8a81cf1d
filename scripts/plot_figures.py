#!/usr/bin/env python3
"""Render the study figures from the aggregate CSVs.

Reads the <name>_agg.csv files produced by `ghive reproduce all` (or by
single `ghive reproduce <name>` runs) and writes one PNG per experiment next
to them. The coverage experiment has no figure; its table prints to stdout
instead.

Requires matplotlib, which the package itself does not depend on:
    pip install matplotlib
"""

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

X_AXIS = {
    "fig1-bias": ("p", "number of covariates"),
    "fig1-eta": ("eta", "confounding strength"),
    "fig2-n": ("n", "sample size"),
    "fig2-m": ("m_dim", "number of responses"),
}
ERROR_METRIC = "frob_err"


def read_agg(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def series(rows, metric, x_col):
    out = defaultdict(list)
    for row in rows:
        if row["metric"] != metric:
            continue
        out[row["estimator"]].append(
            (float(row[x_col]), float(row["mean"]), float(row["stderr"]))
        )
    return {est: sorted(pts) for est, pts in out.items()}


def plot_error_curves(plt, rows, name, x_col, x_label, out_path):
    fig, ax = plt.subplots(figsize=(5, 3.4))
    metric = "bias1" if name == "fig1-bias" else ERROR_METRIC
    for est, pts in sorted(series(rows, metric, x_col).items()):
        xs, means, errs = zip(*pts)
        ax.errorbar(xs, means, yerr=errs, marker="o", capsize=3, label=est)
    if name == "fig1-bias":
        for est, pts in sorted(series(rows, "bias2", x_col).items()):
            xs, means, errs = zip(*pts)
            ax.errorbar(
                xs, means, yerr=errs, marker="s", capsize=3,
                linestyle="--", label=f"{est} (projected)",
            )
        ax.set_ylabel("oracle bias")
    else:
        ax.set_ylabel("mean estimation error")
    ax.set_xlabel(x_label)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


def print_coverage_table(rows):
    wanted = ("covered", "ci_length", "se")
    cells = defaultdict(dict)
    for row in rows:
        if row["metric"] in wanted:
            key = (row["estimator"], row["n"])
            cells[key][row["metric"]] = float(row["mean"])
    print(f"{'estimator':<14}{'n':>5}{'coverage':>10}{'length':>9}{'se':>7}")
    for (est, n), vals in sorted(cells.items()):
        print(
            f"{est:<14}{n:>5}"
            f"{vals.get('covered', float('nan')):>10.2f}"
            f"{vals.get('ci_length', float('nan')):>9.2f}"
            f"{vals.get('se', float('nan')):>7.2f}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("study_dir", type=Path, help="directory with *_agg.csv files")
    args = parser.parse_args(argv)

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required: pip install matplotlib", file=sys.stderr)
        return 1

    found = False
    for name, (x_col, x_label) in X_AXIS.items():
        agg = args.study_dir / f"{name}_agg.csv"
        if not agg.exists():
            continue
        found = True
        plot_error_curves(
            plt, read_agg(agg), name, x_col, x_label, args.study_dir / f"{name}.png"
        )
    table = args.study_dir / "table1_agg.csv"
    if table.exists():
        found = True
        print_coverage_table(read_agg(table))
    if not found:
        print(f"no *_agg.csv files under {args.study_dir}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
