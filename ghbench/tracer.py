"""Span tracer that times ghive's layers from outside the package.

``install`` rebinds every module-level binding of every function defined in
a ``ghive`` module (public and private) to a timing wrapper, so calls
between modules and within a module both go through it; ``uninstall``
restores the originals.  A module is a layer.

While an op is open (``with tracer.op(i):``) each call appends one span
(name, start, end, parent span, op id) to flat arrays kept in memory; calls
outside an op are passed straight through.  ``metrics`` turns the spans into
the per-layer metrics of ``METRICS`` and ``save`` writes the spans out once,
at the end of the run.

A metric whose functions do not exist at the measured commit is reported as
absent, with the names it looked for, instead of failing the run.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

ROOT = "op"  # name of the span that wraps a whole op

# data_io functions whose time counts as reading or writing
READERS = ("read_csv_table", "load_matrix_csv", "load_dataset", "read_json")
WRITERS = ("atomic_write_text", "save_matrix_csv", "write_csv_rows", "write_json_atomic")
REPLICATE_TASKS = ("_coverage_rep", "_error_rep", "_bias_rep")

# Called once per CSV cell: a span per call would cost more than the work,
# so its time counts as its caller's.
UNTRACED = ("data_io._parse_cell",)

# name -> (unit, better); the order is the order of the printed table.
METRICS = {
    "qml.busy_s": ("s", "lower"),
    "qml.gram_s": ("s", "lower"),
    "qml.objective_evals": ("count", "lower"),
    "qml.gradient_evals": ("count", "lower"),
    "qml.accept_frac": ("ratio", "higher"),
    "families.busy_s": ("s", "lower"),
    "families.calls": ("count", "lower"),
    "families.elements": ("count", "lower"),
    "families.elements_per_call": ("count", "higher"),
    "spectral.busy_s": ("s", "lower"),
    "inference.busy_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.serialize_s": ("s", "lower"),
    "pipeline.converged_frac": ("ratio", "higher"),
    "simulate.busy_s": ("s", "lower"),
    "simulate.fstar_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.replicates": ("count", "higher"),
    "experiments.failed_frac": ("ratio", "lower"),
    "data_io.read_s": ("s", "lower"),
    "data_io.write_s": ("s", "lower"),
    "data_io.bytes_read": ("B", "lower"),
    "data_io.bytes_written": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
}


class Absent(str):
    """Why a metric could not be measured at this commit."""


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _count_elements(tracer, outer, args, kwargs, result):
    if outer:
        sizes = [a.size for a in args if isinstance(a, np.ndarray)]
        tracer.count("families.elements", max(sizes, default=1))


def _count_read(tracer, outer, args, kwargs, result):
    tracer.count("data_io.bytes_read", os.path.getsize(_path_arg(args, kwargs)))


def _count_written(tracer, outer, args, kwargs, result):
    tracer.count("data_io.bytes_written", os.path.getsize(_path_arg(args, kwargs)))


def _count_fold_fits(tracer, outer, args, kwargs, result):
    tracer.count("fold_fits", len(result.diagnostics))
    tracer.count("fold_fits_converged", sum(bool(d["converged"]) for d in result.diagnostics))


def _count_rows(tracer, outer, args, kwargs, result):
    tracer.count("experiment_rows", len(result.long_rows))
    tracer.count("experiment_failed_rows", sum(int(r["failed"]) for r in result.long_rows))


# Counters read off a call's arguments or result, by function name; a
# "families.*" entry applies to every function of that layer.
OBSERVERS = {
    "families.*": _count_elements,
    "data_io.read_csv_table": _count_read,
    "data_io.read_json": _count_read,
    "data_io.atomic_write_text": _count_written,
    "pipeline.ghive_fit": _count_fold_fits,
    "experiments.run_experiment": _count_rows,
}


class Tracer:
    def __init__(self):
        self.names = [ROOT]  # span name table; index 0 is the op root
        self.layers = [ROOT]
        self._layer_of_name = [0]
        self._name_col = array("i")
        self._parent_col = array("i")
        self._op_col = array("i")
        self._outer_col = array("b")  # first span of its layer on the stack
        self._start_col = array("d")
        self._end_col = array("d")
        self._stack = [-1]
        self._depth = [0]
        self._op = -1
        self._counters = {}
        self._bindings = self._bind()

    # -- installation -------------------------------------------------------

    def _bind(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ghive" or name.startswith("ghive."))
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and name not in UNTRACED
                ):
                    wrappers[obj] = self._wrap(obj, name, layer)
        return [
            (mod, attr, obj, wrappers[obj])
            for mod in modules
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _wrap(self, fn, name, layer):
        if layer not in self.layers:
            self.layers.append(layer)
            self._depth.append(0)
        layer_id = self.layers.index(layer)
        name_id = len(self.names)
        self.names.append(name)
        self._layer_of_name.append(layer_id)
        observe = OBSERVERS.get(name) or OBSERVERS.get(f"{layer}.*")
        names, parents, ops, outers = (
            self._name_col, self._parent_col, self._op_col, self._outer_col
        )
        starts, ends, stack, depth = self._start_col, self._end_col, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._op
            if op < 0:
                return fn(*args, **kwargs)
            idx = len(names)
            outer = depth[layer_id] == 0
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(op)
            outers.append(outer)
            ends.append(0.0)
            depth[layer_id] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[layer_id] -= 1
            if observe is not None:
                observe(tracer, outer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace the calls made inside the block as op ``op_id``; the
        wrappers are bound only for the duration of the block."""
        idx = len(self._name_col)
        self._name_col.append(0)
        self._parent_col.append(-1)
        self._op_col.append(op_id)
        self._outer_col.append(True)
        self._end_col.append(0.0)
        self._stack.append(idx)
        self._op = op_id
        self.install()
        self._start_col.append(time.perf_counter())
        try:
            yield
        finally:
            self._end_col[idx] = time.perf_counter()
            self.uninstall()
            self._op = -1
            self._stack.pop()

    def count(self, counter, value):
        per_op = self._counters.setdefault(self._op, {})
        per_op[counter] = per_op.get(counter, 0) + value

    # -- results ------------------------------------------------------------

    def spans(self):
        return {
            "name": np.frombuffer(self._name_col, dtype=np.int32),
            "parent": np.frombuffer(self._parent_col, dtype=np.int32),
            "op": np.frombuffer(self._op_col, dtype=np.int32),
            "start": np.frombuffer(self._start_col, dtype=np.float64),
            "end": np.frombuffer(self._end_col, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.spans())

    def totals(self):
        """Counter totals over all ops."""
        out = {}
        for per_op in self._counters.values():
            for key, value in per_op.items():
                out[key] = out.get(key, 0) + value
        return out

    def metrics(self, n_ops):
        """Per-layer metrics, each per op (ratios are over all ops)."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        layer = np.asarray(self._layer_of_name, dtype=np.int32)[s["name"]]
        outer = np.frombuffer(self._outer_col, dtype=np.int8).astype(bool)
        calls = np.bincount(s["name"], minlength=len(self.names))
        name_id = {name: i for i, name in enumerate(self.names)}
        counters = self.totals()

        def layer_id(name):
            return self.layers.index(name) if name in self.layers else None

        def busy(lay):
            lid = layer_id(lay)
            if lid is None:
                return Absent(f"no ghive.{lay} module")
            return float(dur[outer & (layer == lid)].sum()) / n_ops

        def self_s(lay):
            lid = layer_id(lay)
            if lid is None:
                return Absent(f"no ghive.{lay} module")
            return float(self_time[layer == lid].sum()) / n_ops

        def fn_ids(qualnames):
            ids = [name_id[q] for q in qualnames if q in name_id]
            if not ids:
                return Absent("none of " + ", ".join(f"ghive.{q}" for q in qualnames) + " found")
            return ids

        def fn_time(qualnames, outer_only=False):
            ids = fn_ids(qualnames)
            if isinstance(ids, Absent):
                return ids
            mask = np.isin(s["name"], ids)
            if outer_only:
                mask &= outer
            return float(dur[mask].sum()) / n_ops

        def fn_calls(qualnames):
            ids = fn_ids(qualnames)
            return ids if isinstance(ids, Absent) else float(calls[ids].sum()) / n_ops

        def counter(key, qualnames):
            ids = fn_ids(qualnames)
            return ids if isinstance(ids, Absent) else counters.get(key, 0) / n_ops

        def ratio(num, den):
            for v in (num, den):
                if isinstance(v, Absent):
                    return v
            return num / den if den else 0.0

        def fraction(num_key, den_key, qualnames):
            ids = fn_ids(qualnames)
            if isinstance(ids, Absent):
                return ids
            return ratio(counters.get(num_key, 0), counters.get(den_key, 0))

        objective = fn_calls(["qml.quasi_objective", "qml.loglik_objective"])
        gradient = fn_calls(["qml.quasi_gradient", "qml.loglik_gradient"])
        families_id = layer_id("families")
        if families_id is None:
            family_calls = elements = Absent("no ghive.families module")
        else:
            family_calls = float(np.count_nonzero(outer & (layer == families_id))) / n_ops
            elements = counters.get("families.elements", 0) / n_ops
        out = {
            "qml.busy_s": busy("qml"),
            "qml.gram_s": fn_time(["qml.weighted_gram"]),
            "qml.objective_evals": objective,
            "qml.gradient_evals": gradient,
            "qml.accept_frac": ratio(gradient, objective),
            "families.busy_s": busy("families"),
            "families.calls": family_calls,
            "families.elements": elements,
            "families.elements_per_call": ratio(elements, family_calls),
            "spectral.busy_s": busy("spectral"),
            "inference.busy_s": busy("inference"),
            "pipeline.self_s": self_s("pipeline"),
            "pipeline.serialize_s": fn_time(["pipeline.serialize_fit", "pipeline.deserialize_fit"]),
            "pipeline.converged_frac": fraction(
                "fold_fits_converged", "fold_fits", ["pipeline.ghive_fit"]
            ),
            "simulate.busy_s": busy("simulate"),
            "simulate.fstar_s": fn_time(["simulate.fstar_oracle"]),
            "experiments.self_s": self_s("experiments"),
            "experiments.replicates": fn_calls([f"experiments.{t}" for t in REPLICATE_TASKS]),
            "experiments.failed_frac": fraction(
                "experiment_failed_rows", "experiment_rows", ["experiments.run_experiment"]
            ),
            "data_io.read_s": fn_time([f"data_io.{f}" for f in READERS], outer_only=True),
            "data_io.write_s": fn_time([f"data_io.{f}" for f in WRITERS], outer_only=True),
            "data_io.bytes_read": counter(
                "data_io.bytes_read", ["data_io.read_csv_table", "data_io.read_json"]
            ),
            "data_io.bytes_written": counter(
                "data_io.bytes_written", ["data_io.atomic_write_text"]
            ),
            "cli.self_s": self_s("cli"),
        }
        return out
