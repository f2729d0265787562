"""Span recorder for the traced run: wraps the public functions of each layer.

Spans are recorded from outside the package. Installing the recorder wraps
every function named in ``LAYERS`` and rebinds each name that any loaded
``mslca`` module holds for it (``mslca.simulate.fit_mslca`` as well as
``mslca.estimation.fit_mslca``), so calls between modules are seen too.
Uninstalling restores the original objects. Spans stay in memory and are
written once, when the worker ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# Wrapped names per module. A class name wraps its constructor; a name the
# module does not define at top level is looked up among the methods of the
# classes it defines (``from_whitened``, ``eigenvalues``).
LAYERS = {
    "blocks": ("sym_eig", "sym_power", "psd_sqrt"),
    "population": ("build_t", "solve_mslca"),
    "estimation": ("Dataset", "empirical_cov", "fit_mslca", "whiten"),
    "asymptotics": (
        "from_whitened",
        "build_gamma",
        "eigenvalues",
        "quad_form_pvalue",
        "elliptical_scale_plugin",
        "c_tensor",
        "c_tensor_gaussian",
        "sigma_matrix",
    ),
    "noncorr": ("s_statistic", "chi2_test", "general_test"),
    "simulate": ("sample_gaussian", "sample_student_t", "run_experiment", "ks_distance"),
    "cli": ("read_csv_matrix", "write_json", "main"),
}

SPAN_METRICS = (("calls", "count/op"), ("busy_s", "s/op"), ("self_s", "s/op"), ("errors", "count/op"))


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _pair_dim(structure) -> int:
    dims = structure.dims
    return sum(dims[k] * dims[l] for k in range(len(dims)) for l in range(k))


def _c_tensor_madds(acc) -> int:
    k = acc.structure.n_blocks
    return 3 * (k * (k - 1)) ** 2 * acc.n * acc.structure.total_dim**4


# Exact work counts, taken from the arguments of a wrapped call:
# metric name -> (wrapped function, unit, count(args, kwargs, result)).
# ``madd`` counts are computed from shapes, not measured.
COUNTS = {
    "estimation.Dataset.bytes": (
        "estimation.Dataset", "B/op", lambda a, k, out: a[0].rows.nbytes,
    ),
    "asymptotics.quad_form_pvalue.variates": (
        "asymptotics.quad_form_pvalue", "count/op",
        lambda a, k, out: _first_arg(a, k).draws * _first_arg(a, k).weights.size,
    ),
    "asymptotics.build_gamma.madds": (
        "asymptotics.build_gamma", "madd/op",
        lambda a, k, out: _first_arg(a, k).n * _pair_dim(_first_arg(a, k).structure) ** 2,
    ),
    "asymptotics.c_tensor.madds": (
        "asymptotics.c_tensor", "madd/op", lambda a, k, out: _c_tensor_madds(_first_arg(a, k)),
    ),
    "cli.read_csv_matrix.bytes": (
        "cli.read_csv_matrix", "B/op", lambda a, k, out: os.path.getsize(_first_arg(a, k)),
    ),
    "cli.write_json.bytes": (
        "cli.write_json", "B/op", lambda a, k, out: os.path.getsize(_first_arg(a, k)),
    ),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [
        (f"{module}.{fn}.{suffix}", unit)
        for module, fns in LAYERS.items()
        for fn in fns
        for suffix, unit in SPAN_METRICS
    ]
    names += [(name, unit) for name, (_, unit, _) in COUNTS.items()]
    return names


class SpanRecorder:
    """In-memory spans (name, start, end, parent) plus error and work counts."""

    def __init__(self) -> None:
        self.targets = [f"{m}.{fn}" for m, fns in LAYERS.items() for fn in fns]
        self._ids = {name: i for i, name in enumerate(self.targets)}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.errors = [0] * len(self.targets)
        self.counts = {name: 0 for name in COUNTS}
        self.missing: set[str] = set()  # wrapped functions or counts not found
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, target: str, fn):
        nid = self._ids[target]
        counters = [(name, spec[2]) for name, spec in COUNTS.items() if spec[0] == target]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(rec.start)
            rec.span_name.append(nid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.errors[nid] += 1
                raise
            finally:
                t1 = time.perf_counter()
                rec._stack.pop()
                rec.start[sid] = t0
                rec.end[sid] = t1
            for name, count in counters:
                try:
                    rec.counts[name] += int(count(args, kwargs, out))
                except (AttributeError, TypeError, IndexError, StopIteration, OSError):
                    rec.missing.add(name)
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items()) if name == "mslca" or name.startswith("mslca.")]
        for target in self.targets:
            module_name, name = target.split(".")
            try:
                module = importlib.import_module(f"mslca.{module_name}")
            except ModuleNotFoundError:
                self.missing.add(target)
                continue
            obj = vars(module).get(name)
            if isinstance(obj, type):
                self._patch(obj, "__init__", self._wrap(target, obj.__init__))
            elif callable(obj):
                wrapped = self._wrap(target, obj)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, attr, wrapped)
            elif not self._wrap_method(module, target, name):
                self.missing.add(target)

    def _wrap_method(self, module, target: str, name: str) -> bool:
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            raw = vars(cls).get(name)
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, name, type(raw)(self._wrap(target, raw.__func__)))
                return True
            if callable(raw):
                self._patch(cls, name, self._wrap(target, raw))
                return True
        return False

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value, had = self._patches.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_metrics(self, ops: int) -> dict[str, dict]:
        """Per-operation calls, busy and self seconds, errors and work counts.

        Self time is a span's duration minus the durations of its direct
        children; the worker is single-threaded, so children never overlap.
        """
        n_names = len(self.targets)
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=dur - child, minlength=n_names)
        values = {}
        for i, target in enumerate(self.targets):
            values[f"{target}.calls"] = float(calls[i])
            values[f"{target}.busy_s"] = float(busy[i])
            values[f"{target}.self_s"] = float(own[i])
            values[f"{target}.errors"] = float(self.errors[i])
        values.update(self.counts)
        return {name: {"value": values[name] / ops, "unit": unit} for name, unit in metric_names()}

    def save(self, path: str) -> None:
        """Write every span as arrays: name id, start, end and parent id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int32),
            names=np.asarray(json.dumps(self.targets)),
        )
