"""The package's public name list, and the names the benchmark reaches."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mslca

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
TRACING = WORKLOADS.with_name("tracing.py")


def test_all_names_resolve_once():
    names = mslca.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mslca, name), name


# Run in a fresh interpreter, so that no earlier test has loaded numpy.ma.
_NUMPY_MA_PROBE = """
import sys
import numpy as np
import mslca, mslca.cli
rows = np.random.default_rng(0).standard_normal((200, 6))
fit = mslca.fit_mslca(mslca.Dataset(mslca.BlockStructure((2, 2, 2)), rows))
mslca.chi2_test(fit, scale="plugin")
mslca.general_test(fit)
null_22 = mslca.CovarianceModel(mslca.BlockStructure((2, 2)), np.eye(4))
for kind, methods in (("consistency", ("chi2",)), ("null-dist", ("chi2", "general"))):
    plan = mslca.SimulationPlan(kind, null_22, (60,), replications=4, methods=methods)
    mslca.run_experiment(plan)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_import_fit_and_tests_leave_numpy_ma_unloaded():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _name_counts(tree):
    """How often each name is read in ``tree``, as a bare name or as an attribute."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def _referenced_names(path):
    """Every name a module reads, as a bare name or as an attribute."""
    return set(_name_counts(ast.parse(path.read_text(encoding="utf-8"))))


def test_public_functions_have_a_caller():
    # a public function that no package module and no benchmark workload
    # calls is a helper nothing uses; the package re-export does not count
    sources = [p for p in (ROOT / "src" / "mslca").glob("*.py") if p.name != "__init__.py"]
    referenced = set().union(*(_referenced_names(p) for p in [*sources, WORKLOADS]))
    functions = [name for name in mslca.__all__ if inspect.isfunction(getattr(mslca, name))]
    assert functions
    assert [name for name in functions if name not in referenced] == []


def test_private_helpers_have_a_caller():
    # a private function or class that the package reads nowhere but in its
    # own body is a helper left behind when its last caller went
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "src" / "mslca").glob("*.py")]
    counts = sum(map(_name_counts, trees), Counter())
    helpers = [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert helpers
    assert [h.name for h in helpers if counts[h.name] == _name_counts(h)[h.name]] == []


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_benchmark_names_resolve():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    chains, imports = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain and chain.startswith("mslca."):
                chains.add(chain)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mslca":
            imports.update((node.module, alias.name) for alias in node.names)
    assert chains and imports
    for chain in sorted(chains):
        _, module, *attrs = chain.split(".")
        obj = importlib.import_module(f"mslca.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), chain
            obj = getattr(obj, attr)
    for module, name in sorted(imports):
        assert hasattr(importlib.import_module(module), name), f"from {module} import {name}"


def test_benchmark_coefficient_plug_in_runs(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.CoeffCltPlugin(0, str(tmp_path), replications=2, chunks=1)
    bench.prepare()
    tensor, sigma = bench._plug_in()
    q = workloads.SIMPLE_222.structure.total_dim
    assert tensor.shape == (q, q, q, q) and sigma.shape == (q, q)


def test_traced_names_that_no_longer_resolve():
    # the traced run's lookup (``SpanRecorder.install``): a callable module
    # attribute, else a method of a class defined in that module. These four
    # names are gone from the package; the list changes only on purpose.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for module_name, names in tracing.LAYERS.items():
        module = importlib.import_module(f"mslca.{module_name}")
        classes = [
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ]
        for name in names:
            members = [vars(cls).get(name) for cls in classes]
            if not callable(vars(module).get(name)) and not any(
                isinstance(raw, (classmethod, staticmethod)) or callable(raw) for raw in members
            ):
                unresolved.add(f"{module_name}.{name}")
    assert unresolved == {
        "asymptotics.eigenvalues",
        "asymptotics.elliptical_scale_plugin",
        "estimation.empirical_cov",
        "noncorr.s_statistic",
    }
