"""The package's public name list, and the names the benchmark reaches."""

import ast
import importlib
import importlib.util
from pathlib import Path

import mslca

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
TRACING = WORKLOADS.with_name("tracing.py")


def test_all_names_resolve_once():
    names = mslca.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mslca, name), name


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
