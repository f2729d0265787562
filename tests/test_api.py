"""The package's public name list, and the names the benchmark reaches."""

import ast
import importlib
import importlib.util
from pathlib import Path

import mslca

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
