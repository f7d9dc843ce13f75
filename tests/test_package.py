"""Dependency surface: the package needs numpy and nothing else at runtime,
and keeps every name the benchmark in ``cotfbench/`` calls."""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cotf
import cotf.cli

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_dependencies_are_numpy_only():
    # Top-level packages that importing cotf loads, beyond the standard library.
    probe = (
        "import sys; before = set(sys.modules); import cotf; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['cotf', 'numpy']"

    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def _traced_functions():
    """(module, function) pairs of the benchmark tracer's ``FUNCTIONS`` and
    the ``arguments[...]`` keys each of its counters reads, from the source."""
    tree = ast.parse((ROOT / "cotfbench" / "tracer.py").read_text())
    assigned = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    functions = [(module, name) for module, name, _ in ast.literal_eval(assigned["FUNCTIONS"])]
    counters = dict(zip(
        (key.value for key in assigned["COUNTERS"].keys),
        (value.id for value in assigned["COUNTERS"].values),
    ))
    keys = {
        node.name: {
            sub.slice.value
            for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "arguments"
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    return functions, {name: keys[counter] for name, counter in counters.items()}


def test_benchmark_api_resolves():
    # The benchmark drives the package through these names; a rename or a
    # deleted export breaks it.
    functions, bound = _traced_functions()
    assert functions and set().union(*bound.values()) == {"aperture", "grid", "path", "stack"}
    for module, name in functions:
        function = getattr(importlib.import_module(f"cotf.{module}"), name)
        parameters = inspect.signature(function).parameters
        assert bound.get(name, set()) <= set(parameters), (module, name)
    assert callable(cotf.cli.Runner.emit) and callable(cotf.cli.main)
    assert issubclass(cotf.optimizer.NumericalError, Exception)

    source = (ROOT / "cotfbench" / "workloads.py").read_text()
    names = set(re.findall(r"\bcotf\.([A-Za-z_]\w*)", source))
    assert {"build_stack", "zero_channel_grid", "mainlobe_mask"} <= names
    for name in names:
        assert hasattr(cotf, name), name
    for name in set(re.findall(r"\bcli\.([A-Za-z_]\w*)", source)):
        assert hasattr(cotf.cli, name), name

    # ``record_reference.py`` re-records the benchmark's reference values
    # through these names and keyword arguments.
    tree = ast.parse((ROOT / "cotfbench" / "record_reference.py").read_text())
    keywords = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cotf":
            assert hasattr(cotf, node.attr), node.attr
        if isinstance(node, ast.Call) and getattr(getattr(node.func, "value", None), "id", None) == "cotf":
            keywords.setdefault(node.func.attr, set()).update(k.arg for k in node.keywords)
    assert keywords["na_sweep"] == {"policies", "grid", "n_theta", "n_phi"}
    assert keywords["TruncationPolicy"] == {"threshold_db", "convention"}
    for name, passed in keywords.items():
        assert passed <= set(inspect.signature(getattr(cotf, name)).parameters), name


def test_no_private_names_across_modules():
    # A module reads only the public names of its siblings: no
    # ``from .mod import _name`` and no ``mod._name``.
    sources = sorted((ROOT / "src" / "cotf").glob("*.py"))
    siblings = {path.stem for path in sources}
    private = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in siblings
                    and node.attr.startswith("_") and not node.attr.startswith("__")):
                private.append((path.name, f"{node.value.id}.{node.attr}"))
    assert not private
