"""The package imports nothing outside the standard library, and only at
module level; only `scalars` evaluates the metric parameter."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qhg"


def foreign_imports(source: str) -> list[str]:
    """Absolute imports in source whose top-level module is neither stdlib nor qhg."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name
        for name in names
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "qhg"
    ]


def local_imports(source: str) -> list[str]:
    """`function:line` of every import statement inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{node.name}:{inner.lineno}")
    return sorted(set(found))


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    for path in files:
        assert foreign_imports(path.read_text()) == [], path.name


def test_import_guard_flags_a_foreign_module():
    assert foreign_imports("import numpy\nfrom fractions import Fraction\n") == ["numpy"]
    assert foreign_imports("def f():\n    from scipy.linalg import solve\n") == ["scipy.linalg"]
    assert foreign_imports("from . import algebra\nimport qhg.cli\nimport json") == []


def test_package_imports_only_at_module_level():
    for path in sorted(SRC.glob("*.py")):
        assert local_imports(path.read_text()) == [], path.name


def test_local_import_guard_flags_an_import_in_a_function():
    assert local_imports("def f():\n    from .exterior import Endo\n") == ["f:2"]
    nested = "class A:\n    def m(self):\n        if True:\n            import json\n"
    assert local_imports(nested) == ["m:4"]
    assert local_imports("from .exterior import Endo\nimport json\ndef f():\n    return json\n") == []


def specialize_calls(source: str) -> list[str]:
    """`function:line` of every `.specialize(` call, `<module>` outside functions."""
    tree = ast.parse(source)
    scope = {}
    for node in ast.walk(tree):  # outer functions first, so the innermost name wins
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.update(dict.fromkeys(ast.walk(node), node.name))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "specialize"
    ]
    return [f"{scope.get(c, '<module>')}:{c.lineno}" for c in sorted(calls, key=lambda c: c.lineno)]


def test_only_scalars_specializes_the_metric_parameter():
    """Every other module reads the parameter at l = 1 through
    `scalars.homogeneous_at_one`, which certifies that one point suffices."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "scalars.py":
            assert specialize_calls(path.read_text()) == [], path.name


def test_specialize_guard_flags_a_sampled_parameter():
    # the holonomy flattening as it read before the one specialisation point
    sampled = (
        "def _flatten(e, value):\n"
        "    return {r * e.dim + c: v.specialize(value) for (r, c), v in e.m.items()}\n"
    )
    assert specialize_calls(sampled) == ["_flatten:2"]
    nested = "class G:\n    def f(self, b):\n        return [[c.specialize(2) for c in r] for r in b]\n"
    assert specialize_calls(nested) == ["f:3"]
    assert specialize_calls("x = s.specialize(1)\n") == ["<module>:1"]
    assert specialize_calls("def f(s):\n    return homogeneous_at_one([s]), specialize(s)\n") == []
