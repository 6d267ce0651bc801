"""The library names that the benchmark harness in `perfbench/` reads.

The harness calls mtra by name, so renaming or deleting one of those
names would show only when the harness runs.  These tests parse its
modules with `ast` and resolve every name in the library; they import
nothing from `perfbench/` and write nothing there.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _library_reads(tree):
    """Each (module, attribute) read as `name.attribute`, where `name` is
    bound by `from mtra import module` or `from mtra import module as name`."""
    bound = {
        alias.asname or alias.name: f"mtra.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mtra"
        for alias in node.names
    }
    return {
        (bound[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
    }


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_perfbench_reads_only_names_the_library_has(path):
    for module, attr in sorted(_library_reads(_parsed(path))):
        assert hasattr(importlib.import_module(module), attr), f"{path.name} reads {module}.{attr}"


def test_traced_functions_resolve():
    (functions,) = [
        node.value
        for node in _parsed(PERFBENCH / "tracing.py").body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]
    ]
    entries = ast.literal_eval(functions)
    assert entries
    for module, attr, _ in entries:
        assert hasattr(importlib.import_module(module), attr), f"tracing.FUNCTIONS names {module}.{attr}"


def test_traced_methods_are_defined_on_their_own_classes():
    # `Tracer.install` wraps `vars(cls)[attr]` and skips a class whose own
    # namespace lacks the method, so a method moved to a base class or a
    # helper would drop its traced layer without an error
    replaced = {
        node.args[1].value
        for node in ast.walk(_parsed(PERFBENCH / "tracing.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_replace"
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
    }
    assert replaced == {"with_preference", "for_agent", "candidates"}
    model = importlib.import_module("mtra.model")
    spaces = importlib.import_module("mtra.spaces")
    assert "with_preference" in vars(model.Instance)
    owners = [(spaces.MisreportSpace, "for_agent"), (spaces.TransformSource, "candidates")]
    for base, attr in owners:
        classes = [cls for cls in vars(spaces).values() if isinstance(cls, type) and issubclass(cls, base)]
        assert len(classes) > 2, base
        for cls in classes:
            assert attr in vars(cls), f"{cls.__name__}.{attr} is not defined on the class itself"
