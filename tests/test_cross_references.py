"""Every cross-reference in the docs names something that exists.

A Sphinx-role reference (``:func:`...```, ``:class:`...```, and so on)
in a `src/mtra` docstring is read in the module it is written in, and a
backticked `module.name` in README.md that names an `mtra` module is
read from the package.  A reference resolves when it names an attribute
of its module (``mtra.``-qualified ones from the package), of a class
defined there, or of a built `Instance`.
"""

import ast
import importlib
import re
from pathlib import Path

import mtra

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mtra"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
ROLE = re.compile(r":(?:func|class|meth|attr|mod|data|exc|obj):`~?([\w.]+)`")
README_NAME = re.compile(r"`(?:mtra\.)?((\w+)\.[\w.]+)(?:\([^`]*\))?`")


def _has(owner, dotted, instance):
    for name in dotted.split("."):
        if owner is type(instance):
            owner = instance  # its fields are set on a built one only
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def _resolves(module, target, instance):
    if target.startswith("mtra."):
        head, _, target = target.removeprefix("mtra.").partition(".")
        module = importlib.import_module(f"mtra.{head}")
        if not target:
            return True
    classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    return any(_has(owner, target, instance) for owner in (module, *classes, instance))


def _docstring_references():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for target in ROLE.findall(ast.get_docstring(node, clean=False) or ""):
                    yield path.stem, target


def test_docstring_references_resolve(mixed_pair):
    unresolved = [
        f"{name}: {target}"
        for name, target in _docstring_references()
        if not _resolves(importlib.import_module(f"mtra.{name}"), target, mixed_pair)
    ]
    assert unresolved == []


def test_readme_module_references_resolve(mixed_pair):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    found = [dotted for dotted, head in README_NAME.findall(text) if head in MODULES]
    assert found, "README names no mtra module attribute"
    unresolved = [dotted for dotted in found if not _resolves(mtra, f"mtra.{dotted}", mixed_pair)]
    assert unresolved == []
