"""The package defines only what it runs.

Every public module-level function or class in `src/mtra/` must be read
by the library, the CLI or the benchmark harness in `perfbench/`: a name
that only tests call is a helper for those tests, and belongs with them.
A read is a name, an attribute or a `from ... import` alias anywhere in
`src/mtra/` other than `__init__.py`, whose re-exports are not a use,
or in `perfbench/`, outside the definition itself.  Methods are not
checked, since names such as `row` are too common to tell apart.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mtra"
READERS = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def _parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _all_reads():
    """Per name read, the (file, top-level definition) pairs it is read
    inside, so that a definition reading itself is not counted."""
    reads = {}
    for path in READERS:
        for top in _parsed(path).body:
            inside = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for name in _reads(top):
                reads.setdefault(name, set()).add((path, inside))
    return reads


READS = _all_reads()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_public_definition_is_read_by_the_package_or_the_benchmark(path):
    defined = [
        node.name
        for node in _parsed(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unread = [name for name in defined if READS.get(name, set()) <= {(path, name)}]
    assert not unread, f"{path.name} defines names that neither src/mtra nor perfbench reads: {unread}"
