"""The package defines only what it runs.

Every public module-level function or class in `src/mtra/` must be read
by the library, the CLI or the benchmark harness in `perfbench/`: a name
that only tests call is a helper for those tests, and belongs with them.
So must every public method, property or field of a class defined there.
A read is a name, an attribute or a `from ... import` alias anywhere in
`src/mtra/` other than `__init__.py`, whose re-exports are not a use,
or in `perfbench/`, outside the definition or member itself.  Reads are
matched by name alone, so a member called `row` is read wherever any
`row` is; module constants are not checked.
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
    """The names ``node`` itself reads, not those of its children."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)


def _members(top):
    """The (name, statement) pairs of a class's methods, properties and
    annotated fields, or none for any other top-level statement."""
    if not isinstance(top, ast.ClassDef):
        return []
    out = []
    for part in top.body:
        if isinstance(part, ast.FunctionDef):
            out.append((part.name, part))
        elif isinstance(part, ast.AnnAssign) and isinstance(part.target, ast.Name):
            out.append((part.target.id, part))
    return out


def _all_reads():
    """Per name read, the (file, top-level definition, member) places it
    is read in, the member None outside a class's members, so that a
    definition or a member reading itself is not counted."""
    reads = {}
    for path in READERS:
        for top in _parsed(path).body:
            inside = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            within = {id(node): name for name, part in _members(top) for node in ast.walk(part)}
            for sub in ast.walk(top):
                for name in _reads(sub):
                    reads.setdefault(name, set()).add((path, inside, within.get(id(sub))))
    return reads


READS = _all_reads()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_public_definition_is_read_by_the_package_or_the_benchmark(path):
    defined = [
        node.name
        for node in _parsed(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unread = [name for name in defined if {place[:2] for place in READS.get(name, ())} <= {(path, name)}]
    assert not unread, f"{path.name} defines names that neither src/mtra nor perfbench reads: {unread}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_public_member_is_read_by_the_package_or_the_benchmark(path):
    unread = [
        f"{top.name}.{name}"
        for top in _parsed(path).body
        for name, _ in _members(top)
        if not name.startswith("_") and READS.get(name, set()) <= {(path, top.name, name)}
    ]
    assert not unread, f"{path.name} defines members that neither src/mtra nor perfbench reads: {unread}"
