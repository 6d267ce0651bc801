"""Every cache in the package is bounded.

A module-level cache lives as long as the process, so one without a
bound grows with every distinct argument it is ever called with.  Each
use of `functools.lru_cache` in `src/mtra/` must therefore be a call
with an explicit integer ``maxsize``; `functools.cache`, a bare
``@lru_cache``, ``lru_cache()`` and ``maxsize=None`` are refused.
Per-object caches (`functools.cached_property`) go with their object
and are not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mtra"
CACHES = ("cache", "lru_cache")


def _explicit_bound(call):
    """Whether the ``lru_cache(...)`` call names a positive integer maxsize."""
    sizes = list(call.args) + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return (
        len(sizes) == 1
        and isinstance(sizes[0], ast.Constant)
        and type(sizes[0].value) is int
        and sizes[0].value > 0
    )


def cache_uses(tree):
    """Per read of `functools.cache` or `functools.lru_cache` in the tree,
    by name, alias or attribute: (line, whether it is a bounded call)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((alias.asname or alias.name, alias.name) for alias in node.names if alias.name in CACHES)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            kind = names[node.id]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            kind = node.attr
        else:
            continue
        call = calls.get(id(node))
        yield node.lineno, kind == "lru_cache" and call is not None and _explicit_bound(call)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_cache_has_an_explicit_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unbounded = [line for line, bounded in cache_uses(tree) if not bounded]
    assert unbounded == [], f"{path.name}: unbounded cache at lines {unbounded}"


def test_the_package_has_caches_to_check():
    # the guard reads the decorators the package really uses
    uses = [
        use for path in sorted(PACKAGE.glob("*.py")) for use in cache_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(uses) >= 10 and all(bounded for _, bounded in uses)


@pytest.mark.parametrize(
    "source, bounded",
    [
        ("from functools import lru_cache\n@lru_cache(maxsize=64)\ndef f(x): pass", [True]),
        ("from functools import lru_cache\n@lru_cache(64)\ndef f(x): pass", [True]),
        ("import functools\n@functools.lru_cache(maxsize=8, typed=True)\ndef f(x): pass", [True]),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", [False]),
        ("from functools import lru_cache\n@lru_cache()\ndef f(x): pass", [False]),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass", [False]),
        ("from functools import lru_cache\n@lru_cache(None)\ndef f(x): pass", [False]),
        ("from functools import lru_cache as memo\n@memo(maxsize=True)\ndef f(x): pass", [False]),
        ("from functools import cache\n@cache\ndef f(x): pass", [False]),
        ("import functools\n@functools.cache\ndef f(x): pass", [False]),
        ("import functools\ng = functools.lru_cache(maxsize=None)(len)", [False]),
        ("from functools import cached_property\nclass C:\n    @cached_property\n    def f(self): pass", []),
    ],
)
def test_the_guard_refuses_each_unbounded_form(source, bounded):
    assert [ok for _, ok in cache_uses(ast.parse(source))] == bounded
