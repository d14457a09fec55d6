"""No module of the package imports a name it never uses, and no private
module-level function goes unread by the package."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobgen"


def unused_imports(source: str) -> list[str]:
    """The names source binds by import and never reads, in source order.

    A name is read where it appears as a Name node: a call, an attribute's
    base or an annotation (annotations stay expressions in the tree under
    `from __future__ import annotations`).  `__future__` imports bind nothing.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(bound) if name not in read]


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import compress, repeat as again\n"
        "def f(n: Sequence) -> list:\n"
        "    return list(again(os.sep, n))\n"
    )
    assert unused_imports(source) == ["compress"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """"module:name" for each module-level `def _name` (dunders aside) in
    sources, a map of module name to source, that no module reads outside
    the def itself, in sorted order.

    A read is a Name node, an Attribute's attribute or the imported name of
    a `from ... import`; a helper that only calls itself is unread.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)
                if stmt.name.startswith("_") and not stmt.name.endswith("__"):
                    defined.append(f"{module}:{stmt.name}")
            read |= names
    return sorted(d for d in defined if d.partition(":")[2] not in read)


def test_finds_a_dead_private_helper():
    sources = {
        "a.py": (
            "def _called(): return 1\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "def _imported(): pass\n"
            "def _by_attribute(): pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _called()\n"
        ),
        "b.py": (
            "import a\n"
            "from a import _imported as alias\n"
            "def f(): return a._by_attribute\n"
        ),
    }
    assert dead_private_helpers(sources) == ["a.py:_recursive"]


def test_every_private_helper_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_helpers(sources) == []
