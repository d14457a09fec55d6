"""No module of the package imports a name it never uses."""
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
