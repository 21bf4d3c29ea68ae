"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

import rhmap

SRC = Path(rhmap.__file__).parent


def unread_imports(source: str, exported=()) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports and
    the ``exported`` names do not count."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read - set(exported))


def test_unread_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .a import b, c as d, e\n"
              "x = np.zeros(1)\ndef f(y: e): return y\n")
    assert unread_imports(source) == ["b", "d", "os"]
    assert unread_imports(source, exported=["b", "os"]) == ["d"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    # the package's __init__ imports its __all__ to re-export it
    exported = rhmap.__all__ if path.name == "__init__.py" else ()
    assert unread_imports(path.read_text(encoding="utf-8"), exported) == []
