"""Every name a module of the package imports is read in that module,
every top-level function and class of the package is read in it, and so
is every config key."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import rhmap
from rhmap.config import (_SUBSECTIONS, BackendConfig, FrontendConfig,
                          MapConfig, PipelineConfig)

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


#: Top-level names of the package that only the benchmark harness reads:
#: ``perfbench/child.py`` scores with ``count_dynamic_cubes`` and
#: ``perfbench/workloads.py`` makes its scenes with ``synth_scene``.
BENCHMARK_ONLY = ("count_dynamic_cubes", "synth_scene")


def unread_definitions(sources, exempt=()) -> list[str]:
    """Top-level functions and classes of the modules ``sources`` that no
    module reads, as a name or an attribute, outside their own definition;
    the ``exempt`` names do not count."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    ref = sub.id
                elif isinstance(sub, ast.Attribute):
                    ref = sub.attr
                else:
                    continue
                if ref != own:
                    read.add(ref)
    return sorted(defined - read - set(exempt))


def test_unread_definitions_finds_what_is_never_read():
    a = ("def f(n): return f(n - 1) if n else g()\n"
         "def g(): return 0\nclass C: pass\nclass D: pass\n")
    b = "import a\nx = a.D()\n"
    assert unread_definitions([a, b]) == ["C", "f"]
    assert unread_definitions([a, b], exempt=["C"]) == ["f"]


def test_every_definition_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unread_definitions(sources, BENCHMARK_ONLY) == []


def read_attributes(source: str) -> set[str]:
    """Attribute names a module reads outside its ``validate`` methods,
    which check a value without using it."""
    tree = ast.parse(source)
    checks = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "validate"
              for n in ast.walk(f)}
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in checks}


def test_read_attributes_skips_validate_and_stores():
    source = ("class C:\n"
              "    def validate(self): return self.a > 0\n"
              "    def f(self): return self.b\n"
              "def g(c):\n    c.d = 1\n    return c.e.f\n")
    assert read_attributes(source) == {"b", "e", "f"}


def test_every_config_key_is_read_by_the_runtime():
    # a key only `validate` reads changes nothing but which values pass
    read = set().union(*(read_attributes(p.read_text(encoding="utf-8"))
                         for p in SRC.glob("*.py")))
    keys = {f.name for section in (MapConfig, FrontendConfig, BackendConfig,
                                   PipelineConfig)
            for f in fields(section)} - set(_SUBSECTIONS)
    assert sorted(keys - read) == []


def layout_shifts(source: str) -> list[int]:
    """Lines of a module that shift by the literal 21 or 42: the packed
    key's field width, and where its x field starts."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.BinOp)
                  and isinstance(n.op, (ast.LShift, ast.RShift))
                  and isinstance(n.right, ast.Constant)
                  and n.right.value in (21, 42))


def test_layout_shifts_finds_shifts_by_21():
    source = "a = k >> 21\nb = k << 21\nc = k >> 20\nd = k >> AXIS_BITS\n"
    assert layout_shifts(source) == [1, 2]


def test_layout_shifts_finds_shifts_by_42():
    # the x field's offset: a module that packs or unpacks x by hand
    source = "a = k >> 42\nb = (x & m) << 42\nc = k >> 2 * AXIS_BITS\n"
    assert layout_shifts(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_indexing_knows_the_key_layout(path):
    # other modules go through column_of / column_start / column_runs, so
    # a change of the packed layout is a change of indexing.py alone
    if path.name != "indexing.py":
        assert layout_shifts(path.read_text(encoding="utf-8")) == []
