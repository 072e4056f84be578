"""Every name a module, demo or test oracle imports is used in it.

A standard-library stand-in for a linter's unused-import rule.  The package
__init__ is skipped: its imports are the re-exports behind __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "formchains").glob("*.py")
                 if p.name != "__init__.py")
SOURCES += sorted((ROOT / "demos").glob("*.py"))
SOURCES += sorted((ROOT / "tests").glob("oracle_*.py"))


def unused_imports(source):
    """(name, line) for each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno)
                         for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported if name not in used]


def test_sources_are_found():
    assert len(SOURCES) > 10


def test_unused_imports_are_caught():
    src = ("from __future__ import annotations\n"
           "import os\nfrom a.b import c, d as e\n"
           "print(c)\n")
    assert unused_imports(src) == [("os", 2), ("e", 3)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
