"""Every name a module, demo, test or test oracle imports is used in it,
every module-level def or class in the package is exported or read somewhere,
every one in a test oracle is read by the tests, the package holds no
assert statement, which python -O would strip from its run-time checks,
only exactla reads a matrix's storage, only superchain reads a complex's
run keys, and no function in the package calls itself, which a long input
would drive to the recursion limit.

A standard-library stand-in for a linter's unused-import and dead-code rules.
The package __init__ is skipped as a source of imports and definitions: its
imports are the re-exports behind __all__.
"""

import ast
from pathlib import Path

import pytest

import formchains

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "formchains").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
ORACLES = [p for p in TESTS if p.name.startswith("oracle_")]
SOURCES = MODULES + DEMOS + TESTS
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


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


def dead_definitions(defining, readers, exported):
    """(module, name) for each module-level def or class in a defining source
    that is not exported and that no reader source reads by name or attribute.
    """
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(module, node.name)
            for module, source in defining.items()
            for node in ast.parse(source).body
            if isinstance(node, kinds)
            and node.name not in exported and node.name not in read]


def test_dead_definitions_are_caught():
    defining = {"a": ("def used(): pass\ndef exported(): pass\n"
                      "def dead(): pass\nclass Dead: pass\n"
                      "def via_attr(): pass\ndef stored(): pass\n"),
                "b": "def helper(): return used()\n"}
    readers = [*defining.values(), "import a\na.via_attr()\nstored = 1\nhelper()\n"]
    assert dead_definitions(defining, readers, {"exported"}) == [
        ("a", "dead"), ("a", "Dead"), ("a", "stored")]


def test_no_dead_definitions():
    defining = {p.stem: p.read_text() for p in MODULES}
    readers = [p.read_text() for p in PACKAGE + DEMOS]
    assert dead_definitions(defining, readers, set(formchains.__all__)) == []


def test_oracles_are_found():
    assert ORACLES


def test_no_stale_oracles():
    # an oracle helper may be read by another def of its own file
    defining = {p.stem: p.read_text() for p in ORACLES}
    assert dead_definitions(defining, [p.read_text() for p in TESTS], set()) == []


def assert_lines(source):
    """The line of each assert statement in a source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_statements_are_caught():
    src = ("def f(x):\n    assert x, 'no'\n"
           "    if x:\n        assert x > 1\n"
           "    raise AssertionError('kept')\n")
    assert assert_lines(src) == [2, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_in_the_package(path):
    assert assert_lines(path.read_text()) == []


def layout_reads(source):
    """The line of each read of a matrix's storage: a .cols or .entries load."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in ("cols", "entries")]


def test_layout_reads_are_caught():
    src = ("def f(m, out):\n    n = len(m.entries)\n"
           "    out.cols = m.cols[0]\n    return m.ncols, n\n")
    assert layout_reads(src) == [2, 3]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "exactla.py"],
                         ids=lambda p: p.name)
def test_matrix_layout_stays_in_exactla(path):
    assert layout_reads(path.read_text()) == []


RUN_KEY_INTERNALS = ("_run_keys", "_key_cache", "_picks", "_pick_cache", "_image", "_flat", "_ids",
                     "_terms")


def run_key_reads(source):
    """The line of each read of a complex's run keys: the walk and its
    caches, the image and the token ids."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in RUN_KEY_INTERNALS)


def test_run_key_reads_are_caught():
    src = ("def f(cx, m, w):\n    keys = cx._run_keys(m, w)\n"
           "    cx._key_cache.clear()\n    img = cx._image(keys[0], cx.bracket)\n"
           "    return cx.basis(m, w), cx.tokens, img\n")
    assert run_key_reads(src) == [2, 3, 4]


@pytest.mark.parametrize("path", [p for p in PACKAGE + DEMOS + TESTS + BENCH
                                  if p.name != "superchain.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_run_keys_stay_in_superchain(path):
    assert run_key_reads(path.read_text()) == []


def self_calls(source):
    """(function, line) for each call of a function to itself: by name from
    a function, through self or cls from a method."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, kinds)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, kinds):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if fn in methods:
                hit = (isinstance(f, ast.Attribute) and f.attr == fn.name
                       and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
            else:
                hit = isinstance(f, ast.Name) and f.id == fn.name
            if hit:
                found.append((fn.name, call.lineno))
    return found


def test_self_calls_are_caught():
    src = ("def f(n):\n    return f(n - 1) if n else 0\n"
           "def g(xs):\n    def h(x):\n        return h(x)\n    return [g for g in xs]\n"
           "class A:\n    def m(self):\n        return self.m() + m() + other.m()\n"
           "    def k(self):\n        return A.k(self) if self else self.j()\n")
    assert self_calls(src) == [("f", 2), ("h", 5), ("m", 9)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_recursion_in_the_package(path):
    assert self_calls(path.read_text()) == []
