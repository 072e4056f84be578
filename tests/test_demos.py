"""Smoke tests for the entry points: every demo runs and prints its frozen
output in tests/demo_output, every README example runs, every exported name
resolves."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import formchains

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FROZEN = ROOT / "tests" / "demo_output"
# the float cross-check needs numpy; without it the demo prints this instead
NO_NUMPY = "numpy not installed; skipping the floating-point cross-check\n"
README_CODE = re.findall(r"^```python\n(.*?)^```$",
                         (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_are_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = (FROZEN / f"{demo.stem}.txt").read_text()
    if demo.stem == "06_float_crosscheck" and not importlib.util.find_spec("numpy"):
        want = NO_NUMPY
    assert proc.stdout == want


def test_readme_examples_run(monkeypatch):
    assert README_CODE
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for block in README_CODE:
        exec(compile(block, "README.md", "exec"), {})


def test_all_names_resolve():
    missing = [name for name in formchains.__all__
               if not hasattr(formchains, name)]
    assert missing == []
