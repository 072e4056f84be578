"""Smoke tests for the entry points: every demo runs, every exported name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import formchains

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_names_resolve():
    missing = [name for name in formchains.__all__
               if not hasattr(formchains, name)]
    assert missing == []
