"""Smoke test: every demo runs to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvelab

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(curvelab.__file__).parent.parent))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
