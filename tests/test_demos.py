"""Every script under demos/, and every ```python block of README.md, runs to
completion against the package source."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(
    encoding="utf-8"), re.M | re.S)


def test_demos_found():
    assert len(DEMOS) >= 5


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: b.partition("\n")[0])
def test_readme_block_runs(block):
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
