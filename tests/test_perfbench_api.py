"""The benchmark harness in ``perfbench/`` calls the package as ``gn.<name>``;
every such name must stay importable, or the benchmark stops running."""

from __future__ import annotations

import re
from pathlib import Path

import gossipnet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_perfbench_uses_exists():
    names = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\bgn\.(\w+)", path.read_text(encoding="utf-8"))
    }
    assert "analyze_network" in names  # the pattern still finds the calls
    assert [name for name in sorted(names) if not hasattr(gossipnet, name)] == []
