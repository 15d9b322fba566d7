"""The package's public names. ``gossipnet.__all__`` is pinned, so an export
is added or dropped only with a change here. The benchmark harness in
``perfbench/`` calls the package as ``gn.<name>``; every such name must stay
importable, or the benchmark stops running."""

from __future__ import annotations

import re
from pathlib import Path

import gossipnet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: ``gossipnet.__all__``, in order
PUBLIC = (
    "CascadeResult",
    "CurvePoint",
    "DegreeCurve",
    "EdgeListError",
    "EnsembleSummary",
    "GeneratorConfig",
    "NetworkAnalysis",
    "NetworkSummary",
    "NodeProfile",
    "OriginatorOutcome",
    "VictimSpread",
    "WeightedGraph",
    "analyze_network",
    "assign_weights",
    "build_graph",
    "cascade_unweighted",
    "cascade_weighted",
    "find_k0",
    "generate_structure",
    "is_close_friend",
    "load_config",
    "parse_bipartite",
    "parse_edge_list",
    "project_count",
    "project_newman",
    "realization",
    "run_ensemble",
    "save_config",
    "summarize",
    "victim_spread",
    "write_edge_list",
)


def test_public_surface_is_pinned():
    assert tuple(gossipnet.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(gossipnet, name)] == []


def test_every_name_perfbench_uses_exists():
    names = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\bgn\.(\w+)", path.read_text(encoding="utf-8"))
    }
    assert "analyze_network" in names  # the pattern still finds the calls
    assert [name for name in sorted(names) if not hasattr(gossipnet, name)] == []
