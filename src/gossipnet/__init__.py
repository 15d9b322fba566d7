"""Gossip spreading on weighted networks.

Gossip about a victim travels only through triangles that contain the
victim, so spread is confined to the victim's 1-neighborhood. The base
model forwards unconditionally; the weighted model adds a stopping rule
where a spreader keeps quiet when the victim is a close friend (the tie is
strictly stronger than the spreader's average tie). The package provides
the cascade engine, network-level spread metrics, ER/BA/WS generators with
a node-based weighting scheme, co-occurrence projection of bipartite event
data, and a command-line interface.
"""

from .cascade import (
    CascadeResult,
    OriginatorOutcome,
    VictimSpread,
    cascade_unweighted,
    cascade_weighted,
    fast_victim_spread,  # an alias of victim_spread, left out of __all__
    is_close_friend,
    victim_spread,
)
from .generate import (
    EnsembleSummary,
    GeneratorConfig,
    assign_weights,
    generate_structure,
    load_config,
    realization,
    run_ensemble,
    save_config,
)
from .graph import NodeProfile, WeightedGraph, build_graph
from .ingest import (
    EdgeListError,
    parse_bipartite,
    parse_edge_list,
    project_count,
    project_newman,
    write_edge_list,
)
from .metrics import (
    CurvePoint,
    DegreeCurve,
    NetworkAnalysis,
    NetworkSummary,
    analyze_network,
    find_k0,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
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
]
