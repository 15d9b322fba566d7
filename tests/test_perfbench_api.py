"""The package's public names. ``gossipnet.__all__`` and the parameter names
of its callables are pinned, so an export or a public parameter is added or
dropped only with a change here. The benchmark harness in ``perfbench/``
calls the package as ``gn.<name>``; every such name must stay importable, or
the benchmark stops running."""

from __future__ import annotations

import inspect
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


#: The parameter names of each callable in ``PUBLIC``; an exception class takes
#: its base class's arguments, so EdgeListError has no entry
PARAMETERS = {
    "CascadeResult": ("victim", "originator", "knowers", "spreading_time", "fraction"),
    "CurvePoint": ("value", "count"),
    "DegreeCurve": ("points",),
    "EnsembleSummary": (
        "config", "summaries", "mean", "std", "defined", "sigma_curve", "beta_curve", "cc_curve",
        "curve_realizations", "k0_of_mean_curve", "k0w_of_mean_curve",
    ),
    "GeneratorConfig": (
        "model", "N", "p", "m0", "m", "k", "weight_mean", "weight_stddev", "weight_truncation",
        "seed", "realizations",
    ),
    "NetworkAnalysis": (
        "summary", "sigma_curve", "beta_curve", "cc_curve", "beta_over_sigma_curve",
        "beta_over_sigma_cc_curve",
    ),
    "NetworkSummary": (
        "n_nodes", "n_edges", "n_isolated", "n_leaf_victims", "cc", "sigma", "beta", "k0",
        "k0_interior", "k0_w", "k0w_interior", "k0w_over_k0", "sigma_over_cc", "beta_over_cc",
        "beta_over_sigma", "beta_over_sigma_cc",
    ),
    "NodeProfile": ("label", "degree", "strength", "threshold"),
    "OriginatorOutcome": ("originator", "sigma", "beta", "tau_unweighted", "tau_weighted"),
    "VictimSpread": ("victim", "degree", "sigma", "beta", "per_originator"),
    "WeightedGraph": ("labels", "indptr", "indices", "reverse", "weights"),
    "analyze_network": ("g", "model", "min_samples"),
    "assign_weights": ("g", "cfg", "rng"),
    "build_graph": ("records", "nodes"),
    "cascade_unweighted": ("g", "v", "r"),
    "cascade_weighted": ("g", "v", "r"),
    "find_k0": ("curve", "min_samples"),
    "generate_structure": ("cfg", "realization_index"),
    "is_close_friend": ("g", "s", "v"),
    "load_config": ("path",),
    "parse_bipartite": ("path",),
    "parse_edge_list": ("path",),
    "project_count": ("events",),
    "project_newman": ("events",),
    "realization": ("cfg", "realization_index"),
    "run_ensemble": ("cfg", "min_samples", "workers"),
    "save_config": ("cfg", "path"),
    "summarize": ("g", "model", "min_samples"),
    "victim_spread": ("g", "v", "model"),
    "write_edge_list": ("g", "dest"),
}


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


def test_public_parameters_are_pinned():
    assert {
        name: tuple(inspect.signature(getattr(gossipnet, name)).parameters)
        for name in PUBLIC
        if name != "EdgeListError"
    } == PARAMETERS
