"""Bundled example data: a real co-appearance network and a small hand-sized
network for tracing cascades.
"""

from __future__ import annotations

from importlib import resources

from .generate import GeneratorConfig, load_config
from .graph import WeightedGraph, build_graph
from .ingest import parse_edge_list

_CONFIGS = resources.files(__package__).joinpath("data/configs")
#: Names accepted by :func:`bundled_config`: the shipped config files' stems
BUNDLED_CONFIGS = tuple(sorted(
    ref.name.removesuffix(".cfg") for ref in _CONFIGS.iterdir() if ref.name.endswith(".cfg")))


def les_miserables() -> WeightedGraph:
    """Character co-appearance network of Les Miserables (77 nodes, 254 edges).

    Edge weights count the chapters in which two characters appear together
    (data from D. E. Knuth's Stanford GraphBase, 1993).
    """
    ref = resources.files(__package__).joinpath("data/les_miserables.edges")
    with resources.as_file(ref) as path:
        return parse_edge_list(path)


def sample_network() -> WeightedGraph:
    """Nine-node network with a hub victim ``v``, handy for tracing cascades.

    All weights are 1 except the v-b tie of 2, which is strong enough that
    b never gossips about v. Victim v's neighborhood splits into the chain
    component {a, b, c, d, e}, the lone node {f}, and the pair {g, h}.
    """
    edges = [
        ("v", "a", 1.0),
        ("v", "b", 2.0),
        ("v", "c", 1.0),
        ("v", "d", 1.0),
        ("v", "e", 1.0),
        ("v", "f", 1.0),
        ("v", "g", 1.0),
        ("v", "h", 1.0),
        ("a", "b", 1.0),
        ("b", "c", 1.0),
        ("b", "d", 1.0),
        ("d", "e", 1.0),
        ("g", "h", 1.0),
    ]
    return build_graph(edges)


def bundled_config(name: str) -> GeneratorConfig:
    """Load one of the shipped generator configs by name.

    The ``*_n200`` configs match the ensemble experiments exercised by the
    acceptance suite; the ``*_n1000`` ones are the larger variants with
    roughly 10000 edges.
    """
    if name not in BUNDLED_CONFIGS:
        raise ValueError(f"unknown config {name!r}; available: {BUNDLED_CONFIGS}")
    with resources.as_file(_CONFIGS.joinpath(f"{name}.cfg")) as path:
        return load_config(path)
