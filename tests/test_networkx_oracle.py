"""networkx as an independent oracle for the structural layer: the bundled
Les Miserables network, per-node triangle counts and average clustering."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gossipnet import (
    GeneratorConfig, WeightedGraph, analyze_network, build_graph, induced_neighborhood,
    realization, summarize,
)
from gossipnet.cascade import _slot_counts
from gossipnet.datasets import bundled_config

nx = pytest.importorskip("networkx")


def to_networkx(g: WeightedGraph):
    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_weighted_edges_from(g.edges())
    return h


def assert_structure_matches(g: WeightedGraph) -> None:
    h = to_networkx(g)
    triangles = nx.triangles(h)
    for v in g.labels:
        assert induced_neighborhood(g, v).edge_count == triangles[v]
    assert summarize(g).cc == pytest.approx(nx.average_clustering(h), rel=0, abs=1e-12)


def test_bundled_les_miserables_equals_networkx_copy(lesmis):
    ref = nx.les_miserables_graph()
    assert set(ref.nodes) == set(lesmis.labels)
    assert ref.number_of_edges() == lesmis.edge_count == 254
    for a, b, w in lesmis.edges():
        assert ref[a][b]["weight"] == w


def test_les_miserables(lesmis):
    assert_structure_matches(lesmis)


def test_corpus(corpus):
    for g in corpus:
        assert_structure_matches(g)


def test_bipartite_corpus(bipartite_corpus):
    for g in bipartite_corpus:
        assert_structure_matches(g)


@pytest.mark.parametrize("name", ["er_n1000", "ba_n1000", "ws_n1000"])
def test_generated_realization(name):
    assert_structure_matches(realization(bundled_config(name), 0))


def test_generated_realization_m1e5():
    cfg = GeneratorConfig(model="WS", N=10_000, k=20, p=0.1)
    assert_structure_matches(realization(cfg, 0))


def test_slot_keys_past_the_int32_range():
    # 50 000 nodes, so the slot key row * N + col of a high row passes 2**31;
    # a few triangles among the highest indices, every other node isolated
    n = 50_000
    assert (n - 1) * n > 2**31
    rng = np.random.default_rng(46_341)
    top = range(n - 12, n)
    records = [(a, b, float(rng.integers(1, 6)))
               for a, b in itertools.combinations(top, 2) if rng.random() < 0.5]
    g = build_graph(records, nodes=range(n))
    h = to_networkx(g)
    triangles = nx.triangles(h)
    assert sum(triangles.values()) > 0
    assert _slot_counts(g)[0].tolist() == [triangles[v] for v in g.labels]
    analysis = analyze_network(g)
    assert analysis.summary.cc == pytest.approx(nx.average_clustering(h), rel=0, abs=1e-12)
    # isolated nodes are no victims: the spread is that of the top nodes alone
    alone = analyze_network(build_graph(records, nodes=top))
    assert (analysis.sigma_curve, analysis.beta_curve) == (alone.sigma_curve, alone.beta_curve)
