"""Invariants of the spread kernel on seeded graphs at M≈1e5 edges."""

from __future__ import annotations

import numpy as np

from gossipnet import GeneratorConfig, analyze_network, build_graph, realization

from .conftest import whole_graph_counts


def test_triangle_free_graph_spreads_to_nobody():
    # a random bipartite graph has no triangles: every originator is the
    # only knower in both models, so sigma_v = beta_v = 1/k_v
    rng = np.random.default_rng(20070313)
    size = 110_000
    a = map("a{}".format, rng.integers(0, 30_000, size=size).tolist())
    b = map("b{}".format, rng.integers(0, 30_000, size=size).tolist())
    g = build_graph(zip(a, b, rng.uniform(0.2, 4.0, size=size).tolist()))
    assert g.edge_count > 100_000
    counts = whole_graph_counts(g)
    assert len(counts) == 2 * g.edge_count
    assert set(counts.values()) == {(1, 1)}
    analysis = analyze_network(g)
    assert analysis.summary.cc == 0.0
    assert analysis.sigma_curve == analysis.beta_curve


def test_uniform_weights_make_the_models_agree():
    cfg = GeneratorConfig(model="WS", N=10_000, k=20, p=0.1, weight_mean=2.0,
                          weight_stddev=0.0, seed=3, realizations=1)
    g = realization(cfg, 0)
    assert g.edge_count == 100_000
    analysis = analyze_network(g)
    assert analysis.summary.beta == analysis.summary.sigma
    assert analysis.sigma_curve == analysis.beta_curve
