"""Invariants of the spread kernel on seeded graphs at M≈1e5 edges."""

from __future__ import annotations

import numpy as np
import pytest

from gossipnet import GeneratorConfig, analyze_network, build_graph, realization, victim_spread
from gossipnet.cli import main

from .conftest import whole_graph_counts

# a weighted Watts-Strogatz realization with M = 1e5
WS = dict(model="WS", N=10_000, k=20, p=0.1, weight_stddev=1.0, seed=11)


@pytest.fixture(scope="module")
def ws():
    return realization(GeneratorConfig(**WS, realizations=1), 0)


@pytest.fixture(scope="module")
def ws_counts(ws):
    return whole_graph_counts(ws)


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


def test_weighted_model_never_reaches_more_per_slot(ws, ws_counts):
    assert ws.edge_count == 100_000
    assert len(ws_counts) == 2 * ws.edge_count
    assert all(m <= n for n, m in ws_counts.values())
    assert any(m < n for n, m in ws_counts.values())  # the weights do stop gossip


def test_curve_means_equal_global_values(ws):
    analysis = analyze_network(ws)
    summary = analysis.summary
    for curve, value in [(analysis.sigma_curve, summary.sigma),
                         (analysis.beta_curve, summary.beta),
                         (analysis.cc_curve, summary.cc)]:
        assert abs(curve.weighted_mean() - value) <= 1e-12


def assert_kernel_equals_oracle_on_a_sample(g, counts):
    sample = np.random.default_rng(2007).choice(g.node_count, size=2000, replace=False)
    for v in map(g.label_of, sample.tolist()):
        spread = victim_spread(g, v)
        for o in spread.per_originator:
            n, m = counts[v, o.originator]
            assert (n / spread.degree, m / spread.degree) == (o.sigma, o.beta)


def test_kernel_equals_oracle_on_a_sample(ws, ws_counts):
    assert_kernel_equals_oracle_on_a_sample(ws, ws_counts)


def test_kernel_equals_oracle_with_tied_weights(ws):
    # integer weights 1-5 put many slots exactly on the close-friend
    # threshold, which continuous weights never do
    weights = np.random.default_rng(5).integers(1, 6, size=ws.edge_count).tolist()
    g = build_graph(
        [(a, b, w) for (a, b, _), w in zip(ws.edges(), weights)], nodes=ws.labels
    )
    assert_kernel_equals_oracle_on_a_sample(g, whole_graph_counts(g))


def test_sweep_is_byte_identical_across_worker_counts(tmp_path):
    flags = [f"--{name}={value}" for name, value in WS.items()]
    trees = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["sweep", *flags, "--realizations", "2", "--workers", workers,
                     "--out", str(out)]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "ensemble.json" in trees[0] and trees[0] == trees[1]
