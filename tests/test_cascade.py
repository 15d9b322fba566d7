"""Cascade engine: close-friend rule, both cascade variants, victim averages."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipnet import (
    analyze_network,
    build_graph,
    cascade_unweighted,
    cascade_weighted,
    fast_victim_spread,
    graph,
    is_close_friend,
    summarize,
    victim_spread,
)
from gossipnet.cascade import _components

from .conftest import random_weighted_graph, whole_graph_counts


def asymmetric_pair():
    # i's ties average 11/2, j's average 4/3; the shared tie weighs 2
    return build_graph(
        [("i", "j", 2.0), ("i", "x", 9.0), ("j", "y", 1.0), ("j", "z", 1.0)]
    )


class TestCloseFriend:
    def test_asymmetry(self):
        g = asymmetric_pair()
        assert is_close_friend(g, "j", "i") is True
        assert is_close_friend(g, "i", "j") is False

    def test_degree_one_spreader_never_stops(self):
        g = build_graph([("s", "v", 7.0), ("v", "t", 1.0)])
        # s's only tie equals its mean tie; the strict inequality fails
        assert is_close_friend(g, "s", "v") is False

    @pytest.mark.parametrize("w", [3.3, 1 / 3])
    def test_uniform_inexact_weights_make_no_close_friends(self, lesmis, corpus, w):
        # neither weight is exact in binary, so a node's mean tie can round
        # below its ties; the rule must still see them as equal
        for g in [lesmis, *corpus[:20]]:
            u = build_graph([(a, b, w) for a, b, _ in g.edges()], nodes=g.labels)
            for v in u.labels:
                for s, _ in u.neighbors(v):
                    assert is_close_friend(u, s, v) is False
            summary = summarize(u)
            assert summary.beta == summary.sigma

    def test_requires_edge(self):
        g = build_graph([("a", "b", 1.0), ("c", "b", 1.0)])
        with pytest.raises(ValueError, match="no edge"):
            is_close_friend(g, "a", "c")


class TestUnweightedCascade:
    def test_component_originator(self, sample9):
        res = cascade_unweighted(sample9, "v", "b")
        assert res.knowers == frozenset("abcde")
        assert res.count == 5
        assert res.fraction == 5 / 8
        assert res.spreading_time == 2  # e is two hops from b via d

    def test_lone_originator(self, sample9):
        res = cascade_unweighted(sample9, "v", "f")
        assert res.knowers == frozenset("f")
        assert res.fraction == 1 / 8
        assert res.spreading_time == 0

    def test_pair_originator(self, sample9):
        res = cascade_unweighted(sample9, "v", "g")
        assert res.knowers == frozenset("gh")
        assert res.fraction == 2 / 8
        assert res.spreading_time == 1

    def test_originator_must_be_neighbor(self, sample9):
        with pytest.raises(ValueError, match="not a neighbor"):
            cascade_unweighted(sample9, "v", "v")
        with pytest.raises(ValueError, match="not a neighbor"):
            cascade_weighted(sample9, "g", "f")

    def test_spreading_time_zero_iff_alone(self, corpus):
        for g in corpus[:10]:
            for v in g.labels:
                for r, _ in g.neighbors(v):
                    res = cascade_unweighted(g, v, r)
                    assert (res.spreading_time == 0) == (res.knowers == frozenset([r]))


class TestWeightedCascade:
    def test_strong_tie_blocks_originator(self, sample9):
        res = cascade_weighted(sample9, "v", "b")
        assert res.knowers == frozenset("b")
        assert res.fraction == 1 / 8
        assert res.spreading_time == 0

    def test_blocked_node_still_receives(self, sample9):
        res = cascade_weighted(sample9, "v", "a")
        assert res.knowers == frozenset("ab")
        assert res.fraction == 2 / 8

    def test_cascade_around_blocked_node(self, sample9):
        res = cascade_weighted(sample9, "v", "d")
        assert res.knowers == frozenset("bde")
        assert res.fraction == 3 / 8

    def test_uniform_triangle_everyone_forwards(self):
        g = build_graph([("v", "a", 1.0), ("v", "b", 1.0), ("a", "b", 1.0)])
        for r in ("a", "b"):
            res = cascade_weighted(g, "v", r)
            assert res.fraction == 1.0


class TestVictimSpread:
    def test_sample_network_means(self, sample9):
        vs = victim_spread(sample9, "v")
        assert vs.sigma == 30 / 64
        assert vs.beta == 16 / 64
        assert vs.degree == 8
        by_r = {o.originator: o for o in vs.per_originator}
        assert by_r["f"].sigma == 1 / 8 and by_r["f"].beta == 1 / 8
        assert by_r["b"].sigma == 5 / 8 and by_r["b"].beta == 1 / 8
        assert by_r["e"].beta == 3 / 8

    def test_complete_graph_uniform(self):
        g = build_graph([(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)])
        for v in range(5):
            vs = victim_spread(g, v)
            assert vs.sigma == 1.0
            assert vs.beta == 1.0

    def test_model_selection(self, sample9):
        vs = victim_spread(sample9, "v", model="unweighted")
        assert vs.beta is None and vs.sigma == 30 / 64
        assert all(o.beta is None and o.tau_weighted is None for o in vs.per_originator)
        vs = victim_spread(sample9, "v", model="weighted")
        assert vs.sigma is None and vs.beta == 16 / 64
        with pytest.raises(ValueError, match="model"):
            victim_spread(sample9, "v", model="nope")

    def test_isolated_victim_undefined(self):
        g = build_graph([("a", "b", 1.0)], nodes=["x"])
        vs = victim_spread(g, "x")
        assert vs.degree == 0
        assert vs.sigma is None and vs.beta is None
        assert vs.per_originator == ()

    def test_bounds_per_originator(self, corpus):
        for g in corpus[:15]:
            for v in g.labels:
                k = g.degree(v)
                if k == 0:
                    continue
                vs = victim_spread(g, v)
                for o in vs.per_originator:
                    assert 1 / k <= o.beta <= o.sigma <= 1.0


def assert_kernel_matches_oracle(g):
    # per victim through fast_victim_spread, and per slot from one
    # whole-graph pass, both models
    counts = whole_graph_counts(g)
    assert len(counts) == 2 * g.edge_count
    for v in g.labels:
        naive = victim_spread(g, v)
        for o in naive.per_originator:
            n, m = counts[v, o.originator]
            assert (n / naive.degree, m / naive.degree) == (o.sigma, o.beta)
        fast = fast_victim_spread(g, v)
        assert (fast.sigma, fast.beta) == (naive.sigma, naive.beta)
        assert [(o.originator, o.sigma, o.beta) for o in fast.per_originator] == [
            (o.originator, o.sigma, o.beta) for o in naive.per_originator
        ]


class TestFastVictimSpread:
    def test_sample_network(self, sample9):
        fv = fast_victim_spread(sample9, "v")
        assert fv.sigma == 30 / 64
        assert fv.beta == 16 / 64
        assert all(o.tau_unweighted is None for o in fv.per_originator)

    def test_star_center(self):
        k = 7
        g = build_graph([("hub", f"s{i}", 1.0) for i in range(k)])
        fv = fast_victim_spread(g, "hub")
        assert fv.sigma == 1 / k
        assert all(o.sigma == 1 / k for o in fv.per_originator)

    def test_matches_reference_path(self, corpus):
        for g in corpus[:25]:
            for v in g.labels:
                naive = victim_spread(g, v)
                fast = fast_victim_spread(g, v)
                assert fast.sigma == naive.sigma
                assert fast.beta == naive.beta
                for a, b in zip(fast.per_originator, naive.per_originator):
                    assert a.originator == b.originator
                    assert a.sigma == b.sigma
                    assert a.beta == b.beta


def test_per_neighbor_constant_weights_reduce_to_base_model():
    # each neighbor of v sees only one weight value on its own edges, so
    # the strict close-friend test fails for everyone; the constant may
    # differ between the two local components
    g = build_graph(
        [
            ("v", "a", 2.0), ("v", "b", 2.0), ("a", "b", 2.0),
            ("v", "g", 5.0), ("v", "h", 5.0), ("g", "h", 5.0),
            ("v", "f", 9.0),
        ]
    )
    vs = victim_spread(g, "v")
    assert vs.beta == vs.sigma
    for o in vs.per_originator:
        assert o.beta == o.sigma


def test_adding_local_edge_never_shrinks_unweighted_spread():
    rng = np.random.default_rng(20250301)
    for _ in range(30):
        g = random_weighted_graph(rng, max_nodes=25)
        victims = [v for v in g.labels if g.degree(v) >= 2]
        if not victims:
            continue
        v = victims[int(rng.integers(len(victims)))]
        nbrs = [u for u, _ in g.neighbors(v)]
        candidates = [
            (a, b)
            for i, a in enumerate(nbrs)
            for b in nbrs[i + 1 :]
            if not g.has_edge(a, b)
        ]
        if not candidates:
            continue
        a, b = candidates[int(rng.integers(len(candidates)))]
        before = {o.originator: o.sigma for o in victim_spread(g, v).per_originator}
        g2 = build_graph(list(g.edges()) + [(a, b, 1.0)], nodes=g.labels)
        after = {o.originator: o.sigma for o in victim_spread(g2, v).per_originator}
        for r, s in before.items():
            assert after[r] >= s


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.integers(0, 7),
            st.floats(min_value=0.05, max_value=10, allow_nan=False),
        ).filter(lambda r: r[0] != r[1]),
        min_size=1,
        max_size=20,
    )
)
def test_dominance_and_bounds_hold_everywhere(edges):
    g = build_graph(edges)
    for v in g.labels:
        if g.degree(v) == 0:
            continue
        for r, _ in g.neighbors(v):
            uw = cascade_unweighted(g, v, r)
            w = cascade_weighted(g, v, r)
            assert r in uw.knowers and r in w.knowers
            assert w.knowers <= uw.knowers
            assert 0 < w.fraction <= uw.fraction <= 1


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.sampled_from([1.0, 2.0, 3.0])
        ).filter(lambda r: r[0] != r[1]),
        min_size=1,
        max_size=30,
    )
)
def test_kernel_matches_oracle_with_weight_ties(edges):
    # small integer weights put many ties exactly at the close-friend threshold
    assert_kernel_matches_oracle(build_graph(edges))


@pytest.mark.parametrize("n", range(5, 41))
def test_kernel_matches_oracle_on_wheels(n):
    # W_n: a hub joined to a rim cycle of n - 1 nodes. Rim ties weigh 1, so a
    # rim node with a spoke of 2 keeps quiet about the hub and one with a
    # spoke of 1 forwards; the hub's local graph is the rim, diameter ~ n/2
    rim = n - 1
    rng = random.Random(n)
    spokes = [1.0, 2.0] + [float(rng.choice((1, 2))) for _ in range(rim - 2)]
    records = [(i, (i + 1) % rim, 1.0) for i in range(rim)]
    records += [("hub", i, w) for i, w in enumerate(spokes)]
    assert_kernel_matches_oracle(build_graph(records))


def test_blocking_never_changes_counts(corpus, monkeypatch):
    # one victim per block and one out-slot per wedge batch: every boundary
    # the block and chunk loops can cut at, on graphs with many triangles
    graphs = corpus[:30] + [build_graph([(i, j, 1.0 + (i * j) % 3)
                                         for i in range(12) for j in range(i + 1, 12)])]
    expected = [analyze_network(g) for g in graphs]
    monkeypatch.setattr(graph, "BLOCK_SIZE", 1)
    monkeypatch.setattr(graph, "MAX_BLOCKS", 10**9)
    monkeypatch.setattr(graph, "WEDGE_CHUNK", 1)
    for g, before in zip(graphs, expected):
        assert analyze_network(g) == before
        assert_kernel_matches_oracle(g)


def test_components_of_a_long_path_and_a_star():
    # labels against the hooking order: the path runs from the largest id
    # down, and the star's center has the largest id
    n = 1000
    path = np.arange(n - 1, 0, -1, dtype=np.int32)
    root = _components(n, path, path - 1)
    assert (root == root[0]).all()
    leaves = np.arange(n - 1, dtype=np.int32)
    root = _components(n + 5, leaves, np.full(n - 1, n - 1, dtype=np.int32))
    assert len(set(root[:n].tolist())) == 1
    assert root[n:].tolist() == list(range(n, n + 5))
