"""Graph construction, profiles, and the neighborhood view of the BFS oracle."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipnet import build_graph, graph, parse_edge_list, write_edge_list
from gossipnet.cascade import _slot_counts
from gossipnet.graph import _local_index, _pairs_after

from .conftest import assert_same_graph, random_weighted_graph


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_merge_batches_keep_the_graph(monkeypatch, chunk):
    # 30 nodes and 500 records: runs of one pair's records span batches
    rng = np.random.default_rng(chunk)
    ends = rng.integers(0, 30, size=(500, 2))
    records = [(f"n{a}", f"n{b}", w) for (a, b), w in
               zip(ends.tolist(), rng.uniform(0.1, 2.0, 500).tolist()) if a != b]
    whole = build_graph(records)
    monkeypatch.setattr(graph, "MERGE_CHUNK", chunk)
    assert_same_graph(build_graph(records), whole)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 9])
def test_intern_gathers_in_chunks(monkeypatch, n):
    # chunks of 3 labels: the last one holds one, two or three labels
    monkeypatch.setattr(graph, "INTERN_CHUNK", 3)
    labels = [f"v{i * 7 % 5}" for i in range(n)]
    index = graph._label_index()
    index["v4"]  # a label held before
    expected = {"v4": 0}
    ids = [expected.setdefault(label, len(expected)) for label in labels]
    assert graph._intern(index, labels).tolist() == ids
    assert list(index.items()) == list(expected.items())


def test_duplicate_records_merge_by_sum():
    g = build_graph([("a", "b", 1), ("a", "b", 1)])
    assert g.edge_count == 1
    assert g.weight("a", "b") == 2.0


def test_sample_network_counts(sample9):
    assert sample9.node_count == 9
    assert sample9.edge_count == 13
    assert sample9.weight("v", "b") == 2.0
    assert sample9.degree("v") == 8


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([("a", "a", 1.0)])


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_nonpositive_or_nonfinite_weight(bad):
    with pytest.raises(ValueError):
        build_graph([("a", "b", bad)])


@pytest.mark.parametrize(
    "records, message",
    [
        ([("a", "b", 1e308), ("a", "b", 1e308)], "edge 'a' 'b'"),
        ([("a", "b", 1e308), ("a", "c", 1e308), ("b", "c", 1.0)], "node 'a'"),
    ],
    ids=["merged_weight", "strength"],
)
def test_sums_past_the_float_range_are_refused(records, message):
    with pytest.raises(OverflowError, match=message):
        build_graph(records)


@pytest.mark.parametrize("bad", ["2", None, True])
def test_rejects_non_numeric_weight(bad):
    with pytest.raises(ValueError, match="non-numeric"):
        build_graph([("a", "b", bad)])


def test_declared_nodes_kept_isolated():
    g = build_graph([("a", "b", 1.0)], nodes=["x", "a"])
    assert g.node_count == 3
    assert g.degree("x") == 0
    assert g.isolated_count == 1
    assert g.profile("x").threshold is None


@pytest.mark.parametrize("builder", ["build_graph", "parse_edge_list"])
def test_unknown_node_raises(tmp_path, builder):
    if builder == "build_graph":
        g = build_graph([("a", "b", 1.0)])
    else:
        (tmp_path / "g.edges").write_text("a b 1\n", encoding="utf-8")
        g = parse_edge_list(tmp_path / "g.edges")
    # each lookup's index or KeyError message: a failed lookup changes
    # neither the node count nor the result of a later lookup
    found = []
    for label in ("zzz", "b", "zzz"):
        try:
            found.append(g.index_of(label))
        except KeyError as e:
            found.append(e.args[0])
    assert found == ["unknown node id: 'zzz'", 1, "unknown node id: 'zzz'"]
    assert g.node_count == 2 and not g.has_node("zzz")
    assert [g.index_of(x) for x in g.labels] == list(range(g.node_count))
    with pytest.raises(KeyError, match="unknown node"):
        g.degree("zzz")
    with pytest.raises(KeyError, match="no edge"):
        g.weight("a", "a")


def test_concurrent_first_lookups_agree():
    # eight threads make the graph's first lookups at once, switching often
    g = build_graph([(f"n{i}", f"n{i + 1}", 1.0) for i in range(3000)])
    expected = list(range(g.node_count))
    found = [None] * 8

    def look(t):
        found[t] = [g.index_of(x) for x in g.labels]

    threads = [threading.Thread(target=look, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [expected] * 8


def test_profile_mean_weight_thresholds():
    # two nodes with very different average tie strength sharing one edge
    g = build_graph([("i", "j", 2.0), ("i", "x", 9.0), ("j", "y", 1.0), ("j", "z", 1.0)])
    assert g.profile("i").threshold == 11 / 2
    assert g.profile("j").threshold == 4 / 3
    assert g.profile("i").strength == 11.0


def test_profile_degree_one():
    g = build_graph([("a", "b", 7.0)])
    assert g.profile("a").threshold == 7.0
    assert g.profile("a").degree == 1


def test_threshold_times_degree_equals_strength(corpus):
    for g in corpus[:20]:
        for label in g.labels:
            p = g.profile(label)
            if p.degree == 0:
                continue
            assert p.threshold * p.degree == pytest.approx(p.strength, rel=1e-12)


def test_degree_sum_is_twice_edge_count(corpus):
    for g in corpus[:50]:
        assert sum(g.degree(u) for u in g.labels) == 2 * g.edge_count


def test_adjacency_symmetric(corpus):
    g = corpus[0]
    for u in g.labels:
        for v, w in g.neighbors(u):
            assert g.weight(v, u) == w


def local_view(g, label) -> tuple[frozenset, frozenset]:
    """The neighbors of ``label`` and the edges among them, by label, as the
    BFS oracle's ``_local_index`` gives them."""
    nbrs, ladj = _local_index(g, g.index_of(label))
    names = [g.label_of(u) for u in nbrs]
    edges = frozenset(frozenset((names[i], names[j])) for i, row in enumerate(ladj) for j in row)
    return frozenset(names), edges


def test_local_view_sample(sample9):
    nodes, edges = local_view(sample9, "v")
    assert nodes == frozenset("abcdefgh")
    expected = {("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"), ("g", "h")}
    assert edges == frozenset(frozenset(e) for e in expected)
    assert _slot_counts(sample9)[0][sample9.index_of("v")] == 5


def test_complete_graph_triangles():
    n = 6
    g = build_graph([(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])
    nodes, edges = local_view(g, 0)
    assert len(nodes) == n - 1
    assert len(edges) == (n - 1) * (n - 2) // 2
    assert _slot_counts(g)[0].tolist() == [(n - 1) * (n - 2) // 2] * n


def test_star_center_has_no_triangles():
    g = build_graph([("hub", f"s{i}", 1.0) for i in range(6)])
    nodes, edges = local_view(g, "hub")
    assert len(nodes) == 6
    assert edges == frozenset()
    assert _slot_counts(g)[0].tolist() == [0] * 7


def test_isolated_node_has_an_empty_view():
    g = build_graph([("a", "b", 1.0)], nodes=["x"])
    assert _local_index(g, g.index_of("x")) == ([], [])
    assert _slot_counts(g)[0][g.index_of("x")] == 0


def test_local_edge_count_equals_triangles_through_node():
    rng = np.random.default_rng(7)
    g = random_weighted_graph(rng, max_nodes=30)
    # brute-force triangle enumeration as the oracle
    labels = g.labels
    triangles_through = {u: 0 for u in labels}
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            if not g.has_edge(labels[a], labels[b]):
                continue
            for c in range(b + 1, len(labels)):
                if g.has_edge(labels[a], labels[c]) and g.has_edge(labels[b], labels[c]):
                    for u in (labels[a], labels[b], labels[c]):
                        triangles_through[u] += 1
    assert dict(zip(labels, _slot_counts(g)[0].tolist())) == triangles_through


def test_edge_list_round_trip(tmp_path, corpus):
    g = corpus[1]
    path = tmp_path / "g.edges"
    # relabel to strings so parsing returns the identical label set
    relabeled = build_graph([(str(a), str(b), w) for a, b, w in g.edges()])
    write_edge_list(relabeled, path)
    back = parse_edge_list(path)
    assert set(back.labels) == set(relabeled.labels)
    assert sorted((min(str(a), str(b)), max(str(a), str(b)), w) for a, b, w in back.edges()) == \
        sorted((min(str(a), str(b)), max(str(a), str(b)), w) for a, b, w in relabeled.edges())


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(0, 8),
            st.integers(0, 8),
            st.floats(min_value=0.01, max_value=100, allow_nan=False),
        ).filter(lambda r: r[0] != r[1]),
        min_size=1,
        max_size=30,
    ),
    seed=st.integers(0, 2**16),
)
def test_record_order_never_changes_edge_set(records, seed):
    g1 = build_graph(records)
    shuffled = list(records)
    np.random.default_rng(seed).shuffle(shuffled)
    g2 = build_graph(shuffled)
    e1 = {(min(a, b), max(a, b)): w for a, b, w in g1.edges()}
    e2 = {(min(a, b), max(a, b)): w for a, b, w in g2.edges()}
    assert e1.keys() == e2.keys()
    for key, w in e1.items():
        assert math.isclose(w, e2[key], rel_tol=1e-12)


def test_strengths_are_fsum_of_mixed_rows():
    # exact integer rows, rows of at most two weights, inexact rows and
    # integer rows summing past 2**53
    rng = np.random.default_rng(4)
    records = []
    for v in range(400):
        kind = v % 4
        size = int(rng.integers(1, 3)) if kind == 1 else int(rng.integers(3, 12))
        for u in rng.choice(np.arange(400, 900), size=size, replace=False).tolist():
            if kind == 0:
                w = float(rng.integers(1, 9))
            elif kind == 3:
                w = 2.0**52 + float(rng.integers(1, 9))
            else:
                w = float(rng.uniform(0.1, 3.0))
            records.append((v, u, w))
    g = build_graph(records)
    for v in g.labels:
        assert g.strength(v) == math.fsum(w for _, w in g.neighbors(v))


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 1 << 16])
def test_whole_weights_are_tested_in_chunks(monkeypatch, chunk):
    # the last node's only fractional weights sit in the graph's last two
    # slots, and numpy's plain sum of its row differs from fsum
    monkeypatch.setattr(graph, "MERGE_CHUNK", chunk)
    g = build_graph([("x", "z", 1.0), ("p", "z", 0.1), ("q", "z", 0.7)], nodes="xpqz")
    assert np.add.reduceat(np.array([1.0, 0.1, 0.7]), [0])[0] != math.fsum([1.0, 0.1, 0.7])
    assert g.strength("z") == math.fsum([1.0, 0.1, 0.7])


@pytest.mark.parametrize("seed", range(8))
def test_pairs_after_equals_nested_loops(seed):
    rng = np.random.default_rng(seed)
    later = rng.choice([0, 0, 1, 2, 5], size=int(rng.integers(0, 30)))
    start = int(rng.integers(0, 50)) if seed else 0
    first, second = _pairs_after(later, start)
    expected = [(i, j) for i, n in enumerate(later.tolist(), start)
                for j in range(i + 1, i + 1 + n)]
    assert list(zip(first.tolist(), second.tolist())) == expected
