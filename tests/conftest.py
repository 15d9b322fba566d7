"""Shared fixtures: bundled networks and seeded random-graph corpora."""

from __future__ import annotations

import numpy as np
import pytest

from gossipnet import WeightedGraph, build_graph
from gossipnet.cascade import _slot_counts
from gossipnet.datasets import les_miserables, sample_network

CORPUS_SEED = 987654321
CORPUS_SIZE = 200


def random_weighted_graph(rng: np.random.Generator, max_nodes: int = 60) -> WeightedGraph:
    """Random weighted graph with at least one edge, N in [5, max_nodes].

    Half the graphs get small-integer weights (co-occurrence-like, with
    plenty of ties against the close-friend threshold), the rest get
    continuous weights.
    """
    while True:
        n = int(rng.integers(5, max_nodes + 1))
        p = float(rng.uniform(0.05, 0.5))
        iu, ju = np.triu_indices(n, 1)
        mask = rng.random(iu.shape[0]) < p
        pairs = list(zip(iu[mask].tolist(), ju[mask].tolist()))
        if not pairs:
            continue
        if rng.random() < 0.5:
            weights = rng.integers(1, 6, size=len(pairs)).astype(float)
        else:
            weights = rng.uniform(0.2, 4.0, size=len(pairs))
        return build_graph(
            [(i, j, float(w)) for (i, j), w in zip(pairs, weights)], nodes=range(n)
        )


def random_bipartite_graph(rng: np.random.Generator) -> WeightedGraph:
    """Random bipartite (hence triangle-free) weighted graph with an edge."""
    while True:
        na = int(rng.integers(2, 16))
        nb = int(rng.integers(2, 16))
        p = float(rng.uniform(0.1, 0.6))
        records = []
        for i in range(na):
            for j in range(nb):
                if rng.random() < p:
                    records.append((f"a{i}", f"b{j}", float(rng.uniform(0.2, 4.0))))
        if records:
            return build_graph(records)


def whole_graph_counts(g: WeightedGraph) -> dict[tuple, tuple[int, int]]:
    """(victim, originator) -> (n_vr, m_vr) from one whole-graph kernel pass."""
    counts = {}
    for victims, ptr, _, n_per, m_per in _slot_counts(g, True, True):
        for v_idx in range(victims.start, victims.stop):
            v = g.label_of(v_idx)
            start = int(ptr[v_idx - victims.start])
            for i, (r, _) in enumerate(g.neighbors(v)):
                counts[v, r] = (int(n_per[start + i]), int(m_per[start + i]))
    return counts


def assert_same_graph(g: WeightedGraph, h: WeightedGraph) -> None:
    """Same labels and label index, same CSR arrays, same weight and strength bits."""
    assert g.labels == h.labels
    assert g._index == h._index
    for name in ("_indptr", "_indices", "_reverse", "_weights", "_degree", "_strength"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="session")
def corpus() -> list[WeightedGraph]:
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_weighted_graph(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def bipartite_corpus() -> list[WeightedGraph]:
    rng = np.random.default_rng(CORPUS_SEED + 1)
    return [random_bipartite_graph(rng) for _ in range(50)]


@pytest.fixture()
def sample9() -> WeightedGraph:
    return sample_network()


@pytest.fixture(scope="session")
def lesmis() -> WeightedGraph:
    return les_miserables()
