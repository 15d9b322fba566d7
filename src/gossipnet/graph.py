"""Immutable weighted undirected graphs and per-node friendship profiles.

The graph is the substrate every other module works on: node labels are
mapped to dense 0-based indices internally, adjacency is symmetric, edge
weights are strictly positive, and duplicate edge records merge by summing
their weights (co-occurrence counting semantics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

Label = Hashable


@dataclass(frozen=True)
class NodeProfile:
    """Degree, strength (sum of incident weights) and friendship threshold.

    The threshold is the node's mean incident edge weight, for display; it
    is None for isolated nodes. Whether a neighbor is a "close friend" is
    decided by :func:`gossipnet.cascade.is_close_friend`, not by comparing
    a weight against this rounded quotient.
    """

    label: Label
    degree: int
    strength: float
    threshold: float | None


@dataclass(frozen=True)
class Neighborhood:
    """Subgraph induced by the 1-neighborhood of a center node.

    Each local edge {i, j} corresponds one-to-one with a triangle
    (center, i, j) of the parent graph, so ``edge_count`` equals the number
    of triangles through the center.
    """

    center: Label
    nodes: frozenset[Label]
    edges: frozenset[frozenset[Label]]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class WeightedGraph:
    """Undirected simple graph with positive edge weights, immutable once built.

    Construct via :func:`build_graph`. Safe to share across threads or
    processes; all accessors are read-only.
    """

    __slots__ = ("_labels", "_index", "_adj", "_degrees", "_strengths", "_edge_count")

    def __init__(
        self,
        index: dict[Label, int],
        adj: tuple[dict[int, float], ...],
        edge_count: int,
    ):
        self._labels = tuple(index)
        self._index = index
        self._adj = adj
        self._degrees = tuple(len(a) for a in adj)
        self._strengths = tuple(math.fsum(a.values()) for a in adj)
        self._edge_count = edge_count

    # -- basic counts -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def isolated_count(self) -> int:
        return sum(1 for d in self._degrees if d == 0)

    # -- node-level access --------------------------------------------------

    def has_node(self, label: Label) -> bool:
        return label in self._index

    def index_of(self, label: Label) -> int:
        """Dense 0-based index of a node (order of first appearance)."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown node id: {label!r}") from None

    def label_of(self, index: int) -> Label:
        return self._labels[index]

    def degree(self, label: Label) -> int:
        return self._degrees[self.index_of(label)]

    def strength(self, label: Label) -> float:
        return self._strengths[self.index_of(label)]

    def neighbors(self, label: Label) -> tuple[tuple[Label, float], ...]:
        """(neighbor label, edge weight) pairs in deterministic order."""
        i = self.index_of(label)
        return tuple((self._labels[j], w) for j, w in self._adj[i].items())

    def has_edge(self, a: Label, b: Label) -> bool:
        return self.index_of(b) in self._adj[self.index_of(a)]

    def weight(self, a: Label, b: Label) -> float:
        i, j = self.index_of(a), self.index_of(b)
        try:
            return self._adj[i][j]
        except KeyError:
            raise KeyError(f"no edge between {a!r} and {b!r}") from None

    def profile(self, label: Label) -> NodeProfile:
        """Degree, strength and close-friend threshold of one node."""
        i = self.index_of(label)
        k = self._degrees[i]
        s = self._strengths[i]
        return NodeProfile(
            label=label,
            degree=k,
            strength=s,
            threshold=(s / k) if k > 0 else None,
        )

    # -- edge iteration ------------------------------------------------------

    def edges(self) -> Iterator[tuple[Label, Label, float]]:
        """Every edge exactly once, in dense-index order."""
        for i, row in enumerate(self._adj):
            for j, w in row.items():
                if j > i:
                    yield self._labels[i], self._labels[j], w

    def __repr__(self) -> str:
        return f"WeightedGraph(N={self.node_count}, M={self.edge_count})"


def _check_weight(w: object) -> float:
    if isinstance(w, bool) or not isinstance(w, (int, float)):
        raise ValueError(f"non-numeric edge weight: {w!r}")
    w = float(w)
    if not math.isfinite(w):
        raise ValueError(f"edge weight must be finite, got {w!r}")
    if w <= 0.0:
        raise ValueError(f"edge weight must be positive, got {w!r}")
    return w


def build_graph(
    records: Iterable[tuple[Label, Label, float]],
    nodes: Iterable[Label] | None = None,
) -> WeightedGraph:
    """Build a validated :class:`WeightedGraph` from (i, j, weight) records.

    Duplicate (i, j) pairs merge by summing their weights, matching
    co-occurrence counting; deduplicated inputs are unaffected. Self-loops
    and non-positive or non-numeric weights are rejected. Labels listed in
    ``nodes`` are retained even when they appear in no record (isolated
    nodes).

    Dense indices follow first appearance, in ``nodes`` and then in
    ``records``; neighbor order follows sorted index pairs, so it does not
    depend on the order of the records.
    """
    index: dict[Label, int] = {}
    if nodes is not None:
        for label in nodes:
            index.setdefault(label, len(index))

    pair_weights: dict[tuple[int, int], float] = {}
    for i_lab, j_lab, w in records:
        if i_lab == j_lab:
            raise ValueError(f"self-loop on node {i_lab!r}")
        w = _check_weight(w)
        i = index.setdefault(i_lab, len(index))
        j = index.setdefault(j_lab, len(index))
        key = (i, j) if i < j else (j, i)
        pair_weights[key] = pair_weights.get(key, 0.0) + w

    adj: list[dict[int, float]] = [dict() for _ in index]
    for (i, j) in sorted(pair_weights):
        w = pair_weights[(i, j)]
        adj[i][j] = w
        adj[j][i] = w

    return WeightedGraph(index, tuple(adj), len(pair_weights))


def _local_index(
    g: WeightedGraph, v_idx: int
) -> tuple[list[int], list[list[int]], int]:
    """Neighborhood of ``v_idx`` in local coordinates.

    Returns (neighbor indices, local adjacency lists, local edge count).
    Local adjacency position ``i`` corresponds to ``nbrs[i]``.
    """
    adj = g._adj
    nbrs = list(adj[v_idx].keys())
    pos = {u: i for i, u in enumerate(nbrs)}
    ladj: list[list[int]] = [[] for _ in nbrs]
    edge_count = 0
    for i, u in enumerate(nbrs):
        row = ladj[i]
        for x in adj[u]:
            j = pos.get(x)
            if j is not None:
                row.append(j)
                if j > i:
                    edge_count += 1
    return nbrs, ladj, edge_count


def _forwarding_flags(g: WeightedGraph, v_idx: int, nbrs: list[int]) -> list[bool]:
    """Whether each of ``nbrs`` forwards gossip about ``v_idx``.

    ``u`` keeps quiet when ``v_idx`` is its close friend: w(u, v) * degree(u)
    > strength(u), the multiplied-through form of "tie strictly above u's
    mean tie", exact when all of u's ties weigh the same.
    """
    adj, deg, strength = g._adj, g._degrees, g._strengths
    return [not (adj[u][v_idx] * deg[u] > strength[u]) for u in nbrs]


def induced_neighborhood(g: WeightedGraph, v: Label) -> Neighborhood:
    """Subgraph over the neighbors of ``v``; empty for an isolated node."""
    v_idx = g.index_of(v)
    nbrs, ladj, _ = _local_index(g, v_idx)
    node_labels = [g.label_of(u) for u in nbrs]
    edges = frozenset(
        frozenset((node_labels[i], node_labels[j]))
        for i in range(len(nbrs))
        for j in ladj[i]
        if j > i
    )
    return Neighborhood(center=v, nodes=frozenset(node_labels), edges=edges)
