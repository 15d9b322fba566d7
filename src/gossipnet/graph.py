"""Immutable weighted undirected graphs and per-node friendship profiles.

The graph is the substrate every other module works on: node labels are
mapped to dense 0-based indices internally, adjacency is symmetric, edge
weights are strictly positive, and duplicate edge records merge by summing
their weights (co-occurrence counting semantics).

Storage is compressed sparse rows (CSR): row ``v`` holds v's neighbors in
ascending index order, and each position in a row is a directed *slot*
v→u. The slot is the unit of the spread kernel: it is the originator u in
the neighborhood of the victim v.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

import numpy as np

Label = Hashable

#: Wedges closed per batch in the triangle listing. It bounds the
#: temporaries, never the results.
WEDGE_CHUNK = 1 << 14


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _row_sums(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every CSR row, bit for bit.

    A plain sum already equals fsum for a row of at most two weights (one
    correctly rounded addition) and for integers summing below 2**53 (every
    partial sum exact); only the other rows go through fsum.
    """
    degree = np.diff(indptr)
    sums = np.zeros(len(degree))
    filled = np.flatnonzero(degree)
    if filled.size:
        sums[filled] = np.add.reduceat(weights, indptr[filled])
    fractional = np.concatenate(([0], np.cumsum(weights != np.floor(weights))))
    inexact = (degree > 2) & (
        (fractional[indptr[1:]] > fractional[indptr[:-1]]) | (sums >= 2.0**53)
    )
    inexact |= ~np.isfinite(sums)  # fsum raises OverflowError here
    rows = np.flatnonzero(inexact)
    # one row at a time becomes Python floats
    for v, a, b in zip(rows.tolist(), indptr[rows].tolist(), indptr[rows + 1].tolist()):
        sums[v] = math.fsum(weights[a:b].tolist())
    return sums


class WeightedGraph:
    """Undirected simple graph with positive edge weights, immutable once built.

    Construct via :func:`build_graph`. Safe to share across threads or
    processes; all accessors are read-only and return Python numbers.
    """

    __slots__ = ("_labels", "_index", "_indptr", "_indices", "_reverse", "_weights",
                 "_degree", "_strength")

    def __init__(
        self,
        index: dict[Label, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        reverse: np.ndarray,
        weights: np.ndarray,
    ):
        self._labels = tuple(index)
        self._index = index
        self._indptr = _frozen(indptr)
        self._indices = _frozen(indices)
        self._reverse = _frozen(reverse)  # slot u→v of each slot v→u, int32
        self._weights = _frozen(weights)
        self._degree = _frozen(np.diff(indptr))
        self._strength = _frozen(_row_sums(indptr, weights))

    # -- basic counts -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def isolated_count(self) -> int:
        return int(np.count_nonzero(self._degree == 0))

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
        return int(self._degree[self.index_of(label)])

    def strength(self, label: Label) -> float:
        return float(self._strength[self.index_of(label)])

    def neighbors(self, label: Label) -> tuple[tuple[Label, float], ...]:
        """(neighbor label, edge weight) pairs in ascending index order."""
        row = self._row(self.index_of(label))
        labels = self._labels
        return tuple(
            (labels[j], w)
            for j, w in zip(self._indices[row].tolist(), self._weights[row].tolist())
        )

    def has_edge(self, a: Label, b: Label) -> bool:
        return _slot(self, self.index_of(a), self.index_of(b)) >= 0

    def weight(self, a: Label, b: Label) -> float:
        p = _slot(self, self.index_of(a), self.index_of(b))
        if p < 0:
            raise KeyError(f"no edge between {a!r} and {b!r}")
        return float(self._weights[p])

    def profile(self, label: Label) -> NodeProfile:
        """Degree, strength and close-friend threshold of one node."""
        k = self.degree(label)
        s = self.strength(label)
        return NodeProfile(
            label=label,
            degree=k,
            strength=s,
            threshold=(s / k) if k > 0 else None,
        )

    def _row(self, i: int) -> slice:
        return slice(int(self._indptr[i]), int(self._indptr[i + 1]))

    # -- edge iteration ------------------------------------------------------

    def _upper(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, weight) of each edge's slot i→j with i < j, in dense-index order."""
        rows = np.repeat(np.arange(self.node_count), self._degree)
        upper = self._indices > rows
        return rows[upper], self._indices[upper], self._weights[upper]

    def edges(self) -> Iterator[tuple[Label, Label, float]]:
        """Every edge exactly once, in dense-index order."""
        labels = self._labels
        for i, j, w in zip(*(column.tolist() for column in self._upper())):
            yield labels[i], labels[j], w

    def __repr__(self) -> str:
        return f"WeightedGraph(N={self.node_count}, M={self.edge_count})"


def _slot(g: WeightedGraph, i: int, j: int) -> int:
    """Position of the slot i→j, or -1 when there is no such edge."""
    row = g._row(i)
    p = row.start + int(np.searchsorted(g._indices[row], j))
    return p if p < row.stop and g._indices[p] == j else -1


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

    Duplicate (i, j) pairs merge by summing their weights in record order,
    matching co-occurrence counting; deduplicated inputs are unaffected.
    Self-loops and non-positive or non-numeric weights are rejected. Labels
    listed in ``nodes`` are retained even when they appear in no record
    (isolated nodes).

    Dense indices follow first appearance, in ``nodes`` and then in
    ``records``; neighbors are in ascending index order, so neighbor order
    does not depend on the order of the records.
    """
    index: dict[Label, int] = {}
    if nodes is not None:
        for label in nodes:
            index.setdefault(label, len(index))

    ends = array("q")
    record_weights = array("d")
    for i_lab, j_lab, w in records:
        if i_lab == j_lab:
            raise ValueError(f"self-loop on node {i_lab!r}")
        if not (type(w) is float and 0.0 < w < math.inf):  # NaN fails too
            w = _check_weight(w)
        record_weights.append(w)
        ends.append(index.setdefault(i_lab, len(index)))
        ends.append(index.setdefault(j_lab, len(index)))
    return _from_pairs(
        index,
        np.frombuffer(ends, dtype=np.int64).reshape(-1, 2),
        np.frombuffer(record_weights, dtype=np.float64),
    )


def _from_pairs(index: dict[Label, int], ends: np.ndarray, weights: np.ndarray) -> WeightedGraph:
    """The graph of validated records: ``ends`` holds the dense indices of
    each record's two nodes, one row per record, ``weights`` its weight.

    Records of one pair merge by summing their weights in record order.
    """
    n = len(index)
    keys = np.minimum(ends[:, 0], ends[:, 1])
    keys *= n
    keys += np.maximum(ends[:, 0], ends[:, 1])
    pair_keys, pair_of_record = np.unique(keys, return_inverse=True)
    del keys
    merged = np.zeros(len(pair_keys))
    # unbuffered and in record order: each merged weight is the left fold
    np.add.at(merged, pair_of_record, weights)
    del pair_of_record

    m = len(pair_keys)
    lo, hi = np.divmod(pair_keys, max(n, 1))
    rows = np.concatenate((lo, hi))
    cols = np.concatenate((hi, lo))
    # the sort keys row * n + col are distinct, so this is the (row, col) order
    order = np.argsort(np.concatenate((pair_keys, hi * n + lo)))
    del lo, hi, pair_keys
    # entry e and entry e + M of rows/cols are the two directions of one edge
    slot_of = np.empty(2 * m, dtype=np.int32)
    slot_of[order] = np.arange(2 * m, dtype=np.int32)
    reverse = slot_of[(order + m) % max(2 * m, 1)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return WeightedGraph(
        index, indptr, cols[order], reverse, np.concatenate((merged, merged))[order]
    )


def _mean_weighted(g: WeightedGraph, node_values: Iterable[float]) -> WeightedGraph:
    """``g``'s topology with every edge weighing the mean of its endpoints'
    values; ``0.5 * (a + b)`` is commutative, so both slots of an edge get
    the same bits."""
    values = np.fromiter(node_values, dtype=np.float64, count=g.node_count)
    rows = np.repeat(np.arange(g.node_count), g._degree)
    weights = 0.5 * (values[rows] + values[g._indices])
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0.0)))
    if bad.size:
        _check_weight(float(weights[bad[0]]))
    return WeightedGraph(g._index, g._indptr, g._indices, g._reverse, weights)


def _local_index(g: WeightedGraph, v_idx: int) -> tuple[list[int], list[list[int]]]:
    """Neighborhood of ``v_idx`` in local coordinates, as plain lists.

    Returns (neighbor indices, local adjacency lists); local position ``i``
    corresponds to ``nbrs[i]``, and each list is in ascending order.
    """
    indptr, indices = g._indptr, g._indices
    nbrs = indices[g._row(v_idx)].tolist()
    local = dict(zip(nbrs, range(len(nbrs))))
    ladj = [[local[w] for w in indices[indptr[u]:indptr[u + 1]].tolist() if w in local]
            for u in nbrs]
    return nbrs, ladj


def _forwarding(g: WeightedGraph, slots: int | slice | np.ndarray) -> np.ndarray:
    """Whether the far end u of each slot v→u forwards gossip about v.

    ``u`` keeps quiet when ``v`` is its close friend: w(u, v) * degree(u)
    > strength(u), the multiplied-through form of "tie strictly above u's
    mean tie", exact when all of u's ties weigh the same.
    """
    u = g._indices[slots]
    return ~(g._weights[slots] * g._degree[u] > g._strength[u])


def _spans(cost: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Consecutive index ranges whose cost sums to at most ``limit``; an item
    costlier than ``limit`` gets a range of its own."""
    ends = np.cumsum(cost)
    cuts = [0]
    while cuts[-1] < len(cost):
        done = int(ends[cuts[-1] - 1]) if cuts[-1] else 0
        cuts.append(max(int(np.searchsorted(ends, done + limit, side="right")), cuts[-1] + 1))
    return list(zip(cuts, cuts[1:]))


def _pairs_after(later: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) pairs in row-major order: item i = start, start + 1, ... pairs
    with each of the ``later[i - start]`` items j right after it."""
    first = np.repeat(np.arange(start, start + len(later)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return first, second


def _triangles(g: WeightedGraph, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every triangle once, as its three directed slots (x→y, y→z, z→x).

    Wedges are formed at each triangle's lowest vertex in (degree, index)
    order (Chiba & Nishizeki 1985; Latapy 2008) and closed by a binary
    search for the slot y→z among the sorted slot keys ``row * N + col``.
    ``rows`` is the row of every slot.
    """
    n = g.node_count
    indices = g._indices
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g._degree, kind="stable")] = np.arange(n)
    keys = rows * n + indices
    out = np.flatnonzero(rank[indices] > rank[rows])  # slots x→y, y above x
    out_rows = rows[out]
    del rank
    # out-slots after each one in its row: the wedges it opens as x→y
    later = np.cumsum(np.bincount(out_rows, minlength=n))[out_rows] - 1 - np.arange(len(out))
    del out_rows

    found = tuple([np.empty(0, dtype=np.int32)] for _ in range(3))
    for q0, q1 in _spans(later, WEDGE_CHUNK):
        first, second = _pairs_after(later[q0:q1], q0)
        xy, xz = out[first], out[second]
        wanted = indices[xy] * n + indices[xz]
        yz = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = keys[yz] == wanted
        found[0].append(xy[hit].astype(np.int32))
        found[1].append(yz[hit].astype(np.int32))
        found[2].append(g._reverse[xz[hit]])
    del keys, out, later
    cycle = []
    for parts in found:
        cycle.append(np.concatenate(parts))
        parts.clear()
    return tuple(cycle)


def induced_neighborhood(g: WeightedGraph, v: Label) -> Neighborhood:
    """Subgraph over the neighbors of ``v``; empty for an isolated node."""
    nbrs, ladj = _local_index(g, g.index_of(v))
    node_labels = [g.label_of(u) for u in nbrs]
    edges = frozenset(
        frozenset((node_labels[i], node_labels[j]))
        for i, row in enumerate(ladj) for j in row if j > i
    )
    return Neighborhood(center=v, nodes=frozenset(node_labels), edges=edges)
