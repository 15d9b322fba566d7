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

import itertools
import math
import operator
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

Label = Hashable

#: Labels looked up per gather when a block of labels is interned. It
#: bounds the gather's two temporary tuples, never the results: tuples of a
#: whole 64 KiB block left the heap fragmented enough to raise the peak RSS
#: of the analysis after the read.
INTERN_CHUNK = 1 << 11

#: Records ranked per batch when a graph merges its records, and slot
#: weights tested per slice for whole values. It bounds temporaries, never
#: results.
MERGE_CHUNK = 1 << 16


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


def _label_index() -> defaultdict:
    """Labels to dense indices in order of first appearance: looking up a
    label not yet held adds it with the next index. ``build_graph`` and the
    readers intern labels in it, then hand the graph ``tuple(index)`` and
    drop it; the graph makes its own lookup on first use
    (``WeightedGraph._lookup``)."""
    # not index.__len__: a method of the index would make a cycle, freed late
    return defaultdict(itertools.count().__next__)


def _intern(index: defaultdict, labels: list) -> np.ndarray:
    """The indices of ``labels`` in ``index``, which adds new labels in order
    of first appearance: one C-level gather per INTERN_CHUNK labels."""
    pieces = (labels[start:start + INTERN_CHUNK] for start in range(0, len(labels), INTERN_CHUNK))
    found = (_gather(piece, index) for piece in pieces)
    return np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64, count=len(labels))


def _gather(keys: list, mapping) -> tuple:
    got = operator.itemgetter(*keys)(mapping)
    return got if len(keys) > 1 else (got,)  # one item comes back bare


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
    fractional = np.zeros(len(degree), dtype=bool)
    filled = np.flatnonzero(degree)
    if filled.size:
        with np.errstate(over="ignore"):  # an overflowing row stays inf
            sums[filled] = np.add.reduceat(weights, indptr[filled])
        # the slots whose weight is not whole, tested one MERGE_CHUNK slice at
        # a time: no float copy of every weight
        not_whole = np.zeros(len(weights), dtype=bool)
        for start in range(0, len(weights), MERGE_CHUNK):
            part = weights[start:start + MERGE_CHUNK]
            np.not_equal(part, np.floor(part), out=not_whole[start:start + MERGE_CHUNK])
        fractional[filled] = np.logical_or.reduceat(not_whole, indptr[filled])
        del not_whole
    inexact = (degree > 2) & (fractional | (sums >= 2.0**53))
    inexact &= np.isfinite(sums)
    rows = np.flatnonzero(inexact)
    # one row at a time becomes Python floats
    for v, a, b in zip(rows.tolist(), indptr[rows].tolist(), indptr[rows + 1].tolist()):
        sums[v] = math.fsum(weights[a:b].tolist())
    return sums


class WeightedGraph:
    """Undirected simple graph with positive edge weights, immutable once built.

    Construct via :func:`build_graph`. A node strength past the float range
    raises OverflowError naming the node. Safe to share across threads or
    processes; all accessors are read-only and return Python numbers.

    The graph holds its labels in index order. The first lookup of a label
    (``index_of``, ``has_node`` and the accessors that take labels) builds
    the label-to-index dict; concurrent first lookups are harmless, since
    each builds an equal dict and one of them is kept.
    """

    __slots__ = ("_labels", "_index", "_indptr", "_indices", "_reverse", "_weights",
                 "_degree", "_strength")

    def __init__(
        self,
        labels: Iterable[Label],
        indptr: np.ndarray,
        indices: np.ndarray,
        reverse: np.ndarray,
        weights: np.ndarray,
    ):
        self._labels = tuple(labels)
        self._index = None  # made by _lookup
        self._indptr = _frozen(indptr)
        self._indices = _frozen(indices)
        self._reverse = _frozen(reverse)  # slot u→v of each slot v→u, int32
        self._weights = _frozen(weights)
        self._degree = _frozen(np.diff(indptr))
        self._strength = _frozen(_row_sums(indptr, weights))
        over = np.flatnonzero(~np.isfinite(self._strength))
        if over.size:
            raise OverflowError(f"node {self._labels[over[0]]!r}: strength past the float range")

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

    def _lookup(self) -> dict[Label, int]:
        """Labels to dense indices, made on the first call."""
        if self._index is None:
            self._index = dict(zip(self._labels, range(len(self._labels))))
        return self._index

    def has_node(self, label: Label) -> bool:
        return label in self._lookup()

    def index_of(self, label: Label) -> int:
        """Dense 0-based index of a node (order of first appearance)."""
        try:
            return self._lookup()[label]
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
    index = _label_index()
    if nodes is not None:
        for label in nodes:
            index[label]  # a new label takes the next index

    ends = array("q")
    record_weights = array("d")
    for i_lab, j_lab, w in records:
        if i_lab == j_lab:
            raise ValueError(f"self-loop on node {i_lab!r}")
        if not (type(w) is float and 0.0 < w < math.inf):  # NaN fails too
            w = _check_weight(w)
        record_weights.append(w)
        ends.append(index[i_lab])
        ends.append(index[j_lab])
    labels = tuple(index)
    del index
    return _from_pairs(
        labels,
        np.frombuffer(ends, dtype=np.int64).reshape(-1, 2),
        np.frombuffer(record_weights, dtype=np.float64),
    )


def _from_pairs(labels: Sequence[Label], ends: np.ndarray, weights: np.ndarray) -> WeightedGraph:
    """The graph of validated records over ``labels``, in index order:
    ``ends`` holds the dense indices of each record's two nodes, one row per
    record, ``weights`` its weight."""
    return _from_keys(labels, _pair_keys(ends[:, 0], ends[:, 1], len(labels)), [weights])


def _pair_keys(a: np.ndarray, b: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``lo * n + hi`` of each pair of dense indices, lo the smaller one."""
    keys = np.minimum(a, b, out=out)
    keys *= n
    keys += np.maximum(a, b)
    return keys


def _from_keys(
    labels: Sequence[Label], keys: np.ndarray, weights: Iterable[np.ndarray]
) -> WeightedGraph:
    """The graph over ``labels``, in index order, of validated records given
    as pair keys (see _pair_keys), in record order, and their weights, in
    consecutive runs of records.

    Records of one pair merge by summing their weights in record order; a
    sum past the float range raises OverflowError naming the pair.

    ``keys`` is overwritten, and callers hold no other reference to it, so
    it is freed before the CSR arrays are made. Beside it, only 8 bytes per
    record, one batch's or one run's temporaries and arrays of the graph's
    size are held at a time.
    """
    n = len(labels)
    # each record's pair is the rank of its key among the distinct keys; one
    # sort, walked in batches, overwrites each key with that rank
    order = np.argsort(keys)
    distinct, found, last = [np.empty(0, dtype=np.int64)], 0, None
    for b0 in range(0, len(keys), MERGE_CHUNK):
        batch = order[b0:b0 + MERGE_CHUNK]
        ranked = keys[batch]
        new = np.concatenate(([b0 == 0 or ranked[0] != last], ranked[1:] != ranked[:-1]))
        rank = np.cumsum(new)
        rank += found - 1
        keys[batch] = rank  # read already; later batches' keys lie elsewhere
        distinct.append(ranked[new])
        found, last = int(rank[-1]) + 1, ranked[-1]
    del order
    pair_keys = np.concatenate(distinct)
    del distinct
    merged = np.zeros(len(pair_keys))
    start = 0
    # unbuffered and in record order: each merged weight is the left fold
    with np.errstate(over="ignore"):
        for run in weights:
            np.add.at(merged, keys[start:start + len(run)], run)
            start += len(run)
    del keys
    over = np.flatnonzero(~np.isfinite(merged))
    if over.size:
        a, b = divmod(int(pair_keys[over[0]]), n)
        raise OverflowError(f"edge {labels[a]!r} {labels[b]!r}: weight past the float range")

    # the CSR arrays, each temporary updated in place and freed once used
    m, n1 = len(pair_keys), max(n, 1)
    # the sort keys row * n + col of every slot: lo→hi of each pair, then
    # hi→lo; they are distinct, so their order is the (row, col) order
    slot_keys = np.empty(2 * m, dtype=np.int64)
    lo = pair_keys // n1
    hi = np.remainder(pair_keys, n1, out=slot_keys[m:])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n), out=indptr[1:])
    hi *= n
    hi += lo
    del lo, hi
    slot_keys[:m] = pair_keys
    del pair_keys
    order = np.argsort(slot_keys)
    slot_keys %= n1  # each slot's column
    indices = slot_keys[order]
    del slot_keys
    # slot e and slot e + m are the two directions of one edge
    slot_weights = merged.take(order, mode="wrap")
    del merged
    slot_of = np.empty(2 * m, dtype=np.int32)
    slot_of[order] = np.arange(2 * m, dtype=np.int32)
    order += m
    order %= max(2 * m, 1)
    reverse = slot_of[order]
    del slot_of, order
    return WeightedGraph(labels, indptr, indices, reverse, slot_weights)


def _mean_weighted(g: WeightedGraph, values: np.ndarray) -> WeightedGraph:
    """``g``'s topology with every edge weighing the mean of its endpoints'
    ``values``; ``0.5 * (a + b)`` is commutative, so both slots of an edge
    get the same bits."""
    rows = np.repeat(np.arange(g.node_count), g._degree)
    with np.errstate(over="ignore"):  # the graph refuses the strengths then
        weights = 0.5 * (values[rows] + values[g._indices])
    return WeightedGraph(g._labels, g._indptr, g._indices, g._reverse, weights)


def _local_index(g: WeightedGraph, v_idx: int) -> tuple[list[int], list[list[int]]]:
    """The neighbors of ``v_idx`` and the edges among them, in local
    coordinates, as plain lists: the BFS oracle's view of one victim.

    Returns (neighbor indices, local adjacency lists); local position ``i``
    corresponds to ``nbrs[i]``, and each list is in ascending order.
    """
    indptr, indices = g._indptr, g._indices
    nbrs = indices[g._row(v_idx)].tolist()
    local = dict(zip(nbrs, range(len(nbrs))))
    ladj = [[local[w] for w in indices[indptr[u]:indptr[u + 1]].tolist() if w in local]
            for u in nbrs]
    return nbrs, ladj


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

