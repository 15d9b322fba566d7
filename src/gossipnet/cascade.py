"""Gossip cascades about a single victim, in both model variants.

Gossip about a victim ``v`` travels only between neighbors of ``v``: each
transmission needs a triangle (victim, spreader, target), so a cascade is a
walk through the subgraph induced by the victim's 1-neighborhood. Both
models are one reachability rule and differ only in who forwards. In the
weighted model a node ``s`` keeps quiet when the victim is a close friend,
i.e. when w(s, v) strictly exceeds s's mean incident weight, the originator
included; quiet nodes receive and count as knowers but never send. The
base (unweighted) model is the weighted one with nobody quiet: the
component kernel gets an all-true forwarding mask, and the BFS oracle the
local rows with no quiet node's row emptied.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Label, WeightedGraph, _local_index, _pairs_after, _spans

MODELS = ("unweighted", "weighted", "both")

#: Slots plus local edges per block of victims in one component pass. They
#: bound the temporaries, never the results. Every block scans the triangle
#: list, so a large graph gets at most MAX_BLOCKS larger blocks instead of many.
BLOCK_SIZE = 1 << 15
MAX_BLOCKS = 32

#: Wedges closed per batch in the triangle listing. It bounds the
#: temporaries, never the results.
WEDGE_CHUNK = 1 << 14


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of one (victim, originator) cascade.

    ``knowers`` always contains the originator; ``spreading_time`` is the
    largest number of propagation hops from the originator over the knower
    set (0 when nobody else hears the gossip). ``fraction`` is
    count / victim degree.
    """

    victim: Label
    originator: Label
    knowers: frozenset[Label]
    spreading_time: int
    fraction: float

    @property
    def count(self) -> int:
        return len(self.knowers)


@dataclass(frozen=True)
class OriginatorOutcome:
    """Per-originator spread fractions and hop counts for one victim.

    ``sigma``/``tau_unweighted`` belong to the base model and
    ``beta``/``tau_weighted`` to the weighted model; fields are None for a
    model that was not run.
    """

    originator: Label
    sigma: float | None = None
    beta: float | None = None
    tau_unweighted: int | None = None
    tau_weighted: int | None = None


@dataclass(frozen=True)
class VictimSpread:
    """Spread factors of one victim, averaged over all originators.

    ``sigma`` and ``beta`` are the means of the per-originator fractions
    (None for a model not run, and both None for an isolated victim).
    """

    victim: Label
    degree: int
    sigma: float | None
    beta: float | None
    per_originator: tuple[OriginatorOutcome, ...]


def is_close_friend(g: WeightedGraph, s: Label, v: Label) -> bool:
    """True when ``v`` is a close friend of ``s`` (so ``s`` will not gossip).

    The test is w(s, v) * degree(s) > strength(s), the multiplied-through
    form of "edge weight strictly above s's mean incident weight"; it is
    exact in floating point when all of s's weights are equal, where the
    strict inequality must fail. The relation is intentionally asymmetric.
    """
    if not g.has_edge(s, v):
        raise ValueError(f"no edge between {s!r} and {v!r}")
    return g.weight(s, v) * g.degree(s) > g.strength(s)


def _forwards(
    g: WeightedGraph, v_idx: int, nbrs: list[int], ladj: list[list[int]]
) -> list[list[int]]:
    """The local rows ``ladj`` of the neighbors ``nbrs`` of ``v_idx``, with
    the row of each neighbor u that keeps quiet about it emptied: u is quiet
    when w(u, v) * degree(u) > strength(u). The BFS oracle states the
    close-friend rule here, apart from the component kernel."""
    weights = g._weights[g._row(v_idx)].tolist()
    degree, strength = g._degree[nbrs].tolist(), g._strength[nbrs].tolist()
    return [[] if w * k > s else row for row, w, k, s in zip(ladj, weights, degree, strength)]


def _bfs(ladj: list[list[int]], start: int) -> tuple[dict[int, int], int]:
    """Hop distances from ``start`` along the local rows ``ladj``.

    A node with an empty row is reached and recorded but sends to nobody.
    Returns (local index -> hop distance, max distance).
    """
    dist = {start: 0}
    tau = 0
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        for y in ladj[x]:
            if y not in dist:
                dist[y] = d
                tau = d
                queue.append(y)
    return dist, tau


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component representative of each of ``n`` nodes joined by edges a-b.

    Hooking plus pointer jumping: every round hooks the larger of the two
    roots of each edge that still crosses components onto the smaller one,
    then jumps pointers until every node points at its root. Jumping
    flattens a chain of length L in about log2(L) steps, where label
    propagation would need a step per hop of the component's diameter.
    """
    root = np.arange(n, dtype=np.int32)
    while a.size:
        ra, rb = root[a], root[b]
        crossing = ra != rb
        if not crossing.any():
            break
        a, b, ra, rb = a[crossing], b[crossing], ra[crossing], rb[crossing]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return root


def _reach_counts(a: np.ndarray, b: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    """Knower count of every originator among the local nodes joined by
    local edges a-b, where the mask ``fwd`` says which nodes forward.

    Forwarding nodes sharing a component of the forwarding-only subgraph
    reach that whole component plus its non-forwarding boundary, each
    boundary node counted once; a non-forwarding originator reaches nobody
    (count 1). The base model is the mask with every node forwarding: the
    boundary is empty and the count is the component size.
    """
    n = len(fwd)
    fa, fb = fwd[a], fwd[b]
    root = _components(n, a[fa & fb], b[fa & fb])
    reach = np.bincount(root, minlength=n)
    # edges with one quiet end: (component of the forwarding end, quiet end),
    # each distinct pair one more knower for that component
    mixed = fa != fb
    sender = np.where(fa, a, b)[mixed]
    quiet = np.where(fa, b, a)[mixed]
    pairs = np.sort(root[sender].astype(np.int64) * n + quiet)
    distinct = np.diff(pairs, prepend=-1) != 0
    reach += np.bincount(pairs[distinct] // n, minlength=n)
    return reach[root]


def _triangles(g: WeightedGraph, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every triangle once, as its three directed slots (x→y, y→z, z→x).

    Wedges are formed at each triangle's lowest vertex in (degree, index)
    order (Chiba & Nishizeki 1985; Latapy 2008) and closed by a binary
    search for the slot y→z among the sorted slot keys ``row * N + col``.
    ``rows`` is the row of every slot.
    """
    n = g.node_count
    indices = g._indices
    rank = np.empty(n, dtype=np.int32)
    rank[np.argsort(g._degree, kind="stable")] = np.arange(n, dtype=np.int32)
    out = np.flatnonzero(rank[indices] > rank[rows])  # slots x→y, y above x
    out_rows = rows[out]
    del rank
    # out-slots after each one in its row: the wedges it opens as x→y
    later = np.cumsum(np.bincount(out_rows, minlength=n))[out_rows] - 1 - np.arange(len(out))
    del out_rows
    keys = rows * n + indices  # int64, as rows and indices are

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


def _slot_counts(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangles through each node, and the knower count of the originator
    of every slot in the base and in the weighted model, from one triangle
    listing and one component pass per block of whole victims.

    Each triangle (x, y, z) is one local edge in each of N(x), N(y) and
    N(z): in N(x) it joins x→y and x→z, in N(y) y→z and y→x, in N(z) z→x
    and z→y, so each slot of the cycle meets its predecessor reversed.
    """
    n = g.node_count
    indptr, reverse = g._indptr, g._reverse
    rows = np.repeat(np.arange(n), g._degree)
    cycle = _triangles(g, rows)
    triangles = sum(np.bincount(rows[slots], minlength=n) for slots in cycle)
    del rows
    n_per = np.empty(len(reverse), dtype=np.int32)
    m_per = np.empty(len(reverse), dtype=np.int32)
    families = [(cycle[i], cycle[i - 1]) for i in range(3)]
    cost = g._degree + triangles  # slots plus local edges of each victim
    for v0, v1 in _spans(cost, max(BLOCK_SIZE, -(-int(cost.sum()) // MAX_BLOCKS))):
        s0, s1 = int(indptr[v0]), int(indptr[v1])
        a_parts, b_parts = [], []
        for own, before in families:
            inside = np.flatnonzero((own >= s0) & (own < s1))
            a_parts.append(own[inside] - s0)
            b_parts.append(reverse[before[inside]] - s0)
        a, b = np.concatenate(a_parts), np.concatenate(b_parts)
        n_per[s0:s1] = _reach_counts(a, b, np.ones(s1 - s0, dtype=bool))
        # the far end u of slot v→u forwards unless v is its close friend:
        # w(u, v) * degree(u) > strength(u); a product past the float range
        # is inf, and inf > strength(u) is then the exact answer
        u = g._indices[s0:s1]
        with np.errstate(over="ignore"):
            fwd = ~(g._weights[s0:s1] * g._degree[u] > g._strength[u])
        m_per[s0:s1] = _reach_counts(a, b, fwd)
    return triangles, n_per, m_per


def _cascade(g: WeightedGraph, v: Label, r: Label, weighted: bool) -> CascadeResult:
    v_idx, r_idx = g.index_of(v), g.index_of(r)
    nbrs, ladj = _local_index(g, v_idx)
    try:
        start = nbrs.index(r_idx)
    except ValueError:
        raise ValueError(f"originator {r!r} is not a neighbor of victim {v!r}") from None
    if weighted:
        ladj = _forwards(g, v_idx, nbrs, ladj)
    dist, tau = _bfs(ladj, start)
    knowers = frozenset(g.label_of(nbrs[i]) for i in dist)
    return CascadeResult(
        victim=v,
        originator=r,
        knowers=knowers,
        spreading_time=tau,
        fraction=len(knowers) / len(nbrs),
    )


def cascade_unweighted(g: WeightedGraph, v: Label, r: Label) -> CascadeResult:
    """Base-model cascade: every knower forwards to every local neighbor."""
    return _cascade(g, v, r, weighted=False)


def cascade_weighted(g: WeightedGraph, v: Label, r: Label) -> CascadeResult:
    """Close-friend-rule cascade: nodes for whom the victim is a close friend
    receive the gossip but never forward it."""
    return _cascade(g, v, r, weighted=True)


def _models(model: str) -> tuple[bool, bool]:
    """(run the base model, run the weighted model) for a ``model`` name."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return model != "weighted", model != "unweighted"


def victim_spread(g: WeightedGraph, v: Label, model: str = "both") -> VictimSpread:
    """Run the cascade from every originator and average, by per-originator BFS.

    This is the reference path: one breadth-first search per originator,
    recording hop counts. For an isolated victim all spread fields are None.
    """
    run_u, run_w = _models(model)
    v_idx = g.index_of(v)
    nbrs, ladj = _local_index(g, v_idx)
    k = len(nbrs)
    if k == 0:
        return VictimSpread(victim=v, degree=0, sigma=None, beta=None, per_originator=())

    wadj = _forwards(g, v_idx, nbrs, ladj) if run_w else None

    outcomes = []
    n_total = 0
    m_total = 0
    for i in range(k):
        sigma = beta = tau_u = tau_w = None
        if run_u:
            dist, tau_u = _bfs(ladj, i)
            n_total += len(dist)
            sigma = len(dist) / k
        if run_w:
            dist, tau_w = _bfs(wadj, i)
            m_total += len(dist)
            beta = len(dist) / k
        outcomes.append(OriginatorOutcome(g.label_of(nbrs[i]), sigma, beta, tau_u, tau_w))
    return VictimSpread(
        victim=v,
        degree=k,
        sigma=n_total / (k * k) if run_u else None,
        beta=m_total / (k * k) if run_w else None,
        per_originator=tuple(outcomes),
    )


#: Old name of the oracle, kept only for the benchmark's traced
#: ``local_components`` counter (``perfbench/oracle.py``). ROADMAP item 1
#: deletes it, in a change to the benchmark that moves the counter off it.
fast_victim_spread = victim_spread
