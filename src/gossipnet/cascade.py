"""Gossip cascades about a single victim, in both model variants.

Gossip about a victim ``v`` travels only between neighbors of ``v``: each
transmission needs a triangle (victim, spreader, target), so a cascade is a
walk through the subgraph induced by the victim's 1-neighborhood. In the
base (unweighted) model every knower forwards to all of its local
neighbors. In the weighted model a node ``s`` keeps quiet when the victim
is a close friend, i.e. when the edge weight w(s, v) strictly exceeds s's
mean incident weight; such nodes still receive and count as knowers, they
just never send. The originator is subject to the same rule before its
first send.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Label, WeightedGraph, _local_index, _spans, _triangles

MODELS = ("unweighted", "weighted", "both")

#: Slots plus local edges per block of victims in one component pass. They
#: bound the temporaries, never the results. Every block scans the triangle
#: list, so a large graph gets at most MAX_BLOCKS larger blocks instead of many.
BLOCK_SIZE = 1 << 15
MAX_BLOCKS = 32


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


def _forwards(g: WeightedGraph, v_idx: int, nbrs: list[int]) -> list[bool]:
    """Whether each neighbor u in ``nbrs``, the row of ``v_idx``, forwards
    gossip about it: not w(u, v) * degree(u) > strength(u). The BFS oracle
    states the close-friend rule here, apart from the component kernel."""
    weights = g._weights[g._row(v_idx)].tolist()
    degree, strength = g._degree[nbrs].tolist(), g._strength[nbrs].tolist()
    return [not w * k > s for w, k, s in zip(weights, degree, strength)]


def _bfs(
    ladj: list[list[int]], start: int, fwd: list[bool] | None
) -> tuple[dict[int, int], int]:
    """Hop distances from ``start`` along permitted paths.

    Expansion happens only from forwarding nodes (all nodes when ``fwd`` is
    None); non-forwarding nodes are reached and recorded but never expanded.
    Returns (local index -> hop distance, max distance).
    """
    dist = {start: 0}
    if fwd is not None and not fwd[start]:
        return dist, 0
    tau = 0
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        for y in ladj[x]:
            if y not in dist:
                dist[y] = d
                tau = d
                if fwd is None or fwd[y]:
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


def _reach_counts(
    n: int, a: np.ndarray, b: np.ndarray, fwd: np.ndarray | None
) -> np.ndarray:
    """Knower count of every originator among ``n`` local nodes with local
    edges a-b, where ``fwd`` says which nodes forward (None: all of them).

    Forwarding nodes sharing a component of the forwarding-only subgraph
    reach that whole component plus its non-forwarding boundary, each
    boundary node counted once; a non-forwarding originator reaches nobody
    (count 1). With every node forwarding the boundary is empty and the
    count is the component size.
    """
    if fwd is None:
        root = _components(n, a, b)
        return np.bincount(root, minlength=n)[root]
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


def _slot_counts(
    g: WeightedGraph, run_u: bool, run_w: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Triangles through each node, and the knower count of the originator
    of every slot, in the base and in the weighted model (None for a model
    not run), from one triangle listing and one component pass per block of
    whole victims.

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
    n_per = np.empty(len(reverse), dtype=np.int32) if run_u else None
    m_per = np.empty(len(reverse), dtype=np.int32) if run_w else None
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
        if run_u:
            n_per[s0:s1] = _reach_counts(s1 - s0, a, b, None)
        if run_w:
            # the far end u of slot v→u forwards unless v is its close friend:
            # w(u, v) * degree(u) > strength(u)
            u = g._indices[s0:s1]
            fwd = ~(g._weights[s0:s1] * g._degree[u] > g._strength[u])
            m_per[s0:s1] = _reach_counts(s1 - s0, a, b, fwd)
    return triangles, n_per, m_per


def _require_neighbor(g: WeightedGraph, v: Label, r: Label) -> tuple[int, int]:
    if not g.has_edge(v, r):
        raise ValueError(f"originator {r!r} is not a neighbor of victim {v!r}")
    return g.index_of(v), g.index_of(r)


def _cascade(g: WeightedGraph, v: Label, r: Label, weighted: bool) -> CascadeResult:
    v_idx, r_idx = _require_neighbor(g, v, r)
    nbrs, ladj = _local_index(g, v_idx)
    fwd = _forwards(g, v_idx, nbrs) if weighted else None
    dist, tau = _bfs(ladj, nbrs.index(r_idx), fwd)
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

    fwd = _forwards(g, v_idx, nbrs) if run_w else None

    outcomes = []
    n_total = 0
    m_total = 0
    for i in range(k):
        sigma = beta = tau_u = tau_w = None
        if run_u:
            dist, tau_u = _bfs(ladj, i, None)
            n_total += len(dist)
            sigma = len(dist) / k
        if run_w:
            dist, tau_w = _bfs(ladj, i, fwd)
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


#: Old name of the oracle, kept only for perfbench's traced
#: ``local_components`` counter; ROADMAP item 1e moves that counter off it and
#: deletes this alias.
fast_victim_spread = victim_spread
