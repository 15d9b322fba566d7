"""Random network generation (ER / BA / WS) with node-based edge weights,
plus seeded ensemble runs.

Every realization is reproducible in isolation: realization ``i`` of a
config with seed ``s`` draws each part (structure, weights) from its own RNG
stream ``SeedSequence([s, i, SEED_STREAMS[part]])``, so ensembles can run on
any number of workers without changing the output.

Weights follow a per-node scheme: each node draws w_i from a Gaussian with
the configured mean and standard deviation (redrawn, or optionally clamped,
until above a small positive floor), and each edge gets the average of its
endpoint values.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, fields, replace
from os import PathLike

import numpy as np

from .graph import WeightedGraph, _from_pairs, _mean_weighted
from .ingest import _data_lines
from .metrics import (
    CurvePoint,
    DegreeCurve,
    NetworkAnalysis,
    NetworkSummary,
    analyze_network,
    find_k0,
)

MODELS = ("ER", "BA", "WS")
TRUNCATIONS = ("resample", "clamp")
WEIGHT_FLOOR = 1e-6

#: Stream id of each part of a realization, the last SeedSequence entry
SEED_STREAMS = {"structure": 0, "weights": 1}

# NetworkSummary fields aggregated over ensemble realizations
SUMMARY_FIELDS = (
    "n_nodes",
    "n_edges",
    "n_isolated",
    "cc",
    "sigma",
    "beta",
    "k0",
    "k0_w",
    "k0w_over_k0",
    "sigma_over_cc",
    "beta_over_cc",
    "beta_over_sigma",
    "beta_over_sigma_cc",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Structural and weight parameters for one generator family.

    ``p`` is the connection probability for ER and the rewiring probability
    for WS; ``m0``/``m`` are the BA seed-clique size and edges per new node;
    ``k`` is the (even) WS ring degree.
    """

    model: str
    N: int
    p: float | None = None
    m0: int | None = None
    m: int | None = None
    k: int | None = None
    weight_mean: float = 1.0
    weight_stddev: float = 1.0
    weight_truncation: str = "resample"
    seed: int = 0
    realizations: int = 50

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        if self.realizations < 1:
            raise ValueError(f"realizations must be positive, got {self.realizations}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.weight_mean) and math.isfinite(self.weight_stddev)):
            raise ValueError(
                f"weight_mean and weight_stddev must be finite, got "
                f"{self.weight_mean!r} and {self.weight_stddev!r}"
            )
        if self.weight_stddev < 0:
            raise ValueError(f"weight_stddev must be non-negative, got {self.weight_stddev}")
        if self.weight_stddev == 0 and self.weight_mean <= WEIGHT_FLOOR:
            raise ValueError("weight_mean must exceed the positive floor when weight_stddev is 0")
        if self.weight_truncation not in TRUNCATIONS:
            raise ValueError(
                f"weight_truncation must be one of {TRUNCATIONS}, got {self.weight_truncation!r}"
            )
        if self.weight_truncation == "resample" and self.weight_stddev > 0:
            z = (WEIGHT_FLOOR - self.weight_mean) / (self.weight_stddev * math.sqrt(2.0))
            # with P(draw > floor) >= 0.01, a node exhausts the 10 000 redraws
            # of _node_weights with odds 0.99**10_000 < e**-100
            if 0.5 * math.erfc(z) < 0.01:
                raise ValueError(
                    "weight distribution has under 1% of its mass above the positive "
                    "floor; raise weight_mean or use weight_truncation clamp"
                )
        if self.model == "ER":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"ER needs connection probability p in [0, 1], got {self.p!r}")
        elif self.model == "BA":
            if self.m0 is None or self.m is None:
                raise ValueError("BA needs m0 (seed clique size) and m (edges per new node)")
            if self.m0 < 2:
                # a one-node seed has no edge, so no endpoint to attach to
                raise ValueError(f"BA needs a seed clique of m0 >= 2 nodes, got m0={self.m0}")
            if not 1 <= self.m <= self.m0:
                raise ValueError(f"BA needs 1 <= m <= m0, got m={self.m}, m0={self.m0}")
            if not self.m0 < self.N:
                raise ValueError(f"BA needs m0 < N, got m0={self.m0}, N={self.N}")
        elif self.model == "WS":
            if self.k is None or self.k < 2 or self.k % 2 != 0:
                raise ValueError(f"WS needs an even ring degree k >= 2, got {self.k!r}")
            if self.k >= self.N:
                raise ValueError(f"WS needs k < N, got k={self.k}, N={self.N}")
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"WS needs rewiring probability p in [0, 1], got {self.p!r}")


def _stream(cfg: GeneratorConfig, realization_index: int, part: str) -> np.random.Generator:
    seq = np.random.SeedSequence([cfg.seed, realization_index, SEED_STREAMS[part]])
    return np.random.default_rng(seq)


def _er_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    # one upper-triangle row per draw: the same doubles in the same order as a
    # single draw over all pairs, in O(N) memory
    rows = [np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1) for i in range(n - 1)]
    counts = [len(r) for r in rows]
    return np.column_stack(
        (np.repeat(np.arange(n - 1), counts), np.concatenate(rows, dtype=np.int64))
    )


def _ba_edges(n: int, m0: int, m: int, rng: np.random.Generator) -> np.ndarray:
    # seed clique, then degree-proportional attachment: the flat edge list is
    # the endpoint multiset drawn from; duplicate targets for one new node are
    # redrawn (simple graph)
    ends = [x for i in range(m0) for j in range(i + 1, m0) for x in (i, j)]
    for new in range(m0, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            ends += (t, new)
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


def _ws_edges(n: int, k: int, p: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    # ring lattice, then one rewiring pass per lattice edge; rewired ends are
    # redrawn to avoid self-loops and duplicates, skipping saturated nodes
    edge_set: set[tuple[int, int]] = set()
    for j in range(1, k // 2 + 1):
        for i in range(n):
            a, b = i, (i + j) % n
            edge_set.add((a, b) if a < b else (b, a))
    degree = [k] * n
    for j in range(1, k // 2 + 1):
        for i in range(n):
            a, b = i, (i + j) % n
            if rng.random() >= p or degree[a] >= n - 1:
                continue
            while True:
                t = int(rng.integers(n))
                new_key = (a, t) if a < t else (t, a)
                if t != a and new_key not in edge_set:
                    edge_set.discard((a, b) if a < b else (b, a))
                    edge_set.add(new_key)
                    degree[b] -= 1
                    degree[t] += 1
                    break
    return edge_set


def generate_structure(cfg: GeneratorConfig, realization_index: int = 0) -> WeightedGraph:
    """Generate the topology of one realization, all edge weights set to 1.

    Deterministic in (cfg.seed, realization_index); nodes are labeled
    0 .. N-1 and kept even when isolated.
    """
    cfg.validate()
    rng = _stream(cfg, realization_index, "structure")
    if cfg.model == "ER":
        ends = _er_edges(cfg.N, cfg.p, rng)
    elif cfg.model == "BA":
        ends = _ba_edges(cfg.N, cfg.m0, cfg.m, rng)
    else:
        edges = _ws_edges(cfg.N, cfg.k, cfg.p, rng)
        flat = itertools.chain.from_iterable(edges)
        ends = np.fromiter(flat, dtype=np.int64, count=2 * len(edges)).reshape(-1, 2)
    # every pair once, weighing 1
    return _from_pairs(dict(zip(range(cfg.N), range(cfg.N))), ends, np.ones(len(ends)))


def _node_weights(cfg: GeneratorConfig, n: int, rng: np.random.Generator) -> list[float]:
    weights = []
    for _ in range(n):
        w = float(rng.normal(cfg.weight_mean, cfg.weight_stddev))
        if cfg.weight_truncation == "clamp":
            w = max(w, WEIGHT_FLOOR)
        else:
            tries = 0
            while w <= WEIGHT_FLOOR:
                w = float(rng.normal(cfg.weight_mean, cfg.weight_stddev))
                tries += 1
                if tries > 10_000:
                    raise ValueError(
                        "weight distribution has almost no mass above the positive floor"
                    )
        weights.append(w)
    return weights


def assign_weights(
    g: WeightedGraph, cfg: GeneratorConfig, rng: np.random.Generator
) -> WeightedGraph:
    """Re-weight a generated topology with the per-node Gaussian scheme.

    One draw per node (in label order), each edge set to the mean of its
    endpoint values; returns a new graph sharing the topology's arrays.
    """
    return _mean_weighted(g, _node_weights(cfg, g.node_count, rng))


def realization(cfg: GeneratorConfig, realization_index: int = 0) -> WeightedGraph:
    """Structure plus weights for one realization, fully seeded."""
    structure = generate_structure(cfg, realization_index)
    rng = _stream(cfg, realization_index, "weights")
    return assign_weights(structure, cfg, rng)


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate of per-realization summaries.

    ``mean``/``std`` hold per-field arithmetic means and population standard
    deviations over the realizations where the field is defined (``defined``
    gives that count; fields undefined everywhere aggregate to None). Mean
    degree curves average each degree over the realizations that contain it
    (missing degrees contribute nothing), with ``count`` carrying the total
    number of sampled victims and ``curve_realizations`` how many
    realizations contributed. Critical degrees are aggregated both ways:
    as means of per-realization values (in ``mean``) and as the minimum of
    the mean curve.
    """

    config: GeneratorConfig
    summaries: tuple[NetworkSummary, ...]
    mean: dict[str, float | None]
    std: dict[str, float | None]
    defined: dict[str, int]
    sigma_curve: DegreeCurve
    beta_curve: DegreeCurve
    cc_curve: DegreeCurve
    curve_realizations: dict[int, int]
    k0_of_mean_curve: int | None
    k0w_of_mean_curve: int | None


def _summarize_realization(args: tuple[GeneratorConfig, int, int]) -> NetworkAnalysis:
    cfg, index, min_samples = args
    return analyze_network(realization(cfg, index), "both", min_samples)


def _mean_curve(
    curves: list[DegreeCurve],
) -> tuple[DegreeCurve, dict[int, int]]:
    values: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for curve in curves:
        for k in curve.degrees():
            values.setdefault(k, []).append(curve.value(k))
            counts[k] = counts.get(k, 0) + curve.count(k)
    points = {
        k: CurvePoint(value=math.fsum(vals) / len(vals), count=counts[k])
        for k, vals in sorted(values.items())
    }
    return DegreeCurve(points), {k: len(vals) for k, vals in sorted(values.items())}


def _pool_size(workers: int, realizations: int) -> int:
    """Worker processes to start: at most one per realization and per CPU."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, realizations, os.cpu_count() or 1)


def run_ensemble(
    cfg: GeneratorConfig, min_samples: int = 1, workers: int = 1
) -> EnsembleSummary:
    """Generate, weight and summarize ``cfg.realizations`` independent
    networks and aggregate the results.

    ``workers`` > 1 distributes realizations over processes, never more than
    there are realizations or CPUs; the output is identical for any worker
    count because every realization owns its RNG streams and aggregation
    runs in realization order. Raises ValueError for ``workers`` < 1.
    """
    cfg.validate()
    pool_size = _pool_size(workers, cfg.realizations)
    jobs = [(cfg, i, min_samples) for i in range(cfg.realizations)]
    if pool_size > 1:
        # imported here: it costs every process that never starts a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            analyses = list(pool.map(_summarize_realization, jobs))
    else:
        analyses = [_summarize_realization(job) for job in jobs]

    summaries = tuple(a.summary for a in analyses)
    mean: dict[str, float | None] = {}
    std: dict[str, float | None] = {}
    defined: dict[str, int] = {}
    for name in SUMMARY_FIELDS:
        values = [float(getattr(s, name)) for s in summaries if getattr(s, name) is not None]
        defined[name] = len(values)
        if values:
            m = math.fsum(values) / len(values)
            mean[name] = m
            std[name] = math.sqrt(math.fsum((x - m) ** 2 for x in values) / len(values))
        else:
            mean[name] = None
            std[name] = None

    sigma_curve, curve_reals = _mean_curve([a.sigma_curve for a in analyses])
    beta_curve, _ = _mean_curve([a.beta_curve for a in analyses])
    cc_curve, _ = _mean_curve([a.cc_curve for a in analyses])
    k0_mean_curve, _ = find_k0(sigma_curve, min_samples)
    k0w_mean_curve, _ = find_k0(beta_curve, min_samples)

    return EnsembleSummary(
        config=cfg,
        summaries=summaries,
        mean=mean,
        std=std,
        defined=defined,
        sigma_curve=sigma_curve,
        beta_curve=beta_curve,
        cc_curve=cc_curve,
        curve_realizations=curve_reals,
        k0_of_mean_curve=k0_mean_curve,
        k0w_of_mean_curve=k0w_mean_curve,
    )


# -- plain key-value config files --------------------------------------------

_INT_FIELDS = {"N", "m0", "m", "k", "seed", "realizations"}
_FLOAT_FIELDS = {"p", "weight_mean", "weight_stddev"}
_STR_FIELDS = {"model", "weight_truncation"}
_ALL_FIELDS = _INT_FIELDS | _FLOAT_FIELDS | _STR_FIELDS


def save_config(cfg: GeneratorConfig, path: str | PathLike[str]) -> None:
    """Write ``key = value`` lines, one per set field, in declaration order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if value is None:
                continue
            fh.write(f"{f.name} = {value}\n")


def load_config(path: str | PathLike[str], **overrides) -> GeneratorConfig:
    """Read a ``key = value`` config file ('#' comments allowed) and validate.

    Keyword overrides replace file values (e.g. ``seed=...`` for a new run).
    A repeated key or a malformed value raises ValueError naming its line.
    """
    kwargs: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, line in _data_lines(path):
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or key not in _ALL_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown config line {line!r}")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        kind = int if key in _INT_FIELDS else float if key in _FLOAT_FIELDS else str
        try:
            kwargs[key] = kind(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} must be {kind.__name__}, got {value!r}"
            ) from None
    if "model" not in kwargs or "N" not in kwargs:
        raise ValueError(f"{path}: config must set at least 'model' and 'N'")
    cfg = replace(GeneratorConfig(**kwargs), **overrides)
    cfg.validate()
    return cfg
