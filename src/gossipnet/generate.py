"""Random network generation (ER / BA / WS) with node-based edge weights,
plus seeded ensemble runs.

Every realization is reproducible in isolation: realization ``i`` of a
config with seed ``s`` draws each part (structure, weights) from its own RNG
stream ``SeedSequence([s, i, SEED_STREAMS[part]])``, so ensembles can run on
any number of workers without changing the output. The workers are children
forked from the calling process, which imports ``numpy.random`` first so that
they inherit it; no executor or ``multiprocessing`` is involved.

Weights follow a per-node scheme: each node draws w_i from a Gaussian with
the configured mean and standard deviation (redrawn until above a small
positive floor, or optionally clamped at it), and each edge gets the average
of its endpoint values.
"""

from __future__ import annotations

import builtins
import math
import numbers
import os
import pickle
from dataclasses import MISSING, Field, dataclass, field, fields
from os import PathLike
from typing import Callable

import numpy as np

from .graph import WeightedGraph, _from_pairs, _mean_weighted, _spans
from .ingest import _data_lines
from .metrics import (
    CurvePoint,
    DegreeCurve,
    NetworkAnalysis,
    NetworkSummary,
    _at_least_one,
    analyze_network,
    find_k0,
)

MODELS = ("ER", "BA", "WS")
TRUNCATIONS = ("resample", "clamp")
WEIGHT_FLOOR = 1e-6
Z_99 = 2.3263478740408408  # N(0, 1)'s 1% upper quantile: NormalDist().inv_cdf(0.99)
#: What a GeneratorConfig field of each value type takes, numpy scalars too
_ACCEPTS = {int: numbers.Integral, float: numbers.Real}

#: Stream id of each part of a realization, the last SeedSequence entry
SEED_STREAMS = {"structure": 0, "weights": 1}

# NetworkSummary fields aggregated over ensemble realizations: not the interior
# flags, which are not numbers, nor n_leaf_victims, which ensemble.json predates
SUMMARY_FIELDS = tuple(f.name for f in fields(NetworkSummary)
                       if f.name not in ("n_leaf_victims", "k0_interior", "k0w_interior"))


def _flag(help: str, default=MISSING, choices: tuple[str, ...] | None = None):
    """A GeneratorConfig field with ``default``, and the ``help`` and
    ``choices`` of its ``--<name>`` flag (see ``cli._add_generator_flags``)."""
    return field(default=default, metadata={"help": help, "choices": choices})


def _value_type(f: Field) -> type:
    """The type of a GeneratorConfig field's config-file values and flag: the
    first name in its annotation, as in "float | None"."""
    return getattr(builtins, f.type.split()[0])


@dataclass(frozen=True)
class GeneratorConfig:
    """Structural and weight parameters for one generator family. Each field
    is also a config-file key and a ``generate``/``sweep`` flag. Construction
    checks each field against its declaration, then the rules between
    fields, so every config that exists is valid."""

    model: str = _flag("generator family", choices=MODELS)
    N: int = _flag("number of nodes")
    p: float | None = _flag("ER connection probability / WS rewiring probability", None)
    m0: int | None = _flag("BA seed clique size", None)
    m: int | None = _flag("BA edges per new node", None)
    k: int | None = _flag("WS ring degree (even)", None)
    weight_mean: float = _flag("mean of the per-node weight Gaussian (default %(default)s)", 1.0)
    weight_stddev: float = _flag(
        "stddev of the per-node weight Gaussian (default %(default)s)", 1.0)
    weight_truncation: str = _flag(
        "how to keep node weights positive (default %(default)s)", "resample", TRUNCATIONS)
    seed: int = _flag("master seed (default %(default)s)", 0)
    realizations: int = _flag("number of realizations (default %(default)s)", 50)

    def __post_init__(self) -> None:
        # each field against its declaration: the annotation's type (an int is
        # a float too, a bool neither; None only under "| None"), the choices
        for f in fields(self):
            value, kind = getattr(self, f.name), _value_type(f)
            if value is None and f.type.endswith("| None"):
                continue
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS.get(kind, kind)):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
            if (choices := f.metadata["choices"]) and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
            # kept as the declared type, so no fixed-width numpy arithmetic
            # follows; an int past the float range is the infinity it rounds
            # to, which the rules below refuse as they refuse a float one
            try:
                value = kind(value)
            except OverflowError:
                value = math.inf if value > 0 else -math.inf
            object.__setattr__(self, f.name, value)
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        _at_least_one(self.realizations, "realizations")
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
        # numpy draws mean + stddev * z, so every z >= Z_99 (1% of the draws)
        # lands above the floor exactly when this float sum does and the redraws
        # in _node_weights end; a spread too small to move the sum is refused
        if (self.weight_truncation == "resample"
                and not self.weight_mean + Z_99 * self.weight_stddev > WEIGHT_FLOOR):
            raise ValueError(
                "weight distribution has under 1% of its mass above the positive "
                "floor; raise weight_mean or use weight_truncation clamp"
            )
        if self.model != "BA" and (self.p is None or not 0.0 <= self.p <= 1.0):
            role = "connection" if self.model == "ER" else "rewiring"
            raise ValueError(f"{self.model} needs {role} probability p in [0, 1], got {self.p!r}")
        if self.model == "BA":
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


def _stream(cfg: GeneratorConfig, realization_index: int, part: str) -> np.random.Generator:
    seq = np.random.SeedSequence([cfg.seed, realization_index, SEED_STREAMS[part]])
    return np.random.default_rng(seq)


#: Doubles per ER draw: whole upper-triangle rows, about this many at a time
ER_CHUNK = 1 << 16


def _er_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    # whole upper-triangle rows per draw: the same doubles in the same order as
    # a single draw over all pairs, in O(N + ER_CHUNK) memory. Pair t of the
    # flat order lies in the row whose start is the last one at or below t.
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    flat = np.concatenate([
        np.flatnonzero(rng.random(starts[b] - starts[a]) < p) + starts[a]
        for a, b in _spans(np.diff(starts), ER_CHUNK)
    ])
    rows = np.searchsorted(starts, flat, side="right") - 1
    return np.column_stack((rows, flat - starts[rows] + rows + 1))


def _ba_edges(n: int, m0: int, m: int, rng: np.random.Generator) -> np.ndarray:
    # seed clique, then degree-proportional attachment: the flat edge list is
    # the endpoint multiset drawn from; duplicate targets for one new node are
    # redrawn one draw at a time (simple graph)
    ends = [x for i in range(m0) for j in range(i + 1, m0) for x in (i, j)]
    for new in range(m0, n):
        targets = {ends[i] for i in rng.integers(len(ends), size=m).tolist()}
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            ends += (t, new)
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


def _ws_edges(n: int, k: int, p: float, rng: np.random.Generator) -> np.ndarray:
    # ring lattice, then one rewiring pass per lattice edge; rewired ends are
    # redrawn to avoid self-loops and duplicates, skipping saturated nodes.
    # Each edge is its pair key lo * n + hi (see graph._pair_keys): at ring
    # distance j, (i, i + j) for i < n - j, then the pairs that wrap round
    keys: set[int] = set()
    for j in range(1, k // 2 + 1):
        keys.update(range(j, (n - j) * (n + 1), n + 1), range(n - j, j * (n + 1), n + 1))
    degree = [k] * n
    for j in range(1, k // 2 + 1):
        for a in range(n):
            if rng.random() >= p or degree[a] >= n - 1:
                continue
            b = (a + j) % n
            while True:
                t = int(rng.integers(n))
                new_key = a * n + t if a < t else t * n + a
                if t != a and new_key not in keys:
                    keys.discard(a * n + b if a < b else b * n + a)
                    keys.add(new_key)
                    degree[b] -= 1
                    degree[t] += 1
                    break
    return np.column_stack(np.divmod(np.fromiter(keys, np.int64, len(keys)), n))


def generate_structure(cfg: GeneratorConfig, realization_index: int = 0) -> WeightedGraph:
    """Generate the topology of one realization, all edge weights set to 1.

    Deterministic in (cfg.seed, realization_index); nodes are labeled
    0 .. N-1 and kept even when isolated.
    """
    rng = _stream(cfg, realization_index, "structure")
    if cfg.model == "ER":
        ends = _er_edges(cfg.N, cfg.p, rng)
    elif cfg.model == "BA":
        ends = _ba_edges(cfg.N, cfg.m0, cfg.m, rng)
    else:
        ends = _ws_edges(cfg.N, cfg.k, cfg.p, rng)
    # every pair once, weighing 1
    return _from_pairs(tuple(range(cfg.N)), ends, np.ones(len(ends)))


def _node_weights(cfg: GeneratorConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.weight_truncation == "clamp":
        return np.maximum(rng.normal(cfg.weight_mean, cfg.weight_stddev, n), WEIGHT_FLOOR)
    # node i takes the i-th draw above the floor: the draw its own redraw
    # loop would end on, one value per node from the same stream
    weights = np.empty(0)
    while len(weights) < n:
        draws = rng.normal(cfg.weight_mean, cfg.weight_stddev, max(n - len(weights), 10_000))
        weights = np.concatenate((weights, draws[draws > WEIGHT_FLOOR]))
    return weights[:n]


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
    """Worker processes to fork: at most one per realization and per CPU, and
    none where the platform cannot fork."""
    size = min(_at_least_one(workers, "workers"), realizations, os.cpu_count() or 1)
    return size if hasattr(os, "fork") else 1


def _run_share(analysis: Callable[[int], NetworkAnalysis], n: int, start: int, step: int,
               fd: int) -> None:
    """In a forked child: call ``analysis(i)`` for i = start, start + step, ...
    below ``n`` and pickle to ``fd`` the results, or ``(i, exception)`` at the
    first failure. Leaves only through ``os._exit``, so none of the parent's
    buffers or exit handlers run twice; exit status 3 when nothing could be
    sent."""
    code = 3
    try:
        result: object = []
        i = start
        try:
            for i in range(start, n, step):
                result.append(analysis(i))
        except BaseException as exc:
            result = (i, exc)
        data = pickle.dumps(result)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _forked_map(
    analysis: Callable[[int], NetworkAnalysis], n: int, pool_size: int
) -> list[NetworkAnalysis]:
    """``[analysis(i) for i in range(n)]`` from ``pool_size`` forked children;
    child ``w`` takes every ``pool_size``-th index from ``w``. Raises the
    failure of the lowest index, as the loop would; a child that sends
    nothing fails at its first index. Every child is killed and reaped
    before this returns or raises."""
    # imported here: a process that never forks does not pay for it
    import signal

    children = {}  # pid -> read end of the child's pipe
    try:
        for w in range(pool_size):
            r, fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(analysis, n, w, pool_size, fd)
            os.close(fd)
            children[pid] = os.fdopen(r, "rb")
        sent = [fh.read() for fh in children.values()]
    finally:
        # a child whose pipe is at EOF has exited or is exiting
        statuses = []
        for pid, fh in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    analyses: list = [None] * n
    failures: list[tuple[int, BaseException]] = []
    for w, (pid, data, status) in enumerate(zip(children, sent, statuses)):
        if not data:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
            error = RuntimeError(f"sweep worker {pid} ended without a result ({how})")
            failures.append((w, error))
        elif isinstance(result := pickle.loads(data), tuple):
            failures.append(result)
        else:
            analyses[w::pool_size] = result
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return analyses


def run_ensemble(
    cfg: GeneratorConfig, min_samples: int = 1, workers: int = 1
) -> EnsembleSummary:
    """Generate, weight and summarize ``cfg.realizations`` independent
    networks and aggregate the results.

    ``workers`` > 1 forks that many children, never more than there are
    realizations or CPUs; of W children, child w runs realizations w, w + W,
    w + 2W, ... Without ``os.fork`` every realization runs in this process.
    The output is identical for any worker count because every realization
    owns its RNG streams and aggregation runs in realization order. Raises
    ValueError for ``min_samples`` or ``workers`` < 1, and a failed
    realization's exception, the lowest index's when several fail.
    """
    _at_least_one(min_samples, "min_samples")
    pool_size = _pool_size(workers, cfg.realizations)

    def analysis(i: int) -> NetworkAnalysis:
        return analyze_network(realization(cfg, i), "both", min_samples)

    if pool_size > 1:
        # the children inherit numpy.random rather than each importing it
        import numpy.random  # noqa: F401

        analyses = _forked_map(analysis, cfg.realizations, pool_size)
    else:
        analyses = [analysis(i) for i in range(cfg.realizations)]

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


def save_config(cfg: GeneratorConfig, path: str | PathLike[str]) -> None:
    """Write ``key = value`` lines, one per set field, in declaration order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if value is None:
                continue
            fh.write(f"{f.name} = {value}\n")


def load_config(path: str | PathLike[str]) -> GeneratorConfig:
    """Read a ``key = value`` config file ('#' comments allowed) into a config.

    A repeated key or a malformed value raises ValueError naming its line.
    """
    kinds = {f.name: _value_type(f) for f in fields(GeneratorConfig)}
    kwargs: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, line in _data_lines(path):
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or key not in kinds:
            raise ValueError(f"{path}:{lineno}: unknown config line {line!r}")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        kind = kinds[key]
        try:
            kwargs[key] = kind(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} must be {kind.__name__}, got {value!r}"
            ) from None
    if "model" not in kwargs or "N" not in kwargs:
        raise ValueError(f"{path}: config must set at least 'model' and 'N'")
    return GeneratorConfig(**kwargs)
