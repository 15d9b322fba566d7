"""Random network generators, the node-based weighting scheme, and ensembles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gossipnet import (
    GeneratorConfig,
    analyze_network,
    assign_weights,
    build_graph,
    generate_structure,
    load_config,
    realization,
    run_ensemble,
    save_config,
    summarize,
    victim_spread,
)
from gossipnet.generate import (
    TRUNCATIONS,
    WEIGHT_FLOOR,
    _ba_edges,
    _er_edges,
    _node_weights,
    _pool_size,
    _stream,
    _ws_edges,
)

from .conftest import assert_same_graph


def er(n=60, p=0.1, **kw):
    return GeneratorConfig(model="ER", N=n, p=p, **kw)


def ba(n=60, m0=5, m=3, **kw):
    return GeneratorConfig(model="BA", N=n, m0=m0, m=m, **kw)


def ws(n=60, k=4, p=0.1, **kw):
    return GeneratorConfig(model="WS", N=n, k=k, p=p, **kw)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "cfg,match",
        [
            (GeneratorConfig(model="XX", N=10, p=0.1), "model"),
            (GeneratorConfig(model="ER", N=1, p=0.1), "N must"),
            (er(p=None), "probability"),
            (er(p=1.5), "probability"),
            (ba(m0=5, m=6), "m <= m0"),
            (ba(n=5, m0=5, m=2), "m0 < N"),
            (GeneratorConfig(model="BA", N=10, m0=None, m=2), "m0"),
            (ws(k=3), "even"),
            (ws(k=None), "even"),
            (ws(n=4, k=4), "k < N"),
            (ws(p=None), "probability"),
            (er(realizations=0), "realizations"),
            (er(weight_stddev=-1.0), "stddev"),
            (GeneratorConfig(model="ER", N=10, p=0.1, weight_truncation="abs"), "truncation"),
            (er(seed=-1), "seed"),
            (ba(m0=1, m=1), "m0 >= 2"),
            (er(weight_mean=math.nan), "finite"),
            (er(weight_mean=-math.inf), "finite"),
            (er(weight_stddev=math.inf), "finite"),
            (er(weight_stddev=math.nan, weight_truncation="clamp"), "finite"),
        ],
    )
    def test_rejects_bad_parameters(self, cfg, match):
        with pytest.raises(ValueError, match=match):
            cfg.validate()

    def test_resample_needs_mass_above_floor(self):
        # P(N(mean, 1) > floor) crosses 0.01 between mean -2.33 and -2.32
        with pytest.raises(ValueError, match="floor"):
            er(weight_mean=-2.33).validate()
        er(weight_mean=-2.32).validate()
        er(weight_mean=-30.0, weight_truncation="clamp").validate()


class TestStructure:
    def test_er_edge_count_near_expectation(self):
        cfg = er(n=200, p=0.04, seed=7)
        g = generate_structure(cfg, 0)
        assert g.node_count == 200
        assert 700 <= g.edge_count <= 900  # E[M] = 796, generous binomial band

    def test_ba_edge_count_closed_form(self):
        cfg = ba(n=200, m0=10, m=4, seed=1)
        g = generate_structure(cfg, 0)
        assert g.edge_count == 10 * 9 // 2 + 190 * 4  # 805
        assert min(g.degree(u) for u in g.labels) >= 4

    def test_ba_heavy_tail_grows_with_size(self):
        maxdeg = {}
        for n in (100, 400):
            peaks = []
            for seed in range(5):
                g = generate_structure(ba(n=n, m0=5, m=3, seed=seed), 0)
                peaks.append(max(g.degree(u) for u in g.labels))
            maxdeg[n] = np.mean(peaks)
        assert maxdeg[400] > maxdeg[100]

    def test_er_memory_is_linear_in_nodes(self):
        # all N(N-1)/2 pair indices at N=5000 would take about 300 MB
        tracemalloc.start()
        try:
            edges = _er_edges(5000, 0.001, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 11_000 < len(edges) < 14_000
        assert peak < 16 * 2**20

    def test_ws_lattice_when_no_rewiring(self):
        g = generate_structure(ws(n=200, k=4, p=0.0, seed=3), 0)
        assert g.edge_count == 400
        assert all(g.degree(u) == 4 for u in g.labels)
        assert summarize(g).cc == 0.5

    def test_ws_rewiring_preserves_edge_count(self):
        g = generate_structure(ws(n=100, k=6, p=0.3, seed=9), 0)
        assert g.edge_count == 300

    def test_structure_weights_pending_are_one(self):
        g = generate_structure(er(seed=2), 0)
        assert all(w == 1.0 for _, _, w in g.edges())

    def test_deterministic_per_realization_index(self):
        cfg = er(seed=5)
        a = sorted(generate_structure(cfg, 3).edges())
        b = sorted(generate_structure(cfg, 3).edges())
        c = sorted(generate_structure(cfg, 4).edges())
        assert a == b
        assert a != c


class _ScriptedRng:
    """Stands in for a numpy Generator, replaying a fixed batch of normal()
    draws, at most ``size`` of them."""

    def __init__(self, values):
        self._values = values

    def normal(self, mean, stddev, size):
        return np.array(self._values[:size], dtype=np.float64)


class TestWeights:
    def test_edge_weight_is_endpoint_mean(self):
        # zero spread forces node weights to exactly the mean
        cfg = er(weight_mean=2.0, weight_stddev=0.0, seed=1)
        g = realization(cfg, 0)
        assert all(w == 2.0 for _, _, w in g.edges())

    def test_edge_weight_formula_with_distinct_node_weights(self):
        structure = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
        cfg = er(n=3, p=0.5)
        g = assign_weights(structure, cfg, _ScriptedRng([1.0, 2.0, 4.0]))
        assert g.weight(0, 1) == 1.5  # (1 + 2) / 2
        assert g.weight(1, 2) == 3.0  # (2 + 4) / 2

    def test_uniform_node_weights_make_models_agree(self):
        cfg = ws(n=40, k=4, p=0.2, weight_mean=3.0, weight_stddev=0.0, seed=4)
        g = realization(cfg, 0)
        s = summarize(g)
        assert s.beta == s.sigma
        for v in g.labels:
            vs = victim_spread(g, v)
            for o in vs.per_originator:
                assert o.beta == o.sigma

    def test_all_weights_positive_resample(self):
        cfg = er(n=100, p=0.1, weight_mean=0.1, weight_stddev=1.0, seed=6)
        g = realization(cfg, 0)
        assert all(w > 0 for _, _, w in g.edges())

    def test_all_weights_positive_clamp(self):
        cfg = er(n=100, p=0.1, weight_mean=-0.5, weight_stddev=0.5,
                 weight_truncation="clamp", seed=6)
        g = realization(cfg, 0)
        assert all(w > 0 for _, _, w in g.edges())

    def test_hopeless_resample_raises(self):
        cfg = GeneratorConfig(model="ER", N=4, p=1.0, weight_mean=-30.0,
                              weight_stddev=1.0, seed=6)
        with pytest.raises(ValueError, match="floor"):
            realization(cfg, 0)

    def test_weight_multiset_reproducible(self):
        cfg = er(n=50, p=0.2, seed=42)
        w1 = sorted(w for _, _, w in realization(cfg, 0).edges())
        w2 = sorted(w for _, _, w in realization(cfg, 0).edges())
        assert w1 == w2

    def test_assign_weights_keeps_topology(self):
        cfg = er(seed=8)
        g0 = generate_structure(cfg, 0)
        rng = np.random.default_rng(0)
        g1 = assign_weights(g0, cfg, rng)
        assert g1.node_count == g0.node_count
        assert sorted((a, b) for a, b, _ in g1.edges()) == sorted(
            (a, b) for a, b, _ in g0.edges()
        )

    @pytest.mark.parametrize("cfg", [er(p=0.02, seed=3), ba(seed=4), ws(k=6, p=0.4, seed=5)])
    def test_structure_equals_graph_built_from_edge_records(self, cfg):
        rng = _stream(cfg, 2, "structure")
        if cfg.model == "ER":
            edges = _er_edges(cfg.N, cfg.p, rng).tolist()
        elif cfg.model == "BA":
            edges = _ba_edges(cfg.N, cfg.m0, cfg.m, rng).tolist()
        else:
            edges = _ws_edges(cfg.N, cfg.k, cfg.p, rng).tolist()
        expected = build_graph([(i, j, 1.0) for i, j in edges], nodes=range(cfg.N))
        assert_same_graph(generate_structure(cfg, 2), expected)

    @pytest.mark.parametrize("cfg", [er(seed=3), ba(seed=4), ws(k=6, seed=5),
                                     er(weight_mean=0.3, weight_truncation="clamp", seed=6)])
    def test_reweighted_graph_equals_rebuilt_graph(self, cfg):
        # the record-by-record rebuild is the reference: same labels,
        # neighbor order, weight and strength bits
        node_w = _node_weights(cfg, cfg.N, _stream(cfg, 0, "weights"))
        records = [(a, b, 0.5 * (node_w[a] + node_w[b]))
                   for a, b, _ in generate_structure(cfg, 0).edges()]
        expected = build_graph(records, nodes=range(cfg.N))
        g = realization(cfg, 0)
        assert g.labels == expected.labels
        for v in g.labels:
            assert g.neighbors(v) == expected.neighbors(v)
            assert g.strength(v) == expected.strength(v)


def scalar_node_weights(cfg, n, rng):
    """Node weights one scalar draw at a time, each node redrawing until it
    is above the floor: the reference for the batch draw."""
    weights = []
    for _ in range(n):
        w = float(rng.normal(cfg.weight_mean, cfg.weight_stddev))
        if cfg.weight_truncation == "clamp":
            w = max(w, WEIGHT_FLOOR)
        else:
            while w <= WEIGHT_FLOOR:
                w = float(rng.normal(cfg.weight_mean, cfg.weight_stddev))
        weights.append(w)
    return weights


def scalar_ba_edges(n, m0, m, rng):
    """BA attachment one scalar target draw at a time: the reference for the
    per-node batch draw."""
    ends = [x for i in range(m0) for j in range(i + 1, m0) for x in (i, j)]
    for new in range(m0, n):
        targets = set()
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            ends += (t, new)
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


class TestBatchDraws:
    """The batch draws take the same values from the same stream as the
    scalar loops they replaced."""

    @pytest.mark.parametrize("truncation", TRUNCATIONS)
    @pytest.mark.parametrize("mean, stddev", [(1.0, 1.0), (0.0, 1.0), (0.1, 1.0),
                                              (-0.5, 0.5), (2.0, 0.0)])
    def test_node_weights_equal_scalar_draws(self, mean, stddev, truncation):
        cfg = er(weight_mean=mean, weight_stddev=stddev, weight_truncation=truncation)
        for seed in range(40):
            for n in (1, 9, 400):
                batch = _node_weights(cfg, n, np.random.default_rng(seed))
                assert isinstance(batch, np.ndarray) and batch.dtype == np.float64
                assert batch.tolist() == scalar_node_weights(cfg, n, np.random.default_rng(seed))

    def test_clamp_leaves_the_stream_where_scalar_draws_do(self):
        cfg = er(weight_mean=0.0, weight_truncation="clamp")
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        _node_weights(cfg, 50, a)
        scalar_node_weights(cfg, 50, b)
        assert a.random() == b.random()

    @pytest.mark.parametrize("n, m0, m", [(300, 2, 2), (200, 2, 1), (400, 5, 3), (300, 10, 10)])
    def test_ba_edges_equal_scalar_draws(self, n, m0, m):
        for seed in range(25):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(_ba_edges(n, m0, m, a), scalar_ba_edges(n, m0, m, b))
            # the stream stays aligned after the top-up draws too
            assert a.integers(1 << 40) == b.integers(1 << 40)


class TestEnsemble:
    def test_single_realization_means_equal_summary(self):
        cfg = ws(n=40, k=4, p=0.1, seed=11, realizations=1)
        ens = run_ensemble(cfg)
        s = summarize(realization(cfg, 0))
        assert ens.mean["sigma"] == s.sigma
        assert ens.mean["beta"] == s.beta
        assert ens.mean["cc"] == s.cc
        assert ens.std["sigma"] == 0.0

    def test_means_are_arithmetic_means(self):
        cfg = er(n=30, p=0.15, seed=12, realizations=6)
        ens = run_ensemble(cfg)
        for name in ("sigma", "beta", "cc", "n_edges"):
            values = [getattr(s, name) for s in ens.summaries]
            assert ens.mean[name] == pytest.approx(
                math.fsum(values) / len(values), rel=1e-9
            )
            assert ens.defined[name] == len(values)

    def test_worker_count_does_not_change_output(self):
        cfg = ws(n=30, k=4, p=0.2, seed=13, realizations=4)
        a = run_ensemble(cfg, workers=1)
        b = run_ensemble(cfg, workers=2)
        assert a.summaries == b.summaries
        assert a.mean == b.mean and a.std == b.std
        assert a.sigma_curve == b.sigma_curve

    def test_process_pool_imported_only_when_used(self):
        # a process that never starts a pool does not pay for importing one
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, gossipnet.cli; print('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_workers_below_one_rejected(self):
        cfg = ws(n=30, k=4, p=0.2, seed=13, realizations=2)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_ensemble(cfg, workers=workers)

    def test_pool_size_bounded_by_realizations_and_cpus(self):
        cpus = os.cpu_count() or 1
        assert _pool_size(1, 50) == 1
        assert _pool_size(8, 3) == min(8, 3, cpus)
        assert _pool_size(2, 4) == min(2, cpus)
        assert _pool_size(10**6, 10**6) == cpus

    def test_mean_curves_align_on_degree(self):
        cfg = er(n=25, p=0.15, seed=14, realizations=5)
        ens = run_ensemble(cfg)
        per_real = [
            analyze_network(realization(cfg, i))
            for i in range(5)
        ]
        for k in ens.sigma_curve.degrees():
            vals = [a.sigma_curve.value(k) for a in per_real if k in a.sigma_curve]
            assert ens.sigma_curve.value(k) == pytest.approx(
                math.fsum(vals) / len(vals), rel=1e-12
            )
            assert ens.curve_realizations[k] == len(vals)
            assert ens.sigma_curve.count(k) == sum(
                a.sigma_curve.count(k) for a in per_real if k in a.sigma_curve
            )

    def test_both_critical_degree_aggregations_emitted(self):
        cfg = ba(n=60, m0=5, m=3, seed=15, realizations=3)
        ens = run_ensemble(cfg)
        assert "k0" in ens.mean and "k0_w" in ens.mean
        assert ens.k0_of_mean_curve is None or isinstance(ens.k0_of_mean_curve, int)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = ba(n=120, m0=7, m=4, seed=99, realizations=12)
        path = tmp_path / "ba.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_override_on_load(self, tmp_path):
        path = tmp_path / "er.cfg"
        save_config(er(seed=1), path)
        assert load_config(path, seed=77).seed == 77

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model = ER\nN = 10\np = 0.1\nbogus = 3\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)

    def test_bad_number_names_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model = ER\nN = ten\np = 0.1\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: N .*'ten'"):
            load_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("model = ER\nN = 10\np = 0.1\n# edited\np = 0.9\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:5: p .*line 3"):
            load_config(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "seed.cfg"
        path.write_text("model = ER\nN = 10\np = 0.1\nseed = -1\n")
        with pytest.raises(ValueError, match="seed"):
            load_config(path)

    @pytest.mark.parametrize(
        "lines,match",
        [
            ("model = BA\nN = 10\nm0 = 1\nm = 1\n", "m0 >= 2"),
            ("model = ER\nN = 10\np = 0.1\nweight_mean = nan\n", "finite"),
            ("model = ER\nN = 10\np = 0.1\nweight_stddev = inf\n", "finite"),
        ],
        ids=["ba_m0_1", "nan_mean", "inf_stddev"],
    )
    def test_invalid_parameters_rejected(self, tmp_path, lines, match):
        path = tmp_path / "bad.cfg"
        path.write_text(lines)
        with pytest.raises(ValueError, match=match):
            load_config(path)

    def test_comments_and_required_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# hello\nmodel = WS\nN = 20\nk = 4\np = 0.1\n")
        assert load_config(path).model == "WS"
        path.write_text("N = 20\n")
        with pytest.raises(ValueError, match="model"):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        ["\ufeff# comment\nmodel = ER\nN = 10\np = 0.1\n", "\ufeffmodel = ER\nN = 10\np = 0.1\n"],
    )
    def test_byte_order_mark_ignored(self, tmp_path, text):
        path = tmp_path / "bom.cfg"
        path.write_text(text, encoding="utf-8")
        assert load_config(path) == GeneratorConfig(model="ER", N=10, p=0.1)

    def test_bundled_configs_load(self):
        from gossipnet.datasets import BUNDLED_CONFIGS, bundled_config

        for name in BUNDLED_CONFIGS:
            cfg = bundled_config(name)
            cfg.validate()
            assert cfg.realizations == 50
        with pytest.raises(ValueError, match="unknown config"):
            bundled_config("nope")
