"""Network-level aggregates, read from analyze_network / summarize: global
spread, curves, clustering, critical degree."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields

import pytest

from gossipnet import (
    CurvePoint,
    DegreeCurve,
    GeneratorConfig,
    NetworkSummary,
    analyze_network,
    build_graph,
    find_k0,
    realization,
    summarize,
    victim_spread,
)


def complete_graph(n, w=1.0):
    return build_graph([(i, j, w) for i in range(n) for j in range(i + 1, n)])


class TestGlobalSpread:
    def test_complete_graph_all_ones(self):
        s = summarize(complete_graph(6))
        assert s.sigma == 1.0 and s.beta == 1.0

    def test_path_graph_leaf_victims_count_zero(self):
        # leaves have no friend pair to gossip between: they enter the
        # average as zero, so only the middle victim contributes
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
        s = summarize(g)
        assert s.sigma == pytest.approx((0 + 0.5 + 0) / 3)
        assert s.beta == s.sigma

    def test_isolated_nodes_excluded_from_denominator(self):
        g = build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], nodes=range(5))
        s = summarize(g)
        assert s.sigma == 1.0
        assert s.n_isolated == 2

    def test_all_isolated_spread_undefined(self):
        s = summarize(build_graph([], nodes=["a", "b"]))
        assert s.sigma is None and s.beta is None
        assert s.n_isolated == 2

    def test_model_selection(self, sample9):
        assert summarize(sample9, "unweighted").beta is None
        assert summarize(sample9, "weighted").sigma is None


class TestSpreadByDegree:
    def test_regular_graph_single_point_equals_global(self):
        # 5-cycle: every victim has degree 2 and a disconnected neighbor pair
        g = build_graph([(i, (i + 1) % 5, 1.0) for i in range(5)])
        a = analyze_network(g, "unweighted")
        curve = a.sigma_curve
        assert curve.degrees() == (2,)
        assert curve.value(2) == a.summary.sigma == 0.5
        assert curve.count(2) == 5

    def test_matches_per_victim_regrouping(self, corpus):
        g = corpus[3]
        curve = analyze_network(g, "weighted").beta_curve
        groups: dict[int, list[float]] = {}
        for v in g.labels:
            k = g.degree(v)
            if k == 0:
                continue
            beta_v = victim_spread(g, v, "weighted").beta if k >= 2 else 0.0
            groups.setdefault(k, []).append(beta_v)
        for k, vals in groups.items():
            assert curve.value(k) == pytest.approx(math.fsum(vals) / len(vals), rel=1e-12)
            assert curve.count(k) == len(vals)
        assert set(curve.degrees()) == set(groups)


class TestClustering:
    def test_triangle(self):
        a = analyze_network(complete_graph(3))
        assert a.summary.cc == 1.0
        assert a.cc_curve.value(2) == 1.0

    def test_star(self):
        g = build_graph([("hub", f"s{i}", 1.0) for i in range(5)])
        a = analyze_network(g)
        assert a.summary.cc == 0.0
        assert a.cc_curve.value(5) == 0.0 and a.cc_curve.value(1) == 0.0

    def test_triangle_free_zero(self, bipartite_corpus):
        for g in bipartite_corpus[:5]:
            assert summarize(g).cc == 0.0

    def test_reference_network(self, lesmis):
        assert summarize(lesmis).cc == pytest.approx(0.5731, abs=1e-4)

    def test_low_degree_counts_as_zero_in_mean(self):
        # triangle plus a pendant: three nodes at 1, pendant and its anchor lower
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
        # local values: 1, 1, 1/3, 0
        assert summarize(g).cc == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


class TestFindK0:
    def curve(self, pairs):
        return DegreeCurve({k: CurvePoint(v, c) for k, (v, c) in pairs.items()})

    def test_interior_minimum(self):
        c = self.curve({1: (0.9, 5), 2: (0.4, 5), 3: (0.2, 5), 4: (0.6, 5)})
        assert find_k0(c) == (3, True)

    def test_increasing_curve_boundary(self):
        c = self.curve({1: (0.1, 5), 2: (0.2, 5), 3: (0.3, 5)})
        assert find_k0(c) == (1, False)

    def test_tie_breaks_to_smallest_degree(self):
        c = self.curve({1: (0.5, 5), 2: (0.2, 5), 3: (0.2, 5), 4: (0.9, 5)})
        assert find_k0(c) == (2, True)

    def test_too_few_points(self):
        c = self.curve({1: (0.5, 5), 2: (0.2, 5)})
        assert find_k0(c) == (None, False)

    def test_min_samples_filters(self):
        c = self.curve({1: (0.9, 5), 2: (0.4, 5), 3: (0.01, 1), 4: (0.5, 5), 5: (0.8, 5)})
        assert find_k0(c, min_samples=1) == (3, True)
        assert find_k0(c, min_samples=2) == (2, True)
        # filtering can leave too few points
        assert find_k0(c, min_samples=5)[0] == 2
        assert find_k0(c, min_samples=6) == (None, False)


class TestSummarize:
    def test_complete_graph_row(self):
        s = summarize(complete_graph(6, w=2.5))
        assert s.sigma == 1.0 and s.beta == 1.0 and s.cc == 1.0
        assert s.sigma_over_cc == 1.0 and s.beta_over_sigma == 1.0
        assert s.beta_over_sigma_cc == 1.0
        # single-degree curve: no critical degree
        assert s.k0 is None and s.k0_w is None and s.k0w_over_k0 is None
        assert s.k0_interior is None

    def test_ratios_recompute(self, lesmis, corpus):
        for g in [lesmis] + corpus[:10]:
            s = summarize(g)
            assert s.beta <= s.sigma
            assert s.sigma_over_cc == pytest.approx(s.sigma / s.cc, rel=1e-9)
            assert s.beta_over_cc == pytest.approx(s.beta / s.cc, rel=1e-9)
            assert s.beta_over_sigma == pytest.approx(s.beta / s.sigma, rel=1e-9)
            assert s.beta_over_sigma_cc == pytest.approx(
                s.beta / (s.sigma * s.cc), rel=1e-9
            )
            if s.k0 is not None and s.k0_w is not None:
                assert s.k0w_over_k0 == pytest.approx(s.k0_w / s.k0, rel=1e-9)

    def test_zero_cc_ratios_absent(self, bipartite_corpus):
        s = summarize(bipartite_corpus[0])
        assert s.cc == 0.0
        assert s.sigma_over_cc is None
        assert s.beta_over_cc is None
        assert s.beta_over_sigma_cc is None

    def test_weighted_only_leaves_sigma_fields_absent(self, sample9):
        s = summarize(sample9, model="weighted")
        assert s.sigma is None and s.beta is not None
        assert s.beta == summarize(sample9, model="both").beta
        assert s.k0 is None and s.beta_over_sigma is None

    def test_counts(self, lesmis):
        s = summarize(lesmis)
        assert (s.n_nodes, s.n_edges, s.n_isolated, s.n_leaf_victims) == (77, 254, 0, 17)


class TestCurveConsistency:
    def test_weighted_mean_of_curve_equals_global(self, lesmis, corpus):
        for g in [lesmis] + corpus[:20]:
            a = analyze_network(g)
            n_victims = g.node_count - a.summary.n_isolated
            for curve, total in ((a.sigma_curve, a.summary.sigma), (a.beta_curve, a.summary.beta)):
                assert sum(curve.count(k) for k in curve.degrees()) == n_victims
                assert curve.weighted_mean() == pytest.approx(total, rel=1e-9)


class TestRatioCurves:
    def test_uniform_weights_give_unit_ratio(self, corpus):
        g = corpus[4]
        uniform = build_graph([(a, b, 1.0) for a, b, _ in g.edges()], nodes=g.labels)
        ratio = analyze_network(uniform).beta_over_sigma_curve
        for k in ratio.degrees():
            assert ratio.value(k) == 1.0

    def test_pointwise_division(self, corpus):
        g = corpus[5]
        a = analyze_network(g)
        ratio, ratio_cc = a.beta_over_sigma_curve, a.beta_over_sigma_cc_curve
        for k in ratio.degrees():
            assert ratio.value(k) == pytest.approx(
                a.beta_curve.value(k) / a.sigma_curve.value(k), rel=1e-12
            )
        for k in ratio_cc.degrees():
            assert ratio_cc.value(k) == pytest.approx(
                a.beta_curve.value(k) / (a.sigma_curve.value(k) * a.cc_curve.value(k)),
                rel=1e-12,
            )

    def test_zero_denominator_degrees_omitted(self):
        # path: degree-1 victims aggregate to zero spread, so k=1 has no ratio
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
        a = analyze_network(g)
        ratio, ratio_cc = a.beta_over_sigma_curve, a.beta_over_sigma_cc_curve
        assert 1 not in ratio
        assert len(ratio_cc) == 0  # cc is zero everywhere on a path


def _plain(value) -> bool:
    return type(value) in (int, float, bool, type(None))


@pytest.mark.parametrize("model", ["both", "unweighted", "weighted"])
def test_results_are_python_numbers(lesmis, sample9, corpus, model):
    # a numpy scalar would print as np.float64(...) in the CSV and JSON files
    graphs = [lesmis, sample9, *corpus[:10],
              build_graph([("a", "b", 1.0), ("b", "c", 2.0)], nodes=["z"])]
    for g in graphs:
        a = analyze_network(g, model)
        for f in fields(NetworkSummary):
            assert _plain(getattr(a.summary, f.name)), f.name
        for curve in (a.sigma_curve, a.beta_curve, a.cc_curve,
                      a.beta_over_sigma_curve, a.beta_over_sigma_cc_curve):
            if curve is None:
                continue
            for k, point in curve.points.items():
                assert type(k) is int
                assert type(point.value) is float and type(point.count) is int


def test_analysis_memory_is_bounded():
    # WS N=10 000, k=20: M = 1e5 and about 3.3e5 triangles
    g = realization(GeneratorConfig(model="WS", N=10_000, k=20, p=0.1, seed=1), 0)
    tracemalloc.start()
    try:
        analyze_network(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
