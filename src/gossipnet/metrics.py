"""Network-level gossip statistics: global and per-degree spread, clustering,
critical degrees, and the full coefficient summary.

Aggregation convention: gossip needs a pair of the victim's friends to pass
between, so victims of degree < 2 are recorded with spread 0 in every
network-level aggregate (global means and per-degree curves), while
isolated nodes are excluded from the averages outright and reported as a
count. Per-victim results from :mod:`gossipnet.cascade` are unaffected by
this convention. All means are computed with exact summation
(``math.fsum``) so results do not depend on node ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

import numpy as np

from .cascade import _models, _spread_sums
from .graph import WeightedGraph


@dataclass(frozen=True)
class CurvePoint:
    value: float
    count: int


@dataclass(frozen=True)
class DegreeCurve:
    """Per-degree means with sample counts, keyed by victim degree."""

    points: Mapping[int, CurvePoint]

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.points))

    def value(self, k: int) -> float:
        return self.points[k].value

    def count(self, k: int) -> int:
        return self.points[k].count

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, k: int) -> bool:
        return k in self.points

    def weighted_mean(self) -> float:
        """Sample-count-weighted mean over all degrees."""
        total = sum(p.count for p in self.points.values())
        return math.fsum(p.value * p.count for p in self.points.values()) / total


@dataclass(frozen=True)
class NetworkSummary:
    """One row of network coefficients.

    Ratio fields are None where a denominator is absent or zero, and the
    ``*_interior`` flags say whether the corresponding critical degree is a
    strict interior minimum of its curve (None when the degree is absent).
    """

    n_nodes: int
    n_edges: int
    n_isolated: int
    n_leaf_victims: int
    cc: float
    sigma: float | None
    beta: float | None
    k0: int | None
    k0_interior: bool | None
    k0_w: int | None
    k0w_interior: bool | None
    k0w_over_k0: float | None
    sigma_over_cc: float | None
    beta_over_cc: float | None
    beta_over_sigma: float | None
    beta_over_sigma_cc: float | None


@dataclass(frozen=True)
class NetworkAnalysis:
    """Summary plus every per-degree curve, from a single pass over victims."""

    summary: NetworkSummary
    sigma_curve: DegreeCurve | None
    beta_curve: DegreeCurve | None
    cc_curve: DegreeCurve
    beta_over_sigma_curve: DegreeCurve | None
    beta_over_sigma_cc_curve: DegreeCurve | None


def _by_degree(k: np.ndarray, values: np.ndarray) -> dict[int, list[float]]:
    """Values grouped by degree, as Python floats keyed by Python ints."""
    order = np.argsort(k, kind="stable")
    degrees, starts = np.unique(k[order], return_index=True)
    grouped = values[order].tolist()
    ends = [*starts[1:].tolist(), len(grouped)]
    return {
        d: grouped[s:e] for d, s, e in zip(degrees.tolist(), starts.tolist(), ends)
    }


def _spread_by_degree(k: np.ndarray, count_sums: np.ndarray) -> dict[int, list[float]]:
    """Spread of every victim (isolated nodes left out) grouped by degree.

    Degree-1 victims carry no gossip-capable pair and aggregate as 0. The
    operands are exact integers, so each quotient is the one Python's
    ``count_sum / (k * k)`` gives.
    """
    values = np.zeros(len(k))
    pairs = k >= 2
    values[pairs] = count_sums[pairs] / (k * k)[pairs]
    victims = k >= 1
    return _by_degree(k[victims], values[victims])


def _all_values_sum(values_by_degree: dict[int, list[float]]) -> float:
    # fsum is exactly rounded, so grouping by degree does not change the sum
    return math.fsum(chain.from_iterable(values_by_degree.values()))


def _degree_mean(values_by_degree: dict[int, list[float]]) -> DegreeCurve:
    return DegreeCurve(
        {
            k: CurvePoint(value=math.fsum(vals) / len(vals), count=len(vals))
            for k, vals in sorted(values_by_degree.items())
        }
    )


def find_k0(
    curve: DegreeCurve, min_samples: int = 1
) -> tuple[int | None, bool]:
    """Degree minimizing a per-degree curve, with an interior flag.

    Only degrees with at least ``min_samples`` samples are eligible; ties
    break toward the smallest degree. Returns (None, False) when fewer than
    three degrees are eligible. The flag is True when strictly smaller and
    strictly larger eligible degrees with strictly higher values both exist.
    """
    eligible = [k for k in curve.degrees() if curve.count(k) >= min_samples]
    if len(eligible) < 3:
        return None, False
    k0 = min(eligible, key=lambda k: (curve.value(k), k))
    v0 = curve.value(k0)
    below = any(k < k0 and curve.value(k) > v0 for k in eligible)
    above = any(k > k0 and curve.value(k) > v0 for k in eligible)
    return k0, below and above


def _critical(curve: DegreeCurve | None, min_samples: int) -> tuple[int | None, bool | None]:
    """find_k0 of a model's curve; the flag is None where there is no k0."""
    k0, interior = find_k0(curve, min_samples) if curve is not None else (None, None)
    return k0, interior if k0 is not None else None


def _ratio(num: float | None, den: float | None) -> float | None:
    if num is None or den is None or den == 0.0:
        return None
    return num / den


def analyze_network(
    g: WeightedGraph, model: str = "both", min_samples: int = 1
) -> NetworkAnalysis:
    """Run the selected model(s) over every victim and aggregate everything.

    One pass computes the global spread factors, the per-degree spread and
    clustering curves, the critical degrees of both models (subject to
    ``min_samples``), and the coefficient ratios.
    """
    run_u, run_w = _models(model)
    k, triangles, n_sum, m_sum = _spread_sums(g, run_u, run_w)

    cc_values = np.zeros(len(k))
    pairs = k >= 2
    cc_values[pairs] = 2.0 * triangles[pairs] / (k * (k - 1))[pairs]
    cc_by_k = _by_degree(k, cc_values)
    sigma_by_k = _spread_by_degree(k, n_sum) if run_u else {}
    beta_by_k = _spread_by_degree(k, m_sum) if run_w else {}
    n_isolated = int(np.count_nonzero(k == 0))
    n_leaf = int(np.count_nonzero(k == 1))

    n_victims = g.node_count - n_isolated
    sigma = _all_values_sum(sigma_by_k) / n_victims if run_u and n_victims else None
    beta = _all_values_sum(beta_by_k) / n_victims if run_w and n_victims else None
    cc = _all_values_sum(cc_by_k) / g.node_count if g.node_count else 0.0

    sigma_curve = _degree_mean(sigma_by_k) if run_u else None
    beta_curve = _degree_mean(beta_by_k) if run_w else None
    cc_curve = _degree_mean(cc_by_k)

    k0, k0_interior = _critical(sigma_curve, min_samples)
    k0_w, k0w_interior = _critical(beta_curve, min_samples)

    sigma_cc = _ratio(sigma, cc)
    summary = NetworkSummary(
        n_nodes=g.node_count,
        n_edges=g.edge_count,
        n_isolated=n_isolated,
        n_leaf_victims=n_leaf,
        cc=cc,
        sigma=sigma,
        beta=beta,
        k0=k0,
        k0_interior=k0_interior,
        k0_w=k0_w,
        k0w_interior=k0w_interior,
        k0w_over_k0=_ratio(k0_w, k0),
        sigma_over_cc=sigma_cc,
        beta_over_cc=_ratio(beta, cc),
        beta_over_sigma=_ratio(beta, sigma),
        beta_over_sigma_cc=_ratio(beta, sigma * cc if sigma is not None else None),
    )

    ratio_curve = ratio_cc_curve = None
    if run_u and run_w:
        ratio_points, ratio_cc_points = {}, {}
        for k in beta_curve.degrees():
            if k not in sigma_curve:
                continue
            s_k = sigma_curve.value(k)
            b_k = beta_curve.value(k)
            n_k = beta_curve.count(k)
            if s_k > 0.0:
                ratio_points[k] = CurvePoint(value=b_k / s_k, count=n_k)
                cc_k = cc_curve.value(k) if k in cc_curve else 0.0
                if cc_k > 0.0:
                    ratio_cc_points[k] = CurvePoint(value=b_k / (s_k * cc_k), count=n_k)
        ratio_curve = DegreeCurve(ratio_points)
        ratio_cc_curve = DegreeCurve(ratio_cc_points)

    return NetworkAnalysis(
        summary=summary,
        sigma_curve=sigma_curve,
        beta_curve=beta_curve,
        cc_curve=cc_curve,
        beta_over_sigma_curve=ratio_curve,
        beta_over_sigma_cc_curve=ratio_cc_curve,
    )


def summarize(g: WeightedGraph, model: str = "both", min_samples: int = 1) -> NetworkSummary:
    """All network coefficients in one row (see :class:`NetworkSummary`)."""
    return analyze_network(g, model, min_samples).summary
