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
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cascade import _models, _slot_counts
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

    def weighted_mean(self) -> float | None:
        """Sample-count-weighted mean over all degrees; None for a curve
        without points, as the summary reports a coefficient without victims."""
        total = sum(p.count for p in self.points.values())
        if total == 0:
            return None
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


def _row_totals(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each CSR row."""
    totals = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=totals[1:])
    return totals[indptr[1:]] - totals[indptr[:-1]]


def _per_victim(k: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` per node, and 0 below degree 2, where a victim has no
    pair of friends for gossip to pass between. Exact integer operands give
    the quotient Python's ``num / den`` gives."""
    values = np.zeros(len(k))
    pairs = k >= 2
    values[pairs] = num[pairs] / den[pairs]
    return values


def _curve(k: np.ndarray, values: np.ndarray) -> tuple[float, DegreeCurve]:
    """(exact sum of the values, their mean per degree), degrees as Python ints."""
    order = np.argsort(k, kind="stable")
    degrees, starts = np.unique(k[order], return_index=True)
    grouped = values[order].tolist()
    bounds = zip(degrees.tolist(), starts.tolist(), [*starts[1:].tolist(), len(grouped)])
    return math.fsum(grouped), DegreeCurve(
        {d: CurvePoint(math.fsum(grouped[s:e]) / (e - s), e - s) for d, s, e in bounds}
    )


def _at_least_one(value: int, name: str = "") -> int:
    """``value``, or ValueError (naming ``name``) unless it is an int of at
    least 1 (a bool is none): the one rule of the counts ``min_samples``,
    ``workers`` and ``realizations``, in the library and in the CLI."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be int, got {value!r}".lstrip())
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}".lstrip())
    return value


def find_k0(
    curve: DegreeCurve, min_samples: int = 1
) -> tuple[int | None, bool]:
    """Degree minimizing a per-degree curve, with an interior flag.

    Only degrees with at least ``min_samples`` samples are eligible; ties
    break toward the smallest degree. Returns (None, False) when fewer than
    three degrees are eligible. The flag is True when strictly smaller and
    strictly larger eligible degrees with strictly higher values both exist.
    """
    _at_least_one(min_samples, "min_samples")
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
    """Report the selected model(s) over every victim and aggregate everything.

    One pass counts both models and computes the global spread factors, the
    per-degree spread and clustering curves, the critical degrees of both
    models (subject to ``min_samples``, at least 1), and the coefficient
    ratios; ``model`` only picks which of them are reported.
    """
    _at_least_one(min_samples, "min_samples")
    run_u, run_w = _models(model)
    triangles, n_per, m_per = _slot_counts(g)
    k = g._degree
    n_isolated = int(np.count_nonzero(k == 0))
    n_leaf = int(np.count_nonzero(k == 1))
    n_victims = g.node_count - n_isolated
    victims = k >= 1  # isolated nodes count toward CC only

    def spread(counts: np.ndarray) -> tuple[float | None, DegreeCurve]:
        count_sums = _row_totals(g._indptr, counts)
        total, curve = _curve(k[victims], _per_victim(k, count_sums, k * k)[victims])
        return (total / n_victims if n_victims else None), curve

    sigma, sigma_curve = spread(n_per) if run_u else (None, None)
    beta, beta_curve = spread(m_per) if run_w else (None, None)
    cc_sum, cc_curve = _curve(k, _per_victim(k, 2.0 * triangles, k * (k - 1)))
    cc = cc_sum / g.node_count if g.node_count else 0.0

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
        # all three curves group the same degree array, so they share degrees
        for d in beta_curve.degrees():
            s_k = sigma_curve.value(d)
            b_k = beta_curve.value(d)
            n_k = beta_curve.count(d)
            if s_k > 0.0:
                ratio_points[d] = CurvePoint(value=b_k / s_k, count=n_k)
                cc_k = cc_curve.value(d)
                if cc_k > 0.0:
                    ratio_cc_points[d] = CurvePoint(value=b_k / (s_k * cc_k), count=n_k)
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
