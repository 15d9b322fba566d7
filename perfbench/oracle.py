"""Independent references for the benchmark, and the checks of each op's output.

The spread coefficients come from the per-originator BFS oracle
``gossipnet.victim_spread`` (degree-1 victims count as 0, means by
``math.fsum``), the clustering coefficient from networkx. The program's own
fast path, parsers and writers are never used to compute a reference.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import networkx as nx

import gossipnet as gn

CC_TOLERANCE = 1e-12


def network_reference(records, nodes=()) -> dict:
    """Oracle sigma/beta, networkx CC and the shape of one network.

    ``records`` are (a, b, weight) tuples with distinct unordered pairs;
    ``nodes`` lists labels to keep even when isolated.
    """
    records = list(records)
    g = gn.build_graph(records, nodes=nodes)
    sigmas, betas = [], []
    for v in g.labels:
        spread = gn.victim_spread(g, v)
        if spread.degree == 0:
            continue
        leaf = spread.degree < 2
        sigmas.append(0.0 if leaf else spread.sigma)
        betas.append(0.0 if leaf else spread.beta)

    nxg = nx.Graph()
    nxg.add_nodes_from(nodes)
    nxg.add_edges_from((a, b) for a, b, _ in records)
    degrees = dict(nxg.degree())
    # average_clustering is the mean of clustering(); one call gives triangles too
    clustering = nx.clustering(nxg)
    triangles = sum(
        round(c * k * (k - 1) / 2) for v, c in clustering.items() if (k := degrees[v]) > 1
    )
    quiet = sum(gn.is_close_friend(g, a, b) + gn.is_close_friend(g, b, a) for a, b, _ in records)
    return {
        "N": nxg.number_of_nodes(),
        "M": nxg.number_of_edges(),
        "sigma": math.fsum(sigmas) / len(sigmas),
        "beta": math.fsum(betas) / len(betas),
        "CC": sum(clustering.values()) / len(clustering),
        "victims": len(sigmas),
        "max_degree": max(degrees.values()),
        "sum_k2": sum(d * d for d in degrees.values()),
        "triangles": triangles // 3,
        "quiet_slots": quiet,
        "slots": 2 * len(records),
    }


def local_components(g) -> int:
    """Connected components of every victim's neighbourhood subgraph.

    An originator in a component of n nodes has sigma_vr = n / k, so each
    component contributes exactly n * 1 / (sigma_vr * k) = 1 to the sum.
    """
    total = 0.0
    for v in g.labels:
        spread = gn.fast_victim_spread(g, v, "unweighted")
        total += math.fsum(1.0 / (o.sigma * spread.degree) for o in spread.per_originator)
    return round(total)


# -- checks: each returns a list of problems, empty when the output is right --


def check_row(row: dict, ref: dict, where: str) -> list[str]:
    """One summary row (CSV strings or JSON values) against its reference."""
    errors = []
    for key in ("N", "M"):
        if int(row[key]) != ref[key]:
            errors.append(f"{where}: {key}={row[key]} expected {ref[key]}")
    for key in ("sigma", "beta"):
        if float(row[key]) != ref[key]:
            errors.append(f"{where}: {key}={row[key]!r} but the oracle gives {ref[key]!r}")
    if not abs(float(row["CC"]) - ref["CC"]) <= CC_TOLERANCE:
        errors.append(f"{where}: CC={row['CC']!r} but networkx gives {ref['CC']!r}")
    return errors


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_analysis(out: Path, ref: dict) -> list[str]:
    """The ``analyze --out`` directory of one network."""
    rows = _csv_rows(out / "summary.csv")
    if len(rows) != 1:
        return [f"{out}/summary.csv: {len(rows)} rows"]
    errors = check_row(rows[0], ref, f"{out}/summary.csv")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))["summary"]
    errors += check_row(summary, ref, f"{out}/summary.json")
    curve_victims = sum(int(r["count"]) for r in _csv_rows(out / "curves.csv"))
    if curve_victims != ref["N"]:
        errors.append(f"{out}/curves.csv: counts sum to {curve_victims}, N={ref['N']}")
    labels = _csv_rows(out / "labels.csv")
    if len(labels) != ref["N"]:
        errors.append(f"{out}/labels.csv: {len(labels)} rows, N={ref['N']}")
    return errors


def read_edge_list(path: Path) -> dict[tuple[str, str], float]:
    """``a b w`` lines as {(min label, max label): weight}."""
    edges = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b, w = line.split()
            edges[(min(a, b), max(a, b))] = float(w)
    return edges


def check_edge_list(path: Path, expected: dict[tuple[str, str], float]) -> list[str]:
    got = read_edge_list(path)
    if got == expected:
        return []
    missing = len(expected.keys() - got.keys())
    extra = len(got.keys() - expected.keys())
    return [f"{path}: {missing} edges missing, {extra} extra, or weights differ"]


def check_sweep(out: Path, ref_dir: Path, refs: list[dict]) -> list[str]:
    """A ``sweep`` directory: byte-identical to the one-worker reference sweep,
    and every realization row equal to the oracle on that realization."""
    errors = []
    names = sorted(p.name for p in ref_dir.iterdir())
    got_names = sorted(p.name for p in out.iterdir())
    if got_names != names:
        errors.append(f"{out}: files {got_names}, expected {names}")
    for name in names:
        if (out / name).read_bytes() != (ref_dir / name).read_bytes():
            errors.append(f"{out}/{name}: differs from the --workers 1 sweep")
    rows = _csv_rows(out / "realizations.csv")
    if len(rows) != len(refs):
        return errors + [f"{out}/realizations.csv: {len(rows)} rows, expected {len(refs)}"]
    for i, (row, ref) in enumerate(zip(rows, refs)):
        errors += check_row(row, ref, f"{out}/realizations.csv row {i}")
    return errors


def guarded(check, *args) -> list[str]:
    """Run a check; an output that does not read back is a problem too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
