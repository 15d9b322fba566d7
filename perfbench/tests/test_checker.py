"""The benchmark's op checker and traced op.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]
pytest.importorskip("networkx")

import oracle  # noqa: E402
import run  # noqa: E402

RECORDS = [
    ("a", "b", 1.0), ("a", "c", 2.0), ("b", "c", 1.0), ("b", "d", 1.0),
    ("c", "d", 3.0), ("d", "e", 1.0), ("c", "e", 1.0), ("e", "f", 2.0),
]


@pytest.fixture
def launcher(monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "ENV", {**run.ENV, "PYTHONPATH": str(REPO / "src")})
    with run.Launcher() as launcher:
        yield launcher


class Analyze(run.Workload):
    """``analyze`` on a small edge list, checked against a given reference."""

    def __init__(self, tmp_path: Path, ref: dict):
        self.edges = tmp_path / "small.edges"
        self.edges.write_text("".join(f"{a} {b} {w}\n" for a, b, w in RECORDS))
        self.networks = [ref]

    def invocations(self, op_dir):
        return [["analyze", "--input", str(self.edges), "--out", str(op_dir / "analysis")]]

    def check(self, op_dir):
        return oracle.check_analysis(op_dir / "analysis", self.networks[0])


SWEEP = ["sweep", "--model", "ER", "--N", "40", "--p", "0.2", "--realizations", "3", "--seed", "5"]


class Sweep(run.Workload):
    """A two-worker sweep compared with a one-worker reference sweep."""

    def __init__(self, ref_dir: Path, refs: list[dict]):
        self.ref_dir = ref_dir
        self.networks = refs

    def invocations(self, op_dir):
        return [SWEEP + ["--workers", "2", "--out", str(op_dir / "sweep")]]

    def check(self, op_dir):
        return oracle.check_sweep(op_dir / "sweep", self.ref_dir, self.networks)


def test_exact_output_passes(launcher, tmp_path):
    op = run.run_op(launcher, Analyze(tmp_path, oracle.network_reference(RECORDS)), tmp_path / "op", False)
    assert op.problems == []


def test_sigma_one_ulp_off_fails_the_op(launcher, tmp_path):
    ref = oracle.network_reference(RECORDS)
    ref["sigma"] = math.nextafter(ref["sigma"], math.inf)
    op = run.run_op(launcher, Analyze(tmp_path, ref), tmp_path / "op", False)
    assert any("sigma" in p for p in op.problems)


def test_unreadable_output_fails_the_op(launcher, tmp_path):
    work = Analyze(tmp_path, oracle.network_reference(RECORDS))
    work.invocations = lambda op_dir: [["analyze", "--input", str(work.edges)]]  # no --out
    op = run.run_op(launcher, work, tmp_path / "op", False)
    assert op.problems and "unreadable output" in op.problems[0]


def _reference_sweep(launcher, tmp_path: Path) -> tuple[Path, list[dict]]:
    ref_dir = tmp_path / "ref"
    inv = launcher.run(run.cli_command(SWEEP + ["--workers", "1", "--out", str(ref_dir)]),
                       tmp_path / "err")
    assert inv.returncode == 0
    cfg = run.gn.GeneratorConfig(model="ER", N=40, p=0.2, realizations=3, seed=5)
    refs = []
    for i in range(cfg.realizations):
        g = run.gn.realization(cfg, i)
        refs.append(oracle.network_reference(list(g.edges()), nodes=g.labels))
    return ref_dir, refs


def test_two_worker_sweep_matches_one_worker_reference(launcher, tmp_path):
    ref_dir, refs = _reference_sweep(launcher, tmp_path)
    op = run.run_op(launcher, Sweep(ref_dir, refs), tmp_path / "op", False)
    assert op.problems == []


def test_one_changed_byte_fails_the_op(launcher, tmp_path):
    ref_dir, refs = _reference_sweep(launcher, tmp_path)
    target = ref_dir / "mean_curves.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    op = run.run_op(launcher, Sweep(ref_dir, refs), tmp_path / "op", False)
    assert any("differs from the --workers 1 sweep" in p for p in op.problems)


def test_traced_self_times_sum_to_op_wall(launcher, tmp_path):
    ref_dir, refs = _reference_sweep(launcher, tmp_path)
    op = run.run_op(launcher, Sweep(ref_dir, refs), tmp_path / "op", True)
    assert op.problems == []
    self_seconds = sum(v for k, v in op.layers.items() if k.endswith("_s") and k != "op_s_traced")
    assert self_seconds == pytest.approx(op.wall, abs=1e-6)
    assert op.layers["generate.realizations"] == 3
    assert op.layers["graph.build_graph_calls"] == 6
    assert op.layers["generate.pool_efficiency"] > 0.0


def test_self_times_split_concurrent_spans():
    spans = [
        {"id": "root", "name": "cli", "parent": None, "pid": -1, "start": 0.0, "end": 10.0},
        {"id": "ens", "name": "generate.run_ensemble", "parent": "root", "pid": 1, "start": 1.0, "end": 9.0},
        {"id": "w1", "name": "metrics.analyze_network", "parent": "ens", "pid": 2, "start": 2.0, "end": 6.0},
        {"id": "w2", "name": "metrics.analyze_network", "parent": "ens", "pid": 3, "start": 4.0, "end": 8.0},
    ]
    totals = run.spans.self_times(spans)
    assert totals == {"root": 2.0, "ens": 2.0, "w1": 3.0, "w2": 3.0}
    assert sum(totals.values()) == 10.0
