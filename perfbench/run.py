#!/usr/bin/env python3
"""Benchmark of the gossipnet command line, run from the root of a checkout.

    python3 perfbench/run.py --workload coauthor --seed 0 --seconds 30 --trace 0

One op is one or more fresh ``python3 -m gossipnet.cli`` processes, run back to
back by this one process (a closed loop with one client) until ``--seconds``
have passed. Every op's output is checked against references computed once per
(workload, seed, source) and cached under ``.bench_build/perfbench``. With
``--trace 0`` a fixed gauge process (gauge.py) runs before and after every op,
times are scaled by it to the reference machine speed, and the last stdout
line holds the end-to-end metrics; with
``--trace 1`` untraced and traced ops alternate and it holds the per-layer
metrics. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_MIN_SAMPLES = 7
# median wall time of gauge.py on the 2-vCPU Xeon (2.0 GHz) VM the benchmark
# was built on; a time scaled by the gauge reads as seconds at that speed
GAUGE_REFERENCE_S = 0.6
ENSEMBLE_WORKERS = 2

sys.path.insert(0, str(SRC))
try:
    import gossipnet as gn  # the checkout's own source, never an installed copy
except ModuleNotFoundError:
    sys.exit(f"error: no {SRC / 'gossipnet'}; run from the root of a gossipnet checkout")

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- processes ------------------------------------------------------------------


@dataclass
class Invocation:
    start: float
    end: float
    returncode: int
    maxrss_kb: int


class Launcher:
    """The small process that starts every measured process (see launch.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py")], cwd=ROOT, env=ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def run(self, cmd: list[str], stderr_path: Path) -> Invocation:
        """Run one process to completion; max RSS covers it and its waited-for children."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return Invocation(**json.loads(reply))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:  # do not leave a measured process running
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli_command(cli_args: list[str]) -> list[str]:
    return [sys.executable, "-m", "gossipnet.cli", *cli_args]


def import_seconds(launcher: Launcher, scratch: Path) -> float:
    """Wall time of a fresh interpreter importing gossipnet."""
    inv = launcher.run([sys.executable, "-c", "import gossipnet"], scratch / "setup.err")
    if inv.returncode != 0:
        raise RuntimeError("import gossipnet failed: " + (scratch / "setup.err").read_text())
    return inv.end - inv.start


def gauge_seconds(launcher: Launcher, scratch: Path) -> float:
    """Wall time of a fresh interpreter running gauge.py, a fixed amount of work."""
    inv = launcher.run([sys.executable, str(HERE / "gauge.py")], scratch / "gauge.err")
    if inv.returncode != 0:
        raise RuntimeError("gauge.py failed: " + (scratch / "gauge.err").read_text())
    return inv.end - inv.start


def at_reference_speed(seconds: float, gauge_before: float, gauge_after: float) -> float:
    """A wall time scaled by the gauge runs around it to the reference machine speed."""
    return seconds * GAUGE_REFERENCE_S * 2.0 / (gauge_before + gauge_after)


# -- workloads --------------------------------------------------------------------


class Workload:
    """Inputs, references and the op of one workload for one seed."""

    def __init__(self, seed: int, cache: Path):
        self.seed = seed
        self.cache = cache
        ref_path = cache / "ref.json"
        if ref_path.exists():
            self.ref = json.loads(ref_path.read_text())
        else:
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir(parents=True)
            started = time.perf_counter()
            self.ref = self.build_reference()
            tmp = cache / "ref.json.tmp"
            tmp.write_text(json.dumps(self.ref))
            tmp.rename(ref_path)
            note(f"reference for seed {seed} built in {time.perf_counter() - started:.1f} s")
        self.networks = self.ref["networks"]
        self.edges_per_op = sum(n["M"] for n in self.networks)

    def build_reference(self) -> dict:
        raise NotImplementedError

    def invocations(self, op_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, op_dir: Path) -> list[str]:
        raise NotImplementedError

    def graphs(self):
        """The networks one op analyzes, as gossipnet graphs."""
        raise NotImplementedError


def project_events(teams: list[list[int]]) -> dict[tuple[str, str], float]:
    """Shared-event counts per pair of members, computed here, not by gossipnet."""
    pairs: Counter = Counter()
    for team in teams:
        labels = sorted({f"p{p}" for p in team})
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                pairs[(a, b)] += 1
    return {pair: float(w) for pair, w in pairs.items()}


class Coauthor(Workload):
    name = "coauthor"

    def __init__(self, seed: int, cache: Path):
        self.events = cache / "events.txt"
        super().__init__(seed, cache)
        self.expected = project_events(inputs.coauthor_events(seed))

    def build_reference(self) -> dict:
        teams = inputs.write_coauthor(self.events, self.seed)
        records = [(a, b, w) for (a, b), w in project_events(teams).items()]
        return {"networks": [oracle.network_reference(records)]}

    def invocations(self, op_dir):
        net = str(op_dir / "net.edges")
        return [
            ["project", "--input", str(self.events), "--out", net],
            ["analyze", "--input", net, "--out", str(op_dir / "analysis")],
        ]

    def check(self, op_dir):
        return oracle.check_edge_list(op_dir / "net.edges", self.expected) + oracle.check_analysis(
            op_dir / "analysis", self.networks[0]
        )

    def graphs(self):
        yield gn.build_graph(sorted((a, b, w) for (a, b), w in self.expected.items()))


class Sparse(Workload):
    name = "sparse"

    def __init__(self, seed: int, cache: Path):
        self.edges = cache / "sparse.edges"
        super().__init__(seed, cache)

    def build_reference(self) -> dict:
        return {"networks": [oracle.network_reference(inputs.write_sparse(self.edges, self.seed))]}

    def invocations(self, op_dir):
        return [["analyze", "--input", str(self.edges), "--out", str(op_dir / "analysis")]]

    def check(self, op_dir):
        return oracle.check_analysis(op_dir / "analysis", self.networks[0])

    def graphs(self):
        yield gn.parse_edge_list(self.edges)


ENSEMBLE_CONFIGS = {
    "er": {"model": "ER", "p": 0.02},
    "ba": {"model": "BA", "m0": 10, "m": 10},
    "ws": {"model": "WS", "k": 20, "p": 0.1},
}
ENSEMBLE_N = 1000
ENSEMBLE_REALIZATIONS = 4


class Ensemble(Workload):
    name = "ensemble"

    def configs(self):
        for name, params in ENSEMBLE_CONFIGS.items():
            yield name, gn.GeneratorConfig(
                N=ENSEMBLE_N, realizations=ENSEMBLE_REALIZATIONS, seed=self.seed, **params
            )

    def sweep_args(self, cfg, workers: int, out: Path) -> list[str]:
        args = ["sweep", "--model", cfg.model, "--N", str(cfg.N)]
        for flag in ("p", "m0", "m", "k"):
            if getattr(cfg, flag) is not None:
                args += [f"--{flag}", repr(getattr(cfg, flag))]
        return args + ["--realizations", str(cfg.realizations), "--seed", str(cfg.seed),
                       "--workers", str(workers), "--out", str(out)]

    def build_reference(self) -> dict:
        # the one-worker sweeps run in child processes while this one runs the oracle
        with ThreadPoolExecutor(1) as pool:
            sweeps = pool.submit(self.reference_sweeps)
            networks = []
            for _, cfg in self.configs():
                for i in range(cfg.realizations):
                    g = gn.realization(cfg, i)
                    networks.append(oracle.network_reference(list(g.edges()), nodes=g.labels))
            sweeps.result()
        return {"networks": networks}

    def reference_sweeps(self) -> None:
        for name, cfg in self.configs():
            subprocess.run(cli_command(self.sweep_args(cfg, 1, self.cache / name)), cwd=ROOT,
                           env=ENV, stdout=subprocess.DEVNULL, check=True)

    def invocations(self, op_dir):
        return [self.sweep_args(cfg, ENSEMBLE_WORKERS, op_dir / name) for name, cfg in self.configs()]

    def check(self, op_dir):
        errors = []
        for j, (name, _) in enumerate(self.configs()):
            refs = self.networks[j * ENSEMBLE_REALIZATIONS:(j + 1) * ENSEMBLE_REALIZATIONS]
            errors += oracle.check_sweep(op_dir / name, self.cache / name, refs)
        return errors

    def graphs(self):
        for _, cfg in self.configs():
            for i in range(cfg.realizations):
                yield gn.realization(cfg, i)


WORKLOADS = {w.name: w for w in (Coauthor, Sparse, Ensemble)}


# -- ops and traces -----------------------------------------------------------------


@dataclass
class Op:
    wall: float = 0.0
    maxrss_kb: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def run_op(launcher: Launcher, workload: Workload, op_dir: Path, traced: bool) -> Op:
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    err = op_dir / "stderr.txt"
    op = Op()
    traces = []
    for j, cli_args in enumerate(workload.invocations(op_dir)):
        if traced:
            spans_dir = op_dir / f"spans{j}"
            spans_dir.mkdir()
            cmd = [sys.executable, str(HERE / "spans.py"), str(spans_dir), op_dir.name, f"cli{j}",
                   *cli_args]
        else:
            cmd = cli_command(cli_args)
        inv = launcher.run(cmd, err)
        op.wall += inv.end - inv.start
        op.maxrss_kb = max(op.maxrss_kb, inv.maxrss_kb)
        if inv.returncode != 0:
            op.problems.append(f"{cli_args[0]} exited {inv.returncode}: {err.read_text()[-500:]}")
            break
        if traced:
            root = {"id": f"cli{j}", "name": "cli", "parent": None, "op": op_dir.name,
                    "pid": -1, "start": inv.start, "end": inv.end}
            traces.append([root] + spans.read_spans(spans_dir))
    if not op.problems:
        op.problems = oracle.guarded(workload.check, op_dir)
    if traced and not op.problems:
        op.layers, trace_problems = layer_metrics(traces, op.wall)
        op.problems += trace_problems
    shutil.rmtree(op_dir)
    return op


def layer_metrics(invocations: list[list[dict]], wall: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer self seconds and span counts of one traced op."""
    layers: Counter = Counter()
    problems = []
    records = edges = worker_time = ensemble_time = 0.0
    for trace in invocations:
        root = trace[0]
        if any(s["start"] < root["start"] or s["end"] > root["end"] for s in trace):
            problems.append("a span lies outside its process's wall time")
        totals = spans.self_times(trace)
        if not math.isclose(sum(totals.values()), root["end"] - root["start"], abs_tol=1e-6):
            problems.append("self times do not sum to the invocation's wall time")
        for name, seconds in spans.per_name(trace, totals).items():
            layers["cli.self_s" if name == "cli" else f"{name}_s"] += seconds
        by_id = {s["id"]: s for s in trace}
        for s in trace[1:]:
            if s["name"] == "graph.build_graph":
                layers["graph.build_graph_calls"] += 1
                records += s["records"]
                edges += s["edges"]
            elif s["name"] == "generate.realization":
                layers["generate.realizations"] += 1
            elif s["name"] == "generate.run_ensemble":
                ensemble_time += s["end"] - s["start"]
            if by_id[s["parent"]]["pid"] not in (-1, s["pid"]):  # a pool worker's task
                worker_time += s["end"] - s["start"]
    layers["graph.records_per_edge"] = records / edges if edges else 0.0
    layers["generate.pool_efficiency"] = (
        worker_time / (ENSEMBLE_WORKERS * ensemble_time) if ensemble_time else 0.0
    )
    layers["op_s_traced"] = wall
    return dict(layers), problems


def shape_counts(networks: list[dict]) -> dict[str, float]:
    """Count metrics that depend only on the inputs, summed over the op's networks."""
    slots = sum(n["slots"] for n in networks)
    return {
        "metrics.victims": sum(n["victims"] for n in networks),
        "metrics.triangles": sum(n["triangles"] for n in networks),
        "metrics.neighbor_scans": sum(n["sum_k2"] for n in networks),
        "cascade.quiet_slot_frac": sum(n["quiet_slots"] for n in networks) / slots,
    }


def probe_and_count(workload: Workload) -> dict[str, float]:
    """Single-model analyze times and local components on the op's networks."""
    out = Counter()
    for g in workload.graphs():
        for model in ("unweighted", "weighted"):
            start = time.perf_counter()
            gn.analyze_network(g, model)
            out[f"metrics.analyze_{model}_s"] += time.perf_counter() - start
        out["cascade.local_components"] += oracle.local_components(g)
    return dict(out)


# -- main ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "gossipnet", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if Path(gn.__file__).resolve().parent != (SRC / "gossipnet").resolve():
        note(f"error: imported gossipnet from {gn.__file__}, not from {SRC}")
        return 2

    cache = WORK / "cache" / f"{args.workload}-{args.seed}-{source_digest()}"
    workload = WORKLOADS[args.workload](args.seed, cache)
    scratch = WORK / "run"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    untraced: list[Op] = []
    traced: list[Op] = []
    setup_walls: list[float] = []
    # with --trace 0, gauges[i] and gauges[i + 1] are the gauge runs around the
    # i-th op and the i-th set-up sample
    gauges: list[float] = []
    with Launcher() as launcher:
        start = time.perf_counter()
        if not args.trace:
            gauges.append(gauge_seconds(launcher, scratch))
        while True:
            is_traced = bool(args.trace) and len(untraced) > len(traced)
            if not args.trace:  # spread set-up samples over the run, as the ops are
                setup_walls.append(import_seconds(launcher, scratch))
            op_dir = scratch / f"op{len(untraced) + len(traced)}"
            op = run_op(launcher, workload, op_dir, is_traced)
            (traced if is_traced else untraced).append(op)
            if not args.trace:
                gauges.append(gauge_seconds(launcher, scratch))
            for problem in op.problems[:5]:
                note(f"op failed: {problem}")
            if time.perf_counter() - start >= args.seconds and (not args.trace or traced):
                break
        while not args.trace and len(setup_walls) < SETUP_MIN_SAMPLES:
            setup_walls.append(import_seconds(launcher, scratch))
            gauges.append(gauge_seconds(launcher, scratch))
    ops = untraced + traced
    failed = sum(1 for op in ops if op.problems)

    walls = [op.wall for op in untraced]
    scaled = [at_reference_speed(w, *gauges[i:i + 2]) for i, w in enumerate(walls)] if gauges else []
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "networks": len(workload.networks),
        "shape": [{k: n[k] for k in ("N", "M", "CC", "max_degree", "sum_k2", "triangles")}
                  | {"quiet_slot_frac": n["quiet_slots"] / n["slots"]} for n in workload.networks],
        "ops": len(walls), "op_wall_s": walls, "op_wall_s_quartiles": quartiles(walls),
        "gauge_s": gauges, "op_s_quartiles": quartiles(scaled) if scaled else None,
        "setup_wall_s": setup_walls,
    }))

    if args.trace:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        good = [op.layers for op in traced if op.layers is not None]
        unknown = {name for layers in good for name in layers} - values.keys()
        if unknown:
            raise RuntimeError(f"spans with no per-layer metric: {sorted(unknown)}")
        for name in values:
            if good:
                values[name] = statistics.median(layers.get(name, 0.0) for layers in good)
        values.update(shape_counts(workload.networks))
        values.update(probe_and_count(workload))
        values["tracing_overhead_s"] = (
            statistics.median(op.wall for op in traced) - statistics.median(walls)
        )
        metrics = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(
                at_reference_speed(w, *gauges[i:i + 2]) for i, w in enumerate(setup_walls)
            ),
            "op_s_p50": statistics.median(scaled),
            "edges_per_s": workload.edges_per_op * len(scaled) / sum(scaled),
            "peak_rss_mb": max(op.maxrss_kb for op in ops) / 1024.0,
            "ok_frac": 1.0 - failed / len(ops),
        }
        metrics = spec["end_to_end"]
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
