"""Spans around gossipnet's module boundaries, recorded from outside the package.

Run as a stand-in for the CLI::

    python3 perfbench/spans.py SPANS_DIR OP_ID ROOT_ID <gossipnet arguments...>

It replaces the names below with recorders, then calls ``gossipnet.cli.main``.
Each span holds name, start, end, parent, op id and pid. ``time.perf_counter``
is the system-wide monotonic clock on Linux, so spans of the CLI process, of
its pool workers and of the benchmark that launched it share one time axis.
Spans stay in memory and are written to ``SPANS_DIR/<pid>.jsonl`` when the CLI
returns; a forked pool worker writes its own each time a task's top-level span
ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> {name in that module: span name}; a span is named after the layer
# that defines the function, whichever module calls it
TRACED = {
    "gossipnet.cli": {
        "parse_edge_list": "ingest.parse_edge_list",
        "parse_bipartite": "ingest.parse_bipartite",
        "project_count": "ingest.project_count",
        "analyze_network": "metrics.analyze_network",
        "write_edge_list": "ingest.write_edge_list",
        "run_ensemble": "generate.run_ensemble",
    },
    "gossipnet.ingest": {"build_graph": "graph.build_graph"},
    "gossipnet.generate": {
        "generate_structure": "generate.generate_structure",
        "assign_weights": "generate.assign_weights",
        "build_graph": "graph.build_graph",
        "analyze_network": "metrics.analyze_network",
        "realization": "generate.realization",
    },
}


class Recorder:
    def __init__(self, out_dir: Path, op_id: str, root_id: str):
        self.out_dir = out_dir
        self.op_id = op_id
        self.main_pid = os.getpid()
        self.stack: list[tuple[str, int]] = [(root_id, -1)]  # (span id, pid)
        self.spans: list[dict] = []
        self.ids = itertools.count()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            span = {"id": f"{pid}.{next(self.ids)}", "name": name,
                    "parent": self.stack[-1][0], "op": self.op_id, "pid": pid}
            if name == "generate.generate_structure":
                span["name"] = f"{name}.{args[0].model}"
            counted = [0]
            if name == "graph.build_graph":
                if hasattr(args[0], "__len__"):
                    counted[0] = len(args[0])
                else:  # a one-pass iterable: count the records as build_graph reads them
                    args = (_counting(args[0], counted),) + args[1:]
            self.stack.append((span["id"], pid))
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
            if name == "graph.build_graph":
                span["records"] = counted[0]
                span["edges"] = result.edge_count
            if pid != self.main_pid and self.stack[-1][1] != pid:
                self.flush()  # a pool worker finished one task
            return result

        return traced

    def flush(self) -> None:
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        with open(self.out_dir / f"{pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in mine)


def _counting(records, counted: list[int]):
    for record in records:
        counted[0] += 1
        yield record


def read_spans(spans_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(spans_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds of each span, by id.

    At every instant the wall time goes to the innermost active spans (those
    with no active child), split evenly when several run at once, as pool
    workers do. The self times therefore sum to the wall time the spans cover.
    """
    totals = dict.fromkeys((s["id"] for s in spans), 0.0)
    cuts = sorted({s["start"] for s in spans} | {s["end"] for s in spans})
    for a, b in zip(cuts, cuts[1:]):
        active = [s for s in spans if s["start"] <= a and s["end"] >= b]
        busy = {s["parent"] for s in active}
        inner = [s["id"] for s in active if s["id"] not in busy]
        for span_id in inner:
            totals[span_id] += (b - a) / len(inner)
    return totals


def per_name(spans: list[dict], totals: dict[str, float]) -> dict[str, float]:
    by_name: dict[str, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]] += totals[s["id"]]
    return dict(by_name)


def main(argv: list[str]) -> int:
    out_dir, op_id, root_id, cli_args = Path(argv[0]), argv[1], argv[2], argv[3:]
    recorder = Recorder(out_dir, op_id, root_id)
    for module_name, names in TRACED.items():
        module = importlib.import_module(module_name)
        for attr, name in names.items():
            if hasattr(module, attr):  # a layer the program no longer calls reads 0
                setattr(module, attr, recorder.wrap(getattr(module, attr), name))
    cli = importlib.import_module("gossipnet.cli")
    try:
        return cli.main(cli_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
