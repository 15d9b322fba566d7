"""Command-line interface.

Four subcommands: ``analyze`` a weighted edge list into a coefficient
summary and per-degree curves, ``generate`` seeded random networks,
``sweep`` a seeded ensemble into aggregate reports, and ``project``
bipartite event data onto a weighted co-occurrence network.

Output conventions: progress goes to stderr, stdout carries CSV only (when
no --out is given), CSV files use empty cells for absent values and JSON
files use null, and identical invocations (same seed, any worker count)
produce byte-identical outputs. Exit codes: 0 success, 1 usage error,
2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import IO, Mapping

from . import cascade, generate
from .generate import GeneratorConfig, realization, run_ensemble
from .graph import WeightedGraph
from .ingest import (
    EdgeListError, _read_events, parse_edge_list, project_count, project_newman, write_edge_list,
)
from .metrics import DegreeCurve, analyze_network

SCHEMA_VERSION = 1

#: Summary columns and the NetworkSummary field behind each: the reference
#: coefficient table's columns first, in its order, then the extras.
SUMMARY_COLUMNS = (
    ("N", "n_nodes"),
    ("M", "n_edges"),
    ("k0", "k0"),
    ("k0_w", "k0_w"),
    ("k0w_over_k0", "k0w_over_k0"),
    ("CC", "cc"),
    ("sigma", "sigma"),
    ("beta", "beta"),
    ("sigma_over_cc", "sigma_over_cc"),
    ("beta_over_cc", "beta_over_cc"),
    ("beta_over_sigma", "beta_over_sigma"),
    ("beta_over_sigma_cc", "beta_over_sigma_cc"),
    ("k0_interior", "k0_interior"),
    ("k0w_interior", "k0w_interior"),
    ("isolated_nodes", "n_isolated"),
    ("leaf_victims", "n_leaf_victims"),
)
SUMMARY_HEADER = tuple(column for column, _ in SUMMARY_COLUMNS)

CURVE_COLUMNS = (
    "k",
    "count",
    "sigma_k",
    "beta_k",
    "cc_k",
    "beta_over_sigma_k",
    "beta_over_sigma_cc_k",
)


#: What reading an input file can raise: malformed content, I/O, bad encoding
_READ_ERRORS = (EdgeListError, OSError, UnicodeDecodeError)


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default would be 2, reserved for input errors)
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# -- value formatting ---------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _curve_rows(
    counts: dict[str, Mapping[int, int]], curves: dict[str, DegreeCurve | None]
) -> list[dict[str, object]]:
    """One row per degree of any curve: ``k``, each count column (0 where it
    has no entry), then each curve's value (None where it has no point)."""
    degrees = sorted({k for c in curves.values() if c is not None for k in c.degrees()})
    return [
        {
            "k": k,
            **{column: count.get(k, 0) for column, count in counts.items()},
            **{column: c.value(k) if c is not None and k in c else None
               for column, c in curves.items()},
        }
        for k in degrees
    ]


def _counts(curve: DegreeCurve) -> dict[int, int]:
    return {k: point.count for k, point in curve.points.items()}


def _write_csv(path_or_stream: Path | IO[str], columns, rows: list[dict]) -> None:
    if isinstance(path_or_stream, Path):
        with open(path_or_stream, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, columns, rows)
        return
    writer = csv.writer(path_or_stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_labels(path: Path, g: WeightedGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("index", "label"))
        writer.writerows(enumerate(map(_cell, g.labels)))


# -- commands -----------------------------------------------------------------


def _unmade_dir(path: str | Path) -> Path:
    """``path`` as an output directory not yet made: a usage error when it,
    or the nearest part of it that exists, is not a directory."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        raise _UsageError(f"--out: {str(existing)!r} is not a directory")
    return Path(path)


def _out_dir(path: str | Path) -> Path:
    """``path`` as an output directory, made if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out: cannot make directory {str(path)!r}: {exc.strerror}") from exc
    return Path(path)


def _load_graph(path: str) -> WeightedGraph:
    try:
        g = parse_edge_list(path)
    except _READ_ERRORS as exc:
        raise _InputError(str(exc)) from exc
    if g.edge_count == 0:
        raise _InputError(f"{path}: no edges")
    return g


def cmd_analyze(args: argparse.Namespace) -> int:
    out = None if args.out is None else _unmade_dir(args.out)
    g = _load_graph(args.input)
    analysis = analyze_network(g, args.model, args.min_samples)
    summary_row = {column: getattr(analysis.summary, f) for column, f in SUMMARY_COLUMNS}
    if out is None:
        _write_csv(sys.stdout, SUMMARY_HEADER, [summary_row])
        return 0
    _out_dir(out)
    curve_rows = _curve_rows(
        {"count": _counts(analysis.cc_curve)},
        {
            "sigma_k": analysis.sigma_curve,
            "beta_k": analysis.beta_curve,
            "cc_k": analysis.cc_curve,
            "beta_over_sigma_k": analysis.beta_over_sigma_curve,
            "beta_over_sigma_cc_k": analysis.beta_over_sigma_cc_curve,
        },
    )
    if args.format in ("csv", "both"):
        _write_csv(out / "summary.csv", SUMMARY_HEADER, [summary_row])
        _write_csv(out / "curves.csv", CURVE_COLUMNS, curve_rows)
        _note(f"wrote {out / 'summary.csv'} and {out / 'curves.csv'}")
    if args.format in ("json", "both"):
        _write_json(
            out / "summary.json",
            {"schema_version": SCHEMA_VERSION, "model": args.model, "summary": summary_row},
        )
        _write_json(
            out / "curves.json",
            {"schema_version": SCHEMA_VERSION, "model": args.model, "curves": curve_rows},
        )
        _note(f"wrote {out / 'summary.json'} and {out / 'curves.json'}")
    _write_labels(out / "labels.csv", g)
    return 0


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    cfg = GeneratorConfig(**{f.name: getattr(args, f.name) for f in fields(GeneratorConfig)})
    try:
        cfg.validate()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return cfg


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _generator_config(args)
    out = _out_dir(args.out)
    files = []
    for i in range(cfg.realizations):
        g = realization(cfg, i)
        name = f"realization_{i:03d}.edges"
        write_edge_list(g, out / name)
        files.append(name)
        _note(f"wrote {out / name} (N={g.node_count}, M={g.edge_count})")
    _write_json(
        out / "manifest.json",
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "generate",
            "config": asdict(cfg),
            "seed_streams": {
                part: [cfg.seed, "realization_index", stream]
                for part, stream in generate.SEED_STREAMS.items()
            },
            "files": files,
        },
    )
    _note(f"wrote {out / 'manifest.json'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _generator_config(args)
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    out = _unmade_dir(args.out)
    ens = run_ensemble(cfg, min_samples=args.min_samples, workers=args.workers)
    _out_dir(out)
    summary_rows = [
        {column: getattr(s, f) for column, f in SUMMARY_COLUMNS} for s in ens.summaries
    ]
    if args.format in ("csv", "both"):
        rows = [{"realization": i, **row} for i, row in enumerate(summary_rows)]
        _write_csv(out / "realizations.csv", ("realization",) + SUMMARY_HEADER, rows)
        _write_csv(
            out / "mean_curves.csv",
            ("k", "realizations", "victims", "sigma_k", "beta_k", "cc_k"),
            _curve_rows(
                {"realizations": ens.curve_realizations, "victims": _counts(ens.sigma_curve)},
                {"sigma_k": ens.sigma_curve, "beta_k": ens.beta_curve, "cc_k": ens.cc_curve},
            ),
        )
        _note(f"wrote {out / 'realizations.csv'} and {out / 'mean_curves.csv'}")
    if args.format in ("json", "both"):
        _write_json(
            out / "ensemble.json",
            {
                "schema_version": SCHEMA_VERSION,
                "config": asdict(cfg),
                "realizations": cfg.realizations,
                "mean": ens.mean,
                "std": ens.std,
                "defined": ens.defined,
                "k0_of_mean_curve": ens.k0_of_mean_curve,
                "k0w_of_mean_curve": ens.k0w_of_mean_curve,
                "summaries": summary_rows,
            },
        )
        _note(f"wrote {out / 'ensemble.json'}")
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    out = sys.stdout if args.out is None else Path(args.out)
    if args.out is not None:
        _unmade_dir(out.parent)
        if out.is_dir():
            raise _UsageError(f"--out: {args.out!r} is a directory")
    try:
        events = _read_events(args.input, "auto")
    except _READ_ERRORS as exc:
        raise _InputError(str(exc)) from exc
    if not events.groups:
        _note(f"warning: {args.input}: no event records, writing empty output")
    project = project_count if args.scheme == "count" else project_newman
    g = project(events)
    if args.out is not None:
        _out_dir(out.parent)
    try:
        write_edge_list(g, out)
    except ValueError as exc:  # unwritable labels in the input data
        raise _InputError(str(exc)) from exc
    if args.out is None:
        return 0
    _note(f"wrote {out} (N={g.node_count}, M={g.edge_count})")
    _write_labels(Path(str(out) + ".labels.csv"), g)
    return 0


# -- parser -------------------------------------------------------------------


def _add_generator_flags(p: argparse.ArgumentParser, default_realizations: int) -> None:
    # one flag per GeneratorConfig field; its class attributes hold the defaults
    p.add_argument("--model", required=True, choices=generate.MODELS,
                   help="generator family")
    p.add_argument("--N", required=True, type=int, help="number of nodes")
    p.add_argument("--p", type=float, default=None,
                   help="ER connection probability / WS rewiring probability")
    p.add_argument("--m0", type=int, default=None, help="BA seed clique size")
    p.add_argument("--m", type=int, default=None, help="BA edges per new node")
    p.add_argument("--k", type=int, default=None, help="WS ring degree (even)")
    p.add_argument("--weight_mean", type=float, default=GeneratorConfig.weight_mean,
                   help="mean of the per-node weight Gaussian (default %(default)s)")
    p.add_argument("--weight_stddev", type=float, default=GeneratorConfig.weight_stddev,
                   help="stddev of the per-node weight Gaussian (default %(default)s)")
    p.add_argument("--weight_truncation", choices=generate.TRUNCATIONS,
                   default=GeneratorConfig.weight_truncation,
                   help="how to keep node weights positive (default %(default)s)")
    p.add_argument("--seed", type=int, default=GeneratorConfig.seed,
                   help="master seed (default %(default)s)")
    p.add_argument("--realizations", type=int, default=default_realizations,
                   help="number of realizations (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gossipnet",
        description="Gossip spreading on weighted networks: analysis, generation, projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="summarize a weighted edge list",
                       description="Compute the coefficient summary and per-degree "
                                   "curves of a weighted edge-list network.")
    p.add_argument("--input", required=True, help="weighted edge-list file")
    p.add_argument("--model", choices=cascade.MODELS, default="both")
    p.add_argument("--out", default=None,
                   help="output directory (omit to print the summary CSV to stdout)")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--min-samples", dest="min_samples", type=int, default=1,
                   help="minimum victims per degree for the critical-degree search")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write seeded random networks",
                       description="Generate ER/BA/WS networks with node-based "
                                   "Gaussian edge weights.")
    _add_generator_flags(p, default_realizations=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="run a seeded generator ensemble",
                       description="Generate an ensemble, summarize every realization "
                                   "and write aggregate reports.")
    _add_generator_flags(p, default_realizations=50)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--min-samples", dest="min_samples", type=int, default=1)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for realizations, at least 1 (output "
                        "is identical for any value)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("project", help="project bipartite events onto a network",
                       description="Build a weighted co-occurrence network from "
                                   "group/member event records.")
    p.add_argument("--input", required=True, help="bipartite event file")
    p.add_argument("--scheme", choices=("count", "newman"), default="count",
                   help="pair weighting: shared-event count, or 1/(n-1) per event")
    p.add_argument("--out", default=None,
                   help="output edge-list file (omit to print to stdout)")
    p.set_defaults(func=cmd_project)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
