"""Command-line interface.

Four subcommands: ``analyze`` a weighted edge list into a coefficient
summary and per-degree curves, ``generate`` seeded random networks,
``sweep`` a seeded ensemble into aggregate reports, and ``project``
bipartite event data onto a weighted co-occurrence network.

Output conventions: progress goes to stderr, stdout carries CSV only (when
no --out is given), CSV files use empty cells for absent values and JSON
files use null, and identical invocations (same seed, any worker count)
produce byte-identical outputs. Exit codes: 0 success, 1 usage error,
2 input error, 3 internal error; a failed command removes what it wrote.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import shutil
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, fields
from functools import partial
from pathlib import Path
from typing import IO, Callable, Mapping

from . import cascade, generate, ingest, metrics
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
) -> tuple[tuple[str, ...], list[dict[str, object]]]:
    """The columns ``k``, each count, each curve, and one row per degree of any
    curve: a count is 0 where it has no entry, a curve None where it has no point."""
    degrees = sorted({k for c in curves.values() if c is not None for k in c.degrees()})
    rows = [
        {
            "k": k,
            **{column: count.get(k, 0) for column, count in counts.items()},
            **{column: c.value(k) if c is not None and k in c else None
               for column, c in curves.items()},
        }
        for k in degrees
    ]
    return ("k", *counts, *curves), rows


def _counts(curve: DegreeCurve) -> dict[int, int]:
    return {k: point.count for k, point in curve.points.items()}


def _write_csv(dest: Callable[[], IO[str]], columns, rows: list[dict]) -> None:
    with dest() as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _write_json(dest: Callable[[], IO[str]], **payload) -> None:
    with dest() as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **payload}, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_labels(dest: Callable[[], IO[str]], g: WeightedGraph) -> None:
    """``index,label`` rows, ingest.WRITE_CHUNK per write. A chunk of ``str``
    labels that are printable and hold no ``,`` or ``"`` is one ``%`` format,
    a ``%d,%s`` line per row over its index and label cells: csv quotes none
    of them in any version. Any other chunk goes through csv."""
    labels = g.labels
    with dest() as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("index", "label"))
        for start in range(0, len(labels), ingest.WRITE_CHUNK):
            chunk = labels[start:start + ingest.WRITE_CHUNK]
            rows = range(start, start + len(chunk))
            # a label that is no str, or that csv might quote, sends the chunk to csv
            text = "".join(chunk) if set(map(type, chunk)) == {str} else "\0"
            if not text.isprintable() or "," in text or '"' in text:
                writer.writerows(zip(rows, map(_cell, chunk)))
                continue
            cells = [None] * (2 * len(chunk))
            cells[0::2] = rows
            cells[1::2] = chunk
            fh.write(("%d,%s\n" * len(chunk)) % tuple(cells))


# -- commands -----------------------------------------------------------------


@contextmanager
def _blamed(kind: type[Exception], errors, prefix: str = ""):
    """Re-raise ``errors`` as ``kind``, _UsageError (exit 1) or _InputError
    (exit 2), with ``prefix`` before the message."""
    try:
        yield
    except errors as exc:
        raise kind(f"{prefix}{exc}") from exc


@contextmanager
def _out_dir(path: str | Path):
    """Make the output directory ``path`` and yield ``file(name)``, the
    opener of the output file ``name`` in it: opening records the file, and
    an OSError opening it is a usage error naming it. When the block fails,
    interrupts included, this removes the outermost directory it made, or else
    the files it opened, noting each; a file it never opened stays as it was."""
    path = Path(path)
    made = next((p for p in (*reversed(path.parents), path) if not p.exists()), None)
    with _blamed(_UsageError, OSError, "--out: cannot make directory: "):
        path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def opened(p: Path) -> IO[str]:
        with _blamed(_UsageError, OSError, "--out: cannot write: "):
            fh = open(p, "w", encoding="utf-8", newline="")
        written.append(p)
        return fh

    try:
        yield lambda name: partial(opened, path / name)
    except BaseException:
        if made is not None:
            shutil.rmtree(made)
            _note(f"removed {made}")
        else:
            for p in written:
                p.unlink()
                _note(f"removed {p}")
        raise


def cmd_analyze(args: argparse.Namespace) -> int:
    with nullcontext() if args.out is None else _out_dir(args.out) as file:
        with _blamed(_InputError, (*_READ_ERRORS, OverflowError)):
            g = parse_edge_list(args.input)
        if g.edge_count == 0:
            raise _InputError(f"{args.input}: no edges")
        analysis = analyze_network(g, args.model, args.min_samples)
        summary_row = {column: getattr(analysis.summary, f) for column, f in SUMMARY_COLUMNS}
        if file is None:
            _write_csv(lambda: nullcontext(sys.stdout), SUMMARY_HEADER, [summary_row])
            return 0
        out = Path(args.out)
        curve_columns, curve_rows = _curve_rows(
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
            _write_csv(file("summary.csv"), SUMMARY_HEADER, [summary_row])
            _write_csv(file("curves.csv"), curve_columns, curve_rows)
            _note(f"wrote {out / 'summary.csv'} and {out / 'curves.csv'}")
        if args.format in ("json", "both"):
            _write_json(file("summary.json"), model=args.model, summary=summary_row)
            _write_json(file("curves.json"), model=args.model, curves=curve_rows)
            _note(f"wrote {out / 'summary.json'} and {out / 'curves.json'}")
        _write_labels(file("labels.csv"), g)
    return 0


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    with _blamed(_UsageError, ValueError):
        return GeneratorConfig(**{f.name: getattr(args, f.name) for f in fields(GeneratorConfig)})


def _weights_in_range(cfg: GeneratorConfig):
    """Generated weights or strengths past the float range are a usage error."""
    prefix = f"weight_mean {cfg.weight_mean!r} and weight_stddev {cfg.weight_stddev!r}: "
    return _blamed(_UsageError, OverflowError, prefix)


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _generator_config(args)
    out = Path(args.out)
    files = [f"realization_{i:03d}.edges" for i in range(cfg.realizations)]
    with _out_dir(out) as file:
        for i, name in enumerate(files):
            with _weights_in_range(cfg):
                g = realization(cfg, i)
            write_edge_list(g, file(name))
            _note(f"wrote {out / name} (N={g.node_count}, M={g.edge_count})")
        _write_json(
            file("manifest.json"),
            kind="generate",
            config=asdict(cfg),
            seed_streams={
                part: [cfg.seed, "realization_index", stream]
                for part, stream in generate.SEED_STREAMS.items()
            },
            files=files,
        )
        _note(f"wrote {out / 'manifest.json'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _generator_config(args)
    out = Path(args.out)
    with _out_dir(out) as file:
        with _weights_in_range(cfg):
            ens = run_ensemble(cfg, min_samples=args.min_samples, workers=args.workers)
        summary_rows = [
            {column: getattr(s, f) for column, f in SUMMARY_COLUMNS} for s in ens.summaries
        ]
        if args.format in ("csv", "both"):
            rows = [{"realization": i, **row} for i, row in enumerate(summary_rows)]
            _write_csv(file("realizations.csv"), ("realization",) + SUMMARY_HEADER, rows)
            _write_csv(file("mean_curves.csv"), *_curve_rows(
                {"realizations": ens.curve_realizations, "victims": _counts(ens.sigma_curve)},
                {"sigma_k": ens.sigma_curve, "beta_k": ens.beta_curve, "cc_k": ens.cc_curve},
            ))
            _note(f"wrote {out / 'realizations.csv'} and {out / 'mean_curves.csv'}")
        if args.format in ("json", "both"):
            _write_json(
                file("ensemble.json"),
                config=asdict(cfg),
                realizations=cfg.realizations,
                mean=ens.mean,
                std=ens.std,
                defined=ens.defined,
                k0_of_mean_curve=ens.k0_of_mean_curve,
                k0w_of_mean_curve=ens.k0w_of_mean_curve,
                summaries=summary_rows,
            )
            _note(f"wrote {out / 'ensemble.json'}")
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    out = None if args.out is None else Path(args.out)
    if out is not None and out.is_dir():
        raise _UsageError(f"--out: {args.out!r} is a directory")
    with nullcontext() if out is None else _out_dir(out.parent) as file:
        with _blamed(_InputError, _READ_ERRORS):
            events = _read_events(args.input)
        if not events.groups:
            _note(f"warning: {args.input}: no event records, writing empty output")
        project = project_count if args.scheme == "count" else project_newman
        g = project(events)
        with _blamed(_InputError, ValueError):  # labels the edge-list reader cannot read back
            write_edge_list(g, sys.stdout if file is None else file(out.name))
        if file is not None:
            _note(f"wrote {out} (N={g.node_count}, M={g.edge_count})")
            _write_labels(file(out.name + ".labels.csv"), g)
    return 0


# -- parser -------------------------------------------------------------------


def _at_least_one(text: str) -> int:
    # argparse type; ArgumentTypeError, unlike ValueError, keeps this name out of the message
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return metrics._at_least_one(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_generator_flags(p: argparse.ArgumentParser, default_realizations: int) -> None:
    # one flag per GeneratorConfig field, with its value type, default, help and choices
    for f in fields(GeneratorConfig):
        required = f.default is MISSING
        p.add_argument(f"--{f.name}", type=generate._value_type(f), required=required,
                       default=None if required else f.default, **f.metadata)
    p.set_defaults(realizations=default_realizations)


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--min-samples", type=_at_least_one, default=1,
                   help="minimum victims per degree for the critical-degree search")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gossipnet",
        description="Gossip spreading on weighted networks: analysis, generation, projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="summarize a weighted edge list",
                       description="Compute the coefficient summary and per-degree "
                                   "curves of a weighted edge-list network.")
    p.add_argument("--input", required=True, help="weighted edge-list file")
    p.add_argument("--model", choices=cascade.MODELS, default="both")
    p.add_argument("--out", default=None,
                   help="output directory (omit to print the summary CSV to stdout)")
    _add_report_flags(p)
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
    _add_generator_flags(p, default_realizations=GeneratorConfig.realizations)
    p.add_argument("--out", required=True, help="output directory")
    _add_report_flags(p)
    p.add_argument("--workers", type=_at_least_one, default=1,
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
    # Freeze what the imports made (about 22 000 tracked objects, most of
    # them numpy's) into the permanent generation. Finalization's full
    # collections then skip them, and the workers that sweep forks from this
    # process inherit a frozen heap whose GC headers they never write: the
    # pre-fork recipe of the gc module docs. main() and the library never freeze, since tests
    # and library callers run them inside a live heap.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
