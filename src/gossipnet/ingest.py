"""File ingestion and co-occurrence projection.

Edge-list format: one ``<label> <label> <weight>`` record per line, comments
starting with '#', blank lines ignored, separator auto-detected per file
(comma if the first data line contains one, whitespace otherwise) with an
explicit override. Bipartite event format: ``<group-id> <member-label>``
records; all records sharing a group id form one event, whether or not they
are consecutive.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from os import PathLike
from typing import IO, Iterable, Mapping

from .graph import Label, WeightedGraph, build_graph

SEPARATORS = ("auto", "comma", "whitespace")


class EdgeListError(ValueError):
    """Malformed input file; the message carries the offending line number."""


def _split(line: str, sep: str) -> list[str]:
    if sep == "comma":
        return [f.strip() for f in line.split(",")]
    return line.split()


def _detect_sep(first_data_line: str, sep: str) -> str:
    if sep not in SEPARATORS:
        raise ValueError(f"sep must be one of {SEPARATORS}, got {sep!r}")
    if sep != "auto":
        return sep
    return "comma" if "," in first_data_line else "whitespace"


def _data_lines(path: str | PathLike[str]):
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def parse_edge_list(path: str | PathLike[str], sep: str = "auto") -> WeightedGraph:
    """Parse a weighted edge list into a graph (duplicates merge by sum)."""
    records: list[tuple[str, str, float]] = []
    chosen = None
    for lineno, line in _data_lines(path):
        if chosen is None:
            chosen = _detect_sep(line, sep)
        fields = _split(line, chosen)
        if len(fields) != 3:
            raise EdgeListError(
                f"{path}:{lineno}: expected 3 fields "
                f"({chosen}-separated), got {len(fields)}: {line!r}"
            )
        a, b, w_text = fields
        try:
            w = float(w_text)
        except ValueError:
            raise EdgeListError(f"{path}:{lineno}: non-numeric weight {w_text!r}") from None
        if not math.isfinite(w) or w <= 0.0:
            raise EdgeListError(f"{path}:{lineno}: weight must be positive, got {w_text!r}")
        if a == b:
            raise EdgeListError(f"{path}:{lineno}: self-loop on {a!r}")
        records.append((a, b, w))
    return build_graph(records)


def _label_text(label: Label) -> str:
    text = str(label)
    if not text or any(ch.isspace() for ch in text) or "," in text or text.startswith("#"):
        raise ValueError(f"label {label!r} cannot be written to an edge list")
    return text


def write_edge_list(g: WeightedGraph, dest: str | PathLike[str] | IO[str]) -> None:
    """Write the canonical edge list to a path or a text stream: lines sorted
    by (min-label, max-label), space-separated, weights printed with 17
    significant digits so parsing them back reproduces the exact values.

    Every label is checked before anything is written."""
    rows = []
    for a, b, w in g.edges():
        ta, tb = _label_text(a), _label_text(b)
        if tb < ta:
            ta, tb = tb, ta
        rows.append((ta, tb, w))
    rows.sort(key=lambda r: (r[0], r[1]))
    is_path = isinstance(dest, (str, PathLike))
    with open(dest, "w", encoding="utf-8", newline="\n") if is_path else nullcontext(dest) as fh:
        for ta, tb, w in rows:
            fh.write(f"{ta} {tb} {w:.17g}\n")


def parse_bipartite(path: str | PathLike[str], sep: str = "auto") -> dict[str, list[str]]:
    """Parse group/member records into ordered, deduplicated event groups."""
    pairs: list[tuple[str, str]] = []
    chosen = None
    for lineno, line in _data_lines(path):
        if chosen is None:
            chosen = _detect_sep(line, sep)
        fields = _split(line, chosen)
        if len(fields) != 2:
            raise EdgeListError(
                f"{path}:{lineno}: expected 2 fields "
                f"({chosen}-separated), got {len(fields)}: {line!r}"
            )
        pairs.append((fields[0], fields[1]))
    return _normalize_events(pairs)


def _normalize_events(
    events: Mapping[str, Iterable[str]] | Iterable[tuple[str, str]],
) -> dict[str, list[str]]:
    if isinstance(events, Mapping):
        pairs: Iterable[tuple[str, str]] = (
            (g, m) for g, members in events.items() for m in members
        )
    else:
        pairs = events
    groups: dict[str, list[str]] = {}
    seen: dict[str, set[str]] = {}
    for group, member in pairs:
        members = groups.setdefault(group, [])
        known = seen.setdefault(group, set())
        if member not in known:
            known.add(member)
            members.append(member)
    return groups


def _project(
    events: Mapping[str, Iterable[str]] | Iterable[tuple[str, str]],
    increment,
) -> WeightedGraph:
    groups = _normalize_events(events)
    records: list[tuple[str, str, float]] = []
    for members in groups.values():
        n = len(members)
        if n < 2:
            continue
        w = increment(n)
        for i in range(n):
            for j in range(i + 1, n):
                records.append((members[i], members[j], w))
    # every member is a node, lone ones too, indexed at its first appearance
    return build_graph(records, nodes=(m for members in groups.values() for m in members))


def project_count(
    events: Mapping[str, Iterable[str]] | Iterable[tuple[str, str]],
) -> WeightedGraph:
    """Co-occurrence projection: every pair in a group gains weight 1, so an
    edge weight is the number of shared events. Members of single-member
    groups become isolated nodes."""
    return _project(events, lambda n: 1.0)


def project_newman(
    events: Mapping[str, Iterable[str]] | Iterable[tuple[str, str]],
) -> WeightedGraph:
    """Collaboration projection: every pair in a group of size n gains
    1/(n-1), so each member's strength grows by exactly 1 per event."""
    return _project(events, lambda n: 1.0 / (n - 1))
