"""File ingestion and co-occurrence projection.

Edge-list format: one ``<label> <label> <weight>`` record per line, comments
starting with '#', blank lines ignored, separator auto-detected per file
(comma if the first data line contains one, whitespace otherwise) with an
explicit override. Bipartite event format: ``<group-id> <member-label>``
records; all records sharing a group id form one event, whether or not they
are consecutive.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from os import PathLike
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .graph import WeightedGraph, _from_pairs

SEPARATORS = ("auto", "comma", "whitespace")

#: Characters of text read per block of whole lines; it bounds the reader's
#: temporaries, never the results.
BLOCK = 1 << 20

# the ASCII characters str.split() splits on
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


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


def _open_text(path: str | PathLike[str]) -> IO[str]:
    return open(path, "r", encoding="utf-8-sig", newline=None)


def _data_lines(path: str | PathLike[str]):
    with _open_text(path) as fh:
        yield from _numbered(fh, 0)


def _numbered(lines: Iterable[str], lineno: int) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of the data lines after line ``lineno``."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_edge_list(path: str | PathLike[str], sep: str = "auto") -> WeightedGraph:
    """Parse a weighted edge list into a graph (duplicates merge by sum)."""
    return _from_pairs(*_read_edges(path, sep))


def _read_edges(
    path: str | PathLike[str], sep: str
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """(label index, ends, weights) of an edge-list file's records.

    The file is read in blocks of whole lines. A block of plain whitespace-
    separated records is split, checked and interned at once; any other
    block (comments, non-ASCII text, commas, a malformed line) goes through
    the line loop, which names the first bad line.
    """
    first: dict[str, int] = {}  # label -> position of its first appearance
    positions = itertools.count()
    # an empty part each, so that a file without records concatenates too
    end_parts = [np.empty(0, dtype=np.int64)]
    weight_parts = [np.empty(0, dtype=np.float64)]
    chosen = None
    lineno = 0
    try:
        with _open_text(path) as fh:
            while lines := fh.readlines(BLOCK):
                if chosen is None:  # picked on the first data line
                    data = (line for _, line in _numbered(lines, 0))
                    chosen = next((_detect_sep(line, sep) for line in data), None)
                block = _fast_block(lines, first, positions) if chosen == "whitespace" else None
                if block is None:
                    block = _line_block(path, sep, chosen, lineno, lines, first, positions)
                end_parts.append(block[0])
                weight_parts.append(block[1])
                lineno += len(lines)
    except UnicodeDecodeError:
        # the next block holds undecodable bytes: read it again line by line,
        # so that a malformed line before them is reported first
        with _open_text(path) as fh:
            rest = itertools.islice(fh, lineno, None)
            _line_block(path, sep, chosen, lineno, rest, {}, itertools.count())
        raise
    # dense indices follow first appearance, as build_graph's do
    dense = np.empty(next(positions), dtype=np.int64)
    dense[np.fromiter(first.values(), dtype=np.int64, count=len(first))] = np.arange(len(first))
    return (
        dict(zip(first, range(len(first)))),
        dense[np.concatenate(end_parts)].reshape(-1, 2),
        np.concatenate(weight_parts),
    )


def _fast_block(
    lines: list[str], first: dict[str, int], positions: Iterator[int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """(end positions, weights) of a block of plain whitespace-separated
    records, or None when any line needs the line loop."""
    block = "".join(lines)
    if not block.isascii() or "#" in block:
        return None
    # fields per line: the whitespace just before each token, counted
    # between the newlines that end the lines (after a leading one)
    text = np.frombuffer(("\n" + block).encode("ascii"), dtype=np.uint8)
    space = _ASCII_SPACE[text]
    before_token = np.flatnonzero(space[:-1] & ~space[1:])
    line_starts = np.searchsorted(before_token, np.flatnonzero(text == 10))
    fields = np.diff(line_starts, append=len(before_token))
    if not np.all((fields == 0) | (fields == 3)):
        return None
    tokens = block.split()
    try:
        weights = np.fromiter(map(float, tokens[2::3]), dtype=np.float64, count=len(tokens) // 3)
    except ValueError:
        return None
    if not np.all((weights > 0.0) & (weights < math.inf)):  # NaN fails too
        return None
    del tokens[2::3]
    ends = np.fromiter(map(first.setdefault, tokens, positions), dtype=np.int64, count=len(tokens))
    if np.any(ends[0::2] == ends[1::2]):  # a self-loop, which the line loop reports
        return None
    return ends, weights


def _line_block(path, sep, chosen, lineno, lines, first, positions):
    """(end positions, weights) of the lines after line ``lineno``, read one
    by one; raises EdgeListError naming the first malformed line."""
    ends: list[int] = []
    weights: list[float] = []
    for lineno, line in _numbered(lines, lineno):
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
        ends.append(first.setdefault(a, next(positions)))
        ends.append(first.setdefault(b, next(positions)))
        weights.append(w)
    return np.array(ends, dtype=np.int64), np.array(weights, dtype=np.float64)


def _writable(text: str) -> bool:
    return text.split() == [text] and "," not in text and text[0] != "#"


def write_edge_list(g: WeightedGraph, dest: str | PathLike[str] | IO[str]) -> None:
    """Write the canonical edge list to a path or a text stream: lines sorted
    by (min-label, max-label), space-separated, weights printed with 17
    significant digits so parsing them back reproduces the exact values.

    Every written label is checked before anything is written: it must read
    back as one label, and no two labels may print as the same text."""
    labels = g.labels
    texts = list(map(str, labels))
    rows = np.repeat(np.arange(g.node_count), g._degree)
    upper = g._indices > rows
    a, b, w = rows[upper], g._indices[upper], g._weights[upper]
    del rows, upper
    bad = np.array([not _writable(t) for t in texts], dtype=bool)
    bad_edges = bad[a] | bad[b]
    if bad_edges.any():
        e = int(np.argmax(bad_edges))  # name the first one in edge order
        v = a[e] if bad[a[e]] else b[e]
        raise ValueError(f"label {labels[v]!r} cannot be written to an edge list")
    owner: dict[str, int] = {}
    for v in np.flatnonzero(g._degree).tolist():
        u = owner.setdefault(texts[v], v)
        if u != v:
            raise ValueError(
                f"labels {labels[u]!r} and {labels[v]!r} are both written as {texts[v]!r}"
            )
    by_text = sorted(range(len(texts)), key=texts.__getitem__)
    rank = np.empty(len(texts), dtype=np.int64)
    rank[by_text] = np.arange(len(texts))
    lo, hi = np.minimum(rank[a], rank[b]), np.maximum(rank[a], rank[b])
    order = np.lexsort((hi, lo))
    ranked = np.array(texts, dtype=object)[by_text]
    # each distinct weight is formatted once
    values, value_of = np.unique(w[order], return_inverse=True)
    value_texts = np.array([f"{x:.17g}" for x in values.tolist()], dtype=object)
    lines = map("{} {} {}\n".format, ranked[lo[order]], ranked[hi[order]], value_texts[value_of])
    is_path = isinstance(dest, (str, PathLike))
    with open(dest, "w", encoding="utf-8", newline="\n") if is_path else nullcontext(dest) as fh:
        fh.write("".join(lines))


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
    # every member is a node, lone ones too, indexed at its first appearance
    members = list(itertools.chain.from_iterable(groups.values()))
    index = dict(zip(dict.fromkeys(members), itertools.count()))
    member_ids = np.fromiter(map(index.__getitem__, members), dtype=np.int64, count=len(members))
    sizes = np.array([len(m) for m in groups.values()], dtype=np.int64)
    group_weights = [increment(n) if n > 1 else 0.0 for n in sizes.tolist()]
    return _from_pairs(index, *_group_pairs(member_ids, sizes, group_weights))


def _group_pairs(member_ids: np.ndarray, sizes: np.ndarray, group_weights: list[float]):
    """(ends, weights) of every pair of members of a group, group by group
    and in row-major order within a group: the member at position i pairs
    with each later member j."""
    starts = np.cumsum(sizes) - sizes
    later = np.repeat(sizes + starts, sizes) - 1 - np.arange(len(member_ids))
    first = np.repeat(np.arange(len(member_ids)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    ends = np.column_stack((member_ids[first], member_ids[second]))
    return ends, np.repeat(np.array(group_weights, dtype=np.float64), sizes)[first]


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
