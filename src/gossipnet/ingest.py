"""File ingestion and co-occurrence projection.

Edge-list format: one ``<label> <label> <weight>`` record per line, comments
starting with '#', blank lines ignored, separator auto-detected per file
(comma if the first data line contains one, whitespace otherwise) with an
explicit override. Bipartite event format: ``<group-id> <member-label>``
records; all records sharing a group id form one event, whether or not they
are consecutive. Both formats are read in blocks of whole lines, with the
errors and line numbers of a line-by-line read.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from os import PathLike
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .graph import WeightedGraph, _from_pairs, _pairs_after

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
    """Parse a weighted edge list into a graph (duplicates merge by sum);
    dense indices follow first appearance, as build_graph's do."""
    labels = _Labels()
    ends, weights = _read_blocks(
        path, sep, 3, lambda tokens: _fast_edges(tokens, labels), _check_edge
    )
    names, ends = labels.dense(ends)
    del labels  # free its position table before the graph is built
    return _from_pairs(dict(zip(names, range(len(names)))), ends.reshape(-1, 2), weights)


class _Labels:
    """Labels interned in order of first appearance. Every field read takes
    the next position; a label keeps the position of its first field."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.positions = itertools.count()

    def intern_all(self, labels: list) -> np.ndarray:
        return np.fromiter(
            map(self.first.setdefault, labels, self.positions), dtype=np.int64, count=len(labels)
        )

    def dense(self, positions: np.ndarray) -> tuple[list, np.ndarray]:
        """(labels in order of first appearance, the dense index of each of
        ``positions``), in O(fields), where a ``np.unique`` would sort."""
        table = np.empty(next(self.positions), dtype=np.int64)
        table[np.fromiter(self.first.values(), dtype=np.int64, count=len(self.first))] = (
            np.arange(len(self.first))
        )
        return list(self.first), table[positions]


def _read_blocks(path, sep: str, n_fields: int, plain, check) -> list[np.ndarray]:
    """The columns of a file's ``n_fields``-field records, read in blocks of
    whole lines.

    A whitespace-separated block of plain records is split at once. Any
    other block (commas, comments, non-ASCII text, a malformed line), or one
    that ``plain`` turns down by returning None, is read line by line by
    ``_records``, which checks each record with ``check`` and names the
    first bad line. Either way the block's tokens go to ``plain(tokens)``,
    which returns a tuple of arrays, one per column.
    """
    parts = []
    chosen = None
    lineno = 0
    try:
        with _open_text(path) as fh:
            while lines := fh.readlines(BLOCK):
                if chosen is None:  # picked on the first data line
                    data = (line for _, line in _numbered(lines, 0))
                    chosen = next((_detect_sep(line, sep) for line in data), None)
                tokens = _fast_block(lines, n_fields) if chosen == "whitespace" else None
                part = None if tokens is None else plain(tokens)
                del tokens  # free this block's strings before the next is read
                if part is None:
                    part = plain(_records(path, sep, chosen, lineno, lines, n_fields, check))
                parts.append(part)
                lineno += len(lines)
    except UnicodeDecodeError:
        # the next block holds undecodable bytes: read it again line by line,
        # so that a malformed line before them is reported first
        with _open_text(path) as fh:
            rest = itertools.islice(fh, lineno, None)
            _records(path, sep, chosen, lineno, rest, n_fields, check)
        raise
    if not parts:  # no lines: empty columns
        parts.append(plain([]))
    return [np.concatenate(column) for column in zip(*parts)]


def _fast_block(lines: list[str], n_fields: int) -> list[str] | None:
    """The tokens of a block of whitespace-separated records of ``n_fields``
    fields each, or None when any line needs the line loop."""
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
    if not np.all((fields == 0) | (fields == n_fields)):
        return None
    return block.split()


def _fast_edges(tokens: list[str], labels: _Labels) -> tuple[np.ndarray, np.ndarray] | None:
    """(end positions, weights) of a block's tokens, or None when any record
    needs the line loop."""
    try:
        weights = np.fromiter(map(float, tokens[2::3]), dtype=np.float64, count=len(tokens) // 3)
    except ValueError:
        return None
    if not np.all((weights > 0.0) & (weights < math.inf)):  # NaN fails too
        return None
    del tokens[2::3]
    ends = labels.intern_all(tokens)
    if np.any(ends[0::2] == ends[1::2]):  # a self-loop, which the line loop reports
        return None
    return ends, weights


def _records(path, sep, chosen, lineno, lines, n_fields, check) -> list[str]:
    """The fields of the data lines after line ``lineno``, read one by one;
    raises EdgeListError naming the first line without ``n_fields`` fields
    or whose fields ``check(path, lineno, fields)`` refuses."""
    tokens: list[str] = []
    for lineno, line in _numbered(lines, lineno):
        if chosen is None:
            chosen = _detect_sep(line, sep)
        fields = _split(line, chosen)
        if len(fields) != n_fields:
            raise EdgeListError(
                f"{path}:{lineno}: expected {n_fields} fields "
                f"({chosen}-separated), got {len(fields)}: {line!r}"
            )
        check(path, lineno, fields)
        tokens += fields
    return tokens


def _check_edge(path, lineno: int, fields: list[str]) -> None:
    """Raise EdgeListError naming line ``lineno`` if its edge record has a
    weight that is not positive and finite, or is a self-loop."""
    a, b, w_text = fields
    try:
        w = float(w_text)
    except ValueError:
        raise EdgeListError(f"{path}:{lineno}: non-numeric weight {w_text!r}") from None
    if not math.isfinite(w) or w <= 0.0:
        raise EdgeListError(f"{path}:{lineno}: weight must be positive, got {w_text!r}")
    if a == b:
        raise EdgeListError(f"{path}:{lineno}: self-loop on {a!r}")


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
    a, b, w = g._upper()
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


class _Events(NamedTuple):
    """Event records as dense indices, both in order of first appearance."""

    groups: list
    group_ids: np.ndarray
    members: list
    member_ids: np.ndarray


def _read_events(path: str | PathLike[str], sep: str) -> _Events:
    """The records of a bipartite event file, read in blocks like an edge list."""
    groups, members = _Labels(), _Labels()

    def plain(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
        return groups.intern_all(tokens[0::2]), members.intern_all(tokens[1::2])

    # any two fields are an event record
    group_pos, member_pos = _read_blocks(path, sep, 2, plain, lambda *_: None)
    return _Events(*groups.dense(group_pos), *members.dense(member_pos))


def _to_events(
    events: Mapping[str, Iterable[str]] | Iterable[tuple[str, str]],
) -> _Events:
    if isinstance(events, _Events):  # read already; it is a tuple too
        return events
    if isinstance(events, Mapping):
        events = ((g, m) for g, members in events.items() for m in members)
    pairs = list(events)
    groups, members = _Labels(), _Labels()
    return _Events(*groups.dense(groups.intern_all([g for g, _ in pairs])),
                   *members.dense(members.intern_all([m for _, m in pairs])))


def _normalize(events: _Events) -> tuple[list, np.ndarray, np.ndarray]:
    """(member labels, member indices, group sizes) of the events without
    repeats: the first record of each (group, member) pair, group by group,
    in record order within a group; members are indexed by their first
    appearance in that sequence."""
    g, m = events.group_ids, events.member_ids
    _, kept = np.unique(g * len(events.members) + m, return_index=True)
    kept = kept[np.lexsort((kept, g[kept]))]
    m = m[kept]
    _, first = np.unique(m, return_index=True)  # every member has a kept record
    order = np.argsort(first)
    index = np.empty_like(order)
    index[order] = np.arange(len(order))
    labels = [events.members[i] for i in order.tolist()]
    return labels, index[m], np.bincount(g[kept], minlength=len(events.groups))


def parse_bipartite(path: str | PathLike[str], sep: str = "auto") -> dict[str, list[str]]:
    """Parse group/member records into ordered, deduplicated event groups."""
    events = _read_events(path, sep)
    labels, member_ids, sizes = _normalize(events)
    members = [labels[i] for i in member_ids.tolist()]
    ends = np.cumsum(sizes).tolist()
    return {g: members[b - n:b] for g, n, b in zip(events.groups, sizes.tolist(), ends)}


def _project(events: _Events, increment) -> WeightedGraph:
    labels, member_ids, sizes = _normalize(events)
    # every member is a node, lone ones too
    group_weights = [increment(n) if n > 1 else 0.0 for n in sizes.tolist()]
    index = dict(zip(labels, itertools.count()))
    return _from_pairs(index, *_group_pairs(member_ids, sizes, group_weights))


def _group_pairs(member_ids: np.ndarray, sizes: np.ndarray, group_weights: list[float]):
    """(ends, weights) of every pair of members of a group, group by group
    and in row-major order within a group: the member at position i pairs
    with each later member j."""
    starts = np.cumsum(sizes) - sizes
    later = np.repeat(sizes + starts, sizes) - 1 - np.arange(len(member_ids))
    first, second = _pairs_after(later, 0)
    ends = np.column_stack((member_ids[first], member_ids[second]))
    return ends, np.repeat(np.array(group_weights, dtype=np.float64), sizes)[first]


def project_count(
    events: Mapping[str, Iterable[str]] | Iterable[tuple[str, str]],
) -> WeightedGraph:
    """Co-occurrence projection: every pair in a group gains weight 1, so an
    edge weight is the number of shared events. Members of single-member
    groups become isolated nodes."""
    return _project(_to_events(events), lambda n: 1.0)


def project_newman(
    events: Mapping[str, Iterable[str]] | Iterable[tuple[str, str]],
) -> WeightedGraph:
    """Collaboration projection: every pair in a group of size n gains
    1/(n-1), so each member's strength grows by exactly 1 per event."""
    return _project(_to_events(events), lambda n: 1.0 / (n - 1))
