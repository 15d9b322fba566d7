"""Edge-list parsing/writing and bipartite co-occurrence projection."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from gossipnet import (
    EdgeListError,
    ingest,
    parse_bipartite,
    parse_edge_list,
    project_count,
    project_newman,
    write_edge_list,
)
from gossipnet.graph import build_graph

from .conftest import assert_same_graph


class TestParseEdgeList:
    def test_whitespace_with_comments(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("a b 1.5\n# note\n\nb c 2\n")
        g = parse_edge_list(p)
        assert g.node_count == 3 and g.edge_count == 2
        assert g.weight("a", "b") == 1.5

    def test_comma_autodetected(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("a, b, 1.5\nb,c,2\n")
        g = parse_edge_list(p)
        assert g.edge_count == 2 and g.weight("b", "c") == 2.0

    def test_explicit_separator_override(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b 1\n")
        with pytest.raises(EdgeListError, match=":1:"):
            parse_edge_list(p, sep="comma")
        with pytest.raises(ValueError, match="sep"):
            parse_edge_list(p, sep="tabs")

    def test_crlf_tolerated(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_bytes(b"a b 1\r\nb c 2\r\n")
        assert parse_edge_list(p).edge_count == 2

    def test_duplicates_merge(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("a b 1\nb a 2.5\n")
        g = parse_edge_list(p)
        assert g.edge_count == 1
        assert g.weight("a", "b") == 3.5

    @pytest.mark.parametrize(
        "line,match",
        [
            ("a b -1", ":1:.*positive"),
            ("a b 0", ":1:.*positive"),
            ("a b inf", ":1:.*positive"),
            ("a b x", ":1:.*non-numeric"),
            ("a a 1", ":1:.*self-loop"),
            ("a b", ":1:.*3 fields"),
            ("a b 1 extra", ":1:.*3 fields"),
        ],
    )
    def test_malformed_lines_report_numbers(self, tmp_path, line, match):
        p = tmp_path / "bad.edges"
        p.write_text(line + "\n")
        with pytest.raises(EdgeListError, match=match):
            parse_edge_list(p)

    def test_bom_before_comment(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_bytes("\ufeff# exported\na b 1\n".encode("utf-8"))
        g = parse_edge_list(p)
        assert g.labels == ("a", "b")

    def test_bom_not_part_of_first_label(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_bytes("\ufeffa b 1\nb c 1\nc a 1\n".encode("utf-8"))
        g = parse_edge_list(p)
        assert g.node_count == 3
        assert sorted(g.labels) == ["a", "b", "c"]

    def test_error_carries_real_line_number(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("# header\na b 1\n\na b -1\n")
        with pytest.raises(EdgeListError, match=":4:"):
            parse_edge_list(p)


def reference_records(path, sep: str = "auto") -> list[tuple[str, str, float]]:
    """The records of an edge list read one line at a time: the reader's
    specification, errors and line numbers included."""
    records, chosen = [], None
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if chosen is None:
                if sep not in ("auto", "comma", "whitespace"):
                    raise ValueError(f"bad sep {sep!r}")
                chosen = sep if sep != "auto" else "comma" if "," in line else "whitespace"
            if chosen == "comma":
                fields = [f.strip() for f in line.split(",")]
            else:
                fields = line.split()
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
    return records


def reference_error(path, sep: str = "auto") -> Exception:
    with pytest.raises(Exception) as info:
        reference_records(path, sep)
    return info.value


LABELS = [f"n{i}" for i in range(25)] + ["\u00e9t\u00e9", "x#y", "\u00df", "q,r", "1_0"]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", " \x1f ", "\u2003", "\xa0"]
WEIGHTS = ["1", "2", "0.25", "1_000", "1e-3", "2.5E2", "+3", "7.", "0.1"]


def mixed_edge_file(rng: np.random.Generator, comma: bool = False) -> bytes:
    """A seeded edge list that mixes plain lines with every case the reader
    must hand to its line loop or skip: comments, ``#`` and non-ASCII labels,
    unusual separators, blank and whitespace-only lines, CRLF and lone CR
    endings, a BOM, repeated pairs and a last line without a newline."""
    plain = [lab for lab in LABELS if lab.startswith("n")]
    parts = ["\ufeff" if rng.random() < 0.3 else "", "n0, n1, 1\n" if comma else "n0 n1 1\n"]
    for _ in range(int(rng.integers(20, 120))):
        dirty = rng.random() < 0.15
        pool = LABELS if dirty and not comma else plain
        a, b = rng.choice(len(pool), size=2, replace=False).tolist()
        sep = ", " if comma else SEPARATORS[int(rng.integers(len(SEPARATORS)))] if dirty else " "
        w = WEIGHTS[int(rng.integers(len(WEIGHTS)))] if dirty else str(int(rng.integers(1, 6)))
        end = ["\n", "\r\n", "\r"][int(rng.integers(3))] if dirty else "\n"
        r = rng.random()
        if dirty and r < 0.2:
            comments = ["# note\n", "  # indented\n", "#n1 n2 3\n", "\n", " \t \x1c\n", "#\r"]
            parts.append(comments[int(rng.integers(len(comments)))])
        lead = " " if dirty and r > 0.9 else ""
        parts.append(f"{lead}{pool[a]}{sep}{pool[b]}{sep}{w}{end}")
    if rng.random() < 0.5:
        parts[-1] = parts[-1].rstrip("\r\n")
    return "".join(parts).encode("utf-8")


class TestBlockReader:
    @pytest.mark.parametrize("block", [1, 40, 200, ingest.BLOCK])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_graph_as_line_reader(self, tmp_path, monkeypatch, seed, block):
        monkeypatch.setattr(ingest, "BLOCK", block)
        rng = np.random.default_rng(seed)
        p = tmp_path / "g.edges"
        p.write_bytes(mixed_edge_file(rng, comma=seed % 4 == 3))
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))

    def test_plain_blocks_skip_the_line_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK", 40)
        calls = []
        records = ingest._records
        monkeypatch.setattr(ingest, "_records", lambda *a: calls.append(a[3]) or records(*a))
        p = tmp_path / "g.edges"
        lines = [f"n{i} n{i + 1} {i % 4 + 1}\n" for i in range(60)]
        p.write_text("".join(lines))
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))
        assert calls == []
        lines[30] = "n30 \u00e9 2\n"
        p.write_text("".join(lines))
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))
        assert len(calls) == 1 and calls[0] < 30  # only the block of line 31

    @pytest.mark.parametrize("block", [40, ingest.BLOCK])
    @pytest.mark.parametrize("at", [0, 3, 150, 199])
    @pytest.mark.parametrize(
        "bad",
        ["a b", "a b 1 2", "a b nan", "a b inf", "a b -inf", "a b 0", "a b -0", "a b -1",
         "a b 1e400", "a b x", "a a 1", "a b 1 # note", "a b 0x1", "a b\x1f2 1", "a\x1cb\x1c1 2"],
    )
    def test_same_error_as_line_reader(self, tmp_path, monkeypatch, bad, at, block):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"{i} {i + 1} {i % 3 + 1}\n" for i in range(200)]  # misread fields still parse
        lines[at] = bad + "\n"
        lines[-1] = "z z 1\n"  # a second error after the first
        p = tmp_path / "bad.edges"
        p.write_text("".join(lines))
        expected = reference_error(p)
        assert f":{at + 1}:" in str(expected)
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(p)
        assert str(info.value) == str(expected)

    @pytest.mark.parametrize("block", [40, ingest.BLOCK])
    def test_bad_line_before_undecodable_bytes_is_reported(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"n{i} n{i + 1} 1\n".encode() for i in range(3000)]
        lines[5] = b"a b -1\n"
        lines[2500] = b"n\xff n0 1\n"
        p = tmp_path / "bad.edges"
        p.write_bytes(b"".join(lines))
        with pytest.raises(EdgeListError, match=":6:.*positive") as info:
            parse_edge_list(p)
        assert str(info.value) == str(reference_error(p))
        lines[5] = b"a b 1\n"
        p.write_bytes(b"".join(lines))
        expected = reference_error(p)
        assert isinstance(expected, UnicodeDecodeError)
        with pytest.raises(UnicodeDecodeError) as info:
            parse_edge_list(p)
        assert str(info.value) == str(expected)

    def test_separator_chosen_on_first_data_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK", 40)
        p = tmp_path / "g.edges"
        p.write_text("# a, b, c\n" * 10 + "a b 1\nx,y z 2\n")
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))
        assert parse_edge_list(p).has_node("x,y")
        p.write_text("\n" * 10 + "a,b,1\nc, d , 2\n")
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))
        p.write_text("a b 1\n" * 10)
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(p, sep="comma")
        assert str(info.value) == str(reference_error(p, "comma"))

    def test_unknown_separator_raises_only_on_data(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# only a comment\n\n")
        assert parse_edge_list(p, sep="tabs").node_count == 0
        p.write_text("# only a comment\na b 1\n")
        with pytest.raises(ValueError, match="sep"):
            parse_edge_list(p, sep="tabs")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("")
        g = parse_edge_list(p)
        assert g.node_count == 0 and g.edge_count == 0


class TestWriteEdgeList:
    def test_canonical_sorted_output(self, tmp_path):
        g = build_graph([("z", "m", 1.0), ("a", "z", 2.0)])
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        assert p.read_text() == "a z 2\nm z 1\n"

    def test_weights_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            (f"n{i}", f"n{i + 1}", float(w))
            for i, w in enumerate(rng.uniform(0.001, 100.0, size=200))
        ]
        g = build_graph(records)
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        back = parse_edge_list(p)
        for a, b, w in g.edges():
            assert back.weight(a, b) == w

    def test_rejects_unwritable_labels(self, tmp_path):
        g = build_graph([("a b", "c", 1.0)])
        with pytest.raises(ValueError, match="label"):
            write_edge_list(g, tmp_path / "g.edges")

    def test_unwritable_label_leaves_no_file(self, tmp_path):
        g = build_graph([("a", "b", 1.0), ("b", "#c", 1.0)])
        with pytest.raises(ValueError, match="label"):
            write_edge_list(g, tmp_path / "g.edges")
        assert not (tmp_path / "g.edges").exists()

    def test_labels_with_one_text_are_refused(self, tmp_path):
        # 1 and "1" would both be written as 1 and read back as one node
        g = build_graph([(1, "x", 1.0), ("1", "y", 2.0), ("x", "y", 1.0)])
        with pytest.raises(ValueError, match="labels 1 and '1' are both written as '1'"):
            write_edge_list(g, tmp_path / "g.edges")
        assert not (tmp_path / "g.edges").exists()
        stream = io.StringIO()
        with pytest.raises(ValueError, match="both written"):
            write_edge_list(g, stream)
        assert stream.getvalue() == ""

    def test_isolated_labels_are_not_written(self, tmp_path):
        g = build_graph([("a", "b", 1.0)], nodes=["a b", "", "b", "a"])
        stream = io.StringIO()
        write_edge_list(g, stream)
        assert stream.getvalue() == "a b 1\n"

    def test_first_unwritable_label_in_edge_order_is_named(self):
        g = build_graph([("ok", "late,", 1.0), ("#early", "other", 1.0)],
                        nodes=["ok", "#early", "other", "late,"])
        with pytest.raises(ValueError, match="'late,'"):
            write_edge_list(g, io.StringIO())

    @pytest.mark.parametrize("seed", range(6))
    def test_same_bytes_as_record_sort(self, seed):
        # the writer's specification: every edge as (smaller text, larger
        # text, weight), sorted by the two texts
        rng = np.random.default_rng(seed)
        pool = [f"v{i}" for i in range(40)] + [str(i) for i in range(5, 40, 7)] + ["\u00e9", "Z"]
        records = []
        for _ in range(150):
            a, b = rng.choice(len(pool), size=2, replace=False).tolist()
            w = float(rng.integers(1, 4)) if seed % 2 else float(rng.uniform(0.01, 9.0))
            records.append((pool[a], pool[b], w))
        g = build_graph(records)
        rows = sorted((min(str(a), str(b)), max(str(a), str(b)), w) for a, b, w in g.edges())
        expected = "".join(f"{a} {b} {w:.17g}\n" for a, b, w in rows)
        stream = io.StringIO()
        write_edge_list(g, stream)
        assert stream.getvalue() == expected
        ints = build_graph([(int(rng.integers(0, 30)) * 2, 2 * int(rng.integers(0, 30)) + 1, 1.5)
                            for _ in range(60)])
        rows = sorted((min(str(a), str(b)), max(str(a), str(b)), w) for a, b, w in ints.edges())
        stream = io.StringIO()
        write_edge_list(ints, stream)
        assert stream.getvalue() == "".join(f"{a} {b} {w:.17g}\n" for a, b, w in rows)

    def test_stream_matches_file(self, tmp_path):
        g = build_graph([("z", "m", 1.5), ("a", "z", 2.0), ("m", "a", 1e-3)])
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        stream = io.StringIO()
        write_edge_list(g, stream)
        assert stream.getvalue() == p.read_text(encoding="utf-8")


class TestParseBipartite:
    def test_groups_merge_even_when_scattered(self, tmp_path):
        p = tmp_path / "ev.txt"
        p.write_text("g1 a\ng2 x\ng1 b\n# c\ng2 y\n")
        events = parse_bipartite(p)
        assert events == {"g1": ["a", "b"], "g2": ["x", "y"]}

    def test_duplicate_members_collapse(self, tmp_path):
        p = tmp_path / "ev.txt"
        p.write_text("g a\ng a\ng b\n")
        assert parse_bipartite(p) == {"g": ["a", "b"]}

    def test_bom_before_comment(self, tmp_path):
        p = tmp_path / "ev.txt"
        p.write_bytes("\ufeff# exported\ng a\ng b\n".encode("utf-8"))
        assert parse_bipartite(p) == {"g": ["a", "b"]}

    def test_bom_not_part_of_first_group(self, tmp_path):
        p = tmp_path / "ev.txt"
        p.write_bytes("\ufeffg a\ng b\n".encode("utf-8"))
        assert parse_bipartite(p) == {"g": ["a", "b"]}

    def test_field_count_checked(self, tmp_path):
        p = tmp_path / "ev.txt"
        p.write_text("g a b\n")
        with pytest.raises(EdgeListError, match=":1:.*2 fields"):
            parse_bipartite(p)


def reference_events(path, sep: str = "auto") -> list[tuple[str, str]]:
    """The records of an event file read one line at a time: the reader's
    specification, errors and line numbers included."""
    records, chosen = [], None
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if chosen is None:
                if sep not in ("auto", "comma", "whitespace"):
                    raise ValueError(f"bad sep {sep!r}")
                chosen = sep if sep != "auto" else "comma" if "," in line else "whitespace"
            if chosen == "comma":
                fields = [f.strip() for f in line.split(",")]
            else:
                fields = line.split()
            if len(fields) != 2:
                raise EdgeListError(
                    f"{path}:{lineno}: expected 2 fields "
                    f"({chosen}-separated), got {len(fields)}: {line!r}"
                )
            records.append((fields[0], fields[1]))
    return records


def read_records(path, sep: str = "auto") -> list[tuple[str, str]]:
    """The records the block reader returns, as labels, in record order."""
    events = ingest._read_events(path, sep)
    return [(events.groups[g], events.members[m])
            for g, m in zip(events.group_ids.tolist(), events.member_ids.tolist())]


def mixed_event_file(rng: np.random.Generator, comma: bool = False) -> bytes:
    """A seeded event file that mixes plain lines with the cases the reader
    must hand to its line loop or skip, as ``mixed_edge_file`` does; events
    are scattered, repeat members and may have one member."""
    plain = [lab for lab in LABELS if lab.startswith("n")]
    parts = ["\ufeff" if rng.random() < 0.3 else "", "e0, n0\n" if comma else "e0 n0\n"]
    for _ in range(int(rng.integers(20, 120))):
        dirty = rng.random() < 0.15
        pool = LABELS if dirty and not comma else plain
        group = f"e{int(rng.integers(0, 12))}" if rng.random() < 0.9 else pool[-1]
        member = pool[int(rng.integers(len(pool)))]
        sep = ", " if comma else SEPARATORS[int(rng.integers(len(SEPARATORS)))] if dirty else " "
        end = ["\n", "\r\n", "\r"][int(rng.integers(3))] if dirty else "\n"
        if dirty and rng.random() < 0.2:
            comments = ["# note\n", "  # indented\n", "#e1 n2\n", "\n", " \t \x1c\n", "#\r"]
            parts.append(comments[int(rng.integers(len(comments)))])
        parts.append(f"{group}{sep}{member}{end}")
    if rng.random() < 0.5:
        parts[-1] = parts[-1].rstrip("\r\n")
    return "".join(parts).encode("utf-8")


class TestEventReader:
    @pytest.mark.parametrize("block", [1, 40, 200, ingest.BLOCK])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_records_as_line_reader(self, tmp_path, monkeypatch, seed, block):
        monkeypatch.setattr(ingest, "BLOCK", block)
        p = tmp_path / "events.txt"
        p.write_bytes(mixed_event_file(np.random.default_rng(seed), comma=seed % 4 == 3))
        records = reference_events(p)
        assert read_records(p) == records
        assert parse_bipartite(p) == reference_groups(records)
        events = ingest._read_events(p, "auto")
        for project, increment in [(project_count, lambda n: 1.0),
                                   (project_newman, lambda n: 1.0 / (n - 1))]:
            assert_same_graph(project(events), reference_projection(records, increment))

    def test_plain_blocks_skip_the_line_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK", 40)
        calls = []
        records = ingest._records
        monkeypatch.setattr(ingest, "_records",
                            lambda *a: calls.append(a[3]) or records(*a))
        p = tmp_path / "events.txt"
        lines = [f"e{i % 7} n{i}\n" for i in range(60)]
        p.write_text("".join(lines))
        assert read_records(p) == reference_events(p)
        assert calls == []
        for line in ["e2 \u00e9t\u00e9\n", "x#1 n30\n", "\t#e1 n30\n", "e2\u2003n30\n"]:
            p.write_text("".join(lines[:30] + [line] + lines[31:]))
            calls.clear()
            assert read_records(p) == reference_events(p)
            assert len(calls) == 1 and calls[0] < 30  # only the block of line 31

    @pytest.mark.parametrize("block", [40, ingest.BLOCK])
    @pytest.mark.parametrize("at", [0, 3, 150, 199])
    @pytest.mark.parametrize(
        "bad", ["g", "g a b", "g a b c", "g\x1fa\x1fb", "g a # c", "g\u2003a b"]
    )
    def test_same_error_as_line_reader(self, tmp_path, monkeypatch, bad, at, block):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"g{i % 7} m{i}\n" for i in range(200)]
        lines[at] = bad + "\n"
        lines[-1] = "z\n"  # a second error after the first
        p = tmp_path / "bad.txt"
        p.write_text("".join(lines))
        expected = reference_error_events(p)
        assert f":{at + 1}:" in str(expected)
        with pytest.raises(EdgeListError) as info:
            parse_bipartite(p)
        assert str(info.value) == str(expected)

    @pytest.mark.parametrize("block", [40, ingest.BLOCK])
    def test_bad_line_before_undecodable_bytes_is_reported(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"g{i % 5} n{i}\n".encode() for i in range(3000)]
        lines[5] = b"g a b\n"
        lines[2500] = b"g \xffn\n"
        p = tmp_path / "bad.txt"
        p.write_bytes(b"".join(lines))
        with pytest.raises(EdgeListError, match=":6:.*2 fields") as info:
            parse_bipartite(p)
        assert str(info.value) == str(reference_error_events(p))
        lines[5] = b"g a\n"
        p.write_bytes(b"".join(lines))
        expected = reference_error_events(p)
        assert isinstance(expected, UnicodeDecodeError)
        with pytest.raises(UnicodeDecodeError) as info:
            parse_bipartite(p)
        assert str(info.value) == str(expected)

    def test_comma_separated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK", 40)
        p = tmp_path / "events.csv"
        p.write_text("# group, member\n" + "".join(f"g{i % 3}, a b{i}\n" for i in range(30)))
        assert read_records(p) == reference_events(p)
        assert parse_bipartite(p)["g1"][:2] == ["a b1", "a b4"]
        p.write_text("g1 a\ng1 b\n")
        with pytest.raises(EdgeListError) as info:
            parse_bipartite(p, sep="comma")
        assert str(info.value) == str(reference_error_events(p, "comma"))
        assert parse_bipartite(p, sep="whitespace") == {"g1": ["a", "b"]}

    @pytest.mark.parametrize("text", ["", "\ufeff", "# only\n\n  \t\n", "\ufeff#x\r\n#y"])
    def test_no_records(self, tmp_path, text):
        p = tmp_path / "events.txt"
        p.write_text(text, encoding="utf-8")
        assert parse_bipartite(p) == {}
        assert read_records(p) == []
        assert project_count(parse_bipartite(p)).node_count == 0


def reference_error_events(path, sep: str = "auto") -> Exception:
    with pytest.raises(Exception) as info:
        reference_events(path, sep)
    return info.value


def reference_groups(events) -> dict:
    """Events as ordered groups of distinct members, built one record at a
    time from a mapping or from (group, member) records."""
    groups: dict = {}
    pairs = ((g, m) for g, ms in events.items() for m in ms) if isinstance(events, dict) else events
    for group, member in pairs:
        members = groups.setdefault(group, [])
        if member not in members:
            members.append(member)
    return groups


def reference_projection(events, increment):
    """The projection's specification: one record per pair of members of a
    group, group by group, built record by record."""
    groups = reference_groups(events)
    records = [
        (members[i], members[j], increment(len(members)))
        for members in groups.values()
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]
    return build_graph(records, nodes=[m for members in groups.values() for m in members])


class TestProjection:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_graph_as_record_projection(self, seed):
        rng = np.random.default_rng(seed)
        events = [(f"e{int(rng.integers(0, 40))}", f"m{int(rng.integers(0, 60))}")
                  for _ in range(300)]
        assert_same_graph(project_count(events), reference_projection(events, lambda n: 1.0))
        assert_same_graph(project_newman(events),
                          reference_projection(events, lambda n: 1.0 / (n - 1)))

    def test_no_events(self):
        assert project_count({}).node_count == 0
        assert project_newman({"g": ["solo"]}).labels == ("solo",)

    def test_count_single_group(self):
        g = project_count({"p": ["A", "B", "C"]})
        assert g.edge_count == 3
        for a, b in (("A", "B"), ("A", "C"), ("B", "C")):
            assert g.weight(a, b) == 1.0

    def test_count_repeated_pair(self):
        g = project_count([("p1", "A"), ("p1", "B"), ("p2", "A"), ("p2", "B")])
        assert g.edge_count == 1
        assert g.weight("A", "B") == 2.0

    def test_singleton_group_is_isolated_node(self):
        g = project_count({"p1": ["A", "B"], "p2": ["C"]})
        assert g.node_count == 3
        assert g.degree("C") == 0

    def test_newman_single_group(self):
        g = project_newman({"p": ["A", "B", "C"]})
        for a, b in (("A", "B"), ("A", "C"), ("B", "C")):
            assert g.weight(a, b) == 0.5

    def test_newman_pair_group(self):
        g = project_newman({"p": ["A", "B"]})
        assert g.weight("A", "B") == 1.0

    def test_newman_strength_grows_one_per_event(self):
        # two 3-member events with disjoint partners for A
        g = project_newman({"p1": ["A", "B", "C"], "p2": ["A", "D", "E"]})
        assert g.strength("A") == pytest.approx(2.0)

    def test_schemes_share_topology(self):
        events = {"p1": ["A", "B", "C"], "p2": ["B", "C", "D"], "p3": ["E", "A"]}
        gc = project_count(events)
        gn = project_newman(events)
        ec = {frozenset((a, b)) for a, b, _ in gc.edges()}
        en = {frozenset((a, b)) for a, b, _ in gn.edges()}
        assert ec == en

    def test_count_weights_are_integers(self):
        rng = np.random.default_rng(11)
        events = {
            f"p{i}": [f"m{int(x)}" for x in rng.integers(0, 20, size=rng.integers(1, 6))]
            for i in range(30)
        }
        g = project_count(events)
        for _, _, w in g.edges():
            assert w == int(w)

    def test_group_adds_binomial_pair_weight(self):
        for n in (2, 3, 5, 8):
            g = project_count({"p": [f"m{i}" for i in range(n)]})
            total = math.fsum(w for _, _, w in g.edges())
            assert total == n * (n - 1) / 2

    def test_duplicate_member_in_one_event_counts_once(self):
        g = project_count([("p", "A"), ("p", "B"), ("p", "A")])
        assert g.weight("A", "B") == 1.0
