"""Edge-list parsing/writing and bipartite co-occurrence projection."""

from __future__ import annotations

import contextlib
import io
import math
import tracemalloc

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

# a block larger than every file these tests write: the whole file is one block
WHOLE_FILE = 1 << 20


def traced(call):
    """(result, bytes still held, peak bytes) of ``call()`` under tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


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

    def test_memory_over_the_graph_is_bounded(self, tmp_path):
        # a seeded, triangle-poor list of 1e5 edges over 60 000 labels: the
        # reader's and the builder's temporaries stay below 100 bytes per edge
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, 60_000, size=(2, 110_000))
        keep = a != b
        a, b = a[keep][:100_000], b[keep][:100_000]
        w = rng.integers(1, 6, size=100_000)
        p = tmp_path / "sparse.edges"
        p.write_text("".join(map("n{} n{} {}\n".format, a.tolist(), b.tolist(), w.tolist())))
        g, held, peak = traced(lambda: parse_edge_list(p))
        assert g.edge_count > 99_900
        assert peak - held < 100 * g.edge_count

    def test_graph_holds_no_label_index(self, tmp_path):
        # a seeded, triangle-poor list of 30 000 edges over 19 069 labels: the
        # reader drops its interning dict, and the graph makes no lookup
        # until one is asked for. Python 3.11, numpy 2.4: 2.85 MB held and a
        # 5.19 MB peak; 3.79 and 6.13 MB when the graph kept the dict
        rng = np.random.default_rng(7)
        a, b = rng.integers(0, 20_000, size=(2, 33_000))
        keep = a != b
        a, b = a[keep][:30_000], b[keep][:30_000]
        w = rng.integers(1, 6, size=30_000)
        p = tmp_path / "sparse.edges"
        p.write_text("".join(map("n{} n{} {}\n".format, a.tolist(), b.tolist(), w.tolist())))
        g, held, peak = traced(lambda: parse_edge_list(p))
        assert (g.node_count, g.edge_count) == (19_069, 30_000)
        assert held < 3_300_000
        assert peak < 5_650_000


def reference_records(path) -> list[tuple[str, str, float]]:
    """The records of an edge list read one line at a time: the reader's
    specification, errors and line numbers included."""
    records, chosen = [], None
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if chosen is None:
                chosen = "comma" if "," in line else "whitespace"
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


def reference_error(path) -> Exception:
    with pytest.raises(Exception) as info:
        reference_records(path)
    return info.value


LABELS = [f"n{i}" for i in range(25)] + ["\u00e9t\u00e9", "x#y", "\u00df", "q,r", "1_0"]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", " \x1f ", "\u2003", "\xa0", "\x85",
              "\u2028", "\u2029"]
WEIGHTS = ["1", "2", "0.25", "1_000", "1e-3", "2.5E2", "+3", "7.", "0.1"]

# characters that str.split() reads as whitespace and str.splitlines() as line
# breaks, and the line endings that the text layer reads as "\n": a line ends
# after "\n" only, as iterating the file cuts it
LINE_BREAKS = ["\x0b", "\x0c", "\x85", "\u2028", "\u2029"]
LINE_ENDINGS = ["\r\n", "\r"]
# block sizes that cut a file of fixed-length lines in different places
BOUNDARY_BLOCKS = [24, 40, 45, 64]


def at_block_boundary(lines: list[str], block: int, shift: int, case: str) -> tuple[int, str]:
    """(line index, text) that puts ``case`` on the line ``shift`` lines
    after the last line of a file's first block of ``block`` characters: a
    line break as the first separator, a line ending in place of "\n". The
    lines are all as long; either way the decoded line keeps its length."""
    at = block // len(lines[0]) + shift
    line = lines[at]
    return at, line[:-1] + case if case in LINE_ENDINGS else line.replace(" ", case, 1)


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
    @pytest.mark.parametrize("block", [1, 40, 200, WHOLE_FILE])
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
        monkeypatch.setattr(ingest, "_records", lambda *a: calls.append(a[2]) or records(*a))
        p = tmp_path / "g.edges"
        lines = [f"n{i} n{i + 1} {i % 4 + 1}\n" for i in range(60)]
        p.write_text("".join(lines))
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))
        assert calls == []
        lines[30] = "n30 \u00e9 2\n"
        p.write_text("".join(lines))
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))
        assert len(calls) == 1 and calls[0] < 30  # only the block of line 31

    @pytest.mark.parametrize("block", [40, WHOLE_FILE])
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

    @pytest.mark.parametrize("block", [40, WHOLE_FILE])
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

    @pytest.mark.parametrize("block", BOUNDARY_BLOCKS)
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("case", LINE_BREAKS + LINE_ENDINGS)
    def test_lines_end_after_newline_only(self, tmp_path, monkeypatch, block, shift, case):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"n{i:03d} n{i + 1:03d} {i % 3 + 1}\n" for i in range(30)]
        at, lines[at] = at_block_boundary(lines, block, shift, case)
        p = tmp_path / "g.edges"
        p.write_bytes("".join(lines).encode())
        assert_same_graph(parse_edge_list(p), build_graph(reference_records(p)))
        lines[at + 2] = "z z 1\n"  # its number counts every line before it
        p.write_bytes("".join(lines).encode())
        expected = reference_error(p)
        assert f":{at + 3}:" in str(expected)
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(p)
        assert str(info.value) == str(expected)

    @pytest.mark.parametrize("block", [40, 8000, 8192, 9000, 20_000])
    @pytest.mark.parametrize("bad", [None, 3, -1], ids=["no_bad_line", "early", "block_end"])
    def test_undecodable_byte_after_a_block(self, tmp_path, monkeypatch, block, bad):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"n{i:05d} n{i + 1:05d} 1\n".encode() for i in range(3000)]
        after = block // len(lines[0]) + 1  # the line after the first block
        lines[after] = b"\xff" + lines[after][1:]
        if bad is not None:
            lines[bad % after] = b"a b -1\n"
        p = tmp_path / "bad.edges"
        p.write_bytes(b"".join(lines))
        expected = reference_error(p)
        with pytest.raises(type(expected)) as info:
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

    def test_writes_one_chunk_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(9)
        g = build_graph((f"n{i}", f"n{j}", w) for i, j, w in zip(
            rng.integers(0, 40, 300).tolist(), rng.integers(40, 80, 300).tolist(),
            rng.uniform(0.1, 3.0, 300).tolist()))
        whole = io.StringIO()
        write_edge_list(g, whole)
        monkeypatch.setattr(ingest, "WRITE_CHUNK", 16)
        writes = []
        stream = io.StringIO()
        monkeypatch.setattr(stream, "write", writes.append)
        write_edge_list(g, stream)
        assert len(writes) == -(-g.edge_count // 16)
        assert all(w.count("\n") == 16 for w in writes[:-1])
        assert "".join(writes) == whole.getvalue()

    def test_memory_is_bounded_per_edge(self, tmp_path):
        # over 2e5 edges whose weights are all distinct: the writer formats
        # the weights of one chunk at a time, so no per-weight text outlives it
        rng = np.random.default_rng(12)
        a = rng.integers(0, 40_000, 210_000)
        b = (a + rng.integers(1, 40_000, 210_000)) % 40_000
        w = rng.uniform(0.1, 10.0, 210_000)
        g = build_graph(zip(map("n{}".format, a.tolist()), map("n{}".format, b.tolist()),
                            w.tolist()))
        assert len(np.unique(g._weights)) >= 200_000
        _, _, peak = traced(lambda: write_edge_list(g, tmp_path / "g.edges"))
        assert peak < 120 * g.edge_count

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

    @pytest.mark.parametrize("twin", [1, 2.5])
    def test_labels_alike_in_text_never_merge_on_reading_back(self, tmp_path, twin):
        # a label and its str would print as one: nothing is written, or the
        # file reads back with both
        g = build_graph([(twin, "x", 1.0), (str(twin), "y", 2.0), ("x", "y", 1.0)])
        path = tmp_path / "g.edges"
        with contextlib.suppress(ValueError):
            write_edge_list(g, path)
        assert not path.exists() or sorted(parse_edge_list(path).labels) == sorted(
            map(str, g.labels))

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

    def test_opener_is_called_only_for_writable_labels(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("old\n")
        calls = []

        def opener():
            calls.append(p)
            return open(p, "w", encoding="utf-8", newline="")

        with pytest.raises(ValueError, match="label"):
            write_edge_list(build_graph([("a b", "c", 1.0)]), opener)
        assert calls == [] and p.read_text() == "old\n"
        write_edge_list(build_graph([("z", "m", 1.5), ("a", "z", 2.0)]), opener)
        assert calls == [p] and p.read_text() == "a z 2\nm z 1.5\n"

    def test_leading_byte_order_mark_is_refused(self, tmp_path):
        # the reader drops a U+FEFF that starts the file, so a label that
        # starts with one and sorts first would read back without it
        g = build_graph([("\ufeffa", "！", 1.0)])
        with pytest.raises(ValueError, match=r"label '\\ufeffa' cannot"):
            write_edge_list(g, tmp_path / "g.edges")
        assert not (tmp_path / "g.edges").exists()
        stream = io.StringIO()
        write_edge_list(build_graph([("a\ufeff", "！", 1.0)]), stream)
        assert stream.getvalue() == "a\ufeff ！ 1\n"

    def test_every_written_file_reads_back(self, tmp_path):
        # wide and astral labels with an occasional character the reader
        # treats specially: a file is either refused unwritten, or it reads
        # back to the same labels, edges and weight bits
        rng = np.random.default_rng(18)
        plain = ["！", "ｱ", "가", "\U0001f600"]
        special = [" ", "\t", "\r", "\n", "\x0b", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
                   ",", "#", '"', "\x00", "\u200b", "\ufeff"]
        p = tmp_path / "g.edges"
        written = 0
        for _ in range(1500):
            def label():
                chars = [plain[i] for i in rng.integers(0, len(plain), int(rng.integers(1, 4)))]
                if rng.random() < 0.2:
                    chars.insert(int(rng.integers(0, len(chars) + 1)),
                                 special[int(rng.integers(len(special)))])
                return "".join(chars)

            records = [(a, b, float(rng.choice([1.0, rng.uniform(0.01, 9.0)])))
                       for a, b in ((label(), label()) for _ in range(int(rng.integers(1, 5))))
                       if a != b]
            g = build_graph(records)
            try:
                write_edge_list(g, p)
            except ValueError:
                assert not p.exists()
                continue
            back = parse_edge_list(p)
            p.unlink()
            written += 1
            assert sorted(back.labels) == sorted(g.labels)
            for a, b, w in g.edges():
                assert np.float64(back.weight(a, b)).tobytes() == np.float64(w).tobytes()
            assert back.edge_count == g.edge_count
        assert written > 500


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


def reference_events(path) -> list[tuple[str, str]]:
    """The records of an event file read one line at a time: the reader's
    specification, errors and line numbers included."""
    records, chosen = [], None
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if chosen is None:
                chosen = "comma" if "," in line else "whitespace"
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


def read_records(path) -> list[tuple[str, str]]:
    """The records the block reader returns, as labels, in record order."""
    events = ingest._read_events(path)
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
    @pytest.mark.parametrize("block", [1, 40, 200, WHOLE_FILE])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_records_as_line_reader(self, tmp_path, monkeypatch, seed, block):
        monkeypatch.setattr(ingest, "BLOCK", block)
        p = tmp_path / "events.txt"
        p.write_bytes(mixed_event_file(np.random.default_rng(seed), comma=seed % 4 == 3))
        records = reference_events(p)
        assert read_records(p) == records
        assert parse_bipartite(p) == reference_groups(records)
        events = ingest._read_events(p)
        for project, increment in [(project_count, lambda n: 1.0),
                                   (project_newman, lambda n: 1.0 / (n - 1))]:
            assert_same_graph(project(events), reference_projection(records, increment))

    def test_plain_blocks_skip_the_line_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK", 40)
        calls = []
        records = ingest._records
        monkeypatch.setattr(ingest, "_records",
                            lambda *a: calls.append(a[2]) or records(*a))
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

    @pytest.mark.parametrize("block", [40, WHOLE_FILE])
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

    @pytest.mark.parametrize("block", [40, WHOLE_FILE])
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

    @pytest.mark.parametrize("block", BOUNDARY_BLOCKS)
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("case", LINE_BREAKS + LINE_ENDINGS)
    def test_lines_end_after_newline_only(self, tmp_path, monkeypatch, block, shift, case):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"g{i % 7} m{i:03d}\n" for i in range(40)]
        at, lines[at] = at_block_boundary(lines, block, shift, case)
        p = tmp_path / "events.txt"
        p.write_bytes("".join(lines).encode())
        assert read_records(p) == reference_events(p)
        lines[at + 2] = "z\n"  # its number counts every line before it
        p.write_bytes("".join(lines).encode())
        expected = reference_error_events(p)
        assert f":{at + 3}:" in str(expected)
        with pytest.raises(EdgeListError) as info:
            parse_bipartite(p)
        assert str(info.value) == str(expected)

    @pytest.mark.parametrize("block", [40, 8000, 8192, 9000, 20_000])
    @pytest.mark.parametrize("bad", [None, 3, -1], ids=["no_bad_line", "early", "block_end"])
    def test_undecodable_byte_after_a_block(self, tmp_path, monkeypatch, block, bad):
        monkeypatch.setattr(ingest, "BLOCK", block)
        lines = [f"g{i % 5} m{i:05d}\n".encode() for i in range(4000)]
        after = block // len(lines[0]) + 1  # the line after the first block
        lines[after] = b"\xff" + lines[after][1:]
        if bad is not None:
            lines[bad % after] = b"g a b\n"
        p = tmp_path / "bad.txt"
        p.write_bytes(b"".join(lines))
        expected = reference_error_events(p)
        with pytest.raises(type(expected)) as info:
            parse_bipartite(p)
        assert str(info.value) == str(expected)

    def test_comma_separated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK", 40)
        p = tmp_path / "events.csv"
        p.write_text("# group, member\n" + "".join(f"g{i % 3}, a b{i}\n" for i in range(30)))
        assert read_records(p) == reference_events(p)
        assert parse_bipartite(p)["g1"][:2] == ["a b1", "a b4"]

    @pytest.mark.parametrize("text", ["", "\ufeff", "# only\n\n  \t\n", "\ufeff#x\r\n#y"])
    def test_no_records(self, tmp_path, text):
        p = tmp_path / "events.txt"
        p.write_text(text, encoding="utf-8")
        assert parse_bipartite(p) == {}
        assert read_records(p) == []
        assert project_count(parse_bipartite(p)).node_count == 0


def reference_error_events(path) -> Exception:
    with pytest.raises(Exception) as info:
        reference_events(path)
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

    @pytest.mark.parametrize("project", [project_count, project_newman])
    def test_memory_is_bounded_per_pair(self, project):
        # 100 events sharing the same 150 members: 1 117 500 member pairs
        # over 11 175 edges, so the pairs, not the graph, set the peak
        events = ingest._to_events({f"e{e}": [f"m{m}" for m in range(150)] for e in range(100)})
        g, _, peak = traced(lambda: project(events))
        assert g.edge_count == 11_175
        assert peak < 24 * 1_117_500

    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_pair_ranges_keep_the_graph(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        events = [(f"e{int(rng.integers(0, 30))}", f"m{int(rng.integers(0, 25))}")
                  for _ in range(400)]
        whole = project_newman(events)
        monkeypatch.setattr(ingest, "PAIR_CHUNK", chunk)
        assert_same_graph(project_newman(events), whole)

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
