"""Edge-list parsing/writing and bipartite co-occurrence projection."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from gossipnet import (
    EdgeListError,
    parse_bipartite,
    parse_edge_list,
    project_count,
    project_newman,
    write_edge_list,
)
from gossipnet.graph import build_graph


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


class TestProjection:
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
