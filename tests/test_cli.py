"""Command-line surface: outputs, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import signal
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipnet import (
    GeneratorConfig,
    NetworkSummary,
    analyze_network,
    build_graph,
    parse_edge_list,
    project_newman,
    run_ensemble,
    summarize,
)
from gossipnet import cli, generate, ingest
from gossipnet.cli import _cell, _write_labels, build_parser, main
from gossipnet.datasets import sample_network
from gossipnet.generate import SUMMARY_FIELDS
from gossipnet.ingest import write_edge_list


def run(*argv: str) -> int:
    return main(list(argv))


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def sample_file(tmp_path) -> Path:
    path = tmp_path / "sample.edges"
    write_edge_list(sample_network(), path)
    return path


class TestAnalyze:
    def test_writes_summary_curves_labels(self, tmp_path, sample_file):
        out = tmp_path / "out"
        assert run("analyze", "--input", str(sample_file), "--out", str(out)) == 0
        for name in ("summary.csv", "summary.json", "curves.csv", "curves.json", "labels.csv"):
            assert (out / name).exists()
        row = read_csv(out / "summary.csv")[0]
        s = summarize(parse_edge_list(sample_file))
        assert int(row["N"]) == 9 and int(row["M"]) == 13
        assert float(row["sigma"]) == s.sigma
        assert float(row["beta"]) == s.beta
        assert float(row["CC"]) == s.cc

    def test_pinned_column_orders(self, tmp_path, sample_file):
        out = tmp_path / "out"
        run("analyze", "--input", str(sample_file), "--out", str(out))
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header.startswith(
            "N,M,k0,k0_w,k0w_over_k0,CC,sigma,beta,sigma_over_cc,"
            "beta_over_cc,beta_over_sigma,beta_over_sigma_cc"
        )
        curves_header = (out / "curves.csv").read_text().splitlines()[0]
        assert curves_header == (
            "k,count,sigma_k,beta_k,cc_k,beta_over_sigma_k,beta_over_sigma_cc_k"
        )

    def test_stdout_when_no_out(self, sample_file, capsys):
        assert run("analyze", "--input", str(sample_file)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("N,M,")
        assert lines[1].startswith("9,13,")

    def test_unweighted_model_leaves_beta_cells_empty(self, tmp_path, sample_file):
        out = tmp_path / "out"
        run("analyze", "--input", str(sample_file), "--model", "unweighted",
            "--out", str(out))
        row = read_csv(out / "summary.csv")[0]
        assert row["beta"] == "" and row["k0_w"] == "" and row["beta_over_sigma"] == ""
        assert row["sigma"] != ""
        payload = json.loads((out / "summary.json").read_text())
        assert payload["summary"]["beta"] is None

    def test_json_schema_version(self, tmp_path, sample_file):
        out = tmp_path / "out"
        run("analyze", "--input", str(sample_file), "--out", str(out), "--format", "json")
        payload = json.loads((out / "summary.json").read_text())
        assert payload["schema_version"] == 1
        assert not (out / "summary.csv").exists()

    def test_curve_rows_match_analysis(self, tmp_path, sample_file):
        out = tmp_path / "out"
        run("analyze", "--input", str(sample_file), "--out", str(out))
        a = analyze_network(parse_edge_list(sample_file))
        rows = {int(r["k"]): r for r in read_csv(out / "curves.csv")}
        for k in a.sigma_curve.degrees():
            assert float(rows[k]["sigma_k"]) == a.sigma_curve.value(k)
            assert int(rows[k]["count"]) == a.sigma_curve.count(k)

    def test_labels_mapping(self, tmp_path, sample_file):
        out = tmp_path / "out"
        run("analyze", "--input", str(sample_file), "--out", str(out))
        g = parse_edge_list(sample_file)
        rows = read_csv(out / "labels.csv")
        assert [r["label"] for r in rows] == [str(lab) for lab in g.labels]

    def test_labels_file_formats_every_label_as_a_cell(self, tmp_path):
        g = build_graph([(None, True, 1.0), (1.5, "a,b", 1.0), (7, 'q"', 1.0)])
        _write_labels(lambda: open(tmp_path / "labels.csv", "w", newline=""), g)
        assert (tmp_path / "labels.csv").read_bytes() == (
            b'index,label\n0,\n1,true\n2,1.5\n3,"a,b"\n4,7\n5,"q"""\n'
        )

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.one_of(st.text(max_size=4), st.integers()), min_size=1,
                        max_size=30, unique=True),
        chunk=st.integers(1, 8),
    )
    def test_labels_file_is_what_csv_writes(self, labels, chunk):
        # every chunk of rows, joined at once or written through csv, reads
        # as the one csv.writer pass over all labels
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("index", "label"))
        writer.writerows(enumerate(map(_cell, labels)))
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "WRITE_CHUNK", chunk)
            _write_labels(lambda: nullcontext(out), build_graph([], nodes=labels))
        assert out.getvalue() == expected.getvalue()

    def test_bundled_network_row_via_cli(self, tmp_path):
        from importlib import resources

        ref = resources.files("gossipnet").joinpath("data/les_miserables.edges")
        out = tmp_path / "out"
        with resources.as_file(ref) as path:
            assert run("analyze", "--input", str(path), "--out", str(out)) == 0
        row = read_csv(out / "summary.csv")[0]
        assert (int(row["N"]), int(row["M"])) == (77, 254)
        assert abs(float(row["CC"]) - 0.57) <= 0.03
        assert abs(float(row["sigma"]) - 0.72) <= 0.03
        assert abs(float(row["beta"]) - 0.48) <= 0.04

    def test_missing_input_is_input_error(self, tmp_path):
        assert run("analyze", "--input", str(tmp_path / "nope.edges")) == 2

    def test_empty_input_reports_no_edges(self, tmp_path, capsys):
        p = tmp_path / "empty.edges"
        p.write_text("# nothing\n")
        assert run("analyze", "--input", str(p)) == 2
        assert "no edges" in capsys.readouterr().err

    def test_malformed_line_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.edges"
        p.write_text("a b 1\na c -2\n")
        assert run("analyze", "--input", str(p)) == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("sep", [" ", ","], ids=["whitespace", "comma"])
    def test_self_loop_is_input_error(self, tmp_path, capsys, sep):
        # whitespace and comma files both leave the self-loop to the line check
        p = tmp_path / "loop.edges"
        p.write_text(f"a{sep}b{sep}1\nc{sep}c{sep}2\n")
        assert run("analyze", "--input", str(p)) == 2
        assert capsys.readouterr().err == f"error: {p}:2: self-loop on 'c'\n"


class TestGenerate:
    def test_writes_realizations_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        code = run("generate", "--model", "ER", "--N", "40", "--p", "0.1",
                   "--seed", "3", "--realizations", "2", "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"] == "ER"
        assert manifest["files"] == ["realization_000.edges", "realization_001.edges"]
        g = parse_edge_list(out / "realization_000.edges")
        assert g.node_count <= 40 and g.edge_count > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("generate", "--model", "BA", "--N", "60", "--m0", "5", "--m", "3",
                "--seed", "11", "--out", str(out))
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--model", "WS", "--N", "20", "--k", "3", "--p", "0.1"),
            ("generate", "--model", "BA", "--N", "20", "--m0", "3", "--m", "5"),
            ("generate", "--model", "ER", "--N", "20", "--p", "1.5"),
            ("generate", "--model", "ZZ", "--N", "20"),
        ],
    )
    def test_parameter_errors_are_usage_errors(self, tmp_path, argv):
        assert run(*argv, "--out", str(tmp_path / "x")) == 1


class TestSweep:
    def test_single_realization_matches_summary(self, tmp_path):
        out = tmp_path / "sw"
        run("sweep", "--model", "WS", "--N", "30", "--k", "4", "--p", "0.1",
            "--seed", "5", "--realizations", "1", "--out", str(out))
        payload = json.loads((out / "ensemble.json").read_text())
        from gossipnet import realization
        from gossipnet.generate import GeneratorConfig

        cfg = GeneratorConfig(model="WS", N=30, k=4, p=0.1, seed=5, realizations=1)
        s = summarize(realization(cfg, 0))
        assert payload["mean"]["sigma"] == s.sigma
        assert payload["mean"]["beta"] == s.beta
        rows = read_csv(out / "realizations.csv")
        assert len(rows) == 1 and float(rows[0]["sigma"]) == s.sigma

    def test_worker_counts_byte_identical(self, tmp_path):
        trees = []
        for name, workers in (("w1", "1"), ("w2", "2")):
            out = tmp_path / name
            run("sweep", "--model", "ER", "--N", "30", "--p", "0.15",
                "--seed", "9", "--realizations", "4", "--workers", workers,
                "--out", str(out))
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        argv = ["sweep", "--model", "ER", "--N", "20", "--p", "0.2",
                "--realizations", "2", "--workers", workers, "--out", str(tmp_path / "o")]
        assert run(*argv) == 1
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_field_undefined_in_every_realization_is_null(self, tmp_path):
        # the complete graph on 4 nodes has no critical degree
        out = tmp_path / "sw"
        assert run("sweep", "--model", "ER", "--N", "4", "--p", "1", "--realizations", "2",
                   "--out", str(out)) == 0
        payload = json.loads((out / "ensemble.json").read_text())
        assert (payload["mean"]["k0"], payload["std"]["k0"]) == (None, None)
        assert payload["defined"]["k0"] == 0

    def test_mean_curves_written(self, tmp_path):
        out = tmp_path / "sw"
        run("sweep", "--model", "ER", "--N", "25", "--p", "0.2", "--seed", "2",
            "--realizations", "3", "--out", str(out))
        rows = read_csv(out / "mean_curves.csv")
        assert rows and set(rows[0]) == {
            "k", "realizations", "victims", "sigma_k", "beta_k", "cc_k"
        }


class TestEntry:
    def test_freezes_the_heap_once_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
        assert calls == ["freeze", "main"]
        assert exit_.value.code == 2

    def test_main_alone_never_freezes(self, tmp_path, sample_file):
        frozen = gc.get_freeze_count()
        assert run("analyze", "--input", str(sample_file), "--out", str(tmp_path / "a")) == 0
        assert run("sweep", "--model", "ER", "--N", "20", "--p", "0.2", "--realizations", "2",
                   "--workers", "2", "--out", str(tmp_path / "s")) == 0
        assert gc.get_freeze_count() == frozen

    def test_fresh_processes_sweep_byte_identical_across_workers(self, tmp_path):
        # sweep workers forked from a frozen parent, as the console script runs
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        trees = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            proc = subprocess.run(
                [sys.executable, "-m", "gossipnet.cli", "sweep", "--model", "WS", "--N", "40",
                 "--k", "4", "--p", "0.2", "--seed", "3", "--realizations", "3",
                 "--workers", workers, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]


class TestProject:
    def test_count_scheme(self, tmp_path, capsys):
        src = tmp_path / "events.txt"
        src.write_text("p1 a\np1 b\np1 c\n")
        assert run("project", "--input", str(src)) == 0
        out = capsys.readouterr().out
        assert out == "a b 1\na c 1\nb c 1\n"

    def test_newman_scheme_to_file(self, tmp_path):
        src = tmp_path / "events.txt"
        src.write_text("p1 a\np1 b\np1 c\n")
        dst = tmp_path / "net.edges"
        assert run("project", "--input", str(src), "--scheme", "newman",
                   "--out", str(dst)) == 0
        assert dst.read_text() == "a b 0.5\na c 0.5\nb c 0.5\n"
        assert (tmp_path / "net.edges.labels.csv").exists()

    def test_unwritable_labels_are_input_errors(self, tmp_path, capsys):
        src = tmp_path / "events.csv"
        src.write_text("p1, alice smith\np1, bob\n")  # inner space in a label
        assert run("project", "--input", str(src)) == 2
        assert "label" in capsys.readouterr().err
        assert run("project", "--input", str(src), "--out", str(tmp_path / "o.edges")) == 2

    @pytest.mark.parametrize("label", ["a,x", "#x", "\ufeffa"])
    def test_labels_unreadable_as_edge_list_are_input_errors(self, tmp_path, capsys, label):
        # "a,x" would read back as a comma-separated record, "#x" as a
        # comment, and "\ufeffa" starting the file as "a" after a byte-order mark
        src = tmp_path / "events.txt"
        src.write_text(f"e1 b\ne1 {label}\n")
        assert run("project", "--input", str(src)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "label" in captured.err
        dst = tmp_path / "o.edges"
        assert run("project", "--input", str(src), "--out", str(dst)) == 2
        assert not dst.exists()

    @pytest.mark.parametrize("scheme", ["count", "newman"])
    def test_stdout_equals_out_file(self, tmp_path, capsys, scheme):
        src = tmp_path / "events.txt"
        src.write_text("p1 c\np1 a\np1 b\np2 b\np2 d\np3 a\np3 d\np3 e\np3 c\n")
        dst = tmp_path / "net.edges"
        assert run("project", "--input", str(src), "--scheme", scheme, "--out", str(dst)) == 0
        capsys.readouterr()
        assert run("project", "--input", str(src), "--scheme", scheme) == 0
        assert capsys.readouterr().out.encode("utf-8") == dst.read_bytes()

    def test_empty_input_warns_and_succeeds(self, tmp_path, capsys):
        src = tmp_path / "events.txt"
        src.write_text("# no data\n")
        dst = tmp_path / "net.edges"
        assert run("project", "--input", str(src), "--out", str(dst)) == 0
        assert dst.read_text() == ""
        assert "warning" in capsys.readouterr().err

    def test_empty_input_writes_edges_and_labels_in_new_directory(self, tmp_path, capsys):
        src = tmp_path / "events.txt"
        src.write_text("")
        dst = tmp_path / "missing" / "dir" / "x.edges"
        assert run("project", "--input", str(src), "--out", str(dst)) == 0
        assert dst.read_text() == ""
        assert Path(str(dst) + ".labels.csv").read_text() == "index,label\n"
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\ufeff", "# comment\n", "\ufeff#a b\r\n\n \t\n#c"])
    def test_no_event_records(self, tmp_path, capsys, text):
        src = tmp_path / "events.txt"
        src.write_text(text, encoding="utf-8")
        assert run("project", "--input", str(src)) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"warning: {src}: no event records" in captured.err

    def test_projection_then_analysis_equals_in_memory(self, tmp_path):
        src = tmp_path / "events.txt"
        src.write_text("p1 a\np1 b\np1 c\np2 b\np2 c\np2 d\np3 d\np3 e\n")
        dst = tmp_path / "net.edges"
        run("project", "--input", str(src), "--scheme", "newman", "--out", str(dst))
        via_files = summarize(parse_edge_list(dst))
        events = {"p1": ["a", "b", "c"], "p2": ["b", "c", "d"], "p3": ["d", "e"]}
        in_memory = summarize(project_newman(events))
        assert via_files.sigma == in_memory.sigma
        assert via_files.beta == in_memory.beta
        assert via_files.cc == in_memory.cc
        assert (via_files.n_nodes, via_files.n_edges) == (
            in_memory.n_nodes,
            in_memory.n_edges,
        )


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run("analyze") == 1
        assert run("frobnicate") == 1

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_hopeless_weight_distribution_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "d"
        code = run(command, "--model", "ER", "--N", "4", "--p", "1.0", "--weight_mean", "-30",
                   "--realizations", "1", "--out", str(out))
        assert code == 1
        assert "floor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "d"
        code = run(command, "--model", "ER", "--N", "10", "--p", "0.5", "--seed", "-1",
                   "--realizations", "1", "--out", str(out))
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize("missing", ["--model", "--N"])
    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys, command, missing):
        # argparse refuses the command line; the config is never built
        flags = {"--model": "ER", "--N": "10", "--p": "0.5"}
        del flags[missing]
        out = tmp_path / "d"
        code = run(command, *(x for kv in flags.items() for x in kv), "--realizations", "1",
                   "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert f"the following arguments are required: {missing}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--model", "BA", "--m0", "1", "--m", "1"), "m0 >= 2"),
            (("--model", "ER", "--p", "0.5", "--weight_mean", "nan"), "finite"),
            (("--model", "ER", "--p", "0.5", "--weight_stddev", "inf"), "finite"),
            (("--model", "ER", "--p", "0.5", "--weight_mean", "1e-6", "--weight_stddev",
              "1e-30"), "under 1%"),
        ],
        ids=["ba_m0_1", "nan_mean", "inf_stddev", "sub_resolution"],
    )
    def test_invalid_generator_parameters_are_usage_errors(
        self, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "o"
        code = run(command, *flags, "--N", "10", "--realizations", "1", "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a b 1e308\na b 1e308\n", "edge 'a' 'b'"),
            ("a b 1e308\na c 1e308\nb c 1\n", "node 'a'"),
        ],
        ids=["merged_weight", "strength"],
    )
    def test_overflowing_input_weights_are_input_errors(self, tmp_path, capsys, text, message):
        src = tmp_path / "big.edges"
        src.write_text(text, encoding="utf-8")
        assert run("analyze", "--input", str(src), "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_overflowing_generated_weights_are_usage_errors(self, tmp_path, capsys, command):
        code = run(command, "--model", "ER", "--N", "50", "--p", "0.1", "--weight_stddev", "0",
                   "--weight_mean", "1e308", "--realizations", "1", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "weight_mean 1e+308 and weight_stddev 0.0" in err and "float range" in err

    def test_overflow_in_a_forked_worker_is_usage_error(self, tmp_path, capsys, forking):
        # seed 0: realization 2, which the first of two workers runs, has a
        # node of degree 3 whose strength 3 * 6e307 overflows
        out = tmp_path / "new" / "s"
        code = run("sweep", "--model", "ER", "--N", "4", "--p", "0.5", "--weight_stddev", "0",
                   "--weight_mean", "6e307", "--seed", "0", "--realizations", "3",
                   "--workers", "2", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert "weight_mean 6e+307 and weight_stddev 0.0" in err and "float range" in err
        assert list(tmp_path.iterdir()) == []

    def test_killed_worker_is_internal_error(self, tmp_path, capsys, monkeypatch, forking):
        made = generate.realization

        def killed(cfg, i):
            if i == 1:
                assert os.getpid() != forking  # never the test process
                os.kill(os.getpid(), signal.SIGKILL)
            return made(cfg, i)

        monkeypatch.setattr(generate, "realization", killed)
        code = run("sweep", "--model", "ER", "--N", "20", "--p", "0.2", "--realizations", "3",
                   "--workers", "2", "--out", str(tmp_path / "s"))
        assert code == 3
        assert "(killed by SIGKILL)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_min_samples_below_one_is_usage_error(
        self, tmp_path, capsys, sample_file, command, value
    ):
        source = (["--input", str(sample_file)] if command == "analyze" else
                  ["--model", "ER", "--N", "20", "--p", "0.2", "--realizations", "2"])
        out = tmp_path / "o"
        assert run(command, *source, "--min-samples", value, "--out", str(out)) == 1
        assert "--min-samples" in capsys.readouterr().err
        assert not out.exists()

    # (command, parameter, value below 1): the library call and the CLI
    # command behind each must both refuse it
    @pytest.mark.parametrize("command,parameter,value", [
        ("analyze", "min_samples", 0),
        ("analyze", "min_samples", -3),
        ("sweep", "min_samples", 0),
        ("sweep", "min_samples", -3),
        ("sweep", "workers", 0),
        ("sweep", "workers", -3),
    ])
    def test_count_below_one_is_refused_by_library_and_cli(
        self, tmp_path, capsys, sample_file, command, parameter, value
    ):
        er = ["--model", "ER", "--N", "20", "--p", "0.2", "--realizations", "2"]
        library = {
            "analyze": lambda: analyze_network(sample_network(), "both", **{parameter: value}),
            "sweep": lambda: run_ensemble(GeneratorConfig(model="ER", N=20, p=0.2, realizations=2),
                                          **{parameter: value}),
        }
        with pytest.raises(ValueError, match=f"^{parameter} must be at least 1, got {value}$"):
            library[command]()
        flag = "--" + parameter.replace("_", "-")
        source = ["--input", str(sample_file)] if command == "analyze" else er
        out = tmp_path / "o"
        assert run(command, *source, flag, str(value), "--out", str(out)) == 1
        assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_realizations_below_one_is_refused_by_library_and_cli(
        self, tmp_path, capsys, command, value
    ):
        # the config refuses it; the flag keeps its plain int type, so the
        # message names no argument
        message = f"realizations must be at least 1, got {value}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorConfig(model="ER", N=20, p=0.2, realizations=value)
        out = tmp_path / "o"
        assert run(command, "--model", "ER", "--N", "20", "--p", "0.2",
                   "--realizations", str(value), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--min-samples", "--workers"])
    def test_non_integer_count_names_flag_and_text(self, tmp_path, capsys, flag):
        code = run("sweep", "--model", "ER", "--N", "20", "--p", "0.2",
                   flag, "2.5", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid int value: '2.5'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,out", [("analyze", "a"), ("project", "b/x.edges")])
    def test_input_error_makes_no_out(self, tmp_path, command, out):
        missing = str(tmp_path / "nope")
        assert run(command, "--input", missing, "--out", str(tmp_path / "new" / out)) == 2
        assert not (tmp_path / "new").exists()

    def test_unwritable_projection_leaves_no_out(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        src.write_text("g1,a b\ng1,c\n", encoding="utf-8")
        (tmp_path / "old").mkdir()
        for out in ("new/sub/net.edges", "old/net.edges"):
            assert run("project", "--input", str(src), "--out", str(tmp_path / out)) == 2
            assert "label 'a b' cannot be written" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.txt", "old"]
        assert list((tmp_path / "old").iterdir()) == []

    def test_refused_projection_keeps_an_existing_output(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        src.write_text("g1,a b\ng1,c\n", encoding="utf-8")
        old = tmp_path / "old" / "net.edges"
        old.parent.mkdir()
        old.write_bytes(b"x y 1\n")
        assert run("project", "--input", str(src), "--out", str(old)) == 2
        assert "removed" not in capsys.readouterr().err
        assert [p.name for p in old.parent.iterdir()] == ["net.edges"]
        assert old.read_bytes() == b"x y 1\n"

    def test_unopenable_existing_output_is_kept(self, tmp_path, capsys, monkeypatch, sample_file):
        # an existing output file that refuses to be opened (read-only, say)
        # was not written by the command, so its failure keeps it
        out = tmp_path / "t"
        out.mkdir()
        (out / "summary.csv").write_bytes(b"old\n")

        def refusing(p, *args, **kwargs):
            if Path(p).name == "summary.csv":
                raise PermissionError(13, "Permission denied", str(p))
            return open(p, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refusing, raising=False)
        assert run("analyze", "--input", str(sample_file), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert str(out / "summary.csv") in err and "removed" not in err
        assert [p.name for p in out.iterdir()] == ["summary.csv"]
        assert (out / "summary.csv").read_bytes() == b"old\n"

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_realization_leaves_no_out(self, tmp_path, capsys, existed):
        # seed 0: realizations 0 and 1 are written, realization 2 has a node
        # of degree 3 whose strength 3 * 6e307 overflows
        out = tmp_path / "d" if existed else tmp_path / "new" / "d"
        if existed:
            out.mkdir()
        code = run("generate", "--model", "ER", "--N", "4", "--p", "0.5", "--weight_stddev", "0",
                   "--weight_mean", "6e307", "--seed", "0", "--realizations", "3",
                   "--out", str(out))
        assert code == 1
        assert "realization_001.edges" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == (["d"] if existed else [])
        if existed:
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, blocked, removed",
        [
            ("analyze", "curves.csv", "summary.csv"),
            ("sweep", "mean_curves.csv", "realizations.csv"),
            ("project", "net.edges.labels.csv", "net.edges"),
        ],
    )
    def test_unwritable_output_file_is_usage_error(
        self, tmp_path, capsys, sample_file, command, blocked, removed
    ):
        out = tmp_path / "t"
        (out / blocked).mkdir(parents=True)
        events = tmp_path / "events.txt"
        events.write_text("e1 a\ne1 b\ne1 c\n")
        argv = {
            "analyze": ("--input", str(sample_file), "--out", str(out)),
            "sweep": ("--model", "ER", "--N", "20", "--p", "0.3", "--realizations", "2",
                      "--out", str(out)),
            "project": ("--input", str(events), "--out", str(out / "net.edges")),
        }[command]
        assert run(command, *argv) == 1
        err = capsys.readouterr().err
        assert str(out / blocked) in err and "internal error" not in err
        assert f"removed {out / removed}" in err
        assert [p.name for p in out.iterdir()] == [blocked]

    @pytest.mark.parametrize("existed", [False, True])
    def test_interrupted_generate_leaves_no_out(self, tmp_path, monkeypatch, existed):
        out = tmp_path / "d" if existed else tmp_path / "new" / "d"
        if existed:
            out.mkdir()
        made = cli.realization

        def interrupted(cfg, i):
            if i == 2:
                raise KeyboardInterrupt
            return made(cfg, i)

        monkeypatch.setattr(cli, "realization", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run("generate", "--model", "ER", "--N", "10", "--p", "0.5", "--realizations", "3",
                "--out", str(out))
        assert [p.name for p in tmp_path.iterdir()] == (["d"] if existed else [])
        if existed:
            assert list(out.iterdir()) == []

    def test_analyze_rerun_byte_identical(self, tmp_path, sample_file):
        trees = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run("analyze", "--input", str(sample_file), "--out", str(out))
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]


def test_every_config_field_has_one_flag_and_one_config_key():
    # each field's annotation, read as load_config reads it, is the type of
    # its flag: its argparse type, or str for a flag with choices
    kinds = {f.name: f.type.split()[0] for f in fields(GeneratorConfig)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    own_flags = {"generate": {"help", "out"},
                 "sweep": {"help", "out", "format", "min_samples", "workers"}}
    for command, own in own_flags.items():
        flags = [a for a in sub.choices[command]._actions if a.dest not in own]
        assert sorted(a.dest for a in flags) == sorted(kinds)
        for a in flags:
            if a.choices is None:
                assert a.type.__name__ == kinds[a.dest], a.dest
            else:
                assert kinds[a.dest] == "str" and all(isinstance(c, str) for c in a.choices)


def test_summary_columns_name_every_summary_field_once():
    named = [f for _, f in cli.SUMMARY_COLUMNS]
    assert sorted(named) == sorted(f.name for f in fields(NetworkSummary))


def test_ensemble_fields_are_pinned():
    # the keys of ensemble.json's mean/std/defined, in order
    assert SUMMARY_FIELDS == (
        "n_nodes", "n_edges", "n_isolated", "cc", "sigma", "beta", "k0", "k0_w",
        "k0w_over_k0", "sigma_over_cc", "beta_over_cc", "beta_over_sigma",
        "beta_over_sigma_cc",
    )


def test_report_flags_are_the_same_in_analyze_and_sweep():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def report_flags(command):
        return [(a.option_strings, a.dest, a.choices, a.type, a.default, a.help)
                for a in sub.choices[command]._actions if a.dest in ("format", "min_samples")]

    assert len(report_flags("analyze")) == 2
    assert report_flags("analyze") == report_flags("sweep")


class TestUnusableOut:
    """An --out that cannot be made or written is a usage error naming it."""

    def test_analyze(self, tmp_path, capsys, monkeypatch, sample_file):
        out = tmp_path / "file"
        out.write_text("")
        monkeypatch.setattr(cli, "parse_edge_list", pytest.fail)
        assert run("analyze", "--input", str(sample_file), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err

    def test_generate(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "file"
        out.write_text("")
        monkeypatch.setattr(cli, "realization", pytest.fail)
        code = run("generate", "--model", "ER", "--N", "10", "--p", "0.5", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_sweep(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "file"
        out.write_text("")
        monkeypatch.setattr(cli, "run_ensemble", pytest.fail)
        code = run("sweep", "--model", "ER", "--N", "10", "--p", "0.5",
                   "--realizations", "2", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    def test_project(self, tmp_path, capsys, monkeypatch, where):
        src = tmp_path / "events.txt"
        src.write_text("e1 a\ne1 b\n")
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(cli, "_read_events", pytest.fail)
        out = tmp_path if where == "directory" else tmp_path / "file" / "x.edges"
        assert run("project", "--input", str(src), "--out", str(out)) == 1
        err = capsys.readouterr().err
        named = tmp_path if where == "directory" else tmp_path / "file"
        assert err.startswith("error: ") and str(named) in err
