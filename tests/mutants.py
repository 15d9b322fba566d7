"""Mutation canaries: faults the tests are known to catch, kept as a table.

Each row names a module of ``src/gossipnet``, a snippet that occurs there
exactly once, its replacement, the tests that must fail on the result, and
the opening words of the CHANGES.md entry that recorded the check. The
runner applies each row to a temporary copy of ``src/`` and runs only the
row's tests against that copy. A row holds when pytest exits 1 and every
named test fails by assertion. A missing or repeated snippet fails the run,
so a refactor that moves the code must update its row. A named test must
catch its row on every run: a property test that finds the fault only in
some of its random examples is no canary. Each row gets an empty hypothesis
example database, so a failure that one run saved is not replayed by the next.
A row whose tests run past ``TIMEOUT_S`` is killed and counts as not caught,
so a named test must not draw weights from a config the fault lets through:
its redraws may never end.

The runner prints each row's seconds and, on its summary line, the total.
The file is not collected by pytest. Run it from anywhere:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: Seconds a row's tests may run; a row that runs longer is not caught
TIMEOUT_S = 60


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    source: str


MUTANTS = (
    Mutant(  # the kernel's forwarding mask: a tie on the threshold goes quiet
        "cascade.py",
        "fwd = ~(g._weights[s0:s1] * g._degree[u] > g._strength[u])",
        "fwd = ~(g._weights[s0:s1] * g._degree[u] >= g._strength[u])",
        ("tests/test_scale.py::test_kernel_equals_oracle_with_tied_weights",
         "tests/test_cascade.py::test_kernel_matches_oracle_on_wheels[5]",
         "tests/test_golden.py::test_analyze_lesmis"),
        "One per-victim path, the BFS oracle",
    ),
    Mutant(  # a quiet node next to a component counted once per edge to it
        "cascade.py",
        "reach += np.bincount(pairs[distinct] // n, minlength=n)",
        "reach += np.bincount(pairs // n, minlength=n)",
        ("tests/test_scale.py::test_weighted_model_never_reaches_more_per_slot",
         "tests/test_scale.py::test_kernel_equals_oracle_on_a_sample",
         "tests/test_acceptance.py::test_c06_fast_path_oracle_equivalence"),
        "One builder per result",
    ),
    Mutant(  # the oracle's close-friend rule: a tie on the threshold goes quiet
        "cascade.py",
        "[] if w * k > s else row",
        "[] if w * k >= s else row",
        ("tests/test_cascade.py::TestWeightedCascade::test_uniform_triangle_everyone_forwards",
         "tests/test_acceptance.py::test_c07_uniform_weight_reduction[1.0]",
         "tests/test_cascade.py::test_kernel_matches_oracle_on_wheels[5]"),
        "One reachability rule for both spread models",
    ),
    Mutant(  # the oracle lets a quiet neighbor forward
        "cascade.py",
        "[] if w * k > s else row",
        "row",
        ("tests/test_cascade.py::TestWeightedCascade::test_strong_tie_blocks_originator",
         "tests/test_cascade.py::TestWeightedCascade::test_blocked_node_still_receives",
         "tests/test_acceptance.py::test_c02_sample_network_weighted_exact"),
        "One reachability rule for both spread models",
    ),
    Mutant(  # the base model forwards as the weighted one does
        "cascade.py",
        "_reach_counts(a, b, np.ones(s1 - s0, dtype=bool))",
        "_reach_counts(a, b, ~(g._weights[s0:s1] * g._degree[g._indices[s0:s1]]"
        " > g._strength[g._indices[s0:s1]]))",
        ("tests/test_cascade.py::TestWholeGraphCounts::test_sample_network",
         "tests/test_acceptance.py::test_c04_les_miserables_reference_row",
         "tests/test_golden.py::test_analyze_lesmis"),
        "One reachability rule for both spread models",
    ),
    Mutant(  # a graph's lookup adds a label on a miss
        "graph.py",
        "self._index = dict(zip(self._labels, range(len(self._labels))))",
        "self._index = defaultdict(itertools.count(len(self._labels)).__next__,"
        " zip(self._labels, range(len(self._labels))))",
        ("tests/test_graph.py::test_unknown_node_raises[build_graph]",
         "tests/test_graph.py::test_unknown_node_raises[parse_edge_list]"),
        "A graph holds its labels, not a lookup dict",
    ),
    Mutant(  # a graph's lookup puts every label one index late
        "graph.py",
        "self._index = dict(zip(self._labels, range(len(self._labels))))",
        "self._index = dict(zip(self._labels, range(1, len(self._labels) + 1)))",
        ("tests/test_graph.py::test_unknown_node_raises[build_graph]",
         "tests/test_graph.py::test_unknown_node_raises[parse_edge_list]"),
        "A graph holds its labels, not a lookup dict",
    ),
    Mutant(  # strengths summed left to right instead of correctly rounded
        "graph.py",
        "sums[v] = math.fsum(weights[a:b].tolist())",
        "sums[v] = sum(weights[a:b].tolist())",
        ("tests/test_graph.py::test_strengths_are_fsum_of_mixed_rows",
         "tests/test_acceptance.py::test_c07_uniform_weight_reduction[0.1]"),
        "Every command process freezes its import-time heap",
    ),
    Mutant(  # a command process that keeps its import-time heap live
        "cli.py",
        "    gc.freeze()\n",
        "",
        ("tests/test_cli.py::TestEntry::test_freezes_the_heap_once_before_main",),
        "Every command process freezes its import-time heap",
    ),
    Mutant(  # a hit on a row's first pair credited to the row before it
        "generate.py",
        'rows = np.searchsorted(starts, flat, side="right") - 1',
        'rows = np.searchsorted(starts, flat, side="left") - 1',
        ("tests/test_generate.py::TestBatchDraws::test_er_edges_equal_rowwise_draws[65536]",
         "tests/test_golden.py::test_generate_n200[er]",
         "tests/test_golden.py::test_sweep_n200[er]",
         "tests/test_golden.py::test_generate_n1000[er]"),
        "Sweep workers are forked children",
    ),
    Mutant(  # a sweep worker runs every realization from its first one on
        "generate.py",
        "for i in range(start, n, step):",
        "for i in range(start, n):",
        ("tests/test_cli.py::TestSweep::test_worker_counts_byte_identical",
         "tests/test_cli.py::TestEntry::test_fresh_processes_sweep_byte_identical_across_workers"),
        "Sweep workers are forked children",
    ),
    Mutant(  # a worker's failure is dropped, its realizations left empty
        "generate.py",
        "    if failures:\n        raise min(failures, key=lambda f: f[0])[1]\n",
        "",
        ("tests/test_cli.py::TestExitCodes::test_overflow_in_a_forked_worker_is_usage_error",
         "tests/test_cli.py::TestExitCodes::test_killed_worker_is_internal_error"),
        "Sweep workers are forked children",
    ),
    Mutant(  # an interrupted command keeps what it wrote
        "cli.py",
        "    except BaseException:\n        if made is not None:",
        "    except Exception:\n        if made is not None:",
        ("tests/test_cli.py::TestExitCodes::test_interrupted_generate_leaves_no_out[False]",
         "tests/test_cli.py::TestExitCodes::test_interrupted_generate_leaves_no_out[True]"),
        "One `--out` lifecycle",
    ),
    Mutant(  # a generator flag whose field has no default may be left out
        "cli.py",
        ", required=required,",
        ",",
        ("tests/test_cli.py::TestExitCodes::test_missing_required_flag_is_usage_error[--N-generate]",
         "tests/test_cli.py::TestExitCodes::test_missing_required_flag_is_usage_error[--model-sweep]",
         "tests/test_golden.py::test_help[generate]"),
        "Generator flags are built from the fields of `GeneratorConfig`",
    ),
    Mutant(  # a degree-2 victim counted as one with no pair of friends
        "metrics.py",
        "pairs = k >= 2",
        "pairs = k > 2",
        ("tests/test_metrics.py::TestGlobalSpread::test_path_graph_leaf_victims_count_zero",
         "tests/test_metrics.py::TestClustering::test_triangle",
         "tests/test_acceptance.py::test_c04_les_miserables_reference_row",
         "tests/test_golden.py::test_analyze_lesmis"),
        "Generator flags are built from the fields of `GeneratorConfig`",
    ),
    Mutant(  # a global coefficient summed left to right instead of correctly rounded
        "metrics.py",
        "return math.fsum(grouped)",
        "return sum(grouped)",
        ("tests/test_acceptance.py::test_c06_fast_path_oracle_equivalence",
         "tests/test_golden.py::test_analyze_lesmis",
         "tests/test_golden.py::test_sweep_n200[ba]"),
        "Generator flags are built from the fields of `GeneratorConfig`",
    ),
    Mutant(  # the triangle listing's slot keys row * N + col wrap in int32
        "cascade.py",
        "keys = rows * n + indices  # int64, as rows and indices are",
        "keys = rows.astype(np.int32) * n + indices",
        ("tests/test_networkx_oracle.py::test_slot_keys_past_the_int32_range",),
        "A graph holds its labels, not a lookup dict",
    ),
    Mutant(  # the strengths' whole-weight test skips its last slice of slots
        "graph.py",
        "for start in range(0, len(weights), MERGE_CHUNK):",
        "for start in range(0, len(weights) - MERGE_CHUNK, MERGE_CHUNK):",
        ("tests/test_graph.py::test_whole_weights_are_tested_in_chunks[2]",
         "tests/test_graph.py::test_whole_weights_are_tested_in_chunks[3]",
         "tests/test_graph.py::test_whole_weights_are_tested_in_chunks[4]"),
        "A graph holds its labels, not a lookup dict",
    ),
    Mutant(  # the writer lets a label start with "#" or U+FEFF
        "ingest.py",
        ' and text[0] not in "#\\ufeff"',
        "",
        ("tests/test_cli.py::TestProject::test_labels_unreadable_as_edge_list_are_input_errors[#x]",
         "tests/test_cli.py::TestProject::test_labels_unreadable_as_edge_list_are_input_errors"
         "[\\ufeffa]",
         "tests/test_ingest.py::TestWriteEdgeList::test_every_written_file_reads_back"),
        "One reachability rule for both spread models",
    ),
    Mutant(  # the writer prints two labels as one text
        "ingest.py",
        "            if u != v:\n                raise ValueError(",
        "            if False:\n                raise ValueError(",
        ("tests/test_ingest.py::TestWriteEdgeList::"
         "test_labels_alike_in_text_never_merge_on_reading_back[1]",
         "tests/test_ingest.py::TestWriteEdgeList::"
         "test_labels_alike_in_text_never_merge_on_reading_back[2.5]"),
        "Edge lists are read in blocks straight into one numpy graph constructor",
    ),
    Mutant(  # the reader's line numbers fall one behind per block
        "ingest.py",
        'lineno += block.count("\\n")',
        'lineno += block.count("\\n") - 1',
        ("tests/test_ingest.py::TestBlockReader::test_lines_end_after_newline_only[\\x0c-0-40]",
         "tests/test_ingest.py::TestEventReader::test_same_error_as_line_reader[g-150-40]"),
        "Edge-list and label text read and written at C speed",
    ),
    Mutant(  # the line check lets a self-loop through
        "ingest.py",
        "    if a == b:\n        raise EdgeListError",
        "    if False:\n        raise EdgeListError",
        ("tests/test_cli.py::TestAnalyze::test_self_loop_is_input_error[whitespace]",
         "tests/test_cli.py::TestAnalyze::test_self_loop_is_input_error[comma]"),
        "Edge lists are read in blocks straight into one numpy graph constructor",
    ),
    Mutant(  # an input file that cannot be opened is an internal error
        "cli.py",
        "_READ_ERRORS = (EdgeListError, OSError, UnicodeDecodeError)",
        "_READ_ERRORS = (EdgeListError, UnicodeDecodeError)",
        ("tests/test_cli.py::TestAnalyze::test_missing_input_is_input_error",
         "tests/test_cli.py::TestExitCodes::test_input_error_makes_no_out[analyze-a]",
         "tests/test_cli.py::TestExitCodes::test_input_error_makes_no_out[project-b/x.edges]"),
        "One `--out` lifecycle",
    ),
    Mutant(  # an output file recorded before its open, so a refused one is removed
        "cli.py",
        '        with _blamed(_UsageError, OSError, "--out: cannot write: "):\n'
        '            fh = open(p, "w", encoding="utf-8", newline="")\n'
        "        written.append(p)\n",
        "        written.append(p)\n"
        '        with _blamed(_UsageError, OSError, "--out: cannot write: "):\n'
        '            fh = open(p, "w", encoding="utf-8", newline="")\n',
        ("tests/test_cli.py::TestExitCodes::test_unopenable_existing_output_is_kept",),
        "Review fix for the `--out` lifecycle",
    ),
    Mutant(  # a config made without its checks
        "generate.py",
        "    def __post_init__(self) -> None:\n        self.validate()\n",
        "",
        ("tests/test_cli.py::TestExitCodes::test_negative_seed_is_usage_error[generate]",
         "tests/test_cli.py::TestExitCodes::"
         "test_invalid_generator_parameters_are_usage_errors[ba_m0_1-generate]",
         "tests/test_generate.py::TestConfigValidation::test_rejects_bad_parameters[cfg0-model]"),
        "Each choice settled once",
    ),
    Mutant(  # --model unweighted reports the weighted model too
        "metrics.py",
        "beta, beta_curve = spread(m_per) if run_w else (None, None)",
        "beta, beta_curve = spread(m_per)",
        ("tests/test_metrics.py::TestSummarize::test_one_model_is_its_side_of_both[unweighted]",
         "tests/test_metrics.py::TestGlobalSpread::test_model_selection",
         "tests/test_cli.py::TestAnalyze::test_unweighted_model_leaves_beta_cells_empty"),
        "Each choice settled once",
    ),
    Mutant(  # an originator outside the victim's neighborhood fails with list.index's message
        "cascade.py",
        "    except ValueError:\n        raise ValueError(f\"originator",
        "    except IndexError:\n        raise ValueError(f\"originator",
        ("tests/test_cascade.py::TestUnweightedCascade::test_originator_must_be_neighbor",),
        "Each choice settled once",
    ),
    Mutant(  # the forwarding mask warns when its product passes the float range
        "cascade.py",
        'with np.errstate(over="ignore"):',
        "with np.errstate():",
        ("tests/test_cascade.py::test_forwarding_mask_past_the_float_range",),
        "Each choice settled once",
    ),
    Mutant(  # the resample rule accepts a sum that rounds to the floor
        "generate.py",
        "Z_99 * self.weight_stddev > WEIGHT_FLOOR",
        "Z_99 * self.weight_stddev >= WEIGHT_FLOOR",
        ("tests/test_generate.py::TestConfigValidation::test_resample_rule_is_exact_at_the_floor",
         "tests/test_generate.py::TestConfigValidation::test_rejects_bad_parameters[cfg22-under 1%]",
         "tests/test_generate.py::TestConfigValidation::test_rejects_bad_parameters[cfg23-under 1%]"),
        "One exact weight-floor rule",
    ),
    Mutant(  # a zero spread at the floor is made
        "generate.py",
        "        if self.weight_stddev == 0 and self.weight_mean <= WEIGHT_FLOOR:\n"
        '            raise ValueError("weight_mean must exceed the positive floor when'
        ' weight_stddev is 0")\n',
        "",
        ("tests/test_generate.py::TestConfigValidation::"
         "test_rejects_bad_parameters[cfg20-weight_stddev is 0]",
         "tests/test_generate.py::TestConfigValidation::"
         "test_rejects_bad_parameters[cfg21-weight_stddev is 0]"),
        "One exact weight-floor rule",
    ),
    Mutant(  # a global spread factor averaged over isolated nodes too
        "metrics.py",
        "total / n_victims",
        "total / g.node_count",
        ("tests/test_acceptance.py::test_c11_degree_curve_consistency",),
        "One exact weight-floor rule",
    ),
    Mutant(  # a rewired edge that wraps round the ring is never removed
        "generate.py",
        "keys.discard(a * n + b if a < b else b * n + a)",
        "keys.discard(a * n + b)",
        ("tests/test_generate.py::TestStructure::test_ws_rewiring_preserves_edge_count",
         "tests/test_generate.py::TestBatchDraws::test_ws_edges_equal_tuple_set_draws[200-20]"),
        "WS rewiring over integer pair keys",
    ),
    Mutant(  # the lattice's wrapping pairs start one pair late
        "generate.py",
        "range(n - j, j * (n + 1), n + 1)",
        "range(2 * n + 1 - j, j * (n + 1), n + 1)",
        ("tests/test_generate.py::TestStructure::test_ws_lattice_when_no_rewiring",),
        "WS rewiring over integer pair keys",
    ),
    Mutant(  # a victim's spread divided by its ordered pairs of distinct friends
        "metrics.py",
        "_per_victim(k, count_sums, k * k)",
        "_per_victim(k, count_sums, k * (k - 1))",
        ("tests/test_scale.py::test_triangle_free_graph_spreads_to_nobody",),
        "WS rewiring over integer pair keys",
    ),
    Mutant(  # the oracle's spread factors swap the two models' totals
        "cascade.py",
        "        sigma=n_total / (k * k) if run_u else None,\n"
        "        beta=m_total / (k * k) if run_w else None,\n",
        "        sigma=m_total / (k * k) if run_u else None,\n"
        "        beta=n_total / (k * k) if run_w else None,\n",
        ("tests/test_acceptance.py::test_c05_dominance_suite",
         "tests/test_cascade.py::TestVictimSpread::test_sample_network_means"),
        "The networkx oracle checks the kernel's own triangle counts",
    ),
    Mutant(  # a forked sweep worker's analyses placed in reverse order
        "generate.py",
        "analyses[w::pool_size] = result",
        "analyses[w::pool_size] = result[::-1]",
        ("tests/test_acceptance.py::test_c10_byte_determinism",
         "tests/test_cli.py::TestSweep::test_worker_counts_byte_identical"),
        "The networkx oracle checks the kernel's own triangle counts",
    ),
    Mutant(  # one triangle family left out of the triangles through each node
        "cascade.py",
        "for slots in cycle)",
        "for slots in cycle[:2])",
        ("tests/test_networkx_oracle.py::test_les_miserables",
         "tests/test_networkx_oracle.py::test_corpus",
         "tests/test_networkx_oracle.py::test_generated_realization_m1e5"),
        "The networkx oracle checks the kernel's own triangle counts",
    ),
)


def check(m: Mutant, tmp: Path) -> str | None:
    """None when row ``m`` holds, else what went wrong."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "gossipnet" / m.file
    text = path.read_text(encoding="utf-8")
    if text.count(m.snippet) != 1:
        return f"the snippet occurs {text.count(m.snippet)} times in {m.file}, not once"
    path.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
    # the mutated copy goes first on sys.path, ahead of the checkout's src/;
    # a wide terminal keeps each failure's message in the summary
    with subprocess.Popen(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rf", "-o", f"pythonpath={src}", *m.tests],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, COLUMNS="10000", HYPOTHESIS_STORAGE_DIRECTORY=str(tmp / "hypothesis")),
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # the whole process group: a forked sweep worker that holds the
            # pipe would keep communicate() waiting after pytest is gone
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return f"its tests ran past the {TIMEOUT_S} s timeout"
    if proc.returncode != 1:
        return f"pytest exited {proc.returncode}, not 1:\n{out}{err}"
    # a test id may hold spaces, as in test_same_error_as_line_reader[a b-150-40]
    failed = dict(re.findall(r"^FAILED (.+?) - (.*)$", out, re.M))
    for test in m.tests:
        if not failed.get(test, "").startswith(("assert", "AssertionError")):
            return f"{test} did not fail by assertion: {failed.get(test, 'it passed')}"
    return None


def main() -> int:
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    broken = 0
    began = time.perf_counter()
    for m in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            problem = check(m, Path(tmp))
        seconds = time.perf_counter() - start
        if problem is None and m.source not in changes:
            problem = f"CHANGES.md has no entry {m.source!r}"
        broken += problem is not None
        print(f"{'ok  ' if problem is None else 'FAIL'} {seconds:5.1f} s "
              f"{m.file}: {m.snippet!r} -> {m.replacement!r}")
        if problem is not None:
            print(f"     {problem}")
    print(f"{len(MUTANTS) - broken} of {len(MUTANTS)} mutants caught by their tests "
          f"in {time.perf_counter() - began:.1f} s")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
