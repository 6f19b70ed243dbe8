import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from welldom.cli import _write_json, cli_main, resolve_budget
from welldom.fixtures import builtin_fixtures
from welldom.generators import GeneratorConfig, generate_family
from welldom.graphs import Graph, serialize_graph
from welldom.linalg import SubspaceBasis, nullspace, row_space
from welldom.named_graphs import (
    complete_bipartite_graph,
    cycle_graph,
    fringe_gap_graph,
    path_graph,
    triangle_with_pendants,
)
from welldom.oracle import DEFAULT_BUDGET
from welldom.structure import CharacterizationOutcome, ComponentFacts

from conftest import count_calls, graphs, random_eared_tree


@pytest.fixture
def graph_file(tmp_path):
    def write(g: Graph, fmt: str = "edgelist") -> str:
        path = tmp_path / f"graph.{fmt}"
        path.write_text(serialize_graph(g, fmt))
        return str(path)

    return write


class TestBudgetResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("WELLDOM_BUDGET", raising=False)
        assert resolve_budget() is DEFAULT_BUDGET

    def test_env(self, monkeypatch):
        monkeypatch.setenv("WELLDOM_BUDGET", "500")
        budget = resolve_budget()
        assert budget.max_sets == 500
        assert budget.max_independent_vertices == 62

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("WELLDOM_BUDGET", "500")
        assert resolve_budget(7).max_sets == 7


class TestAnalyze:
    def test_clean_graph_exits_zero(self, graph_file, capsys):
        assert cli_main(["analyze", graph_file(path_graph(4))]) == 0
        out = capsys.readouterr().out
        assert "well-covered: True" in out
        assert "0 failed" in out

    def test_failed_check_exits_one(self, graph_file, capsys, monkeypatch):
        # a wrong dominating-set engine: every weight passes
        def whole_space(facts):
            return CharacterizationOutcome((facts.special_form,), nullspace([], facts.graph.n))

        monkeypatch.setattr(ComponentFacts, "wwd", property(whole_space))
        assert cli_main(["analyze", graph_file(path_graph(4))]) == 1
        err = capsys.readouterr().err
        assert "check failed: wwd_matches_oracle" in err

    def test_adjacent_anchored_pair_exits_zero(self, graph_file, capsys):
        assert cli_main(["analyze", graph_file(triangle_with_pendants(1))]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_large_fringe_exits_zero(self, graph_file, capsys):
        # the 25-cell path corona: a pendant on each of 25 path vertices
        edges = [(i, i + 1) for i in range(24)] + [(i, 25 + i) for i in range(25)]
        assert cli_main(["analyze", graph_file(Graph.from_edges(50, edges)), "--json"]) == 0
        checks = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["wwd_dimension_equals_anchored_fringe"] == "pass"
        assert checks["wcw_dimension_equals_fringe_independence"] == "pass"

    def test_json_output(self, graph_file, capsys):
        assert cli_main(["analyze", "--json", graph_file(path_graph(4))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["recognition"]["well_covered"] is True

    def test_json_reduces_each_printed_basis_once(self, graph_file, capsys, monkeypatch):
        # the oracle certifies both closed-form bases and its section holds
        # the same two objects, each printed twice from one canonical form
        counts = count_calls(monkeypatch, [("welldom.linalg", "_canonical")])
        assert cli_main(["analyze", graph_file(fringe_gap_graph()), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for name in ("wcw", "wwd"):
            assert payload["characterization"][name] == payload["oracle"][name]
        assert counts["_canonical"] == 2

    def test_out_of_family_graph_still_reports(self, graph_file, capsys):
        assert cli_main(["analyze", graph_file(complete_bipartite_graph(3, 3))]) == 0
        out = capsys.readouterr().out
        assert "recognition not applicable" in out

    def test_graph6_input(self, graph_file, capsys):
        assert cli_main(["analyze", "--format", "graph6",
                         graph_file(cycle_graph(5), "graph6")]) == 0
        assert "5" in capsys.readouterr().out


class TestWeightSpaceCommands:
    def test_wcw_json(self, graph_file, capsys):
        assert cli_main(["wcw", "--json", graph_file(cycle_graph(7))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["space"] == "wcw"
        assert payload["special_forms"] == ["cycle7"]
        assert payload["basis"]["basis"] == [["1/1"] * 7]

    def test_wwd_notes_zero_forced(self, graph_file, capsys):
        assert cli_main(["wwd", "--json", graph_file(fringe_gap_graph())]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["space"] == "wwd"
        assert payload["basis"]["dimension"] == 0
        assert any("zero-forced" in note for note in payload["notes"])

    def test_forbidden_cycle_is_a_usage_error(self, graph_file, capsys):
        assert cli_main(["wwd", graph_file(complete_bipartite_graph(2, 2))]) == 2
        assert "4-cycle" in capsys.readouterr().err

    def test_internal_error_exits_four_on_one_line(self, graph_file, capsys, monkeypatch):
        # a ValueError from inside the engine is a fault too, not bad input
        for error in (RuntimeError, ValueError):
            def broken(facts):
                raise error("engine fault")

            monkeypatch.setattr(ComponentFacts, "wcw", property(broken))
            assert cli_main(["wcw", graph_file(path_graph(4))]) == 4
            assert capsys.readouterr().err == f"internal error: {error.__name__}: engine fault\n"

    def test_text_output_prints_rows(self, graph_file, capsys):
        assert cli_main(["wcw", graph_file(path_graph(4))]) == 0
        out = capsys.readouterr().out
        assert "dimension: 2" in out
        assert "1/1 1/1 0/1 0/1" in out


class TestOracle:
    def test_counts(self, graph_file, capsys):
        assert cli_main(["oracle", "--json", graph_file(complete_bipartite_graph(3, 3))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["maximal_independent_count"] == 2
        assert payload["minimal_dominating_count"] == 11
        assert payload["well_covered"] is True
        assert payload["well_dominated"] is False
        assert payload["wcw"]["dimension"] == 5
        assert payload["wwd"]["dimension"] == 0

    def test_budget_flag_exhaustion_exits_three(self, graph_file, capsys):
        assert cli_main(["oracle", "--budget", "3", graph_file(cycle_graph(7))]) == 3
        assert "resource limit" in capsys.readouterr().err

    def test_vertex_gate_applies_without_explicit_budget(self, graph_file, monkeypatch):
        monkeypatch.delenv("WELLDOM_BUDGET", raising=False)
        big = Graph.from_edges(25, [])
        assert cli_main(["oracle", graph_file(big)]) == 3

    def test_explicit_budget_lifts_vertex_gate(self, graph_file, capsys):
        big = Graph.from_edges(25, [])
        assert cli_main(["oracle", "--budget", "100", graph_file(big)]) == 0
        payload_lines = capsys.readouterr().out
        assert "maximal_independent_count: 1" in payload_lines

    def test_env_budget(self, graph_file, monkeypatch, capsys):
        monkeypatch.setenv("WELLDOM_BUDGET", "3")
        assert cli_main(["oracle", graph_file(cycle_graph(7))]) == 3
        capsys.readouterr()
        assert cli_main(["oracle", "--budget", "1000", graph_file(cycle_graph(7))]) == 0

    def test_bad_env_budget(self, graph_file, monkeypatch, capsys):
        monkeypatch.setenv("WELLDOM_BUDGET", "lots")
        assert cli_main(["analyze", graph_file(path_graph(3))]) == 2
        assert "WELLDOM_BUDGET" in capsys.readouterr().err


class TestFixturesCommand:
    def test_listing(self, capsys):
        assert cli_main(["fixtures"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 15
        assert any(line.startswith("cycle7:") for line in out)

    def test_run_json(self, capsys):
        assert cli_main(["fixtures", "--run", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 15
        assert all(entry["ok"] for entry in payload)


class TestProptestCommand:
    def test_small_sweep(self, capsys):
        assert cli_main(["proptest", "--count", "15", "--max-n", "7",
                         "--seed", "9", "--forbid", "4,5"]) == 0
        out = capsys.readouterr().out
        assert "graphs checked: 15" in out
        assert "failures: 0" in out

    def test_bad_forbid_list(self, capsys):
        assert cli_main(["proptest", "--forbid", "four"]) == 2

    def test_cycle_length_floor(self, capsys):
        assert cli_main(["proptest", "--forbid", "2,5"]) == 2

    def test_out_of_range_sizes(self, capsys):
        assert cli_main(["proptest", "--max-n", "0"]) == 2
        assert cli_main(["proptest", "--count", "-1"]) == 2
        assert "--count: must be at least 0, got -1" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert cli_main(["analyze", str(tmp_path / "absent.edges")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"\xff\xfe\n")
        assert cli_main(["analyze", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_edgelist(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("4\n0 1 2\n")
        assert cli_main(["analyze", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_huge_vertex_count_is_refused(self, tmp_path, capsys):
        # twelve bytes that would otherwise build 10^11 adjacency sets
        huge = tmp_path / "huge.edges"
        huge.write_text("99999999999\n")
        assert cli_main(["wcw", str(huge)]) == 2
        assert "line 1: vertex count 99999999999 exceeds the limit of 100000" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "welldom" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert cli_main([]) == 2


def _module_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m welldom.cli ARGV`` in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "welldom.cli", *argv],
        capture_output=True, text=True, timeout=120, env=_module_env(),
    )


def test_runs_as_a_module():
    done = _run_module("fixtures")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.strip().splitlines()) == 15


def test_closed_output_pipe_exits_141_in_silence(graph_file):
    # the report on C_10,000 is about 320 kB, far more than a pipe holds, so
    # the command is still writing when the reader goes, as under `| head -c 100`
    proc = subprocess.Popen(
        [sys.executable, "-m", "welldom.cli", "analyze", graph_file(cycle_graph(10_000)), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_back_to_back_calls_match_fresh_processes(graph_file, capsys):
    # cli_main keeps one parser per process; no call may see an earlier one
    path = graph_file(triangle_with_pendants(1))
    commands = [["analyze", path], ["wcw"], ["wcw", "--json", path]]
    alone = []
    for argv in commands:
        done = _run_module(*argv)
        alone.append((done.stdout, done.stderr, done.returncode))
    together = []
    for argv in commands:
        code = cli_main(argv)
        captured = capsys.readouterr()
        together.append((captured.out, captured.err, code))
    assert [code for _, _, code in together] == [0, 2, 0]
    assert together == alone


def test_json_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    """Every --json command's stdout and exit code, byte for byte, on the
    fixtures and the criterion-7 stream (as printed, with indent=2)."""
    monkeypatch.delenv("WELLDOM_BUDGET", raising=False)
    cfg = GeneratorConfig(max_n=12, forbidden_cycles=frozenset({4, 5, 6}), seed=77, count=380)
    graphs = [fixture.graph for fixture in builtin_fixtures()] + list(generate_family(cfg))
    path = str(tmp_path / "graph.txt")
    digest = hashlib.sha256()

    def run(*argv: str) -> None:
        code = cli_main(list(argv))
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())

    for g in graphs:
        Path(path).write_text(serialize_graph(g, "edgelist"))
        for command in ("analyze", "wcw", "wwd", "oracle"):
            run(command, path, "--json")
    run("fixtures", "--json")
    run("fixtures", "--run", "--json")
    assert len(graphs) == 15 + 380
    assert digest.hexdigest() == "032a8a060ca198993a915b4cc5601db5f1f482cff780ab6711382763c719bb92"


def test_text_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    """Every graph command's text stdout, stderr and exit code, byte for
    byte, on the fixtures and the criterion-7 stream."""
    monkeypatch.delenv("WELLDOM_BUDGET", raising=False)
    cfg = GeneratorConfig(max_n=12, forbidden_cycles=frozenset({4, 5, 6}), seed=77, count=380)
    graphs = [fixture.graph for fixture in builtin_fixtures()] + list(generate_family(cfg))
    path = str(tmp_path / "graph.txt")
    digest = hashlib.sha256()
    for g in graphs:
        Path(path).write_text(serialize_graph(g, "edgelist"))
        for command in ("analyze", "wcw", "wwd", "oracle"):
            code = cli_main([command, path])
            captured = capsys.readouterr()
            digest.update(f"{code}\n{captured.out}\0{captured.err}\0".encode())
    assert len(graphs) == 15 + 380
    assert digest.hexdigest() == "0797ee235120b1680cac4abcef759e55c5adf2e3c413fce10407513bbbfd7b53"


@given(graphs(max_n=8))
def test_graph_commands_exit_zero_or_refuse_the_family(tmp_path_factory, g):
    """On any small graph, in either format and output form, analyze and
    oracle succeed, and wcw and wwd succeed or say the graph is outside
    their family; no check fails, no budget runs out, nothing is a fault."""
    directory = tmp_path_factory.getbasetemp()
    for fmt in ("edgelist", "graph6"):
        path = directory / f"any.{fmt}"
        path.write_text(serialize_graph(g, fmt))
        for command in ("analyze", "wcw", "wwd", "oracle"):
            for json_flag in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main([command, str(path), "--format", fmt, *json_flag])
                if command in ("wcw", "wwd") and code == 2:
                    assert err.getvalue().startswith("error: not applicable"), (command, g.edges())
                else:
                    assert code == 0, (command, fmt, json_flag, g.edges(), err.getvalue())


# text that json must escape, beside the rest of unicode
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600') | st.characters(), max_size=6)
_BASES = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=4)
    .map(lambda rows: row_space(rows, n)))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**30, 10**40)
    | st.integers(-(10**40), -(10**30)) | _TEXT | _BASES,
    lambda items: st.lists(items) | st.lists(items).map(tuple) | st.dictionaries(_TEXT, items),
    max_leaves=12,
)


@given(_JSON_VALUES)
def test_writer_matches_json_dumps(value):
    parts: list[str] = []
    _write_json(value, parts.append)
    assert "".join(parts) == json.dumps(value, indent=2, default=SubspaceBasis.to_json_dict)


def test_analyze_leaves_no_cyclic_garbage(tmp_path, capsys):
    """analyze --json frees everything it builds by reference counting alone,
    so a run never waits on the cycle collector to give memory back."""
    path = tmp_path / "graph.txt"
    cli_main(["fixtures"])  # the parser, built once per process, holds cycles of its own
    gc.collect()
    gc.disable()
    try:
        for fixture in builtin_fixtures():
            path.write_text(serialize_graph(fixture.graph, "edgelist"))
            cli_main(["analyze", str(path), "--json"])
            capsys.readouterr()
            assert gc.collect() == 0, fixture.name
    finally:
        gc.enable()


def test_analyze_json_memory_stays_small(tmp_path):
    """The 16 MB report of a 1,000-vertex eared tree is written without
    holding its text or a dense basis: the traced peak stays under 8 MiB."""

    class Sink:  # keeps nothing, counts and hashes what it is given
        def __init__(self) -> None:
            self.size = 0
            self.digest = hashlib.sha256()

        def write(self, text: str) -> None:
            self.size += len(text)
            self.digest.update(text.encode())

    path = tmp_path / "eared.txt"
    path.write_text(serialize_graph(random_eared_tree(800, 200), "edgelist"))
    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert cli_main(["analyze", str(path), "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 16_050_361
    assert sink.digest.hexdigest() == "fdad68f1f82228e35b63530d7f74aa33dec2fa47b061d83183536ccf0b2d4c75"
    assert peak < 8 * 2**20, peak
