"""End-to-end tests for the command-line interface."""

import json
import os
from pathlib import Path

import pytest

from unitcodes import codes, graphs
from unitcodes.cli import _UsageError, build_parser, run


GOLDEN = Path(__file__).parent / "golden"


def test_graph_basic(capsys):
    assert run(["graph", "5", "5"]) == 0
    out = capsys.readouterr().out
    assert "25 vertices, 192 edges" in out


def test_graph_invariants(capsys):
    assert run(["graph", "3", "5", "--invariants"]) == 0
    out = capsys.readouterr().out
    assert "diameter:           2" in out
    assert "girth:              3" in out
    assert "edge connectivity:  7" in out
    assert "incidence rank GF(2): 14" in out
    assert "PP_OddOdd" in out


def test_graph_invariants_disconnected(capsys):
    assert run(["graph", "2", "2", "--invariants"]) == 0
    out = capsys.readouterr().out
    assert "diameter:           infinite" in out
    assert "girth:              infinite" in out


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 5)])
def test_graph_exports_match_golden(n, m, tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    dot = tmp_path / "graph.dot"
    inc = tmp_path / "incidence.txt"
    assert run(["graph", str(n), str(m),
                "--export-edges", str(edges),
                "--export-dot", str(dot),
                "--export-incidence", str(inc)]) == 0
    capsys.readouterr()
    assert edges.read_bytes() == (GOLDEN / f"edges_{n}_{m}.txt").read_bytes()
    assert dot.read_bytes() == (GOLDEN / f"graph_{n}_{m}.dot").read_bytes()
    assert inc.read_bytes() == (GOLDEN / f"incidence_{n}_{m}.txt").read_bytes()


def test_code_exact(capsys):
    assert run(["code", "3", "5", "--field", "2", "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "[56,14,7]_2"


def test_code_without_exact(capsys):
    assert run(["code", "3", "5", "--field", "2"]) == 0
    assert capsys.readouterr().out.strip() == "[56,14,?]_2"


def test_code_budget_bracket(capsys, monkeypatch):
    # 2^29 messages, but the search needs fewer than 1,000 codewords
    assert run(["code", "5", "6", "--field", "2", "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "[120,29,8]_2"
    # a search cut short by the budget prints its bracket
    honest = codes.min_distance_exact
    monkeypatch.setattr(codes, "min_distance_exact", lambda c: honest(c, budget=100))
    assert run(["code", "5", "6", "--field", "2", "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "[120,29,?(6..8)]_2"


def test_dual(capsys):
    assert run(["dual", "3", "5", "--field", "2"]) == 0
    out = capsys.readouterr().out
    assert "length 56, dimension 42, minimum distance 3" in out
    assert "dependent columns:" in out


def test_dual_girth6(capsys):
    assert run(["dual", "3", "2", "--field", "3"]) == 0
    assert "minimum distance 6" in capsys.readouterr().out


def test_dual_zero_code(capsys):
    # the unit graph of Z_2 (+) Z_2 is two disjoint edges: no cycle, no dual codeword
    assert run(["dual", "2", "2", "--field", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "dual code: length 2, dimension 0, minimum distance none (zero code)\n"


def test_verify_small(capsys):
    assert run(["verify", "--n", "2..4", "--m", "2..4", "--fields", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "EdgeCountFormula" in out
    assert "theorem failures: 0" in out


def test_verify_json_csv(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "summary.csv"
    args = ["verify", "--n", "2..4", "--m", "2..4", "--fields", "2",
            "--json", str(jpath), "--csv", str(cpath)]
    assert run(args) == 0
    capsys.readouterr()
    data = json.loads(jpath.read_text())
    assert data["summary"]["theorem_failures"] == 0
    assert cpath.read_text().startswith("group,name")
    # determinism: a second run writes identical bytes
    first = jpath.read_bytes()
    assert run(args) == 0
    capsys.readouterr()
    assert jpath.read_bytes() == first


def test_conjecture_command(capsys):
    assert run(["conjecture", "--n", "2..4", "--m", "2..4", "--fields", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "ConjectureI" in out and "ConjectureII" in out
    assert "EdgeCountFormula" not in out


def test_usage_errors(capsys):
    assert run(["graph", "1", "5"]) == 1
    assert run(["graph", "3"]) == 1
    assert run(["code", "3", "5", "--field", "4"]) == 1
    assert run(["code", "3", "5"]) == 1
    assert run(["verify", "--n", "4..2", "--m", "2..3", "--fields", "2"]) == 1
    assert run(["verify", "--n", "2..3", "--m", "2..3", "--fields", "six"]) == 1
    assert run(["bogus"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["dual", "3", "5", "--field", "131"],
    ["conjecture", "--n", "2..3", "--m", "2..3", "--fields", "2,131"],
    ["dual", "3", "65", "--field", "2"],
    ["verify", "--n", "2..3", "--m", "2..3", "--fields", "2", "--jobs", "0"],
    ["conjecture", "--n", "2..3", "--m", "2..3", "--fields", "2", "--jobs", "-1"],
    ["graph", "65", "2"],
    ["code", "2", "100", "--field", "2"],
    ["code", "3", "5", "--field", "2", "--exact", "--budget", "67108864"],
    ["verify", "--n", "3..3", "--m", "5..5", "--fields", "2", "--budget", "67108864"],
    ["conjecture", "--n", "3..3", "--m", "5..5", "--fields", "2", "--budget", "67108864"],
    ["verify", "--n", "3..3", "--m", "5..5", "--fields", "2,2"],
])
def test_out_of_range_inputs(argv, capsys):
    assert run(argv) == 1
    capsys.readouterr()


def test_jobs_bounded_by_cpu_count():
    # parsed only: an accepted large --jobs would start that many processes
    cpus = os.cpu_count() or 1
    base = ["verify", "--n", "2..3", "--m", "2..3", "--fields", "2", "--jobs"]
    assert build_parser().parse_args(base + [str(cpus)]).jobs == cpus
    for jobs in (cpus + 1, 10**6):
        with pytest.raises(_UsageError):
            build_parser().parse_args(base + [str(jobs)])


@pytest.mark.parametrize("argv", [
    ["code", "3", "5", "--field", "2"],
    ["dual", "3", "5", "--field", "2"],
    ["graph", "3", "5", "--invariants"],
    ["graph", "3", "5", "--export-incidence", "incidence.txt"],
])
def test_incidence_matrix_above_limit(argv, tmp_path, monkeypatch, capsys):
    # (3,5) has 15 x 56 = 840 incidence entries
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(graphs, "INCIDENCE_ENTRY_LIMIT", 839)
    assert run(argv) == 1
    assert "exceeds the limit 839" in capsys.readouterr().err
    assert not (tmp_path / "incidence.txt").exists()


def test_range_outside_limits(capsys):
    assert run(["verify", "--n", "2..100", "--m", "2..3", "--fields", "2"]) == 1
    capsys.readouterr()


def test_io_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.txt"
    assert run(["graph", "3", "2", "--export-edges", str(target)]) == 3
    capsys.readouterr()
