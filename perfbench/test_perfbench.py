"""Tests of the benchmark's own code: span arithmetic, the output check,
and traced against untraced records.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
import time

import pytest

import make_reference
import run
import spans

sys.path.insert(0, str(run.SRC))
from unitcodes import cli  # noqa: E402


def _span(id, name, start, end, parent=None, **extra):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "instance": "", **extra}


SPAN_TREE = [
    _span(0, "cli.run", 0.0, 10.0),
    _span(1, "verify.check_instance", 1.0, 9.0, 0),
    _span(2, "graphs.invariants", 2.0, 5.0, 1),
    _span(3, "graphs.girth", 2.5, 3.5, 2),
    _span(4, "graphs.shortest_cycle", 2.5, 3.0, 3),
    _span(5, "codes.min_distance_exact", 6.0, 8.0, 1, exact=True, codewords=15),
]


def test_self_time_subtracts_child_intervals():
    selfs = spans.self_times(SPAN_TREE)
    assert selfs == pytest.approx({0: 2.0, 1: 3.0, 2: 2.0, 3: 0.5, 4: 0.5, 5: 2.0})


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, "a.x", 0.0, 4.0), _span(1, "a.y", 1.0, 3.0, 0),
            _span(2, "a.z", 2.0, 3.5, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_layer_time_counts_nested_calls_of_one_layer_once():
    m = spans.layer_metrics(SPAN_TREE, traced_wall=10.0)
    assert m["layer.graphs.s"][0] == pytest.approx(3.0)
    assert m["layer.graphs.self_s"][0] == pytest.approx(3.0)
    assert m["layer.graphs.calls"][0] == 3
    assert m["graphs.shortest_cycle.calls"][0] == 1
    assert m["codes.min_distance_exact.codewords"][0] == 15
    assert m["codes.min_distance_exact.exact_ratio"][0] == 1.0
    assert m["trace_root_share"][0] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def report_3_5(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "r.json"
    assert cli.run(["verify", "--n", "3..3", "--m", "5..5", "--fields", "2,3",
                    "--json", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def pairs():
    return {"3,5": make_reference.graph_reference(3, 5)}


def _check(report, pairs):
    return run.check_report(report, 0, 3, 5, "2,3", pairs)


def _observed(report, r, name):
    rec = next(rec for rec in report["records"] if rec["r"] == r)
    return next(ch for ch in rec["checks"] if ch["name"] == name)


def test_output_check_accepts_the_real_report(report_3_5, pairs):
    assert _check(report_3_5, pairs) == {(3, 5, 2): [], (3, 5, 3): []}
    assert run.count_exact(report_3_5) > 0


def test_output_check_rejects_a_wrong_distance(report_3_5, pairs):
    bad = copy.deepcopy(report_3_5)
    ch = _observed(bad, 2, "CodeParamsVsPredicted")
    ch["observed"][2] += 1
    problems = _check(bad, pairs)
    assert problems[(3, 5, 3)] == []
    assert any("d = 8, expected 7" in p for p in problems[(3, 5, 2)])


def test_output_check_rejects_an_injected_fail(report_3_5, pairs):
    bad = copy.deepcopy(report_3_5)
    _observed(bad, 3, "EdgeCountFormula")["status"] = "Fail"
    assert any("failed" in p for p in _check(bad, pairs)[(3, 5, 3)])


def test_output_check_rejects_a_bracket_that_excludes_the_reference(report_3_5, pairs):
    bad = copy.deepcopy(report_3_5)
    _observed(bad, 2, "DualDistanceVsPredicted")["observed"] = "Unknown(4,56)"
    assert any("excludes 3" in p for p in _check(bad, pairs)[(3, 5, 2)])


def test_output_check_rejects_missing_records_and_exit_codes(report_3_5, pairs):
    bad = copy.deepcopy(report_3_5)
    bad["records"] = bad["records"][:1]
    assert _check(bad, pairs)[(3, 5, 3)] == ["record missing"]
    assert run.check_report(report_3_5, 2, 3, 5, "2,3", pairs)[(3, 5, 2)] == ["verify exited 2"]


def test_traced_and_untraced_records_match(tmp_path):
    calls = [(n, m, "2,3") for n in (2, 3) for m in (2, 3)]
    ref = {f"{a},{b}": make_reference.graph_reference(a, b) for a, b in ((2, 2), (2, 3), (3, 3))}
    deadline = time.perf_counter() + 120
    plain = run.repetition(calls, False, tmp_path / "u", ref, deadline)
    traced = run.repetition(calls, True, tmp_path / "t", ref, deadline)
    assert not run.failed_instances(plain) and not run.failed_instances(traced)
    assert len(plain["problems"]) == 8
    assert [r["records"] for r in plain["reports"]] == [r["records"] for r in traced["reports"]]
    m = spans.layer_metrics(traced["spans"], traced["wall_s"])
    assert m["layer.cli.calls"][0] == len(calls)
    assert m["verify.check_instance.p50_ms"][0] > 0
    assert m["trace_root_share"][0] == pytest.approx(1.0, abs=0.05)
