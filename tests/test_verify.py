"""Tests for the verification harness: per-instance checks, sweeps, reports."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from unitcodes import codes, graphs, verify
from unitcodes.gfmatrix import GfMatrix
from unitcodes.rings import CaseTag, RingSpec
from unitcodes.verify import (
    Check,
    CheckRecord,
    Status,
    SweepConfig,
    check_instance,
    report_json,
    summarize,
    summary_csv,
    sweep,
)


CONFIG = SweepConfig(n_range=(2, 6), m_range=(2, 6), fields=(2, 3))
GOLDEN = Path(__file__).parent / "golden"


def _by_name(record):
    return {c.name: c for c in record.checks}


# ---------------------------------------------------------------------------
# single instances


def test_check_instance_5_5_gf2():
    rec = check_instance(5, 5, 2, CONFIG)
    assert rec.case_tag == CaseTag.PP_ODD_ODD
    checks = _by_name(rec)
    assert checks["EdgeCountFormula"].status == Status.PASS
    assert checks["EdgeCountFormula"].observed == 192
    assert checks["DiameterBound"].status == Status.PASS
    assert checks["LambdaFormula"].status == Status.PASS
    assert checks["LambdaFormula"].observed == 15
    assert checks["CodeParamsVsPredicted"].status == Status.PASS
    assert checks["CodeDistanceEqualsLambda"].status == Status.PASS
    assert checks["DualDistanceVsPredicted"].status == Status.PASS
    assert checks["DualDistanceEqualsGirth(GF(2))"].status == Status.PASS
    assert not rec.has_theorem_failure()


def test_check_instance_3_5_gf2_values():
    checks = _by_name(check_instance(3, 5, 2, CONFIG))
    assert checks["CodeParamsVsPredicted"].observed == [56, 14, 7]
    assert checks["DualDimension"].status == Status.PASS
    assert checks["DualDistanceVsPredicted"].predicted == 3


def test_dual_dimension_fails_on_a_planted_wrong_rank(monkeypatch):
    # a basis one row short: elimination's rank no longer matches |V| - 1
    honest = codes.from_incidence

    def short(g, r):
        code = honest(g, r)
        return replace(code, basis=GfMatrix(code.field, code.basis.array()[:-1]))

    monkeypatch.setattr(codes, "from_incidence", short)
    check = _by_name(check_instance(3, 5, 2, CONFIG))["DualDimension"]
    assert (check.predicted, check.observed, check.status) == (42, 43, Status.FAIL)


def test_distance_bracket_is_skipped_not_passed():
    # (7,9) over GF(2) has r^k = 2^62 messages: the distance is only [1, E]
    checks = _by_name(check_instance(7, 9, 2, CONFIG))
    for name in ("CodeParamsVsPredicted", "ConjectureII"):
        check = checks[name]
        assert check.observed == [1116, 62, "Unknown(1,1116)"]
        assert (check.status, check.reason) == (
            Status.SKIPPED, "distance only bracketed in [1,1116] (budget exceeded)")


def test_check_instance_both_even_skips_codes():
    rec = check_instance(4, 4, 2, CONFIG)
    checks = _by_name(rec)
    assert checks["DisconnectedIfBothEven"].status == Status.PASS
    assert checks["ConjectureI"].status == Status.SKIPPED
    for name in ("CodeParamsVsPredicted", "DualDimension", "CodeDistanceEqualsLambda"):
        assert checks[name].status == Status.SKIPPED


def test_check_instance_conjectures():
    # (6,5): general one-even, so Conjecture I applies and II over odd r;
    # 3^29 messages are past the budget, so II's distance is only bracketed
    checks = _by_name(check_instance(6, 5, 3, CONFIG))
    assert checks["ConjectureI"].status == Status.CONJECTURE_PASS
    ii = checks["ConjectureII"]
    assert ii.predicted == [120, 29, 8]
    assert (ii.status, ii.reason) == (
        Status.SKIPPED, "distance only bracketed in [1,120] (budget exceeded)")
    assert checks["BipartiteIffOneEven"].status == Status.PASS


def test_dual_girth_check_uses_subset_search():
    # the girth is a cycle length: the dual side must come from linear algebra
    checks = _by_name(check_instance(7, 4, 2, CONFIG))
    check = checks["DualDistanceEqualsGirth(GF(2))"]
    assert (check.status, check.observed, check.reason) == (Status.PASS, 4, "method: subset search")


def test_check_instance_odd_odd_odd_field_no_claims():
    checks = _by_name(check_instance(3, 5, 3, CONFIG))
    assert checks["ConjectureII"].status == Status.SKIPPED
    assert checks["DualDistanceVsPredicted"].status == Status.SKIPPED


@pytest.mark.parametrize("n,m,planted", [(4, 5, (0, 10)), (5, 4, (0, 2))])
def test_parity_classes_separate_finds_a_same_parity_edge(n, m, planted):
    # planted joins (0,0) to (2,0) or (0,2): equal parity in the even modulus
    g = graphs.build(RingSpec(n, m))
    assert verify._parity_classes_separate(g)
    edges = g.edges.copy()
    edges[0] = planted
    assert not verify._parity_classes_separate(graphs.UnitGraph(g.spec, edges, g.adjacency))


def test_statuses_are_valid():
    for n, m, r in [(2, 2, 2), (3, 4, 3), (5, 5, 2), (6, 6, 3)]:
        rec = check_instance(n, m, r, CONFIG)
        for c in rec.checks:
            assert isinstance(c, Check)
            assert c.status in Status


# ---------------------------------------------------------------------------
# sweeps and reports


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(CONFIG)


def test_sweep_covers_all_instances(small_sweep):
    assert len(small_sweep) == 5 * 5 * 2
    assert [(r.n, r.m, r.r) for r in small_sweep] == CONFIG.instances()


def test_sweep_zero_theorem_failures(small_sweep):
    assert not any(rec.has_theorem_failure() for rec in small_sweep)
    for rec in small_sweep:
        for c in rec.checks:
            assert c.status != Status.CONJECTURE_FAIL


def test_sweep_parallel_matches_serial(small_sweep):
    parallel = sweep(SweepConfig(n_range=(2, 6), m_range=(2, 6), fields=(2, 3), jobs=4))
    assert parallel == small_sweep


def test_summarize(small_sweep):
    s = summarize(small_sweep)
    assert s["theorem_failures"] == 0
    assert s["records"] == 50
    counts = s["checks"]["EdgeCountFormula"]
    assert counts["Pass"] == 50 and counts["Fail"] == 0


def test_report_json_round_trip(small_sweep):
    text = report_json(CONFIG, small_sweep)
    data = json.loads(text)
    assert data["config"]["n_range"] == [2, 6]
    assert data["summary"]["theorem_failures"] == 0
    recs = data["records"]
    assert len(recs) == 50
    first = recs[0]
    assert first["n"] == 2 and first["m"] == 2
    names = [c["name"] for c in first["checks"]]
    assert "EdgeCountFormula" in names and "ConjectureII" in names


def test_report_json_deterministic(small_sweep):
    a = report_json(CONFIG, small_sweep)
    b = report_json(CONFIG, sweep(CONFIG))
    assert a.encode() == b.encode()
    assert a.endswith("\n")


def test_report_matches_golden(small_sweep):
    # past [2,6]^2: (7,8), (7,9) and (7,11) have dual distances that only the
    # row-sharing pair pass settles and primal distances past the enumeration
    # budget, and (11,12) is past the incidence-matrix cap; the goldens pin
    # every byte of both reports
    records = small_sweep + [check_instance(n, m, r, CONFIG)
                             for n, m in [(7, 8), (7, 9), (7, 11), (11, 12)] for r in (2, 3)]
    assert report_json(CONFIG, records).encode() == (GOLDEN / "verify_report.json").read_bytes()
    assert summary_csv(records).encode() == (GOLDEN / "verify_summary.csv").read_bytes()


def test_summary_csv(small_sweep):
    text = summary_csv(small_sweep)
    lines = text.strip().split("\n")
    assert lines[0].startswith("group,name")
    assert any("EdgeCountFormula" in ln for ln in lines[1:])


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_range=(1, 5), m_range=(2, 5), fields=(2,))
    with pytest.raises(ValueError):
        SweepConfig(n_range=(2, 65), m_range=(2, 5), fields=(2,))
    with pytest.raises(ValueError):
        SweepConfig(n_range=(2, 4), m_range=(2, 4), fields=(2,), budget=16)
    with pytest.raises(ValueError):
        SweepConfig(n_range=(2, 4), m_range=(2, 4), fields=(2,), jobs=0)
    with pytest.raises(ValueError):
        SweepConfig(n_range=(2, 4), m_range=(2, 4), fields=())
    with pytest.raises(ValueError):
        SweepConfig(n_range=(2, 4), m_range=(2, 4), fields=(2, 9))


def test_sweep_workers_bounded(monkeypatch):
    # a stand-in pool that runs in this process and records its size
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    sweep(SweepConfig(n_range=(2, 3), m_range=(2, 2), fields=(2,), jobs=64))  # 2 groups
    sweep(SweepConfig(n_range=(2, 3), m_range=(2, 3), fields=(2,), jobs=64))  # 4 groups
    sweep(SweepConfig(n_range=(2, 3), m_range=(2, 3), fields=(2,), jobs=1))
    assert sizes == [2, 3]


def test_graph_cache_keeps_one_group():
    # a sweep visits each (n, m) once; its graph serves that group's fields only
    verify._graph_data.cache_clear()
    sweep(SweepConfig(n_range=(3, 5), m_range=(2, 2), fields=(2, 3)))  # 3 groups
    info = verify._graph_data.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 3, 3)


def test_empty_range_sweep():
    cfg = SweepConfig(n_range=(5, 4), m_range=(2, 3), fields=(2,))
    assert sweep(cfg) == []
    assert summarize([])["records"] == 0


def test_infinite_values_serialized(small_sweep):
    text = report_json(CONFIG, small_sweep)
    data = json.loads(text)
    rec22 = next(r for r in data["records"] if (r["n"], r["m"], r["r"]) == (2, 2, 2))
    diam = next(c for c in rec22["checks"] if c["name"] == "DiameterBound")
    assert diam["observed"] == "Infinite" or diam["status"] == "Skipped"
