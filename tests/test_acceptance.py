"""Acceptance suite: one criterion per test, one pass/fail line each.

Each test prints a single summary line (bypassing capture) with the
elapsed time, and enforces both the mathematical claim and the time
budget.
"""

import math
import time
from pathlib import Path

import pytest

from unitcodes import codes, graphs, verify
from unitcodes.rings import CaseTag, RingSpec, classify, euler_phi

GOLDEN = Path(__file__).parent / "golden"

RANGE_14 = [(n, m) for n in range(2, 15) for m in range(2, 15)]

ODD_ODD = (CaseTag.PP_ODD_ODD, CaseTag.PPPP_ODD_ODD)
ONE_EVEN = (CaseTag.PP_ODD_TWO, CaseTag.PPPP_ONE_EVEN)


def _report(capsys, label, t0, limit=None):
    elapsed = time.time() - t0
    with capsys.disabled():
        print(f"{label}: pass ({elapsed:.2f} s)")
    if limit is not None:
        assert elapsed < limit, f"{label} exceeded {limit} s ({elapsed:.2f} s)"


def _brute_edge_count(spec):
    count = 0
    for u in range(spec.size):
        for w in range(u + 1, spec.size):
            a, b = spec.add(spec.element(u), spec.element(w))
            if math.gcd(a, spec.n) == 1 and math.gcd(b, spec.m) == 1:
                count += 1
    return count


def test_acceptance_1_edge_count(capsys):
    t0 = time.time()
    for n, m in RANGE_14:
        spec = RingSpec(n, m)
        assert _brute_edge_count(spec) == graphs.edge_count_formula(spec), (n, m)
    assert graphs.edge_count_formula(RingSpec(5, 5)) == 192
    _report(capsys, "AC1 edge-count closed form, 169 instances", t0, limit=5.0)


def test_acceptance_2_structure_theorems(capsys):
    t0 = time.time()
    for n, m in RANGE_14:
        tag = classify(RingSpec(n, m)).case_tag
        inv = graphs.invariants(graphs.build(RingSpec(n, m)))
        if (n % 2 == 0) != (m % 2 == 0):
            assert inv.bipartite, (n, m)
        if n % 2 == 0 and m % 2 == 0:
            assert not inv.connected, (n, m)
        if tag in ODD_ODD:
            assert inv.connected and inv.diameter <= 2, (n, m)
        if tag in ONE_EVEN:
            assert inv.connected and inv.bipartite and inv.diameter <= 3, (n, m)
    _report(capsys, "AC2 structure theorems (bipartite/disconnected/diameter)", t0, limit=10.0)


def test_acceptance_3_edge_connectivity(capsys):
    t0 = time.time()
    checked = 0
    for n, m in RANGE_14:
        tag = classify(RingSpec(n, m)).case_tag
        phi = euler_phi(n) * euler_phi(m)
        if tag in ODD_ODD and n * m <= 200:
            expect = phi - 1
        elif tag in ONE_EVEN:
            expect = phi
        else:
            continue
        g = graphs.build(RingSpec(n, m))
        assert graphs.edge_connectivity(g) == expect, (n, m)
        checked += 1
    assert checked >= 70
    _report(capsys, f"AC3 edge connectivity = closed form, {checked} instances", t0, limit=60.0)


def test_acceptance_4_code_parameters(capsys):
    t0 = time.time()
    checked = 0
    for n, m in RANGE_14:
        profile = classify(RingSpec(n, m))
        for r in (2, 3):
            pred = codes.predict(profile, r)
            if not pred.source.is_theorem:
                continue
            if r ** pred.primal.dimension > 2**26:
                continue
            g = graphs.build(RingSpec(n, m))
            c = codes.from_incidence(g, r)
            assert (c.length, c.dimension) == (pred.primal.length, pred.primal.dimension), (n, m, r)
            d = codes.min_distance_exact(c)
            assert d.exact and d.value == pred.primal.min_distance, (n, m, r)
            assert d.value == graphs.edge_connectivity(g), (n, m, r)
            checked += 1
    assert checked >= 12
    _report(capsys, f"AC4 code parameters + d = lambda, {checked} instances", t0, limit=120.0)


def test_acceptance_5_dual_distances(capsys):
    t0 = time.time()
    checked = 0
    for n in range(2, 13):
        for m in range(2, 13):
            tag = classify(RingSpec(n, m)).case_tag
            g = graphs.build(RingSpec(n, m))
            inv = graphs.invariants(g)
            # dual distance over GF(2) equals the girth when connected
            if inv.connected:
                c2 = codes.from_incidence(g, 2)
                res = codes.dual_min_distance(c2, max_nodes=20_000)
                assert res.exact and res.value == inv.girth, (n, m)
                checked += 1
                if tag in ODD_ODD:
                    assert res.value == 3, (n, m)
            # closed-form dual distance over an odd field for the even cases
            if tag in ONE_EVEN:
                c3 = codes.from_incidence(g, 3)
                if math.comb(g.num_edges, 3) <= 2_000_000:
                    res = codes.dual_min_distance(c3, max_nodes=2_000_000)
                    expect = 6 if n * m == 6 else 4
                    assert res.exact and res.value == expect, (n, m)
                    checked += 1
    assert checked >= 80
    _report(capsys, f"AC5 dual distances (3/4/6 and girth), {checked} instances", t0, limit=60.0)


@pytest.fixture(scope="module")
def conjecture_sweep():
    config = verify.SweepConfig(n_range=(2, 10), m_range=(2, 10), fields=(2, 3))
    return config, verify.sweep(config)


def test_acceptance_6_conjecture_evidence(capsys, conjecture_sweep):
    t0 = time.time()
    _, records = conjecture_sweep
    failures = []
    passes = 0
    for rec in records:
        for ch in rec.checks:
            if not ch.name.startswith("Conjecture"):
                continue
            if ch.status == verify.Status.CONJECTURE_PASS:
                passes += 1
            elif ch.status == verify.Status.CONJECTURE_FAIL:
                failures.append((rec.n, rec.m, rec.r, ch.name, ch.predicted, ch.observed))
    assert passes > 0
    assert not failures, f"conjecture counterexamples: {failures}"
    _report(capsys, f"AC6 conjecture sweep [2,10]x[2,10]x{{2,3}}, {passes} passes", t0)


def test_acceptance_7_determinism(capsys, conjecture_sweep):
    t0 = time.time()
    config, records = conjecture_sweep
    small = verify.SweepConfig(n_range=(2, 5), m_range=(2, 5), fields=(2, 3))
    first = verify.report_json(small, verify.sweep(small)).encode()
    second = verify.report_json(small, verify.sweep(small)).encode()
    assert first == second
    # and the module-scope sweep serializes identically too
    assert verify.report_json(config, records).encode() == \
        verify.report_json(config, records).encode()
    _report(capsys, "AC7 verify runs byte-identical", t0)


def test_acceptance_8_golden_exports(capsys):
    t0 = time.time()
    for n, m in [(2, 2), (3, 2), (4, 5)]:
        g = graphs.build(RingSpec(n, m))
        assert graphs.export(g, "edges") == (GOLDEN / f"edges_{n}_{m}.txt").read_bytes()
        assert graphs.export(g, "dot") == (GOLDEN / f"graph_{n}_{m}.dot").read_bytes()
        assert graphs.export(g, "incidence") == (GOLDEN / f"incidence_{n}_{m}.txt").read_bytes()
    _report(capsys, "AC8 golden exports byte-for-byte", t0)
