"""Tests for incidence codes, distance computation, and closed-form predictions.

Distances are cross-checked against naive oracles written from the
definitions: full message enumeration with itertools for the primal
distance, subset dependence testing with an inline field elimination for
the dual distance.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcodes import codes
from unitcodes.codes import (
    CodeParams,
    DistanceResult,
    PredictionSource,
    dual_dimension,
    dual_min_distance,
    from_generator,
    from_incidence,
    min_distance_exact,
    predict,
)
from unitcodes.gfmatrix import GfMatrix
from unitcodes.graphs import build, shortest_cycle
from unitcodes.rings import RingSpec, classify, euler_phi


# ---------------------------------------------------------------------------
# oracles


def oracle_min_distance(code):
    """Weight of the lightest nonzero codeword, one message at a time."""
    basis = code.basis.array()
    k, r = code.dimension, code.r
    best = None
    for msg in itertools.product(range(r), repeat=k):
        if not any(msg):
            continue
        word = np.mod(np.array(msg) @ basis, r)
        w = int(np.count_nonzero(word))
        if best is None or w < best:
            best = w
    return best


def oracle_dual_distance(code, cap=8):
    """Smallest dependent column subset by brute-force rank checks."""
    arr = code.generator.array()
    for t in range(1, cap + 1):
        for cols in itertools.combinations(range(arr.shape[1]), t):
            if _rank_mod(arr[:, cols], code.r) < t:
                return t
    return None


def _rank_mod(a, r):
    a = a.copy() % r
    rank = 0
    for col in range(a.shape[1]):
        rows = np.nonzero(a[rank:, col])[0]
        if rows.size == 0:
            continue
        piv = rank + int(rows[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, r)) % r
        for i in range(a.shape[0]):
            if i != rank and a[i, col]:
                a[i] = (a[i] - a[i, col] * a[rank]) % r
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def _code(n, m, r):
    return from_incidence(build(RingSpec(n, m)), r)


# ---------------------------------------------------------------------------
# parameters


def test_anchor_3_5_gf2():
    c = _code(3, 5, 2)
    assert (c.length, c.dimension) == (56, 14)
    assert min_distance_exact(c).value == 7
    assert dual_dimension(c) == 42


def test_anchor_3_2_gf3():
    c = _code(3, 2, 3)
    assert (c.length, c.dimension) == (6, 5)
    assert min_distance_exact(c).value == 2


def test_anchor_3_4_gf3():
    c = _code(3, 4, 3)
    assert (c.length, c.dimension) == (24, 11)
    assert min_distance_exact(c).value == 4
    assert dual_dimension(c) == 13


@pytest.mark.parametrize("n,m,r", [(3, 3, 2), (3, 2, 3), (2, 3, 5), (3, 4, 2), (5, 2, 3), (2, 5, 2)])
def test_min_distance_matches_oracle(n, m, r):
    c = _code(n, m, r)
    res = min_distance_exact(c)
    assert res.exact
    assert res.value == oracle_min_distance(c)


def test_min_distance_budget_gate():
    c = _code(3, 5, 2)  # 2^14 messages
    res = min_distance_exact(c, budget=2**10)
    assert not res.exact
    assert res.value is None
    assert res.lower == 1 and res.upper == c.length
    assert "budget" in res.method


def test_min_distance_zero_code():
    gen = GfMatrix(2, [[0, 0, 0]])
    res = min_distance_exact(from_generator(gen))
    assert not res.exact


def test_min_distance_row_rescaling_invariant():
    # the code is the row space, so scaling basis rows changes nothing
    c = _code(3, 4, 5)
    arr = c.generator.array().copy()
    arr[0] = (arr[0] * 3) % 5
    arr[2] = (arr[2] * 2) % 5
    scaled = from_generator(GfMatrix(5, arr))
    assert min_distance_exact(scaled).value == min_distance_exact(c).value


def test_enumeration_agrees_across_fields_trivially():
    # repetition code [[1,1,1,1]] has distance 4 over any field
    for r in (2, 3, 5, 7):
        c = from_generator(GfMatrix(r, [[1, 1, 1, 1]]))
        assert min_distance_exact(c).value == 4


# ---------------------------------------------------------------------------
# dual distance


@pytest.mark.parametrize(
    "n,m,r,expect",
    [
        (3, 5, 2, 3),  # odd-odd prime powers: triangles
        (5, 5, 2, 3),
        (9, 2, 3, 4),  # one-even, nm != 6: shortest cycle 4
        (3, 4, 3, 4),
        (3, 2, 3, 6),  # nm = 6 exception
        (2, 3, 3, 6),
    ],
)
def test_dual_distance_theorem_values(n, m, r, expect):
    c = _code(n, m, r)
    res = dual_min_distance(c)
    assert res.exact
    assert res.value == expect


@pytest.mark.parametrize("n,m,r", [(3, 3, 2), (3, 2, 3), (2, 3, 5), (3, 4, 2), (3, 4, 3), (5, 2, 2)])
def test_dual_distance_matches_oracle(n, m, r):
    c = _code(n, m, r)
    res = dual_min_distance(c)
    assert res.exact
    assert res.value == oracle_dual_distance(c)


def _assert_minimal_witness(gen, res):
    assert res.witness is not None
    assert len(res.witness) == res.value
    assert gen.columns_dependent(res.witness)
    # and every proper subset is independent (minimality)
    for drop in range(len(res.witness)):
        sub = [x for i, x in enumerate(res.witness) if i != drop]
        assert not gen.columns_dependent(sub)


def test_dual_distance_witness_is_dependent():
    c = _code(3, 4, 3)
    _assert_minimal_witness(c.generator, dual_min_distance(c))


@pytest.mark.parametrize("n,m", [(4, 7), (5, 5), (5, 6)])
def test_dual_distance_four_by_pair_collision(n, m):
    # C(E, 3) exceeds the node budget here, so backtracking alone ends Unknown(4, E)
    c = _code(n, m, 3)
    assert math.comb(c.length, 3) > codes.DEFAULT_DUAL_NODES
    res = dual_min_distance(c)
    assert (res.exact, res.value, res.method) == (True, 4, "subset search")
    _assert_minimal_witness(c.generator, res)


def test_dual_distance_cap_below_collision_size():
    c = _code(3, 4, 3)  # dual distance 4
    res = dual_min_distance(c, cap=3)
    assert not res.exact
    assert (res.lower, res.upper, res.witness) == (4, c.length, None)


def test_dual_distance_collision_memory_gate(monkeypatch):
    # C(E, 2) (r - 1) keys grow with r; past the memory limit backtracking takes over
    c = _code(3, 4, 3)
    monkeypatch.setattr(codes, "_COLLISION_WORDS", 0)
    res = dual_min_distance(c)
    assert (res.exact, res.value) == (True, 4)
    _assert_minimal_witness(c.generator, res)
    assert codes.uses_cycle_hint(_code(3, 4, 2))


def test_dual_distance_huge_cap_terminates():
    c = from_generator(GfMatrix(3, np.eye(4, dtype=int)))
    res = dual_min_distance(c, cap=10**12)
    assert not res.exact


def test_dual_distance_cycle_hint_path():
    # force the budget below the level size so the GF(2) shortcut engages
    g = build(RingSpec(5, 5))
    c = from_incidence(g, 2)
    assert codes.uses_cycle_hint(c, max_nodes=10)
    assert not codes.uses_cycle_hint(c)
    hint = shortest_cycle(g)
    res = dual_min_distance(c, max_nodes=10, cycle_hint=hint)
    assert res.exact
    assert res.value == 3
    assert res.method == "cycle shortcut"


def _reference_dual_distance(gen, cap):
    """Sizes 1-2 by the column scan, then the backtracking search level by level."""
    small = codes._small_dependent_set(gen)
    if small is not None:
        return len(small)
    for t in range(3, cap + 1):
        if codes._find_dependent_subset(gen, t, max_nodes=10**9) is not None:
            return t
    return None


@st.composite
def _generators(draw):
    """Pairwise non-proportional nonzero columns over GF(r), shapes up to
    6 x 12, and now and then a planted zero column or a planted multiple
    of another column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = int(rng.choice([2, 3, 5, 7]))
    rows, cols = int(rng.integers(4, 7)), int(rng.integers(3, 13))
    picked: dict[tuple, np.ndarray] = {}
    while len(picked) < cols:  # GF(2)^4 alone has 15 projective points
        v = rng.integers(0, r, size=rows)
        if v.any():
            lead = int(v[np.nonzero(v)[0][0]])
            picked.setdefault(tuple((v * pow(lead, -1, r)) % r), v)
    a = np.array(list(picked.values())).T
    if rng.random() < 0.1:
        a[:, rng.integers(cols)] = 0
    if rng.random() < 0.15:
        a[:, rng.integers(cols)] = (a[:, rng.integers(cols)] * rng.integers(1, r)) % r
    return GfMatrix(r, a)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gen=_generators(), cap=st.integers(3, 8),
       max_nodes=st.sampled_from([codes.DEFAULT_DUAL_NODES, 10, 1]))
def test_dual_distance_property(gen, cap, max_nodes):
    c = from_generator(gen)
    truth = oracle_dual_distance(c, cap=max(cap, gen.cols))
    if max_nodes == codes.DEFAULT_DUAL_NODES:
        assert _reference_dual_distance(gen, cap) == (truth if truth is not None and truth <= cap
                                                      else None)
    res = dual_min_distance(c, cap=cap, max_nodes=max_nodes)
    if res.exact:
        assert res.value == truth
        _assert_minimal_witness(gen, res)
    else:
        assert res.witness is None
        assert truth is None or res.lower <= truth
        if max_nodes == codes.DEFAULT_DUAL_NODES:
            # every level is within budget, so only the cap stops the search
            assert truth is None or truth > cap
            assert res.lower == cap + 1


def test_dual_distance_budget_unknown():
    c = _code(5, 5, 2)
    res = dual_min_distance(c, max_nodes=10)
    assert not res.exact
    assert res.lower >= 2


def test_dual_distance_cap_exhausted():
    # a full-rank square generator has no dependent subset at all
    c = from_generator(GfMatrix(3, np.eye(4, dtype=int)))
    res = dual_min_distance(c, cap=4)
    assert not res.exact
    assert res.lower == 5


# ---------------------------------------------------------------------------
# predictions


def test_predict_9_5_gf2():
    p = predict(classify(RingSpec(9, 5)), 2)
    assert p.source == PredictionSource.S4_C2
    assert p.primal == CodeParams(528, 44, 23)
    assert p.dual == CodeParams(528, 484, 3)


def test_predict_15_21_gf2():
    p = predict(classify(RingSpec(15, 21)), 2)
    assert p.source == PredictionSource.S5_C2
    assert p.primal == CodeParams(15072, 314, 95)
    assert p.dual.min_distance == 3


def test_predict_3_4_gf3():
    p = predict(classify(RingSpec(3, 4)), 3)
    assert p.source == PredictionSource.S4_CR
    assert p.primal == CodeParams(24, 11, 4)
    assert p.dual == CodeParams(24, 13, 4)


def test_predict_3_2_girth6_exception():
    for n, m in [(3, 2), (2, 3)]:
        p = predict(classify(RingSpec(n, m)), 3)
        assert p.dual.min_distance == 6


def test_predict_conjecture_rows():
    p = predict(classify(RingSpec(15, 4)), 3)
    assert p.source == PredictionSource.CONJ_II_CR
    assert p.primal.min_distance == euler_phi(15) * euler_phi(4)
    assert p.dual.min_distance is None

    p2 = predict(classify(RingSpec(105, 11)), 2)
    assert p2.source == PredictionSource.CONJ_II_C2
    assert p2.primal.min_distance == euler_phi(105) * euler_phi(11) - 1


def test_predict_no_claim():
    # both even: no theorem or conjecture applies
    assert predict(classify(RingSpec(2, 2)), 2).source == PredictionSource.NONE
    # odd-odd with odd field: outside every row
    assert predict(classify(RingSpec(3, 5)), 3).source == PredictionSource.NONE
    # one-even with r = 2: bipartite incidence ranks break the dimension row
    assert predict(classify(RingSpec(3, 4)), 2).source == PredictionSource.NONE


def test_predict_rejects_composite_field():
    with pytest.raises(ValueError):
        predict(classify(RingSpec(3, 5)), 4)


def test_predictions_match_computation_small():
    # every theorem-tagged instance in a small box agrees with the machine
    for n in range(2, 7):
        for m in range(2, 7):
            for r in (2, 3):
                p = predict(classify(RingSpec(n, m)), r)
                if not p.source.is_theorem:
                    continue
                c = _code(n, m, r)
                assert c.length == p.primal.length
                assert c.dimension == p.primal.dimension
                d = min_distance_exact(c)
                if d.exact:
                    assert d.value == p.primal.min_distance
                else:
                    assert d.lower <= p.primal.min_distance <= d.upper
                dd = dual_min_distance(c)
                assert dd.value == p.dual.min_distance
                assert dual_dimension(c) == p.dual.dimension
