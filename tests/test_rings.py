import pytest
from hypothesis import given, strategies as st

from unitcodes.graphs import build
from unitcodes.rings import (
    CaseTag,
    ParityCase,
    RingSpec,
    classify,
    euler_phi,
    factorize,
    is_prime,
)


def zero_product_nonunits(spec):
    """The O(|R|^2) non-unit scan: x is a non-unit iff some nonzero y
    multiplies it to (0, 0) componentwise."""
    elems = [(a, b) for a in range(spec.n) for b in range(spec.m) if (a, b) != (0, 0)]
    nonunits = {(0, 0)}
    for x in elems:
        for y in elems:
            if (x[0] * y[0] % spec.n, x[1] * y[1] % spec.m) == (0, 0):
                nonunits.add(x)
                break
    return nonunits


def units_by_adjacency(spec):
    """x ~ (0, 0) in the unit graph iff x + (0, 0) = x is a unit."""
    adj = build(spec).adjacency
    return {spec.element(int(v)) for v in adj.indices[adj.indptr[0]:adj.indptr[1]]}


def test_add_wraps():
    # build adds coordinates mod n and mod m: (3,4) + (1,1) wraps to (0,0),
    # a non-unit, and (3,4) + (2,2) wraps to (1,1), a unit
    adj = build(RingSpec(4, 5)).adjacency  # (a, b) is vertex 5a + b
    assert adj[5 * 3 + 4, 5 * 1 + 1] == 0
    assert adj[5 * 3 + 4, 5 * 2 + 2] == 1


def test_is_unit_by_gcd():
    assert (1, 1) in units_by_adjacency(RingSpec(5, 5))
    assert (2, 3) not in units_by_adjacency(RingSpec(4, 5))
    assert (0, 1) not in units_by_adjacency(RingSpec(5, 5))


@pytest.mark.parametrize("n,m,expected", [(5, 5, 16), (4, 5, 8), (2, 2, 1)])
def test_unit_count(n, m, expected):
    assert len(units_by_adjacency(RingSpec(n, m))) == expected == euler_phi(n) * euler_phi(m)


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("m", range(2, 13))
def test_unit_matches_zero_product_scan(n, m):
    spec = RingSpec(n, m)
    elems = {(a, b) for a in range(n) for b in range(m)}
    assert units_by_adjacency(spec) == elems - zero_product_nonunits(spec)


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(12) == sum(1 for k in range(1, 13) if __import__("math").gcd(k, 12) == 1)
    assert euler_phi(12) == 4
    assert euler_phi(27) == 18


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_matches_enumeration(k):
    import math

    assert euler_phi(k) == sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)


@given(st.integers(min_value=2, max_value=500))
def test_factorize_reconstructs(k):
    fact = factorize(k)
    prod = 1
    for p, e in fact:
        assert is_prime(p)
        prod *= p**e
    assert prod == k
    assert [p for p, _ in fact] == sorted(p for p, _ in fact)


def test_rejects_degenerate_moduli():
    with pytest.raises(ValueError):
        RingSpec(1, 5)
    with pytest.raises(ValueError):
        RingSpec(3, 0)


def test_parity_case():
    assert RingSpec(3, 5).parity_case() == ParityCase.BOTH_ODD
    assert RingSpec(3, 4).parity_case() == ParityCase.EXACTLY_ONE_EVEN
    assert RingSpec(4, 3).parity_case() == ParityCase.EXACTLY_ONE_EVEN
    assert RingSpec(6, 4).parity_case() == ParityCase.BOTH_EVEN


@pytest.mark.parametrize(
    "n,m,tag",
    [
        (9, 25, CaseTag.PP_ODD_ODD),
        (5, 5, CaseTag.PP_ODD_ODD),
        (3, 2, CaseTag.PP_ODD_TWO),
        (8, 27, CaseTag.PP_ODD_TWO),
        (15, 21, CaseTag.PPPP_ODD_ODD),
        (15, 12, CaseTag.PPPP_ONE_EVEN),
        (15, 4, CaseTag.GENERAL_ONE_EVEN),  # 4 = 2^2 is a single prime power
        (3, 6, CaseTag.GENERAL_ONE_EVEN),  # odd side is a single prime power
        (105, 11, CaseTag.GENERAL_ODD_ODD),  # three prime factors
        (6, 4, CaseTag.BOTH_EVEN),
    ],
)
def test_classify_case_tags(n, m, tag):
    assert classify(RingSpec(n, m)).case_tag == tag


def test_classify_profile_details():
    profile = classify(RingSpec(9, 25))
    assert profile.n_factorization == ((3, 2),)
    assert profile.m_factorization == ((5, 2),)


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=2, max_value=64))
def test_classify_is_stable(n, m):
    profile = classify(RingSpec(n, m))
    rebuilt_n = 1
    for p, e in profile.n_factorization:
        rebuilt_n *= p**e
    rebuilt_m = 1
    for p, e in profile.m_factorization:
        rebuilt_m *= p**e
    assert (rebuilt_n, rebuilt_m) == (n, m)
