import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcodes import gfmatrix, graphs
from unitcodes.gfmatrix import MAX_FIELD, GfMatrix, PrimeField
from unitcodes.rings import RingSpec


def test_prime_field_rejects_composites():
    for r in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(r)
    PrimeField(2)
    PrimeField(97)
    PrimeField(MAX_FIELD)


def test_prime_field_bounded_before_primality(monkeypatch):
    # trial division to the square root of 2^61 - 1 would take minutes
    def refuse(k):
        raise AssertionError(f"is_prime({k}) called on an order past the bound")

    monkeypatch.setattr(gfmatrix, "is_prime", refuse)
    for r in (131, 2**61 - 1):  # the next prime past the bound, and a Mersenne prime
        with pytest.raises(ValueError, match="at most 127"):
            PrimeField(r)


def test_init_keeps_one_copy():
    # (15,15): 225 x 7168 int64 entries, 12.3 MiB; incidence_matrix's zeros
    # and the reduced copy are the two, small Python objects aside
    g = graphs.build(RingSpec(15, 15))
    tracemalloc.start()
    try:
        mat = graphs.incidence_matrix(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.array().nbytes == 225 * 7168 * 8
    assert peak <= 2 * mat.array().nbytes + (1 << 16)


def test_init_does_not_alias_entries():
    src = np.array([[1, 2], [3, 4]], dtype=np.int64)
    mat = GfMatrix(5, src)
    src[0, 0] = 0
    assert mat == GfMatrix(5, [[1, 2], [3, 4]])
    assert not mat.array().flags.writeable


def test_rank_examples():
    g = graphs.build(RingSpec(2, 2))
    assert graphs.incidence_matrix(g, 2).rank() == 2
    assert GfMatrix(5, np.eye(4, dtype=np.int64)).rank() == 4
    assert GfMatrix(3, np.zeros((3, 5), dtype=int)).rank() == 0


def test_rref_examples():
    rr, pivots = GfMatrix(5, [[2, 4], [1, 2]]).rref()
    assert rr == GfMatrix(5, [[1, 2], [0, 0]])
    assert pivots == [0]

    eye = GfMatrix(7, np.eye(3, dtype=np.int64))
    rr, pivots = eye.rref()
    assert rr == eye and pivots == [0, 1, 2]

    rr, pivots = GfMatrix(3, [[0, 1], [1, 0]]).rref()
    assert rr == GfMatrix(3, np.eye(2, dtype=np.int64)) and pivots == [0, 1]


def test_rref_idempotent_and_rank_preserving():
    rng = np.random.default_rng(7)
    for r in (2, 3, 5):
        for _ in range(20):
            mat = GfMatrix(r, rng.integers(0, r, size=(5, 7)))
            rr, pivots = mat.rref()
            assert rr.rank() == mat.rank() == len(pivots)
            rr2, pivots2 = rr.rref()
            assert rr2 == rr and pivots2 == pivots


def test_columns_dependent():
    mat = GfMatrix(3, [[1, 2, 0], [2, 4, 1]])  # col1 = 2 * col0
    assert not mat.columns_dependent([0])
    assert mat.columns_dependent([0, 1])
    assert not mat.columns_dependent([0, 2])
    with pytest.raises(IndexError):
        mat.columns_dependent([0, 5])
    with pytest.raises(ValueError):
        mat.columns_dependent([1, 1])


def test_triangle_columns_dependent_over_gf2():
    # incidence of a triangle: each column has two ones, xor of all three is 0
    tri = GfMatrix(2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert tri.columns_dependent([0, 1, 2])
    assert not GfMatrix(3, tri.array()).columns_dependent([0, 1, 2])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, MAX_FIELD]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rank_of_transpose(r, rows, cols, seed):
    rng = np.random.default_rng(seed)
    mat = GfMatrix(r, rng.integers(0, r, size=(rows, cols)))
    assert mat.rank() == GfMatrix(r, mat.array().T).rank()


@settings(max_examples=60, deadline=None)
@given(
    # MAX_FIELD: elimination runs in int16, where (r - 1)^2 must fit
    st.sampled_from([2, 3, 5, MAX_FIELD]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_nullspace_orthogonal_and_full(r, rows, cols, seed):
    rng = np.random.default_rng(seed)
    mat = GfMatrix(r, rng.integers(0, r, size=(rows, cols)))
    null = mat.nullspace()
    assert null.rows == cols - mat.rank()
    assert null.rank() == null.rows
    prod = (mat.array() @ null.array().T) % r
    assert not prod.any()


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("m", range(2, 11))
def test_incidence_rank_structure(n, m):
    """Connected: rank |V|-1 over GF(2); over odd fields |V|-1 iff
    bipartite, |V| otherwise."""
    g = graphs.build(RingSpec(n, m))
    inv = graphs.invariants(g)
    if not inv.connected:
        return
    nv = g.num_vertices
    assert graphs.incidence_matrix(g, 2).rank() == nv - 1
    rank3 = graphs.incidence_matrix(g, 3).rank()
    assert rank3 == (nv - 1 if inv.bipartite else nv)
