"""Tests for incidence codes, distance computation, and closed-form predictions.

Distances are cross-checked against naive oracles written from the
definitions: full message enumeration with itertools for the primal
distance, subset dependence testing with an inline field elimination for
the dual distance. The vectorized exhaustive enumeration that the
Brouwer-Zimmermann search replaced stays here as the oracle for codes
too large for the itertools one.
"""

import itertools
import math
import tracemalloc

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
from unitcodes.graphs import build
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


def _tail_size(k, r, max_rows=1 << 16):
    j = 0
    while j < k and r ** (j + 1) <= max_rows:
        j += 1
    return max(j, 1) if k >= 1 else 0


def _enumerate(basis, r, tail=None):
    """Lightest nonzero word in the row space of ``basis`` (k >= 1 rows),
    as one uint8 entry per coordinate, by enumerating all r^k messages.

    The last ``tail`` rows (by default ``_tail_size``) are expanded into a
    table of all their combinations, and the other rows run through a
    base-r odometer with incremental word updates, so each message costs
    one vectorized table row. Over GF(2) a row is packed into bits, XOR
    adds two rows and a popcount weighs one; over any other field a row
    keeps one byte per entry, adds mod r and is weighed by
    ``count_nonzero``.
    """
    k, n = basis.shape
    if r == 2:
        rows = np.packbits(basis.astype(np.uint8), axis=1)
        add = np.bitwise_xor
        weigh = lambda words: np.bitwise_count(words).sum(axis=1)
    else:
        rows = basis.astype(np.uint8)
        # r <= MAX_FIELD: x + y < 2r <= 254 does not overflow; below r, x + y - r wraps
        add = lambda x, y: np.minimum(x + y, x + y - r)
        weigh = lambda words: np.count_nonzero(words, axis=1)
    j = _tail_size(k, r) if tail is None else min(tail, k)
    table = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for i in range(k - j, k):
        layers = [table]
        for _ in range(r - 1):
            layers.append(add(layers[-1], rows[i]))
        table = np.vstack(layers)
    best, lightest = n + 1, None
    prefix = np.zeros(rows.shape[1], dtype=np.uint8)
    digits = [0] * (k - j)
    while True:
        weights = weigh(add(prefix, table))
        if not any(digits):  # table row 0 with a zero prefix is the zero message
            weights[0] = n + 1
        i = int(weights.argmin())
        if weights[i] < best:
            # one recomputed row, not a view that would keep the whole block alive
            best, lightest = int(weights[i]), add(prefix, table[i])
        # advance the base-r prefix odometer
        i = 0
        while i < len(digits):
            prefix = add(prefix, rows[i])
            digits[i] += 1
            if digits[i] < r:
                break
            digits[i] = 0
            i += 1
        else:
            return np.unpackbits(lightest)[:n] if r == 2 else lightest


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
    # (3,5,2) needs 100 codewords; fewer leave a bracket from the search's
    # lower bound to the lightest weight found, not [1, E]
    c = _code(3, 5, 2)
    assert min_distance_exact(c, budget=100).value == 7
    for budget, lower in [(0, 1), (14, 3), (28, 5), (50, 6)]:
        res = min_distance_exact(c, budget=budget)
        assert (res.exact, res.value, res.witness) == (False, None, None)
        assert (res.lower, res.upper, res.method) == (lower, 7, "budget exceeded")


def test_min_distance_zero_code():
    gen = GfMatrix(2, [[0, 0, 0]])
    res = min_distance_exact(from_generator(gen))
    assert not res.exact


def test_min_distance_row_rescaling_invariant():
    # the code is the row space, so scaling basis rows changes nothing
    c = _code(2, 3, 5)  # 5^5 messages
    arr = c.generator.array().copy()
    arr[0] = (arr[0] * 3) % 5
    arr[2] = (arr[2] * 2) % 5
    scaled = from_generator(GfMatrix(5, arr))
    assert min_distance_exact(scaled).value == min_distance_exact(c).value


@st.composite
def _message_generators(draw):
    """k x n generators over GF(r) with k <= 7 and r^k <= 7^4, so that
    the one-message-at-a-time oracle stays quick."""
    r = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, {2: 7, 3: 6, 5: 4, 7: 4}[r]))
    n = draw(st.integers(k, 12))
    entries = draw(st.lists(st.integers(0, r - 1), min_size=k * n, max_size=k * n))
    return GfMatrix(r, np.array(entries).reshape(k, n))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gen=_message_generators(), tail=st.integers(1, 2))
def test_enumeration_odometer_property(gen, tail):
    # a tail of 1 or 2 rows leaves the prefix odometer up to 6 digits to carry through
    c = from_generator(gen)
    if c.dimension == 0:
        return
    word = _enumerate(c.basis.array(), c.r, tail)
    truth = oracle_min_distance(c)
    # the returned word is a lightest nonzero codeword
    assert word.shape == (c.length,) and word.any() and int(word.max()) < c.r
    assert np.count_nonzero(word) == truth
    assert GfMatrix(c.r, np.vstack([c.basis.array(), word])).rank() == c.dimension


@st.composite
def _information_set_generators(draw):
    """k x n generators over GF(r) with k <= 9, r^k < 2^15 and n <= 3k + 5,
    whose columns after the first information set often have rank below
    k: a block of random columns, a block drawn from a random subspace of
    smaller dimension, and now and then repeated or zero columns, in
    shuffled order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = int(rng.choice([2, 3, 5, 7]))
    k = int(rng.integers(1, {2: 9, 3: 8, 5: 6, 7: 5}[r] + 1))
    spread = rng.integers(0, r, size=(k, int(rng.integers(1, k + 3))))
    sub = rng.integers(0, r, size=(k, int(rng.integers(0, k + 1))))
    low = sub @ rng.integers(0, r, size=(sub.shape[1], int(rng.integers(0, 2 * k + 1))))
    a = np.hstack([spread, low])
    if rng.random() < 0.2:
        a = np.hstack([a, a[:, rng.integers(a.shape[1], size=int(rng.integers(1, 4)))]])
    if rng.random() < 0.1:
        a[:, rng.integers(a.shape[1])] = 0
    return GfMatrix(r, a[:, rng.permutation(a.shape[1])])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(gen=_information_set_generators(), budget=st.sampled_from([codes.DEFAULT_BUDGET, 30]))
def test_brouwer_zimmermann_matches_enumeration(gen, budget):
    c = from_generator(gen)
    res = min_distance_exact(c, budget=budget)
    if c.dimension == 0:
        assert (res.exact, res.method) == (False, "zero code")
        return
    truth = int(np.count_nonzero(_enumerate(c.basis.array(), c.r)))
    if res.exact:
        assert res.value == truth
        witness = np.array(res.witness)
        assert np.count_nonzero(witness) == truth
        assert GfMatrix(c.r, np.vstack([c.basis.array(), witness])).rank() == c.dimension
    else:
        # only the small budget stops the search, with a bracket around the distance
        assert budget == 30 and (res.method, res.witness) == ("budget exceeded", None)
        assert res.lower <= truth <= res.upper


@st.composite
def _late_set_generators(draw):
    """[I_k | A] over GF(r) with A of rank s <= k - 2, so that with the
    columns taken in order every information set after the identity has
    rank at most s: it joins the search only at weight k - s and must then
    enumerate from weight 1, or it misses the words hidden in its rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = int(rng.choice([2, 3, 5, 7]))
    k = int(rng.integers(3, {2: 10, 3: 7, 5: 5, 7: 5}[r] + 1))
    s = int(rng.integers(1, k - 1))
    a = rng.integers(0, r, size=(k, s)) @ rng.integers(0, r, size=(s, int(rng.integers(s, 2 * k + 1))))
    return GfMatrix(r, np.hstack([np.eye(k, dtype=int), a]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gen=_late_set_generators())
def test_brouwer_zimmermann_late_sets_start_at_weight_one(gen):
    c = from_generator(gen)
    truth = int(np.count_nonzero(_enumerate(c.basis.array(), c.r)))
    lower, upper, word = codes._brouwer_zimmermann(c.basis, codes.DEFAULT_BUDGET,
                                                   np.arange(c.length))
    assert lower == upper == np.count_nonzero(word) == truth


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


@pytest.mark.parametrize("n,m", [(4, 7), (5, 5), (5, 6), (13, 15), (15, 15)])
def test_dual_distance_four_by_pair_collision(n, m):
    # the dual code has more than DEFAULT_BUDGET words here, so the pair pass alone decides
    c = _code(n, m, 3)
    assert 3 ** dual_dimension(c) > codes.DEFAULT_BUDGET
    res = dual_min_distance(c)
    assert (res.exact, res.value, res.method) == (True, 4, "subset search")
    _assert_minimal_witness(c.generator, res)


def test_dual_distance_collision_memory_gate(monkeypatch):
    # (r - 1) keys per row-sharing pair grow with r; past the byte limit the dual code is enumerated
    c = _code(3, 4, 3)
    monkeypatch.setattr(codes, "_COLLISION_BYTES", 0)
    res = dual_min_distance(c)
    assert (res.exact, res.value) == (True, 4)
    _assert_minimal_witness(c.generator, res)


def test_dual_distance_collision_bound_in_bytes():
    # (15,15,7): 2.70 M keys of four uint16 entries make a 21.6 MiB table, within
    # _COLLISION_BYTES although past the 2^21 keys of 16 bytes that it stands for
    c = _code(15, 15, 7)
    first, _ = codes._row_sharing_pairs(codes._sparse_columns(c.generator), 7)
    assert c.length + first.size * 6 > 2**21
    res = dual_min_distance(c)
    assert (res.exact, res.value, res.method) == (True, 4, "subset search")
    _assert_minimal_witness(c.generator, res)


def test_dual_distance_memory():
    # 449,568 row-sharing pairs on (15,15,2): keys of at most four (row, value) entries
    # keep the pass under 56 MiB, where keys of whole 225-entry sums take over 60
    c = _code(15, 15, 2)
    tracemalloc.start()
    try:
        res = dual_min_distance(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.exact, res.value) == (True, 3)
    assert peak < 56 * 2**20
    # 1.77 M keys on (13,15,3): comparing one key row at a time, not a sorted
    # copy of the table, keeps the pass under 84 MiB, where the copy took 90
    c = _code(13, 15, 3)
    tracemalloc.start()
    try:
        res = dual_min_distance(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.exact, res.value) == (True, 4)
    assert peak < 84 * 2**20


def _normalize(cols, r):
    """Scale each nonzero column so its first nonzero entry is 1; entries
    stay below r, and cols' dtype must hold (r - 1)^2."""
    inverses = np.array([0] + [pow(x, -1, r) for x in range(1, r)], dtype=cols.dtype)
    lead = cols[np.argmax(cols != 0, axis=0), np.arange(cols.shape[1])]
    return (cols * inverses[lead][None, :]) % r


def _key_words(rows, r):
    per_word = 64 // (r - 1).bit_length()
    return -(-rows // per_word)


def _pack(cols, r):
    """Pack columns with entries in [0, r) exactly into uint64 words,
    one key row per column; equal keys mean equal columns."""
    bits = (r - 1).bit_length()
    per_word = 64 // bits
    rows, n = cols.shape
    keys = np.zeros((n, _key_words(rows, r)), dtype=np.uint64)
    for e in range(rows):
        w, pos = divmod(e, per_word)
        keys[:, w] |= cols[e].astype(np.uint64) << np.uint64(bits * pos)
    return keys


def _dense_keys(gen):
    """Dense keys for every column and every a_i + beta a_j, i < j, beta in
    GF(r)*: the whole vector scaled to first nonzero entry 1 and packed."""
    a, r = gen.array(), gen.r
    first, second = np.triu_indices(gen.cols, 1)
    sums = [(a[:, first] + beta * a[:, second]) % r for beta in range(1, r)]
    return _pack(_normalize(np.hstack([a] + sums), r), r)


def _full_pair_collision(gen):
    """Size 3 or 4 of the smallest dependent set, or None when neither
    occurs, from dense keys over all C(E, 2) column pairs; requires that no
    set of 1 or 2 columns is dependent (see ``codes._pair_collision``)."""
    keys = [k.tobytes() for k in _dense_keys(gen)]
    singles, sums = set(keys[:gen.cols]), keys[gen.cols:]
    if singles.intersection(sums):
        return 3
    return 4 if len(set(sums)) < len(sums) else None


def test_row_sharing_pairs_list_a_double_pair_once():
    # over GF(3), columns 0 and 1 share both rows without being proportional
    gen = GfMatrix(3, [[1, 1, 0, 0], [1, 2, 1, 0], [0, 0, 1, 1]])
    first, second = codes._row_sharing_pairs(codes._sparse_columns(gen), 3)
    assert list(zip(first.tolist(), second.tolist())) == [(0, 1), (0, 2), (1, 2), (2, 3)]
    res = dual_min_distance(from_generator(gen))
    assert res.value == oracle_dual_distance(from_generator(gen)) == 4
    _assert_minimal_witness(gen, res)


@st.composite
def _weight_two_generators(draw):
    """Pairwise non-proportional columns with one or two nonzero entries
    over GF(r), shapes up to 6 x 11; over odd r now and then a planted
    column on the rows of another one, and now and then a planted
    multiple of another column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = int(rng.choice([2, 3, 5, 7]))
    rows = int(rng.integers(3, 7))
    # rows + C(rows, 2) (r - 1) projective points have weight 1 or 2
    cols = min(int(rng.integers(3, 12)), rows + math.comb(rows, 2) * (r - 1))
    picked: dict[tuple, np.ndarray] = {}
    while len(picked) < cols:
        v = np.zeros(rows, dtype=np.int64)
        if picked and r > 2 and rng.random() < 0.3:
            support = np.nonzero(list(picked.values())[-1])[0]
        else:
            support = rng.choice(rows, size=int(rng.integers(1, 3)), replace=False)
        v[support] = rng.integers(1, r, size=support.size)
        lead = int(v[np.nonzero(v)[0][0]])
        picked.setdefault(tuple((v * pow(lead, -1, r)) % r), v)
    a = np.array(list(picked.values())).T
    if rng.random() < 0.15:
        a[:, rng.integers(cols)] = (a[:, rng.integers(cols)] * rng.integers(1, r)) % r
    return GfMatrix(r, a)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gen=_weight_two_generators())
def test_row_sharing_pass_property(gen):
    c = from_generator(gen)
    truth = oracle_dual_distance(c, cap=gen.cols)
    res = dual_min_distance(c)
    if truth is None:  # independent columns
        assert (res.exact, res.method, dual_dimension(c)) == (False, "zero code", 0)
    else:
        assert res.exact and res.value == truth
        _assert_minimal_witness(gen, res)
    entries = codes._sparse_columns(gen)
    if codes._small_dependent_set(entries, gen.r) is None:
        restricted = codes._pair_collision(gen, entries, *codes._row_sharing_pairs(entries, gen.r))
        full = _full_pair_collision(gen)
        if truth in (3, 4):
            assert len(restricted) == full == truth
            assert gen.columns_dependent(restricted)
        else:
            assert restricted is None and full is None


def test_weight_three_column_skips_the_pass(monkeypatch):
    # a column on three rows: pairs that share a row no longer settle 3 and 4
    arr = _code(3, 4, 3).generator.array().copy()
    arr[:, 0] = 0
    arr[[0, 5, 10], 0] = [1, 2, 1]
    gen = GfMatrix(3, arr)
    assert codes._small_dependent_set(codes._sparse_columns(gen), 3) is None
    expect = _full_pair_collision(gen)
    calls = []
    honest = codes._pair_collision
    monkeypatch.setattr(codes, "_pair_collision", lambda *a: calls.append(a) or honest(*a))
    res = dual_min_distance(from_generator(gen))
    assert calls == []
    assert (res.exact, res.value, res.method) == (True, expect, "subset search")
    _assert_minimal_witness(gen, res)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_incidence_dual_witnesses(r):
    exact = 0
    for n in range(2, 9):
        for m in range(2, 9):
            c = _code(n, m, r)
            res = dual_min_distance(c)
            if res.exact:
                _assert_minimal_witness(c.generator, res)
                exact += 1
            else:  # a forest such as (2, 2) has no dependent columns at all
                assert (res.method, dual_dimension(c)) == ("zero code", 0), (n, m, r)
    assert exact >= 45


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
@given(gen=_generators(), budget=st.sampled_from([codes.DEFAULT_BUDGET, 10, 1]))
def test_dual_distance_property(gen, budget):
    c = from_generator(gen)
    truth = oracle_dual_distance(c, cap=gen.cols)
    res = dual_min_distance(c, budget=budget)
    if truth is None:  # independent columns
        assert (res.exact, res.method, res.lower, res.upper) == (False, "zero code", 1, gen.cols)
        assert dual_dimension(c) == 0
    elif res.exact:
        assert res.value == truth
        _assert_minimal_witness(gen, res)
    else:
        # a dual code with more than budget words, or a search that would
        # enumerate more than budget of them, stops with a bracket
        assert (res.witness, res.method) == (None, "budget exceeded")
        assert res.lower <= truth <= res.upper <= c.dimension + 1
        if gen.r ** dual_dimension(c) > budget:
            assert res.upper == c.dimension + 1


def _sparse_keys(gen):
    """``_entries`` keys in the order of ``_dense_keys``."""
    entries, r = codes._sparse_columns(gen), gen.r
    first, second = np.triu_indices(gen.cols, 1)
    vals = entries[second] % r
    sums = [np.hstack([entries[first], entries[second] - vals + (vals * beta) % r])
            for beta in range(1, r)]
    singles = np.hstack([entries, 0 * entries])
    return np.vstack([codes._entries(x, r) for x in [singles] + sums])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gen=_generators())
def test_entries_match_dense_keys(gen):
    # columns of any weight and their pair sums: equal sparse keys exactly where dense keys agree
    sparse = [k.tobytes() for k in _sparse_keys(gen)]
    dense = [k.tobytes() for k in _dense_keys(gen)]
    assert len(set(zip(sparse, dense))) == len(set(sparse)) == len(set(dense))


def test_dual_distance_budget_unknown():
    # girth 6: the pair pass excludes 3 and 4, and the dual code has 2^(E - k) = 2 words
    c = _code(2, 3, 2)
    res = dual_min_distance(c, budget=1)
    assert (res.exact, res.lower, res.upper, res.method) == (
        False, 5, c.dimension + 1, "budget exceeded")
    res = dual_min_distance(c, budget=2)
    assert (res.exact, res.value) == (True, 6)


def test_dual_distance_search_budget():
    # the dual code is three copies of the [7,3,4] simplex code, [21,3,12]: its
    # 2^3 words pass a gate of 8, but its search needs more than 8 codewords
    simplex = np.array([[int(b) for b in f"{x:03b}"] for x in range(1, 8)]).T
    c = from_generator(GfMatrix(2, np.hstack([simplex] * 3)).nullspace())
    res = dual_min_distance(c, budget=8)
    assert (res.exact, res.lower, res.upper, res.method) == (False, 5, 12, "budget exceeded")
    res = dual_min_distance(c)
    assert (res.exact, res.value) == (True, 12)
    _assert_minimal_witness(c.generator, res)


def test_dual_distance_zero_code():
    # a full-rank square generator has no dependent subset: its dual is the zero code
    c = from_generator(GfMatrix(3, np.eye(4, dtype=int)))
    res = dual_min_distance(c)
    assert (res.exact, res.lower, res.upper, res.method) == (False, 1, 4, "zero code")
    assert dual_dimension(c) == 0


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
