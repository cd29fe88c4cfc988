"""Linear codes spanned by incidence-matrix rows over GF(r).

Provides exact dimension (rank), minimum distance by the
Brouwer-Zimmermann information-set search within a codeword budget, dual
minimum distance by dependent-column search, and the closed-form
parameter predictions per structural case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import sparse

from . import graphs
from .gfmatrix import GfMatrix, PrimeField
from .rings import CaseTag, StructureProfile

DEFAULT_BUDGET = 2**26


@dataclass(frozen=True)
class LinearCode:
    field: PrimeField
    generator: GfMatrix  # the incidence matrix H
    basis: GfMatrix  # rref rows, one per dimension

    @property
    def r(self) -> int:
        return self.field.r

    @property
    def length(self) -> int:
        return self.generator.cols

    @property
    def dimension(self) -> int:
        return self.basis.rows


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance when ``exact``; otherwise the bounds bracket it."""

    value: Optional[int]
    lower: int
    upper: int
    exact: bool
    method: str
    # a lightest codeword (primal) or a smallest dependent column set (dual)
    witness: Optional[tuple[int, ...]] = None

    @classmethod
    def known(cls, value: int, method: str, witness=None) -> "DistanceResult":
        return cls(value=value, lower=value, upper=value, exact=True, method=method,
                   witness=None if witness is None else tuple(witness))

    @classmethod
    def unknown(cls, lower: int, upper: int, method: str) -> "DistanceResult":
        return cls(value=None, lower=lower, upper=upper, exact=False, method=method)


def from_incidence(g: graphs.UnitGraph, r: int) -> LinearCode:
    return from_generator(graphs.incidence_matrix(g, r))


def from_generator(gen: GfMatrix) -> LinearCode:
    return LinearCode(field=gen.field, generator=gen, basis=gen.row_space_basis())


def dual_dimension(c: LinearCode) -> int:
    return c.length - c.dimension


# ---------------------------------------------------------------------------
# Minimum distance by the Brouwer-Zimmermann search
# ---------------------------------------------------------------------------

def min_distance_exact(c: LinearCode, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Minimum nonzero codeword weight by the Brouwer-Zimmermann search
    (``_brouwer_zimmermann``) over at most ``budget`` codewords.

    An exact result carries a lightest codeword as its witness, re-checked
    to lie in the row space and to have the stated weight. Past the budget
    the result is ``Unknown(lower, upper)``: the search's lower bound and
    the lightest weight it found.
    """
    k, n = c.dimension, c.length
    if k == 0:
        return DistanceResult.unknown(1, n, "zero code")
    lower, upper, word = _brouwer_zimmermann(c.basis, budget)
    if lower < upper:
        return DistanceResult.unknown(lower, upper, "budget exceeded")
    if (np.count_nonzero(word) != upper
            or GfMatrix(c.field, np.vstack([c.basis.array(), word])).rank() != k):
        raise RuntimeError(f"search gave a non-witness of weight {upper}: {word.tolist()}")
    return DistanceResult.known(upper, "Brouwer-Zimmermann", word.tolist())


# Seed of the column order that information sets are taken from: every
# order gives the same distance, a fixed one the same witness on every run
_COLUMN_SEED = 0


def _brouwer_zimmermann(basis: GfMatrix, budget: int,
                        order: Optional[np.ndarray] = None) -> tuple[int, int, np.ndarray]:
    """Bounds lower <= d <= upper on the minimum distance of the row space
    of ``basis`` (k >= 1 independent rows), and a codeword of weight
    upper; lower == upper unless finishing would enumerate more than
    ``budget`` codewords. Information sets take the columns in ``order``,
    by default a random order drawn from ``_COLUMN_SEED``.

    Brouwer-Zimmermann over disjoint information sets (Zimmermann 1996;
    Grassl, "Searching for linear codes with large minimum distance",
    2006). Set j is made by ``_information_set`` from the columns no
    earlier set holds, taken in ``order``, so the sets are disjoint and
    their ranks k_j never grow with j. Its generator G_j is the identity
    on I_j in its first k_j rows, and zero there in the others. Set j
    enumerates the messages of weight 1, 2, ... with their first nonzero
    coefficient 1 (scalar multiples weigh the same). Once it has
    enumerated every weight up to w_j, a codeword not yet seen has a
    message of weight above w_j under G_j, of which at most k - k_j
    entries fall outside the first k_j, so at least w_j + 1 - (k - k_j)
    entries of the codeword on I_j are nonzero. Summed over the disjoint
    sets, that bounds the weight of every codeword not yet seen, and the
    search ends when the sum reaches the lightest weight found, or when a
    set has enumerated all k levels, that is every codeword.

    Levels run w = 1, 2, ...: at level w every set whose bound can grow
    there (w + 1 > k - k_j) enumerates each level it has not yet
    enumerated up to w (a set made late starts at weight 1), new sets
    being made while the last one can grow, and the bound is tested after
    each set. The budget is tested before each level of each set. On a
    graph's cut space the information sets are spanning trees, and a
    graph of edge connectivity lambda has floor(lambda / 2) edge-disjoint
    ones (Nash-Williams; Tutte, 1961), which is why the search ends by
    w = 2 on every code of the [2,10]^2 x {2,3} sweep.
    """
    k, n, r = basis.rows, basis.cols, basis.r
    if r == 2:
        def pack(rows: np.ndarray) -> np.ndarray:  # bits in uint64 words
            packed = np.packbits(rows.astype(np.uint8), axis=1)
            return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)

        add = np.bitwise_xor
        weigh = lambda words: np.bitwise_count(words).sum(axis=1)
        scale = lambda x, c: x  # c is 1
        unpack = lambda word: np.unpackbits(word.view(np.uint8))[:n]
    else:
        pack = lambda rows: rows.astype(np.uint8)
        # r <= MAX_FIELD: x + y < 2r <= 254 does not overflow; below r, x + y - r wraps
        add = lambda x, y: np.minimum(x + y, x + y - r)
        weigh = lambda words: np.count_nonzero(words, axis=1)
        products = (np.arange(r)[:, None] * np.arange(r) % r).astype(np.uint8)
        scale = lambda x, c: x if c == 1 else products[c][x]
        unpack = lambda word: word

    rows = basis.array()
    weights = np.count_nonzero(rows, axis=1)
    upper, lightest = int(weights.min()), rows[weights.argmin()].astype(np.uint8)
    unused = np.random.default_rng(_COLUMN_SEED).permutation(n) if order is None else order
    tables: list[np.ndarray] = []  # one row per message coordinate
    ranks: list[int] = []
    done: list[int] = []  # every message weight up to done[j] is enumerated
    spent = 0

    def lower() -> int:
        return max(1, sum(max(0, wj + 1 - (k - kj)) for wj, kj in zip(done, ranks)))

    for w in itertools.count(1):
        for j in itertools.count():
            if j == len(tables):
                gen, rank, unused = _information_set(basis, unused)
                tables.append(pack(gen))
                ranks.append(rank)
                done.append(0)
            if w + 1 <= k - ranks[j]:
                break  # and no later set, of no larger rank, can grow either
            for level in range(done[j] + 1, w + 1):
                cost = math.comb(k, level) * (r - 1) ** (level - 1)
                if spent + cost > budget:
                    return lower(), upper, lightest
                spent += cost
                weight, word = _lightest_at_level(tables[j], level, r, add, weigh, scale)
                if weight < upper:
                    upper, lightest = weight, unpack(word)
                done[j] = level
            if w == k or lower() >= upper:  # w == k: set j saw every codeword
                return upper, upper, lightest


def _information_set(basis: GfMatrix, unused: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """A generator of the row space of ``basis`` made by elimination that
    pivots on the ``unused`` columns first, in their order: its first k_j
    rows are the identity on k_j of them, and its other rows vanish on all
    of them. Returns the generator in the original column order, k_j, and
    the unused columns that remain, in their order."""
    order = np.concatenate([unused, np.setdiff1d(np.arange(basis.cols), unused)])
    rr, pivots = GfMatrix(basis.field, basis.array()[:, order]).rref()
    rank = int(np.searchsorted(pivots, unused.size))
    gen = np.empty_like(rr.array())
    gen[:, order] = rr.array()
    return gen, rank, np.delete(unused, pivots[:rank])


def _lightest_at_level(table: np.ndarray, w: int, r: int, add, weigh, scale) -> tuple[int, np.ndarray]:
    """Lightest of the codewords sum_i c_i table[i] whose message c has
    weight ``w`` and first nonzero coefficient 1, with its weight.

    Each message is a prefix on its first w - 1 nonzero coordinates, summed
    one row at a time, plus its last coefficient times a row after the
    prefix's last one; for each last coefficient, all of those rows are
    added to the prefix in one vectorized block. Nothing larger than the
    table is held, whatever the field."""
    best, lightest = None, None
    for last in range(1, 2 if w == 1 else r):
        scaled = scale(table, last)
        for support in itertools.combinations(range(table.shape[0] - 1), w - 1):
            for scales in itertools.product(range(1, r), repeat=max(w - 2, 0)):
                if not support:  # weight 1: the rows themselves
                    words = scaled
                else:
                    prefix = table[support[0]]
                    for i, c in zip(support[1:], scales):
                        prefix = add(prefix, scale(table[i], c))
                    words = add(prefix, scaled[support[-1] + 1:])
                weights = weigh(words)
                i = int(weights.argmin())
                if best is None or weights[i] < best:
                    best, lightest = int(weights[i]), words[i].copy()
    return best, lightest


# ---------------------------------------------------------------------------
# Dual minimum distance by dependent-column search
# ---------------------------------------------------------------------------

def dual_min_distance(c: LinearCode, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Smallest t with t linearly dependent generator columns (the
    generator of C is a parity check for the dual).

    With rank k = E no columns are dependent: the dual is the zero code.
    Otherwise sizes 1 and 2 (zero or proportional columns) are settled
    by a direct scan. When every column has at most two nonzero entries,
    as in an incidence matrix, sizes 3 and 4 are settled together by one
    pass over the column pairs that share a row (see ``_pair_collision``),
    if its key table fits ``_COLLISION_BYTES``. Past those sizes the dual
    code itself, a nullspace basis, is searched by ``_brouwer_zimmermann``:
    the support of its lightest nonzero word is a smallest dependent set.
    The dual must have at most ``budget`` words, r^(E - k), and the search
    enumerate at most ``budget`` of them; otherwise the result is
    ``Unknown(t, u)`` with t the smallest size not yet excluded and u the
    smallest dependent set found, or k + 1, as any k + 1 columns are
    dependent.
    """
    gen = c.generator
    ncols, k = gen.cols, c.dimension
    if k == ncols:
        return DistanceResult.unknown(1, ncols, "zero code")
    entries = _sparse_columns(gen)
    small = _small_dependent_set(entries, gen.r)
    if small is not None:
        return DistanceResult.known(len(small), "column scan", small)
    start = 3
    pairs = _row_sharing_pairs(entries, gen.r)
    if pairs is not None:
        witness = _pair_collision(gen, entries, *pairs)
        if witness is not None:
            return DistanceResult.known(len(witness), "subset search", witness)
        start = 5  # sizes 3 and 4 are absent
    if gen.r ** (ncols - k) > budget:
        return DistanceResult.unknown(start, k + 1, "budget exceeded")
    lower, upper, word = _brouwer_zimmermann(c.basis.nullspace(), budget)
    if lower < upper:
        return DistanceResult.unknown(max(start, lower), min(upper, k + 1), "budget exceeded")
    witness = np.flatnonzero(word).tolist()
    if len(witness) != upper or not gen.columns_dependent(witness):
        raise RuntimeError(f"lightest dual word gave a non-witness {witness}")
    return DistanceResult.known(upper, "subset search", witness)


def _sparse_columns(gen: GfMatrix) -> np.ndarray:
    """Column j of ``gen`` as its nonzero entries (row, value), each held
    as the integer row * r + value, padded with 0 to the largest column
    weight (at least 1); its dtype also holds a product of two field elements."""
    a, r = gen.array(), gen.r
    cols, at = np.nonzero(a.T)  # sorted by column, then by row
    weight = np.bincount(cols, minlength=gen.cols)
    slot = np.arange(cols.size) - (np.cumsum(weight) - weight)[cols]
    entries = np.zeros((gen.cols, max(1, int(weight.max(initial=0)))),
                       dtype=np.min_scalar_type(r * max(gen.rows, r)))
    entries[cols, slot] = at * r + a[at, cols]
    return entries


def _entries(entries: np.ndarray, r: int) -> np.ndarray:
    """Keys of the vectors over GF(r) whose (row, value) entries, held as
    in ``_sparse_columns``, fill the rows of ``entries`` in any order:
    entries on one row are summed, zero sums dropped, the rest listed by
    decreasing row, scaled so the first value is 1 and padded with 0.
    Equal keys mean proportional vectors; a zero vector's key is all 0."""
    keys = entries.copy()
    keys[:, ::-1].sort(axis=1)  # by decreasing row, so the padding 0 goes last
    for s in range(1, keys.shape[1]):  # fold each entry into the next one on its row
        same = (keys[:, s] != 0) & (keys[:, s] // r == keys[:, s - 1] // r)
        total = (keys[same, s] % r + keys[same, s - 1] % r) % r
        keys[same, s] = np.where(total != 0, keys[same, s] - keys[same, s] % r + total, 0)
        keys[same, s - 1] = 0
    keys[:, ::-1].sort(axis=1)  # a sum that cancelled left a 0 among the entries
    vals = keys % r
    inverses = np.array([0] + [pow(x, -1, r) for x in range(1, r)], dtype=keys.dtype)
    return keys - vals + (vals * inverses[vals[:, :1]]) % r


def _small_dependent_set(entries: np.ndarray, r: int) -> Optional[list[int]]:
    """Dependent set of size 1 or 2 by direct scan of the columns'
    entries: a zero column, or a pair of proportional columns, which
    ``_entries`` gives equal keys."""
    keys = _entries(entries, r)
    zero = np.nonzero(~keys.any(axis=1))[0]
    if zero.size:
        return [int(zero[0])]
    order = np.lexsort(keys.T[::-1])
    dup = np.nonzero((keys[order[1:]] == keys[order[:-1]]).all(axis=1))[0]
    if dup.size:
        return sorted(int(c) for c in order[dup[0]:dup[0] + 2])
    return None


# Upper limit on the collision pass's key table, which holds one key per
# column and r - 1 per column pair
_COLLISION_BYTES = 32 << 20


def _row_sharing_pairs(entries: np.ndarray, r: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The column pairs i < j that share a nonzero row, each listed once,
    for ``_pair_collision``; None when some column has more than two
    nonzero entries, where these pairs do not settle sizes 3 and 4, or
    when the key table would exceed ``_COLLISION_BYTES``."""
    if entries.shape[1] > 2:
        return None
    cols, slot = np.nonzero(entries)
    on = entries[cols, slot] // r
    deg = np.bincount(on)
    listed = int((deg * (deg - 1) // 2).sum())  # a pair sharing two rows counts twice
    key_bytes = 2 * entries.shape[1] * entries.itemsize  # as laid out in _pair_collision
    if (entries.shape[0] + listed * (r - 1)) * key_bytes > _COLLISION_BYTES:
        return None
    # the pairs off the diagonal of H^T H, in order and each once
    incidence = sparse.csr_array((np.ones(on.size, dtype=np.int32), (on, cols)))
    return sparse.triu(incidence.T @ incidence, 1, format="csr").nonzero()


def _pair_collision(gen: GfMatrix, entries: np.ndarray, first: np.ndarray,
                    second: np.ndarray) -> Optional[list[int]]:
    """A dependent set of 3 or 4 columns, or None when neither size
    occurs; requires that no set of 1 or 2 columns is dependent.

    The pairs (first[p], second[p]), each with first < second and listed
    once, must hold a pair of every minimal dependent 3-set and two
    disjoint pairs of every minimal dependent 4-set. All C(E, 2) pairs
    do. When no column has more than two nonzero entries, so do the
    pairs that share a nonzero row: every row that a minimal dependent
    set S touches holds at least two of its columns, or the dependence
    could not cancel there, so
    - a 3-set S has a pair that shares a row;
    - the share-a-row graph on a 4-set S has no isolated column, so it
      has a perfect matching unless it is a star K_{1,3}; and it is no
      star, since two of the three leaves would lie on one of the
      centre's two rows and so share a row as well.

    Every listed pair and beta in GF(r)* gives the key of a_i + beta a_j
    scaled to first nonzero entry 1 (never zero, as a_i and a_j are not
    proportional). A minimal dependent 3-set is a pair key equal to a
    scaled single column; a minimal dependent 4-set is two equal pair
    keys. Once no 3-set exists, equal pair keys come from disjoint pairs,
    since a shared column would leave a dependence among at most 3
    columns. Stern's low-weight search ("A method for finding codewords
    of small weight", 1989) matches partial sums the same way.
    """
    r = gen.r
    ncols, npairs = entries.shape[0], first.size
    # one row per entry position, which lexsort reads without a copy; a sum
    # of two columns has up to twice their entries, and singles are padded to match
    keys = np.empty((2 * entries.shape[1], ncols + npairs * (r - 1)), dtype=entries.dtype)
    keys[:, :ncols] = _entries(np.hstack([entries, 0 * entries]), r).T
    vals = entries[second] % r
    for beta in range(1, r):
        at = ncols + (beta - 1) * npairs
        sums = np.hstack([entries[first], entries[second] - vals + (vals * beta) % r])
        keys[:, at:at + npairs] = _entries(sums, r).T
    order = np.lexsort(keys[::-1])
    ranked = keys[:, order]
    equal = np.nonzero((ranked[:, 1:] == ranked[:, :-1]).all(axis=0))[0]
    if equal.size == 0:
        return None

    def columns(key_row: int) -> list[int]:
        if key_row < ncols:
            return [key_row]
        p = (key_row - ncols) % npairs
        return [int(first[p]), int(second[p])]

    # a run of equal keys holds at most one single column (singles are
    # pairwise distinct), and its neighbours in the run are pairs
    lone = equal[np.minimum(order[equal], order[equal + 1]) < ncols]
    i = int(lone[0] if lone.size else equal[0])
    witness = sorted(columns(int(order[i])) + columns(int(order[i + 1])))
    if len(set(witness)) != len(witness) or not gen.columns_dependent(witness):
        raise RuntimeError(f"column-pair collision gave a non-witness {witness}")
    return witness


# ---------------------------------------------------------------------------
# Closed-form predictions
# ---------------------------------------------------------------------------

class PredictionSource(Enum):
    S4_C2 = "S4_C2"
    S4_CR = "S4_Cr"
    S5_C2 = "S5_C2"
    S5_CR = "S5_Cr"
    CONJ_II_C2 = "ConjII_C2"
    CONJ_II_CR = "ConjII_Cr"
    NONE = "None"

    @property
    def is_theorem(self) -> bool:
        return self in (self.S4_C2, self.S4_CR, self.S5_C2, self.S5_CR)


@dataclass(frozen=True)
class CodeParams:
    length: int
    dimension: int
    min_distance: Optional[int]  # None = no predicted value


@dataclass(frozen=True)
class PredictedParams:
    primal: Optional[CodeParams]
    dual: Optional[CodeParams]
    source: PredictionSource


# (case tag, binary field) -> the statement that predicts the parameters:
# the odd-odd rows hold over GF(2), the one-even rows over an odd field
_SOURCES = {
    (CaseTag.PP_ODD_ODD, True): PredictionSource.S4_C2,
    (CaseTag.PPPP_ODD_ODD, True): PredictionSource.S5_C2,
    (CaseTag.GENERAL_ODD_ODD, True): PredictionSource.CONJ_II_C2,
    (CaseTag.PP_ODD_TWO, False): PredictionSource.S4_CR,
    (CaseTag.PPPP_ONE_EVEN, False): PredictionSource.S5_CR,
    (CaseTag.GENERAL_ONE_EVEN, False): PredictionSource.CONJ_II_CR,
}


def predict(profile: StructureProfile, r: int) -> PredictedParams:
    """Closed-form [n, k, d] for primal and dual when (n, m, r) matches a
    theorem's hypotheses; conjectural values for the General* cases; the
    binary-field rows require r = 2 and the r-ary rows an odd prime r."""
    PrimeField(r)  # reject non-prime fields up front
    source = _SOURCES.get((profile.case_tag, r == 2), PredictionSource.NONE)
    if source == PredictionSource.NONE:
        return PredictedParams(primal=None, dual=None, source=source)
    spec = profile.spec
    length = graphs.edge_count_formula(spec)
    dim = spec.size - 1
    if not source.is_theorem:
        dual_d = None
    elif r == 2:
        dual_d = 3
    else:
        # the girth-6 exception replaces the dual-distance-4 claim at n*m = 6
        dual_d = 6 if spec.size == 6 else 4
    return PredictedParams(
        primal=CodeParams(length, dim, graphs.min_degree_formula(spec)),
        dual=CodeParams(length, length - dim, dual_d),
        source=source,
    )
