"""Linear codes spanned by incidence-matrix rows over GF(r).

Provides exact dimension (rank), exhaustive minimum distance within an
enumeration budget, dual minimum distance by dependent-column search,
and the closed-form parameter predictions per structural case.
"""

from __future__ import annotations

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
    witness: Optional[tuple[int, ...]] = None  # a smallest dependent column set (dual only)

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
# Minimum distance by exhaustive codeword enumeration
# ---------------------------------------------------------------------------

def min_distance_exact(c: LinearCode, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Minimum nonzero codeword weight over all r^k - 1 messages.

    Enumerates in blocks: the tail coordinates are expanded into a
    precomputed combination table, the remaining prefix runs through a
    base-r odometer with incremental codeword updates, so the per-message
    cost is a vectorized table row.
    """
    k, n, r = c.dimension, c.length, c.r
    if k == 0:
        return DistanceResult.unknown(1, n, "zero code")
    if r**k > budget:
        return DistanceResult.unknown(1, n, "budget exceeded")
    word = _enumerate(c.basis.array(), r)
    return DistanceResult.known(int(np.count_nonzero(word)), "exhaustive")


def _tail_size(k: int, r: int, max_rows: int = 1 << 16) -> int:
    j = 0
    while j < k and r ** (j + 1) <= max_rows:
        j += 1
    return max(j, 1) if k >= 1 else 0


def _enumerate(basis: np.ndarray, r: int) -> np.ndarray:
    """Lightest nonzero word in the row space of ``basis`` (k >= 1 rows),
    as one uint8 entry per coordinate.

    Over GF(2) a row is packed into bits, XOR adds two rows and a
    popcount weighs one; over any other field a row keeps one byte per
    entry, adds mod r and is weighed by ``count_nonzero``.
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
    j = _tail_size(k, r)
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
    code itself is enumerated: the support of its lightest nonzero word is
    a smallest dependent set. Its r^(E - k) words must fit ``budget``; a
    larger dual gives ``Unknown(t, k + 1)`` with t the smallest size not
    yet excluded, as any k + 1 columns are dependent.
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
    witness = np.flatnonzero(_enumerate(c.basis.nullspace().array(), gen.r)).tolist()
    if not gen.columns_dependent(witness):
        raise RuntimeError(f"lightest dual word gave a non-witness {witness}")
    return DistanceResult.known(len(witness), "subset search", witness)


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
