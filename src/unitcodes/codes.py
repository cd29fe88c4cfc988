"""Linear codes spanned by incidence-matrix rows over GF(r).

Provides exact dimension (rank), exhaustive minimum distance within an
enumeration budget, dual minimum distance by dependent-column search,
and the closed-form parameter predictions per structural case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import graphs
from .gfmatrix import GfMatrix, PrimeField
from .rings import CaseTag, StructureProfile

DEFAULT_BUDGET = 2**26
DEFAULT_DUAL_CAP = 8
DEFAULT_DUAL_NODES = 200_000


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
    witness: Optional[tuple[int, ...]] = None  # dependent columns (dual search)

    @classmethod
    def known(cls, value: int, method: str, witness=None) -> "DistanceResult":
        return cls(value=value, lower=value, upper=value, exact=True, method=method,
                   witness=None if witness is None else tuple(witness))

    @classmethod
    def unknown(cls, lower: int, upper: int, method: str) -> "DistanceResult":
        return cls(value=None, lower=lower, upper=upper, exact=False, method=method)


def from_incidence(g: graphs.UnitGraph, r: int) -> LinearCode:
    gen = graphs.incidence_matrix(g, r)
    return LinearCode(field=gen.field, generator=gen, basis=gen.row_space_basis())


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
    if r == 2:
        best = _enumerate_gf2(c.basis.array())
    else:
        best = _enumerate_gfp(c.basis.array(), r)
    return DistanceResult.known(best, "exhaustive")


def _tail_size(k: int, r: int, max_rows: int = 1 << 16) -> int:
    j = 0
    while j < k and r ** (j + 1) <= max_rows:
        j += 1
    return max(j, 1) if k >= 1 else 0


def _enumerate_gf2(basis: np.ndarray) -> int:
    k, n = basis.shape
    packed = np.packbits(basis.astype(np.uint8), axis=1)
    j = _tail_size(k, 2)
    table = np.zeros((1, packed.shape[1]), dtype=np.uint8)
    for i in range(k - j, k):
        table = np.vstack([table, table ^ packed[i]])
    best = n + 1
    prefix = np.zeros(packed.shape[1], dtype=np.uint8)
    digits = [0] * (k - j)
    while True:
        weights = np.bitwise_count(prefix ^ table).sum(axis=1)
        if any(digits):
            w = int(weights.min())
        else:
            w = int(weights[1:].min()) if len(weights) > 1 else best
        best = min(best, w)
        # advance the prefix odometer
        i = 0
        while i < len(digits):
            prefix ^= packed[i]
            digits[i] ^= 1
            if digits[i]:
                break
            i += 1
        else:
            return best


def _enumerate_gfp(basis: np.ndarray, r: int) -> int:
    if r > 127:
        raise ValueError("enumeration supports field orders up to 127")
    k, n = basis.shape
    rows = basis.astype(np.uint8)
    j = _tail_size(k, r)
    table = np.zeros((1, n), dtype=np.uint8)
    for i in range(k - j, k):
        layers = [table]
        shifted = table
        for _ in range(r - 1):
            shifted = (shifted + rows[i]) % r
            layers.append(shifted)
        table = np.vstack(layers)
    best = n + 1
    prefix = np.zeros(n, dtype=np.uint8)
    digits = [0] * (k - j)
    while True:
        s = prefix + table  # entries < 2r <= 254, no overflow
        s = np.where(s >= r, s - r, s)
        weights = np.count_nonzero(s, axis=1)
        if any(digits):
            w = int(weights.min())
        else:
            w = int(weights[1:].min()) if len(weights) > 1 else best
        best = min(best, w)
        i = 0
        while i < len(digits):
            prefix = (prefix + rows[i]) % r
            digits[i] += 1
            if digits[i] < r:
                break
            digits[i] = 0
            i += 1
        else:
            return best


# ---------------------------------------------------------------------------
# Dual minimum distance by dependent-column search
# ---------------------------------------------------------------------------

def dual_min_distance(
    c: LinearCode,
    cap: int = DEFAULT_DUAL_CAP,
    max_nodes: int = DEFAULT_DUAL_NODES,
    cycle_hint: Optional[list[int]] = None,
) -> DistanceResult:
    """Smallest t with t linearly dependent generator columns (the
    generator of C is a parity check for the dual).

    Sizes 1 and 2 (zero or proportional columns) are settled by a direct
    scan. Sizes 3 and 4 are settled together by one column-pair collision
    pass (see ``_pair_collision``) when C(E, 2) <= ``max_nodes`` for E
    columns and its key table fits ``_COLLISION_WORDS``; t = 5, 6, ...,
    or every t >= 3 when the pass is gated off, go to backtracking over
    column subsets with incremental elimination. Over GF(2) a subset-size
    level whose search would exceed ``max_nodes`` may be answered by
    ``cycle_hint`` (edge indices of a shortest cycle of the source graph:
    minimal dependent column sets of an incidence matrix are exactly
    minimal cycles); the hint is always re-validated as a genuinely
    dependent set. Without a usable hint such a level ends the search
    with an ``Unknown`` bracket.
    """
    gen = c.generator
    ncols = gen.cols
    small = _small_dependent_set(gen)
    if small is not None:
        if len(small) <= cap:
            return DistanceResult.known(len(small), "column scan", small)
        return DistanceResult.unknown(cap + 1, ncols, "no dependence within cap")
    start = 3
    if cap >= 3 and _collision_fits(gen, max_nodes):
        witness = _pair_collision(gen)
        if witness is not None and len(witness) <= cap:
            return DistanceResult.known(len(witness), "subset search", witness)
        start = 5  # sizes 3 and 4 are absent, or a 4-set lies beyond cap = 3
    # there is no subset larger than ncols, however large cap is
    for t in range(start, min(cap, ncols) + 1):
        # internal search nodes are the independent (t-1)-subsets
        if math.comb(ncols, t - 1) <= max_nodes:
            try:
                witness = _find_dependent_subset(gen, t, max_nodes)
            except _SearchBudget:
                witness = None
            else:
                if witness is not None:
                    return DistanceResult.known(len(witness), "subset search", witness)
                continue
        if (
            c.r == 2
            and cycle_hint is not None
            and t <= len(cycle_hint) <= cap
            and gen.columns_dependent(cycle_hint)
        ):
            # levels below t were exhaustively excluded above
            return DistanceResult.known(len(cycle_hint), "cycle shortcut", sorted(cycle_hint))
        return DistanceResult.unknown(t, ncols, "search budget exceeded")
    return DistanceResult.unknown(cap + 1, ncols, "no dependence within cap")


def uses_cycle_hint(c: LinearCode, max_nodes: int = DEFAULT_DUAL_NODES) -> bool:
    """Whether ``dual_min_distance(c, max_nodes=max_nodes)`` can consult a
    cycle hint: only over GF(2), and only when the collision pass is gated
    off, since otherwise every level the hint could answer is searched."""
    return c.r == 2 and not _collision_fits(c.generator, max_nodes)


def _small_dependent_set(gen: GfMatrix) -> Optional[list[int]]:
    """Dependent set of size 1 or 2 by direct scan: a zero column, or a
    pair of proportional columns (after scaling each column so its first
    nonzero entry is 1, proportional means identical)."""
    a = gen.array()
    zero = np.nonzero(~a.any(axis=0))[0]
    if zero.size:
        return [int(zero[0])]
    _, inverse = np.unique(_normalize(a, gen.r).T, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    dup = np.nonzero(inverse[order[1:]] == inverse[order[:-1]])[0]
    if dup.size:
        i = int(dup[0])
        return sorted((int(order[i]), int(order[i + 1])))
    return None


def _normalize(cols: np.ndarray, r: int) -> np.ndarray:
    """Scale each nonzero column so its first nonzero entry is 1; entries
    stay below r, and cols' dtype must hold (r - 1)^2."""
    inverses = np.array([0] + [pow(x, -1, r) for x in range(1, r)], dtype=cols.dtype)
    lead = cols[np.argmax(cols != 0, axis=0), np.arange(cols.shape[1])]
    return (cols * inverses[lead][None, :]) % r


# Upper limit on the uint64 words of the collision pass's key table
# (32 MiB): C(E, 2) (r - 1) pair keys grow with the field order r.
_COLLISION_WORDS = 1 << 22
_COLLISION_BLOCK = 1 << 15  # column pairs per vectorized block


def _collision_fits(gen: GfMatrix, max_nodes: int) -> bool:
    """The gate of ``_pair_collision``: the size-3 search's node count
    C(E, 2) within ``max_nodes``, and its key table within memory."""
    pairs = math.comb(gen.cols, 2)
    keys = gen.cols + pairs * (gen.r - 1)
    return pairs <= max_nodes and keys * _key_words(gen.rows, gen.r) <= _COLLISION_WORDS


def _key_words(rows: int, r: int) -> int:
    per_word = 64 // (r - 1).bit_length()
    return -(-rows // per_word)


def _pack(cols: np.ndarray, r: int) -> np.ndarray:
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


def _pair_collision(gen: GfMatrix) -> Optional[list[int]]:
    """A dependent set of 3 or 4 columns, or None when neither size
    occurs; requires that no set of 1 or 2 columns is dependent.

    Every column pair i < j and beta in GF(r)* gives the key of
    a_i + beta a_j scaled to first nonzero entry 1 (never zero, as a_i
    and a_j are not proportional). A minimal dependent 3-set is a pair
    key equal to a scaled single column; a minimal dependent 4-set is two
    equal pair keys. Once no 3-set exists, equal pair keys come from
    disjoint pairs, since a shared column would leave a dependence among
    at most 3 columns. Stern's low-weight search ("A method for finding
    codewords of small weight", 1989) matches partial sums the same way.
    """
    a = gen.array()
    r = gen.r
    ncols = a.shape[1]
    dtype = np.min_scalar_type(r * r)
    small = a.astype(dtype)
    first, second = np.triu_indices(ncols, 1)
    npairs = first.size
    keys = np.empty((ncols + npairs * (r - 1), _key_words(a.shape[0], r)), dtype=np.uint64)
    keys[:ncols] = _pack(_normalize(small, r), r)
    for beta in range(1, r):
        scaled = (small * beta) % r
        row = ncols + (beta - 1) * npairs
        for lo in range(0, npairs, _COLLISION_BLOCK):
            hi = min(lo + _COLLISION_BLOCK, npairs)
            sums = (small[:, first[lo:hi]] + scaled[:, second[lo:hi]]) % r
            keys[row + lo:row + hi] = _pack(_normalize(sums, r), r)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    equal = np.nonzero((ranked[1:] == ranked[:-1]).all(axis=1))[0]
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


def _find_dependent_subset(gen: GfMatrix, t: int, max_nodes: int) -> Optional[list[int]]:
    """Backtracking over increasing column indices.

    Each node carries the residuals of every not-yet-chosen column after
    elimination against the chosen prefix, so extending the prefix is one
    vectorized rank-1 update and a dependent completion shows up as an
    all-zero residual column. Returns the first dependent t-subset, or
    None; raises _SearchBudget after max_nodes internal nodes."""
    a = gen.array()
    r = gen.r
    ncols = a.shape[1]
    nodes = 0

    def rec(resid: np.ndarray, idx: np.ndarray, chosen: list[int]) -> Optional[list[int]]:
        nonlocal nodes
        if len(chosen) == t - 1:
            dead = np.nonzero(~resid.any(axis=0))[0]
            if dead.size:
                return chosen + [int(idx[dead[0]])]
            return None
        # need t - len(chosen) - 1 more columns after the one picked here
        last = resid.shape[1] - (t - len(chosen) - 1)
        for i in range(last):
            nodes += 1
            if nodes > max_nodes:
                raise _SearchBudget
            v = resid[:, i]
            nz = np.nonzero(v)[0]
            if nz.size == 0:  # dependent below t; smaller levels normally exclude this
                return chosen + [int(idx[i])]
            piv = int(nz[0])
            inv = pow(int(v[piv]), -1, r)
            rest = resid[:, i + 1:]
            child = (rest - np.outer((v * inv) % r, rest[piv])) % r
            hit = rec(child, idx[i + 1:], chosen + [int(idx[i])])
            if hit is not None:
                return hit
        return None

    return rec(a.copy(), np.arange(ncols), [])


class _SearchBudget(Exception):
    pass


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

    def __str__(self) -> str:
        d = "?" if self.min_distance is None else self.min_distance
        return f"[{self.length},{self.dimension},{d}]"


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
