"""Exact arithmetic and unit-structure queries for the ring Z_n (+) Z_m.

Elements are plain ``(a, b)`` tuples with ``0 <= a < n`` and ``0 <= b < m``.
An element is a unit exactly when both coordinates are coprime to their
moduli; everything else (classification, totients, unit counts) follows
from the prime factorizations of ``n`` and ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

Element = tuple[int, int]


class ParityCase(Enum):
    BOTH_ODD = "BothOdd"
    EXACTLY_ONE_EVEN = "ExactlyOneEven"
    BOTH_EVEN = "BothEven"


class CaseTag(Enum):
    """Which closed-form results (if any) apply to a pair of moduli.

    PP_*   : each modulus is a single prime power.
    PPPP_* : each modulus is a product of exactly two distinct prime powers
             (the even one must be 2^a * q^b with q odd).
    General*/BothEven : only the conjectures (or nothing) apply.
    """

    PP_ODD_ODD = "PP_OddOdd"
    PP_ODD_TWO = "PP_OddTwo"
    PPPP_ODD_ODD = "PPPP_OddOdd"
    PPPP_ONE_EVEN = "PPPP_OneEven"
    GENERAL_ODD_ODD = "GeneralOddOdd"
    GENERAL_ONE_EVEN = "GeneralOneEven"
    BOTH_EVEN = "BothEven"


# the cases the paper proves its closed forms for; the General* cases have
# only the conjectures
THEOREM_TAGS = frozenset({
    CaseTag.PP_ODD_ODD, CaseTag.PP_ODD_TWO, CaseTag.PPPP_ODD_ODD, CaseTag.PPPP_ONE_EVEN,
})


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_n (+) Z_m with componentwise modular arithmetic."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 2 or self.m < 2:
            raise ValueError(f"moduli must be >= 2, got ({self.n}, {self.m})")

    @property
    def size(self) -> int:
        return self.n * self.m

    def parity_case(self) -> ParityCase:
        odd_n, odd_m = self.n % 2 == 1, self.m % 2 == 1
        if odd_n and odd_m:
            return ParityCase.BOTH_ODD
        if odd_n or odd_m:
            return ParityCase.EXACTLY_ONE_EVEN
        return ParityCase.BOTH_EVEN

    def element(self, idx: int) -> Element:
        """The element at canonical index idx: (a, b) at a*m + b."""
        return divmod(idx, self.m)


def factorize(k: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    if k < 1:
        raise ValueError(f"factorize expects k >= 1, got {k}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if k > 1:
        out.append((k, 1))
    return out


@lru_cache(maxsize=None)
def euler_phi(k: int) -> int:
    if k < 1:
        raise ValueError(f"euler_phi expects k >= 1, got {k}")
    phi = k
    for p, _ in factorize(k):
        phi -= phi // p
    return phi


def is_prime(k: int) -> bool:
    return k >= 2 and factorize(k) == [(k, 1)]


@dataclass(frozen=True)
class StructureProfile:
    spec: RingSpec
    n_factorization: tuple[tuple[int, int], ...]
    m_factorization: tuple[tuple[int, int], ...]
    case_tag: CaseTag


def _is_two_power_times_odd_prime_power(fact: tuple[tuple[int, int], ...]) -> bool:
    """True for 2^a * q^b with q odd, a, b >= 1."""
    return len(fact) == 2 and fact[0][0] == 2


def classify(spec: RingSpec) -> StructureProfile:
    """Assign the closed-form case tag from the factorizations of n and m."""
    nf = tuple(factorize(spec.n))
    mf = tuple(factorize(spec.m))
    parity = spec.parity_case()

    if parity == ParityCase.BOTH_EVEN:
        tag = CaseTag.BOTH_EVEN
    elif parity == ParityCase.BOTH_ODD:
        if len(nf) == 1 and len(mf) == 1:
            tag = CaseTag.PP_ODD_ODD
        elif len(nf) == 2 and len(mf) == 2:
            tag = CaseTag.PPPP_ODD_ODD
        else:
            tag = CaseTag.GENERAL_ODD_ODD
    else:
        odd_f, even_f = (nf, mf) if spec.m % 2 == 0 else (mf, nf)
        if len(odd_f) == 1 and len(even_f) == 1:
            # odd prime power paired with a pure power of 2
            tag = CaseTag.PP_ODD_TWO
        elif len(odd_f) == 2 and _is_two_power_times_odd_prime_power(even_f):
            tag = CaseTag.PPPP_ONE_EVEN
        else:
            tag = CaseTag.GENERAL_ONE_EVEN

    return StructureProfile(spec=spec, n_factorization=nf, m_factorization=mf, case_tag=tag)
