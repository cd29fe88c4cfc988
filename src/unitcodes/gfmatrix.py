"""Exact dense linear algebra over prime fields GF(r).

Entries live in numpy int64 arrays reduced mod r; elimination works on
an int16 copy and uses modular inverses (``pow(x, -1, r)``), so every
result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rings import is_prime

# largest field order: codes search in uint8 rows, elimination runs in
# int16, and the bound keeps primality testing and per-field tables small
MAX_FIELD = 127


@dataclass(frozen=True)
class PrimeField:
    r: int

    def __post_init__(self) -> None:
        if self.r > MAX_FIELD:
            raise ValueError(f"field order must be at most {MAX_FIELD}, got {self.r}")
        if not is_prime(self.r):
            raise ValueError(f"field order must be prime, got {self.r}")


class GfMatrix:
    """Dense matrix over GF(r). Externally immutable; operations copy."""

    def __init__(self, field: PrimeField | int, entries: Sequence[Sequence[int]] | np.ndarray):
        if isinstance(field, int):
            field = PrimeField(field)
        self.field = field
        # np.mod returns a fresh array, so the caller's entries are never aliased
        self._a = np.mod(np.asarray(entries, dtype=np.int64), field.r)
        if self._a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {self._a.shape}")
        self._a.setflags(write=False)

    @property
    def r(self) -> int:
        return self.field.r

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def array(self) -> np.ndarray:
        """Read-only view of the underlying residue array."""
        return self._a

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GfMatrix)
            and self.r == other.r
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __repr__(self) -> str:
        return f"GfMatrix(r={self.r}, shape={self.shape})"

    def select_columns(self, cols: Iterable[int]) -> "GfMatrix":
        idx = list(cols)
        if len(set(idx)) != len(idx):
            raise ValueError("column indices must be distinct")
        for c in idx:
            if not 0 <= c < self.cols:
                raise IndexError(f"column index {c} out of range for {self.cols} columns")
        return GfMatrix(self.field, self._a[:, idx])

    def rref(self) -> tuple["GfMatrix", list[int]]:
        """Reduced row echelon form and the pivot column list."""
        m, pivots = _eliminate(self._a, self.r)
        return GfMatrix(self.field, m), pivots

    def rank(self) -> int:
        _, pivots = _eliminate(self._a, self.r)
        return len(pivots)

    def columns_dependent(self, cols: Iterable[int]) -> bool:
        sub = self.select_columns(cols)
        return sub.rank() < sub.cols

    def nullspace(self) -> "GfMatrix":
        """Basis of {x : M x = 0}, one vector per row; (cols - rank) rows."""
        rr, pivots = _eliminate(self._a, self.r)
        free = np.setdiff1d(np.arange(self.cols), pivots)
        basis = np.zeros((len(free), self.cols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = -rr[:len(pivots), free].T  # GfMatrix reduces it mod r
        return GfMatrix(self.field, basis)

    def row_space_basis(self) -> "GfMatrix":
        """Nonzero rref rows: a canonical basis of the row space."""
        rr, pivots = self.rref()
        return GfMatrix(self.field, rr.array()[: len(pivots)])


def _eliminate(a: np.ndarray, r: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan over GF(r) on an int16 copy of ``a``; returns (rref
    array, pivot columns). Entries stay below r <= MAX_FIELD = 127, so a
    product of two and a difference with one stay within int16."""
    a = a.astype(np.int16, order="C")  # rows contiguous, whatever the layout of a
    rows, cols = a.shape
    pivots: list[int] = []
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(a[pr:, pc])[0]
        if nz.size == 0:
            continue
        sel = pr + int(nz[0])
        if sel != pr:
            a[[pr, sel]] = a[[sel, pr]]
        inv = pow(int(a[pr, pc]), -1, r)
        a[pr] = (a[pr] * inv) % r
        col = a[:, pc].copy()
        col[pr] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[pr])) % r
        pivots.append(pc)
        pr += 1
    return a, pivots
