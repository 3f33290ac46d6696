"""Exact linear algebra over the prime field F_p.

Residues are plain ints in ``range(p)``, matrices are immutable tuples of
row tuples, and the reduced row-echelon form (leading 1, pivot columns
strictly increasing, pivot columns cleared above and below) is unique, so
it doubles as a canonical dictionary key for row spaces.  All values are
immutable and every operation is pure; sharing across workers needs no
coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

# p stays in 16-bit range so residues and products are cache-dense small ints.
MAX_MODULUS = 1 << 16


class NotPrimeError(ValueError):
    """Modulus is not a prime in the supported range."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


@dataclass(frozen=True, order=True)
class PrimeModulus:
    """A prime p checked by trial division, with a precomputed inverse table."""

    p: int

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, int) or isinstance(p, bool) or p < 2:
            raise NotPrimeError(f"modulus must be a prime >= 2, got {p!r}")
        if p >= MAX_MODULUS:
            raise NotPrimeError(f"modulus {p} exceeds the supported 16-bit range")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise NotPrimeError(f"composite modulus unsupported: {p}")
            d += 1

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        # inv[a] = a^{-1} mod p for a in 1..p-1; slot 0 is unused.
        p = self.p
        inv = [0] * p
        inv[1 % p] = 1 % p
        for a in range(2, p):
            inv[a] = (p - (p // a) * inv[p % a]) % p
        return tuple(inv)


@dataclass(frozen=True, slots=True)
class FpMatrix:
    """An immutable matrix over F_p.

    ``cols`` may be given explicitly to allow matrices with zero rows
    (empty kernel bases still carry their ambient dimension).
    """

    modulus: PrimeModulus
    entries: tuple[tuple[int, ...], ...]
    cols: int = -1

    def __post_init__(self) -> None:
        p = self.modulus.p
        rows = tuple([tuple([int(e) % p for e in row]) for row in self.entries])
        object.__setattr__(self, "entries", rows)
        cols = self.cols
        if rows:
            if cols < 0:
                cols = len(rows[0])
            if any(len(row) != cols for row in rows):
                raise DimensionMismatchError("rows of unequal length")
        elif cols < 0:
            raise DimensionMismatchError("column count required for a 0-row matrix")
        object.__setattr__(self, "cols", cols)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def rows(self) -> int:
        return len(self.entries)

    def flat(self) -> tuple[int, ...]:
        return tuple(e for row in self.entries for e in row)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(e) for e in row) for row in self.entries) + "]"


def _rref_in_place(rows: list[list[int]], cols: int, p: int, inv: tuple[int, ...]) -> int:
    """Gauss-Jordan reduce ``rows`` in place; returns the rank."""
    r = 0
    nrows = len(rows)
    for c in range(cols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        a = rows[r][c]
        if a != 1:
            ai = inv[a]
            rows[r] = [(ai * x) % p for x in rows[r]]
        rr = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                ri = rows[i]
                rows[i] = [(ri[k] - f * rr[k]) % p for k in range(cols)]
        r += 1
        if r == nrows:
            break
    return r


def rref(matrix: FpMatrix) -> tuple[FpMatrix, int]:
    """Reduced row-echelon form of ``matrix`` and its rank.

    The result is the unique rref with the same row space; zero rows are
    kept so the shape is preserved.
    """
    rows = [list(row) for row in matrix.entries]
    rank = _rref_in_place(rows, matrix.cols, matrix.p, matrix.modulus.inverse_table)
    reduced = FpMatrix(matrix.modulus, tuple(tuple(row) for row in rows), matrix.cols)
    return reduced, rank


def is_rref(matrix: FpMatrix) -> bool:
    """Structural check: leading 1s, strictly increasing pivots, pivot columns clear."""
    entries = matrix.entries
    last_pivot, seen_zero_row, others = -1, False, len(entries) - 1
    for row in entries:
        lead = next(filter(None, row), 0)  # the first nonzero entry
        if not lead:
            seen_zero_row = True
            continue
        pivot = row.index(lead)
        if seen_zero_row or pivot <= last_pivot or lead != 1:
            return False
        if [other[pivot] for other in entries].count(0) != others:  # only this row's 1 is nonzero
            return False
        last_pivot = pivot
    return True


def pivot_columns(matrix: FpMatrix) -> tuple[int, ...]:
    """Pivot column of each nonzero row; assumes rref input."""
    pivots = []
    for row in matrix.entries:
        pivot = next((j for j, e in enumerate(row) if e), None)
        if pivot is None:
            break
        pivots.append(pivot)
    return tuple(pivots)


def kernel_basis(matrix: FpMatrix) -> FpMatrix:
    """A canonical (rref) basis of the right null space {v : M v = 0}.

    Row count equals cols - rank; an injective matrix yields a 0-row basis.
    """
    reduced, rank = rref(matrix)
    n = matrix.cols
    pivots = pivot_columns(reduced)
    free = [j for j in range(n) if j not in pivots]
    p = matrix.p
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced.entries[i][f]) % p
        basis.append(v)
    rows = [list(row) for row in basis]
    _rref_in_place(rows, n, p, matrix.modulus.inverse_table)
    return FpMatrix(matrix.modulus, tuple(tuple(row) for row in rows), n)

