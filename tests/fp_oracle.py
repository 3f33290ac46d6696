"""Matrix inversion over F_p, a test-side oracle built on the package's ``rref``.

The package itself never inverts a matrix: it reads coordinates off the
rref key.  The tests invert bases with this to check those coordinates
and the paper's matrix form of a relabeling.  ``is_rref_by_scan`` is the
entry-by-entry form of the package's ``is_rref``, kept to check it.
"""

from zpaction.fpalgebra import DimensionMismatchError, FpMatrix, rref


class SingularMatrixError(ValueError):
    """Square matrix with no inverse mod p."""


def mat_inverse(a: FpMatrix) -> FpMatrix:
    """The inverse of a square matrix over F_p, read off the rref of [a | I]."""
    n = a.rows
    if n != a.cols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    reduced, _ = rref(FpMatrix(a.modulus, tuple(row + unit for row, unit in zip(a.entries, eye))))
    if tuple(row[:n] for row in reduced.entries) != eye:
        raise SingularMatrixError("matrix is singular mod p")
    return FpMatrix(a.modulus, tuple(row[n:] for row in reduced.entries), n)


def is_rref_by_scan(matrix: FpMatrix) -> bool:
    """``is_rref`` as a scan of each row for its pivot and of each pivot column, entry by entry."""
    last_pivot = -1
    seen_zero_row = False
    for row in matrix.entries:
        pivot = next((j for j, e in enumerate(row) if e), None)
        if pivot is None:
            seen_zero_row = True
            continue
        if seen_zero_row or pivot <= last_pivot or row[pivot] != 1:
            return False
        if any(other[pivot] for other in matrix.entries if other is not row):
            return False
        last_pivot = pivot
    return True
