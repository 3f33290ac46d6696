"""Matrix inversion over F_p, a test-side oracle built on the package's ``rref``.

The package itself never inverts a matrix: it reads coordinates off the
rref key.  The tests invert bases with this to check those coordinates
and the paper's matrix form of a relabeling.
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
