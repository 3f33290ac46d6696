import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fp_oracle import SingularMatrixError, is_rref_by_scan, mat_inverse
from zpaction.fpalgebra import (
    DimensionMismatchError,
    FpMatrix,
    NotPrimeError,
    PrimeModulus,
    is_rref,
    kernel_basis,
    rref,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def identity_matrix(modulus, n):
    return FpMatrix(modulus, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def zero_matrix(modulus, rows, cols):
    return FpMatrix(modulus, tuple((0,) * cols for _ in range(rows)), cols)


def matrices(max_dim=5, primes=PRIMES):
    def build(draw):
        p = draw(st.sampled_from(primes))
        r = draw(st.integers(1, max_dim))
        c = draw(st.integers(1, max_dim))
        entries = draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
        return FpMatrix(PrimeModulus(p), tuple(tuple(row) for row in entries))

    return st.composite(build)()


def test_prime_modulus_rejects_composites():
    with pytest.raises(NotPrimeError, match="composite modulus unsupported"):
        PrimeModulus(4)
    with pytest.raises(NotPrimeError):
        PrimeModulus(1)
    with pytest.raises(NotPrimeError):
        PrimeModulus(1 << 17)
    assert PrimeModulus(113).p == 113


def test_inverse_table():
    for p in (2, 7, 65521):
        table = PrimeModulus(p).inverse_table
        assert len(table) == p and all(a * table[a] % p == 1 for a in range(1, p))


def test_rref_identity_mod5():
    m = PrimeModulus(5)
    eye = identity_matrix(m, 2)
    reduced, rank = rref(eye)
    assert reduced == eye and rank == 2


def test_rref_hand_example_mod3():
    m = PrimeModulus(3)
    reduced, rank = rref(FpMatrix(m, ((0, 2), (1, 1))))
    assert reduced.entries == ((1, 0), (0, 1)) and rank == 2


def test_rref_zero_matrix():
    m = PrimeModulus(7)
    reduced, rank = rref(zero_matrix(m, 3, 4))
    assert reduced == zero_matrix(m, 3, 4) and rank == 0


def test_kernel_of_quotient_matrix():
    # rows of [[1,0,r],[0,1,s]] annihilate exactly the scalings of (r, s, -1)
    m = PrimeModulus(5)
    r, s = 2, 3
    basis = kernel_basis(FpMatrix(m, ((1, 0, r), (0, 1, s))))
    assert basis.rows == 1
    (reduced, _) = rref(FpMatrix(m, ((r, s, -1),)))
    assert basis == reduced


def test_kernel_of_identity_is_empty():
    m = PrimeModulus(3)
    basis = kernel_basis(identity_matrix(m, 4))
    assert basis.rows == 0 and basis.cols == 4


def test_kernel_of_zero_matrix_is_identity():
    m = PrimeModulus(3)
    assert kernel_basis(zero_matrix(m, 2, 3)) == identity_matrix(m, 3)


def test_mat_inverse_diagonal():
    m = PrimeModulus(5)
    inv = mat_inverse(FpMatrix(m, ((2, 0), (0, 1))))
    assert inv.entries == ((3, 0), (0, 1))


def test_singular_matrix_raises():
    m = PrimeModulus(5)
    with pytest.raises(SingularMatrixError):
        mat_inverse(FpMatrix(m, ((1, 2), (2, 4))))


def test_dimension_mismatch():
    m = PrimeModulus(5)
    with pytest.raises(DimensionMismatchError):
        FpMatrix(m, ((1, 2), (1,)))
    with pytest.raises(DimensionMismatchError):
        mat_inverse(FpMatrix(m, ((1, 2, 3),)))


@given(matrices())
def test_rref_idempotent_and_rank(mat):
    reduced, rank = rref(mat)
    again, rank2 = rref(reduced)
    assert again == reduced
    assert rank == rank2
    assert is_rref(reduced)
    assert 0 <= rank <= min(mat.rows, mat.cols)


@st.composite
def near_rref_matrices(draw):
    """Random matrices, their rref, and either with zero rows inserted or one entry changed."""
    mat = draw(matrices())
    if draw(st.booleans()):
        mat = rref(mat)[0]
    rows = list(mat.entries)
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), (0,) * mat.cols)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, mat.cols - 1))
        rows[i] = rows[i][:j] + (draw(st.integers(0, mat.p - 1)),) + rows[i][j + 1 :]
    return FpMatrix(mat.modulus, tuple(rows), mat.cols)


@settings(max_examples=400)
@given(near_rref_matrices())
def test_is_rref_matches_the_entry_scan(mat):
    assert is_rref(mat) == is_rref_by_scan(mat)


def test_is_rref_edge_cases():
    m = PrimeModulus(5)
    for rows, expected in [
        ((), True),
        (((0, 0, 0),), True),
        (((1, 0, 2), (0, 0, 0)), True),
        (((0, 0, 0), (1, 0, 2)), False),  # a zero row above a pivot
        (((1, 0, 2), (0, 1, 3), (0, 0, 0), (0, 0, 0)), True),
        (((1, 0, 2), (1, 0, 2)), False),  # one row twice: the pivots do not increase
        (((2, 0, 1),), False),  # leading entry not 1
        (((1, 1, 0), (0, 1, 0)), False),  # pivot column not cleared above
        (((0, 1, 0), (1, 0, 0)), False),
    ]:
        mat = FpMatrix(m, rows, 3)
        assert is_rref(mat) is expected is is_rref_by_scan(mat), rows


@given(matrices())
def test_matrix_equality_hash_and_pickle(mat):
    # a slots class: equal entries compare and hash alike, pickling round-trips, fields stay frozen
    twin = FpMatrix(mat.modulus, [list(row) for row in mat.entries], mat.cols)
    assert twin == mat and hash(twin) == hash(mat) and twin.entries == mat.entries
    restored = pickle.loads(pickle.dumps(mat))
    assert restored == mat and hash(restored) == hash(mat) and restored.entries == mat.entries
    with pytest.raises(dataclasses.FrozenInstanceError):
        mat.cols = 0


@given(matrices())
def test_rank_nullity(mat):
    _, rank = rref(mat)
    basis = kernel_basis(mat)
    assert basis.rows == mat.cols - rank
    # every basis row is annihilated by mat
    p = mat.p
    for row in basis.entries:
        assert all(sum(a * b for a, b in zip(mrow, row)) % p == 0 for mrow in mat.entries)


@given(matrices())
def test_rref_preserves_row_space(mat):
    reduced, rank = rref(mat)
    # equal ranks, and stacking adds no rank: each row space contains the other
    assert rref(reduced)[1] == rank
    assert rref(FpMatrix(mat.modulus, mat.entries + reduced.entries, mat.cols))[1] == rank


@settings(max_examples=50)
@given(st.integers(0, 7**16 - 1), st.integers(0, 7**16 - 1))
def test_inverse_of_product(acode, bcode):
    # random invertible 4x4 pairs mod 7: (AB)^-1 == B^-1 A^-1
    m = PrimeModulus(7)

    def decode(code):
        entries = []
        for _ in range(4):
            row = []
            for _ in range(4):
                code, d = divmod(code, 7)
                row.append(d)
            entries.append(tuple(row))
        return FpMatrix(m, tuple(entries))

    a, b = decode(acode), decode(bcode)
    for mat in (a, b):
        if rref(mat)[1] < 4:
            return  # only exercises invertible samples
    def mul(x, y):
        cols = list(zip(*y.entries))
        return FpMatrix(m, tuple(tuple(sum(u * v for u, v in zip(row, col)) % 7 for col in cols)
                                 for row in x.entries))

    lhs = mat_inverse(mul(a, b))
    rhs = mul(mat_inverse(b), mat_inverse(a))
    assert lhs == rhs
