"""Enumeration of admissible subgroups K <= H = Z_p^n with H/K = Z_p^m.

A subgroup K is admissible when no distinguished generator a_1, ...,
a_{n+1} of H lies in K; these subgroups parametrize the Z_p^m actions of
signature (0; p^{n+1}).  Each K is the kernel of a surjection
theta : Z_p^n -> Z_p^m, and theta is determined by K up to left GL_m
action, which the reduced row-echelon form quotients out.  The rref of
theta is therefore a canonical key: equality of keys is equality of
subgroups.

Admissibility in matrix terms: all n columns of theta are nonzero and so
is the implied image of a_{n+1}, i.e. minus the column sum.

Two independent enumeration routes are kept deliberately separate:
``theta_table`` walks rank-m rref matrices directly by pivot-column
pattern (vectorized, no deduplication needed), while
``brute_force_oracle`` canonicalizes every m x n matrix over F_p and
deduplicates.  They must agree wherever both are feasible.

At run time a key set is a ``KeySet``, one sorted (N, m, n) digit array;
``SubgroupKey`` objects are built only on request.  Only this module
knows the row format: digit dtype, sort order and row codes.

A presentation is the canonical form of one key: the coordinates of its
n+1 generator images in a basis drawn from them.  At m = 2 that is
``PlanePresentation`` (basis theta(a_1), theta(a_{t+1})), at any m
``GeneralPresentation`` (a relabeling plus the coordinate table).
``classify_type`` reads one off a key; ``key_from_presentation`` rebuilds
the key from the images, and the n = 3 names K(r,s) and K(l) resolve the
same way.  Generator words (``key_from_generators``) serve the named d3
and k4 families.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fpalgebra import (
    FpMatrix,
    PrimeModulus,
    SingularMatrixError,
    is_rref,
    kernel_basis,
    mat_inverse,
    pivot_columns,
    rref,
)
from .hgroup import Permutation

DEFAULT_CANDIDATE_CAP = 10**9
ORACLE_CANDIDATE_CAP = 10**7
_CHUNK = 1 << 20


class ScaleCapError(RuntimeError):
    """Estimated work exceeds the configured cap."""

    def __init__(self, message: str, estimate: int):
        super().__init__(f"{message} (estimated candidates: {estimate})")
        self.estimate = estimate


class AdmissibilityError(ValueError):
    """A subgroup fails the defining constraints of the parameter space."""


class VerificationError(ArithmeticError):
    """An internal cross-check failed: two routes disagree, or a result fails its own check."""


@dataclass(frozen=True, order=True)
class ActionParams:
    """Parameters (p, n, m) of a Z_p^m action of signature (0; p^{n+1})."""

    modulus: PrimeModulus
    n: int
    m: int

    def __init__(self, p: int | PrimeModulus, n: int, m: int):
        modulus = p if isinstance(p, PrimeModulus) else PrimeModulus(p)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"m must satisfy 1 <= m <= n, got m={self.m}, n={self.n}")
        if (self.n - 1) * (modulus.p - 1) <= 2:
            raise ValueError(
                f"non-hyperbolic parameters: (n-1)(p-1) = {(self.n - 1) * (modulus.p - 1)} <= 2"
            )

    @property
    def p(self) -> int:
        return self.modulus.p


@dataclass(frozen=True)
class SubgroupKey:
    """Canonical representative of an admissible subgroup K <= Z_p^n.

    ``theta`` is the m x n quotient matrix in rref; its kernel is K.
    Instances are validated on construction, totally ordered by their
    row-major digits, and safe to use as dictionary keys.
    """

    params: ActionParams
    theta: FpMatrix

    def __post_init__(self) -> None:
        params, theta = self.params, self.theta
        if theta.modulus != params.modulus:
            raise AdmissibilityError("theta modulus differs from params")
        if theta.rows != params.m or theta.cols != params.n:
            raise AdmissibilityError(
                f"theta must be {params.m}x{params.n}, got {theta.rows}x{theta.cols}"
            )
        if not is_rref(theta):
            raise AdmissibilityError("theta is not in reduced row-echelon form")
        if len(pivot_columns(theta)) != params.m:
            raise AdmissibilityError(f"theta has rank < m = {params.m}")
        p = params.p
        for j in range(params.n):
            if all(row[j] == 0 for row in theta.entries):
                raise AdmissibilityError(f"generator a_{j + 1} lies in the subgroup")
        if all(sum(row) % p == 0 for row in theta.entries):
            raise AdmissibilityError(f"generator a_{params.n + 1} lies in the subgroup")

    @cached_property
    def digits(self) -> tuple[int, ...]:
        return self.theta.flat()

    def digit_string(self) -> str:
        return ";".join(",".join(str(e) for e in row) for row in self.theta.entries)

    def __lt__(self, other: "SubgroupKey") -> bool:
        return self.digits < other.digits

    def __le__(self, other: "SubgroupKey") -> bool:
        return self.digits <= other.digits

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """Images of a_1, ..., a_{n+1} in Z_p^m (columns plus minus-the-sum)."""
        p = self.params.p
        cols = [self.theta.column(j) for j in range(self.params.n)]
        last = tuple((-sum(c[i] for c in cols)) % p for i in range(self.params.m))
        return tuple(cols) + (last,)

    def kernel(self) -> FpMatrix:
        """A canonical basis of K itself, as rows of an (n-m) x n matrix."""
        return kernel_basis(self.theta)

    def __str__(self) -> str:
        return f"SubgroupKey(p={self.params.p}, n={self.params.n}, m={self.params.m}, {self.digit_string()})"


def key_from_digit_string(params: ActionParams, text: str) -> SubgroupKey:
    """The key whose ``digit_string`` is ``text``; digits outside 0..p-1 are a ValueError."""
    rows = tuple(tuple(int(tok) for tok in row.split(",")) for row in text.split(";"))
    if any(not 0 <= digit < params.p for row in rows for digit in row):
        raise ValueError(f"digit string {text!r} has a digit outside 0..{params.p - 1}")
    return SubgroupKey(params, FpMatrix(params.modulus, rows, params.n))


def key_from_theta(params: ActionParams, rows) -> SubgroupKey:
    """Canonicalize an arbitrary rank-m quotient matrix into a key."""
    reduced, rank = rref(FpMatrix(params.modulus, tuple(tuple(r) for r in rows), params.n))
    if rank != params.m:
        raise AdmissibilityError(f"quotient matrix has rank {rank}, expected {params.m}")
    return SubgroupKey(params, reduced)


def key_from_generators(params: ActionParams, words) -> SubgroupKey:
    """Key of the subgroup generated by exponent words over a_1..a_{n+1}.

    Each word is a length-(n+1) exponent sequence w; since a_{n+1} is
    -(e_1 + ... + e_n), its vector is (w_j - w_{n+1}) for j = 1..n.  The
    words must span a subgroup of rank exactly n - m.
    """
    n, m, p = params.n, params.m, params.p
    vectors = []
    for word in words:
        exps = tuple(word)
        if len(exps) != n + 1:
            raise ValueError(f"generator word must have {n + 1} exponents, got {len(exps)}")
        vectors.append(tuple((e - exps[n]) % p for e in exps[:n]))
    span = FpMatrix(params.modulus, tuple(vectors), n)
    _, rank = rref(span)
    if rank != n - m:
        raise AdmissibilityError(
            f"generators span a subgroup of rank {rank}, expected n - m = {n - m}"
        )
    return SubgroupKey(params, kernel_basis(span))


_PAREN_RE = re.compile(r"^K\((\d+)(?:,(\d+))?\)$")
_INDEXED_RE = re.compile(r"^K([34])\((\d+)\)$")
_PLAIN_RE = re.compile(r"^K([1256])$")
_BAR_RE = re.compile(r"^Kbar([1-4])$")


def _word(n: int, entries) -> tuple[int, ...]:
    w = [0] * (n + 1)
    for idx, e in entries:
        w[idx - 1] = e
    return tuple(w)


def key_from_named(params: ActionParams, name: str, family: str | None = None) -> SubgroupKey:
    """Resolve a named subgroup such as ``K(0,4)``, ``K(2)``, ``K3(1)`` or ``Kbar2``.

    Families:
      * ``n3`` (default when n == 3): K(r,s) = <a1^r a2^s a3^-1> and
        K(l) = <a1^l a2^-1>, the plane presentations with t = 1 and t = 2.
      * ``d3`` (n == 5, threefold symmetry): K(r,s) = <a1 a2 a3,
        a1^r a2^s a4^-1, a1^-s a2^(r-s) a5^-1> and K(l) = <a1 a2 a3,
        a1^l a2^-1, a4^l a6^-1>.
      * ``k4`` (n == 5, Klein-four symmetry): K(r,s) = <a1^r a2^s a3^-1,
        a3 a5^-1, a4 a6^-1>, the fixed groups K1, K2, K5, K6, the
        one-parameter groups K3(r), K4(r), and Kbar1..Kbar4 at p = 2.
    """
    if family is None:
        if params.n == 3:
            family = "n3"
        else:
            raise ValueError(f"family required to resolve {name!r} at n={params.n}")
    text = re.sub(r"\s+", "", name)
    n, p = params.n, params.p
    word = lambda entries: _word(n, entries)

    if family == "n3":
        match = _PAREN_RE.match(text)
        if n != 3 or not match:
            raise ValueError(f"{name!r} is not an n=3 family name")
        first, second = match.groups()
        try:
            if second is None:
                pres = PlanePresentation(params, 2, (int(first),), (), ())
            else:
                pres = PlanePresentation(params, 1, (), (int(first),), (int(second),))
        except AdmissibilityError as exc:
            raise AdmissibilityError(f"{text} is not admissible at p={p}: {exc}") from None
        return key_from_presentation(pres)

    if family == "d3":
        match = _PAREN_RE.match(text)
        if n != 5 or not match:
            raise ValueError(f"{name!r} is not a d3 family name")
        first, second = match.groups()
        base = word([(1, 1), (2, 1), (3, 1)])
        if second is not None:
            r, s = int(first), int(second)
            return key_from_generators(
                params,
                [base, word([(1, r), (2, s), (4, -1)]), word([(1, -s), (2, r - s), (5, -1)])],
            )
        l = int(first)
        return key_from_generators(
            params, [base, word([(1, l), (2, -1)]), word([(4, l), (6, -1)])]
        )

    if family == "k4":
        if n != 5:
            raise ValueError(f"{name!r} is not a k4 family name")
        if match := _BAR_RE.match(text):
            if p != 2:
                raise ValueError(f"{name!r} only exists at p=2")
            words = {
                1: [word([(1, 1), (2, 1)]), word([(3, 1), (4, 1)]), word([(3, 1), (5, 1)])],
                2: [word([(1, 1), (2, 1)]), word([(3, 1), (4, 1)]), word([(1, 1), (3, 1), (5, 1)])],
                3: [word([(1, 1), (2, 1)]), word([(3, 1), (5, 1)]), word([(1, 1), (3, 1), (4, 1)])],
                4: [word([(1, 1), (2, 1)]), word([(4, 1), (5, 1)]), word([(1, 1), (3, 1), (4, 1)])],
            }[int(match.group(1))]
            return key_from_generators(params, words)
        if match := _PLAIN_RE.match(text):
            words = {
                1: [word([(1, 1), (2, -1)]), word([(3, 1), (4, -1)]), word([(5, 1), (6, -1)])],
                2: [word([(1, 1), (2, -1)]), word([(3, 1), (6, -1)]), word([(4, 1), (5, -1)])],
                5: [word([(1, 1), (2, -1)]), word([(3, 1), (5, -1)]), word([(4, 1), (6, -1)])],
                6: [word([(1, 1), (2, 1)]), word([(3, 1), (5, -1)]), word([(4, 1), (6, -1)])],
            }[int(match.group(1))]
            return key_from_generators(params, words)
        if match := _INDEXED_RE.match(text):
            idx, r = int(match.group(1)), int(match.group(2))
            if idx == 3:
                words = [word([(1, r), (3, -1), (4, 1)]), word([(1, 1), (2, 1)]), word([(3, 1), (6, 1)])]
            else:
                words = [word([(1, r), (3, -1), (6, 1)]), word([(1, 1), (2, 1)]), word([(3, 1), (4, 1)])]
            return key_from_generators(params, words)
        if match := _PAREN_RE.match(text):
            first, second = match.groups()
            if second is None:
                raise ValueError(f"{name!r} is not a k4 family name")
            r, s = int(first), int(second)
            if (2 * (r + s) + 1) % p != 0:
                raise AdmissibilityError(f"K({r},{s}) is not in the k4 family at p={p}")
            return key_from_generators(
                params,
                [word([(1, r), (2, s), (3, -1)]), word([(3, 1), (5, -1)]), word([(4, 1), (6, -1)])],
            )
        raise ValueError(f"unrecognized subgroup name: {name!r}")

    raise ValueError(f"unknown family {family!r}")


def name_of_key(key: SubgroupKey) -> str | None:
    """The n=3 family name of a key (K(r,s) or K(l)), when it has one."""
    if key.params.n != 3 or key.params.m != 2:
        return None
    pres = classify_type(key)
    return f"K({pres.r[0]},{pres.s[0]})" if pres.t == 1 else f"K({pres.l[0]})"


# ---------------------------------------------------------------------------
# enumeration


def candidate_estimate(params: ActionParams) -> int:
    return math.comb(params.n, params.m) * params.p ** (params.m * (params.n - params.m))


def _dtype_for(p: int):
    return np.uint8 if p < 256 else np.uint16


def _row_codes(table: np.ndarray) -> np.ndarray:
    """One opaque scalar per key that sorts like the key's digits.

    Big-endian 16-bit digits compared bytewise order the same as the
    digit tuples, for every p < 2^16 and any m, n.
    """
    flat = np.ascontiguousarray(table.reshape(len(table), math.prod(table.shape[1:])), dtype=">u2")
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()


@lru_cache(maxsize=6)
def _theta_table_cached(params: ActionParams) -> np.ndarray:
    """All admissible rref quotient matrices as an (N, m, n) array, sorted.

    Walks pivot-column combinations in lexicographic order and free
    entries in odometer order; each emitted matrix is already canonical,
    so no deduplication is needed.  The walk is not in digit order from
    n = 4 on, so a final sort gives the order ``KeySet`` relies on.
    """
    p, n, m = params.p, params.n, params.m
    dtype = _dtype_for(p)
    blocks = []
    for pivots in itertools.combinations(range(n), m):
        free = [
            (i, j)
            for i in range(m)
            for j in range(n)
            if j not in pivots and j > pivots[i]
        ]
        total = p ** len(free)
        for start in range(0, total, _CHUNK):
            count = min(_CHUNK, total - start)
            codes = np.arange(start, start + count, dtype=np.int64)
            mats = np.zeros((count, m, n), dtype=dtype)
            for i in range(m):
                mats[:, i, pivots[i]] = 1
            for i, j in reversed(free):
                codes, digit = np.divmod(codes, p)
                mats[:, i, j] = digit.astype(dtype)
            columns_ok = (mats != 0).any(axis=1).all(axis=1)
            implied = (-mats.sum(axis=2, dtype=np.int64)) % p
            implied_ok = (implied != 0).any(axis=1)
            keep = mats[columns_ok & implied_ok]
            if len(keep):
                blocks.append(keep)
    if blocks:
        table = np.concatenate(blocks)
    else:
        table = np.zeros((0, m, n), dtype=dtype)
    flat = table.reshape(len(table), m * n)
    order = np.lexsort(flat[:, ::-1].T)
    table = np.ascontiguousarray(table[order])
    table.setflags(write=False)
    return table


def check_candidate_cap(params: ActionParams, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> None:
    """Raise ScaleCapError when enumerating (p, n, m) would exceed ``max_candidates``."""
    estimate = candidate_estimate(params)
    if estimate > max_candidates:
        raise ScaleCapError(
            f"enumeration at (p={params.p}, n={params.n}, m={params.m}) exceeds the cap",
            estimate,
        )


def theta_table(params: ActionParams, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> np.ndarray:
    """Array-level enumeration of the parameter space (internal fast path)."""
    check_candidate_cap(params, max_candidates)
    return _theta_table_cached(params)


@dataclass(frozen=True, eq=False)
class KeySet:
    """Keys at one (p, n, m): distinct rref rows of an (N, m, n) array, sorted by digits."""

    params: ActionParams
    rows: np.ndarray

    @classmethod
    def of(cls, params: ActionParams, keys) -> "KeySet":
        """The distinct ``keys``, which must all have ``params``."""
        keys = list(keys)
        if any(key.params != params for key in keys):
            raise ValueError("keys must share the key set's parameters")
        rows = np.array([key.digits for key in keys], dtype=_dtype_for(params.p))
        rows = rows.reshape(-1, params.m, params.n)
        _, first = np.unique(_row_codes(rows), return_index=True)
        return cls(params, rows[first])

    @classmethod
    def full(cls, params: ActionParams, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> "KeySet":
        """Every admissible key at ``params``: the cached ``theta_table``."""
        return cls(params, theta_table(params, max_candidates))

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        same = isinstance(other, KeySet) and self.params == other.params
        return same and np.array_equal(self.rows, other.rows)

    @cached_property
    def _codes(self) -> np.ndarray:
        return _row_codes(self.rows)

    def rows_of(self, matrices: np.ndarray) -> np.ndarray:
        """Row of each rref (m, n) matrix, by binary search; KeyError if one is absent."""
        codes, targets = self._codes, _row_codes(matrices)
        rows = np.searchsorted(codes, targets)
        if not (rows < len(codes)).all() or not (codes[rows] == targets).all():
            raise KeyError("a matrix is not a row of the key set")
        return rows

    def keys(self) -> list[SubgroupKey]:
        """The keys themselves, validated, in row order."""
        params, rows = self.params, self.rows.tolist()  # m >= 1 rows, so FpMatrix infers n
        return [SubgroupKey(params, FpMatrix(params.modulus, tuple(map(tuple, r)))) for r in rows]

    def digit_strings(self) -> list[str]:
        """``SubgroupKey.digit_string`` of every row, without building keys."""
        m, n = self.params.m, self.params.n
        spec = ";".join([",".join(["%d"] * n)] * m)
        return [spec % tuple(row) for row in self.rows.reshape(len(self), m * n).tolist()]


def enumerate_actions(
    params: ActionParams, max_candidates: int = DEFAULT_CANDIDATE_CAP
) -> list[SubgroupKey]:
    """All admissible subgroups at (p, n, m), sorted by canonical key."""
    return KeySet.full(params, max_candidates).keys()


def brute_force_oracle(
    params: ActionParams, max_candidates: int = ORACLE_CANDIDATE_CAP
) -> list[SubgroupKey]:
    """Independent verification path: canonicalize every m x n matrix.

    Iterates all p^(mn) matrices, keeps those of rank m whose n+1
    generator images are all nonzero, canonicalizes by rref and
    deduplicates.  Must equal ``enumerate_actions`` as a sorted list.
    """
    p, n, m = params.p, params.n, params.m
    estimate = p ** (m * n)
    if estimate > max_candidates:
        raise ScaleCapError("brute-force oracle exceeds the cap", estimate)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    keys = []
    for flat in itertools.product(range(p), repeat=m * n):
        rows = tuple(flat[i * n : (i + 1) * n] for i in range(m))
        if any(all(row[j] == 0 for row in rows) for j in range(n)):
            continue
        if all(sum(row) % p == 0 for row in rows):
            continue
        reduced, rank = rref(FpMatrix(params.modulus, rows, n))
        if rank != m:
            continue
        if reduced.entries in seen:
            continue
        seen.add(reduced.entries)
        keys.append(SubgroupKey(params, reduced))
    keys.sort()
    return keys


# ---------------------------------------------------------------------------
# canonical presentations


@dataclass(frozen=True)
class PlanePresentation:
    """The m = 2 form: coordinates in the basis (theta(a_1), theta(a_{t+1})).

    K = <a1^{l_j} a_j^{-1} : j = 2..t> + <a1^{r_j} a_{t+1}^{s_j} a_j^{-1} :
    j = t+2..n>, so theta(a_j) = l_j theta(a_1) for j = 2..t and r_j theta(a_1)
    + s_j theta(a_{t+1}) for j = t+2..n.  l is indexed by j = 2..t (empty
    when t = 1) and r, s by j = t+2..n; the image of a_{n+1} is forced by
    the column congruences.
    """

    params: ActionParams
    t: int
    l: tuple[int, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        p, n = self.params.p, self.params.n
        if not 1 <= self.t <= n - 1:
            raise ValueError(f"t must lie in 1..n-1, got {self.t}")
        if len(self.l) != self.t - 1:
            raise ValueError("l must have t - 1 entries")
        if len(self.r) != n - self.t - 1 or len(self.s) != n - self.t - 1:
            raise ValueError("r, s must have n - t - 1 entries")
        for j, image in enumerate(self.images, start=1):
            if all(e % p == 0 for e in image):
                raise AdmissibilityError(f"generator a_{j} lies in the subgroup")

    @property
    def forced_r(self) -> int:
        return (-(1 + sum(self.l) + sum(self.r))) % self.params.p

    @property
    def forced_s(self) -> int:
        return (-(1 + sum(self.s))) % self.params.p

    @property
    def images(self) -> tuple[tuple[int, int], ...]:
        """Coordinates of theta(a_1), ..., theta(a_{n+1}) in the basis."""
        ls = ((lj, 0) for lj in self.l)
        return ((1, 0), *ls, (0, 1), *zip(self.r, self.s), (self.forced_r, self.forced_s))


@dataclass(frozen=True)
class GeneralPresentation:
    """Any-m form: a relabeling sigma plus the coordinate table.

    ``table`` holds the coordinates of the images of a_{m+1}, ...,
    a_{n+1} of the relabeled subgroup, in the basis given by the images of
    a_1, ..., a_m.  Row constraints: no row vanishes, and each column sums
    with 1 to zero mod p (the product of all generators is trivial).
    The choice of sigma (lexicographically least that makes the first m
    images a generating set) is this package's convention.
    """

    params: ActionParams
    sigma: Permutation
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        p, n, m = self.params.p, self.params.n, self.params.m
        if self.sigma.degree != n + 1:
            raise ValueError("sigma degree must be n + 1")
        if len(self.table) != n + 1 - m or any(len(row) != m for row in self.table):
            raise ValueError("table must be (n+1-m) rows of m coordinates")
        if any(all(e % p == 0 for e in row) for row in self.table):
            raise AdmissibilityError("some relabeled generator image vanishes")
        for i in range(m):
            if (1 + sum(row[i] for row in self.table)) % p != 0:
                raise AdmissibilityError(f"column {i + 1} violates the trivial-product congruence")

    @property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """theta(a_i) = theta'(a_{sigma(i)}) for i = 1..n+1, in the basis theta'(a_1..a_m)."""
        m = self.params.m
        relabeled = [tuple(int(i == k) for k in range(m)) for i in range(m)] + list(self.table)
        return tuple(relabeled[self.sigma(i) - 1] for i in range(1, self.params.n + 2))


Presentation = PlanePresentation | GeneralPresentation


def plane_coordinates(key: SubgroupKey) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The m = 2 basis rule: t, and (r_j, s_j) for every image theta(a_j), j = 1..n+1.

    t + 1 is the first index whose image is not proportional to theta(a_1),
    and theta(a_j) = r_j theta(a_1) + s_j theta(a_{t+1}).  With D = det(theta(a_1),
    theta(a_{t+1})), the coordinates are the functionals s(v) = det(theta(a_1), v) / D
    and r(v) = det(v, theta(a_{t+1})) / D (Cramer's rule).
    """
    params = key.params
    if params.m != 2:
        raise ValueError("plane coordinates are defined for m = 2")
    p = params.p
    images = key.images
    a, b = images[0]
    # theta has rank 2, so some column theta(a_j), j <= n, is independent of theta(a_1)
    t = next(j for j in range(1, params.n) if (a * images[j][1] - b * images[j][0]) % p)
    c, d = images[t]
    scale = params.modulus.inv(a * d - b * c)
    return t, tuple(
        ((x * d - y * c) * scale % p, (a * y - b * x) * scale % p) for x, y in images
    )


def classify_type(key: SubgroupKey) -> Presentation:
    """Canonical presentation of a key: the plane form at m = 2, else the general form."""
    params = key.params
    if params.m != 2:
        return general_presentation(key)
    t, coords = plane_coordinates(key)
    rs = coords[t + 1 : params.n]  # theta(a_j) for j = t+2..n
    ls = tuple(lj for lj, _ in coords[1:t])  # theta(a_j) = l_j theta(a_1) for j = 2..t
    return PlanePresentation(params, t, ls, tuple(r for r, _ in rs), tuple(s for _, s in rs))


def general_presentation(key: SubgroupKey) -> GeneralPresentation:
    """Any-m canonical form, relabeling by the least permutation that works.

    The relabeled images theta(a_{sigma^-1(j)}) are read straight off
    ``key.images``; coordinates in the basis of the first m of them do not
    change under the GL_m rescaling that re-echelonizing would apply.
    """
    params = key.params
    p, n, m = params.p, params.n, params.m
    images = key.images
    for candidate in itertools.permutations(range(1, n + 2)):
        sigma = Permutation(candidate)
        inverse = sigma.inverse()
        moved = [images[inverse(j) - 1] for j in range(1, n + 2)]
        try:
            binv = mat_inverse(FpMatrix(params.modulus, tuple(moved[:m]))).entries
        except SingularMatrixError:
            continue
        table = tuple(
            tuple(sum(vec[i] * binv[i][k] for i in range(m)) % p for k in range(m))
            for vec in moved[m:]
        )
        return GeneralPresentation(params, sigma, table)
    raise AssertionError("the images span Z_p^m, so some relabeling works")


def key_from_presentation(pres: Presentation) -> SubgroupKey:
    """Rebuild the subgroup key a presentation came from: theta's columns are its first n images."""
    return key_from_theta(pres.params, zip(*pres.images[:-1]))
