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
``SubgroupKey`` objects are built only on request.  Rows take the digit
dtype and row codes of ``hgroup``, in base p, as permutation rows do.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fpalgebra import FpMatrix, PrimeModulus, is_rref, rref
from .hgroup import ScaleCapError, digit_dtype, row_codes

DEFAULT_CANDIDATE_CAP = 10**9
ORACLE_CANDIDATE_CAP = 10**7
# Rows per block of every blocked pass over keys or candidates: the rref walk, the fixed-point
# masks, orbit closure, the invariant scan and ``digit_strings_of``.  Each bounds its temporaries
# at a few MB; at (13, 5, 2), 2^20-row blocks built the table and its Burnside sum no faster.
_BLOCK = 1 << 16


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
        if not all(map(any, theta.entries)):  # an rref matrix's rank is its nonzero row count
            raise AdmissibilityError(f"theta has rank < m = {params.m}")
        for j, column in enumerate(zip(*theta.entries), start=1):
            if not any(column):
                raise AdmissibilityError(f"generator a_{j} lies in the subgroup")
        if not any(sum(row) % params.p for row in theta.entries):
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
        rows, p = self.theta.entries, self.params.p
        return tuple(zip(*rows)) + (tuple([-sum(row) % p for row in rows]),)

    def __str__(self) -> str:
        return f"SubgroupKey(p={self.params.p}, n={self.params.n}, m={self.params.m}, {self.digit_string()})"


def key_from_digit_string(params: ActionParams, text: str) -> SubgroupKey:
    """The key whose ``digit_string`` is ``text``; digits outside 0..p-1 are a ValueError."""
    p, rows = params.p, tuple(tuple(map(int, row.split(","))) for row in text.split(";"))
    if any(not 0 <= digit < p for row in rows for digit in row):
        raise ValueError(f"digit string {text!r} has a digit outside 0..{p - 1}")
    return SubgroupKey(params, FpMatrix(params.modulus, rows, params.n))


def key_from_theta(params: ActionParams, rows) -> SubgroupKey:
    """Canonicalize an arbitrary rank-m quotient matrix into a key."""
    reduced, rank = rref(FpMatrix(params.modulus, tuple(tuple(r) for r in rows), params.n))
    if rank != params.m:
        raise AdmissibilityError(f"quotient matrix has rank {rank}, expected {params.m}")
    return SubgroupKey(params, reduced)


# Each named form in the plane form (t, l, r, s): NAMED_FORMS[family][form, arity] maps
# the form's integer parameters to the (t, l, r, s) of that member.  An entry
# is the paper's generator words (in its comment) solved for the images
# theta(a_j) in the basis (theta(a_1), theta(a_{t+1})); solving K1, K2, K5, K6
# and the k4 K(r,s) divides by 2.  The test suite checks every entry against
# its words.
NAMED_FORMS: dict[str, dict[tuple[str, int], Callable[..., tuple]]] = {
    "n3": {
        ("K", 2): lambda r, s: (1, (), (r,), (s,)),  # <a1^r a2^s a3^-1>
        ("K", 1): lambda l: (2, (l,), (), ()),  # <a1^l a2^-1>
    },
    "d3": {
        # <a1 a2 a3, a1^r a2^s a4^-1, a1^-s a2^(r-s) a5^-1>
        ("K", 2): lambda r, s: (1, (), (-1, r, -s), (-1, s, r - s)),
        # <a1 a2 a3, a1^l a2^-1, a4^l a6^-1>
        ("K", 1): lambda l: (3, (l, -1 - l), (0,), (-1 - l,)),
    },
    "k4": {
        # <a1^r a2^s a3^-1, a3 a5^-1, a4 a6^-1> with 2(r+s) + 1 = 0
        ("K", 2): lambda r, s: (1, (), (r, s, r), (s, r, s)),
        ("K1", 0): lambda: (2, (1,), (0, -1), (1, -1)),  # <a1 a2^-1, a3 a4^-1, a5 a6^-1>
        ("K2", 0): lambda: (2, (1,), (-1, -1), (-1, -1)),  # <a1 a2^-1, a3 a6^-1, a4 a5^-1>
        ("K5", 0): lambda: (2, (1,), (-1, 0), (-1, 1)),  # <a1 a2^-1, a3 a5^-1, a4 a6^-1>
        ("K6", 0): lambda: (2, (-1,), (0, 0), (-1, 1)),  # <a1 a2, a3 a5^-1, a4 a6^-1>
        ("K3", 1): lambda r: (2, (-1,), (-r, r), (1, -1)),  # <a1^r a3^-1 a4, a1 a2, a3 a6>
        ("K4", 1): lambda r: (2, (-1,), (0, r), (-1, -1)),  # <a1^r a3^-1 a6, a1 a2, a3 a4>
        ("Kbar1", 0): lambda: (2, (1,), (0, 0), (1, 1)),  # <a1 a2, a3 a4, a3 a5>
        ("Kbar2", 0): lambda: (2, (1,), (0, 1), (1, 1)),  # <a1 a2, a3 a4, a1 a3 a5>
        ("Kbar3", 0): lambda: (2, (1,), (1, 0), (1, 1)),  # <a1 a2, a3 a5, a1 a3 a4>
        ("Kbar4", 0): lambda: (2, (1,), (1, 1), (1, 1)),  # <a1 a2, a4 a5, a1 a3 a4>
    },
}
_NAME_RE = re.compile(r"(K(?:bar)?\d?)(?:\((\d+(?:,\d+)?)\))?")


def named_rows(family: str, form: str, *args: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """theta's rref rows (1, l, 0, r), (0, ..., 0, 1, s) for ``form(*args)``, not reduced mod p."""
    t, l, r, s = NAMED_FORMS[family][form, len(args)](*args)
    return (1, *l, 0, *r), (0,) * t + (1, *s)


def named_key(params: ActionParams, family: str, form: str, *args: int) -> SubgroupKey:
    """The member ``form(*args)`` of a named family: ``named_key(params, "k4", "K3", 2)`` is K3(2).

    The key of its ``named_rows``, validated by ``SubgroupKey``.  Which p
    and which parameters a family admits is ``key_from_named``'s to check.
    """
    return SubgroupKey(params, FpMatrix(params.modulus, named_rows(family, form, *args)))


def key_from_named(params: ActionParams, name: str, family: str | None = None) -> SubgroupKey:
    """Resolve a named subgroup such as ``K(0,4)``, ``K(2)``, ``K3(1)`` or ``Kbar2``.

    A name is a form and its integer parameters, each in 0..p-1; it
    resolves through ``named_key``.  Families:
      * ``n3`` (default when n == 3): K(r,s) and K(l), the plane
        forms with t = 1 and t = 2.
      * ``d3`` (n == 5, threefold symmetry): K(r,s) and K(l).
      * ``k4`` (n == 5, Klein-four symmetry): K(r,s) with 2(r+s)+1 = 0 mod p,
        the fixed groups K1, K2, K5, K6 (p odd), the one-parameter groups
        K3(r), K4(r), and Kbar1..Kbar4 (p = 2 only).
    """
    if family is None:
        if params.n != 3:
            raise ValueError(f"family required to resolve {name!r} at n={params.n}")
        family = "n3"
    if family not in NAMED_FORMS:
        raise ValueError(f"unknown family {family!r}")
    p, text = params.p, re.sub(r"\s+", "", name)
    match = _NAME_RE.fullmatch(text)
    form, digits = match.groups() if match else (None, None)
    args = tuple(int(a) for a in digits.split(",")) if digits else ()
    if (form, len(args)) not in NAMED_FORMS[family] or params.n != (3 if family == "n3" else 5):
        raise ValueError(f"{name!r} is not a name in the {family} family at n={params.n}")
    if any(not 0 <= a < p for a in args):
        raise ValueError(f"{text} has a parameter outside 0..{p - 1}")
    if family == "k4":
        if form.startswith("Kbar") and p != 2:
            raise ValueError(f"{name!r} only exists at p=2")
        if form in ("K1", "K2", "K5", "K6") and p == 2:
            raise AdmissibilityError(
                f"{text} is not admissible at p=2: its generators span a subgroup of rank 2,"
                " expected n - m = 3"
            )
        if form == "K" and (2 * sum(args) + 1) % p:
            raise AdmissibilityError(f"{text} is not in the k4 family at p={p}")
    try:
        return named_key(params, family, form, *args)
    except AdmissibilityError as exc:
        raise AdmissibilityError(f"{text} is not admissible at p={p}: {exc}") from None


# ---------------------------------------------------------------------------
# enumeration


def _rref_walk(p: int, m: int, n: int):
    """Every rank-m rref m x n matrix over F_p, in (count, m, n) blocks of at most ``_BLOCK``.

    Walks pivot-column combinations in lexicographic order and free
    entries in odometer order; each matrix is emitted once and is already
    canonical, so no deduplication is needed.  At m = 1 the matrices are
    the projective points of F_p^n, each scaled to a leading 1.
    """
    dtype = digit_dtype(p)
    for pivots in itertools.combinations(range(n), m):
        free = [(i, j) for i in range(m) for j in range(n) if j not in pivots and j > pivots[i]]
        total = p ** len(free)
        for start in range(0, total, _BLOCK):
            codes = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
            mats = np.zeros((len(codes), m, n), dtype=dtype)
            for i in range(m):
                mats[:, i, pivots[i]] = 1
            for i, j in reversed(free):
                codes, digit = np.divmod(codes, p)
                mats[:, i, j] = digit.astype(dtype)
            yield mats


def _admissible(mats: np.ndarray, p: int) -> np.ndarray:
    """Mask of the (m, n) matrices whose n columns and implied image of a_{n+1} are all nonzero.

    Works on one (K,) entry column at a time, from one (m, n, K) copy:
    reductions over the short m and n axes cost several times more.
    Row sums accumulate in int64.
    """
    k, m, n = mats.shape
    columns = np.ascontiguousarray(mats.transpose(1, 2, 0))
    admissible = np.zeros(k, dtype=bool)
    for row in columns:  # some row sum nonzero mod p: the implied image
        admissible |= row.sum(axis=0, dtype=np.int64) % p != 0
    for j in range(n):
        nonzero = columns[0, j] != 0
        for i in range(1, m):
            nonzero |= columns[i, j] != 0
        admissible &= nonzero
    return admissible


def check_candidate_cap(params: ActionParams, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> None:
    """Raise ScaleCapError when enumerating (p, n, m) would exceed ``max_candidates``."""
    estimate = math.comb(params.n, params.m) * params.p ** (params.m * (params.n - params.m))
    if estimate > max_candidates:
        raise ScaleCapError(
            f"enumeration at (p={params.p}, n={params.n}, m={params.m}) exceeds the cap",
            estimate,
        )


def theta_table(params: ActionParams, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> np.ndarray:
    """All admissible rref quotient matrices as an (N, m, n) array, in digit order.

    The admissible matrices of ``_rref_walk``, sorted at the end by their
    ``row_codes``: the walk is not in digit order from n = 4 on.
    """
    check_candidate_cap(params, max_candidates)
    p, n, m = params.p, params.n, params.m
    table = np.concatenate([mats[_admissible(mats, p)] for mats in _rref_walk(p, m, n)])
    return table[np.argsort(row_codes(table, p))]


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
        rows = np.array([key.digits for key in keys], dtype=digit_dtype(params.p))
        return cls.from_rows(params, rows.reshape(-1, params.m, params.n))

    @classmethod
    def from_rows(cls, params: ActionParams, rows: np.ndarray) -> "KeySet":
        """The distinct rows of an (N, m, n) array of admissible rref matrices at ``params``."""
        rows = rows.astype(digit_dtype(params.p), copy=False)
        _, first = np.unique(row_codes(rows, params.p), return_index=True)
        return cls(params, rows[first])

    @classmethod
    def full(cls, params: ActionParams, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> "KeySet":
        """Every admissible key at ``params``: the ``theta_table``."""
        return cls(params, theta_table(params, max_candidates))

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        same = isinstance(other, KeySet) and self.params == other.params
        return same and np.array_equal(self.rows, other.rows)

    @cached_property
    def _codes(self) -> np.ndarray:
        return row_codes(self.rows, self.params.p)

    def rows_of(self, matrices: np.ndarray) -> np.ndarray:
        """Row of each rref (m, n) matrix, by binary search; KeyError if one is absent.

        The targets are searched in sorted order, so that each probe starts
        near the last one, and the rows are scattered back: orbit closure's
        lookups at (13, 5) take 1.6 s this way and 6.0 s unsorted.
        """
        codes, targets = self._codes, row_codes(matrices, self.params.p)
        order = np.argsort(targets)
        rows = np.empty(len(targets), dtype=np.intp)
        rows[order] = np.searchsorted(codes, targets[order])
        if not (rows < len(codes)).all() or not (codes[rows] == targets).all():
            raise KeyError("a matrix is not a row of the key set")
        return rows

    def keys(self) -> list[SubgroupKey]:
        """The keys themselves, validated, in row order."""
        params, rows = self.params, self.rows.tolist()  # m >= 1 rows, so FpMatrix infers n
        return [SubgroupKey(params, FpMatrix(params.modulus, tuple(map(tuple, r)))) for r in rows]

    def digit_strings(self) -> list[str]:
        """``SubgroupKey.digit_string`` of every row, without building keys."""
        return digit_strings_of(self.params, self.rows)


def digit_text(params: ActionParams, rows: np.ndarray) -> tuple[str, np.ndarray]:
    """The ``SubgroupKey.digit_string`` of each (m, n) row of ``rows``, in any order, as one text.

    Returns the strings joined by newlines and each one's end offset in
    that text.  Renders ``_BLOCK`` rows at a time into a byte buffer: the
    k-th decimal digit of each entry is ``// 10**k % 10``, a mask drops
    the leading zeros, and the separators sit in a column of their own.
    The newlines mark the ends.
    """
    m, n = params.m, params.n
    width = len(str(params.p - 1))
    separators = np.full(m * n, ord(","), dtype=np.uint8)
    separators[n - 1 :: n] = ord(";")
    separators[-1] = ord("\n")
    flat, parts, ends, offset = rows.reshape(len(rows), m * n), [], [], 0
    for start in range(0, len(flat), _BLOCK):
        entries = flat[start : start + _BLOCK]
        chars = np.empty(entries.shape + (width + 1,), dtype=np.uint8)
        keep = np.ones(chars.shape, dtype=bool)
        for k in range(width):
            power = 10 ** (width - 1 - k)  # below p, so it fits the entries' dtype
            chars[..., k] = entries // power % 10 + ord("0")
            if power > 1:
                keep[..., k] = entries >= power
        chars[..., width] = separators
        kept = chars[keep]
        ends.append(np.flatnonzero(kept == ord("\n")) + offset)
        parts.append(str(kept[:-1], "ascii"))  # the join puts the last newline back
        offset += len(kept)
    return "\n".join(parts), np.concatenate(ends) if ends else np.zeros(0, dtype=np.intp)


def digit_strings_of(params: ActionParams, rows: np.ndarray) -> list[str]:
    """``SubgroupKey.digit_string`` of each (m, n) row of ``rows``, in any order.

    The lines of ``digit_text``, one block at a time.
    """
    strings = []
    for start in range(0, len(rows), _BLOCK):
        strings += digit_text(params, rows[start : start + _BLOCK])[0].split("\n")
    return strings


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

