"""Curve models, genus arithmetic and Jacobian genus bookkeeping.

A subgroup key K at m = 2 describes a surface S that is the fiber product
of two cyclic p-covers of the sphere sharing the x coordinate.  For every
subgroup L of the deck group N = Z_p^m, the quotient S/L is again a
cyclic-type cover whose genus follows from Riemann-Hurwitz; at m = 2 the
p+1 one-dimensional L give the genus decomposition of the Jacobian of S,
whose dimensions must add up to the genus of S exactly.

Every quotient is read off linear functionals on the generator images
theta(a_1), ..., theta(a_{n+1}).  L is the common kernel of its
annihilator, and S/L is branched over a marked point exactly when some
annihilator functional is nonzero on its image.  For an index-p quotient
that is one functional, whose values are also the exponents of the
p-gonal model.  The fiber product's exponents are the two rows of
[theta | -sum theta]: in rref the pivot basis (theta(a_1), theta(a_{t+1}))
is (e_1, e_2), so those rows are the coordinates of the images.  y1 takes
the second row and y2 the first.

Marked points: the branch point at infinity is slot 0 of every
``exponents`` tuple, the image of a_1, labelled ``"inf"``; it has an
exponent slot like any other point.  Rendering omits its factor, and the
sum-to-zero exponent invariant encodes its branching implicitly.  That
keeps the arithmetic uniform with no special cases.

Line and hyperplane functionals are read-only int64 arrays cached per
modulus (and m).  One product with the images gives an (H, n+1) value
matrix, and every genus, fixed-point count and exponent row follows on it.
An index-p quotient's genus depends only on its number of branched
points, so the Jacobian lines and the hyperplane probe read their genera
from a read-only table with one entry per count 0..n+1 (``_genus_table``,
cached per modulus, n and deck order); an entry of -1 marks a count whose
Riemann-Hurwitz genus is not a nonnegative integer, and such a count is
handed to ``_riemann_hurwitz`` for its error.  The lines' models are built
without ``CurveModel.__post_init__``: its exponent checks run once on the
whole exponent matrix, and ``JacobianReport`` checks the two sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .enumeration import SubgroupKey, VerificationError
from .fpalgebra import FpMatrix, PrimeModulus, kernel_basis


@dataclass(frozen=True)
class MarkedPoints:
    """Display labels for the n+1 marked points.

    Slot 0 is infinity, the image of a_1, labelled ``"inf"`` in every preset;
    slot j is the image of a_{j+1}.
    """

    n: int
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.n + 1:
            raise ValueError(f"need {self.n + 1} labels, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("marked-point labels must be pairwise distinct")

    @staticmethod
    @lru_cache(maxsize=None)
    def standard(n: int) -> "MarkedPoints":
        return MarkedPoints(n, ("inf", "0", "1") + tuple(f"q{j}" for j in range(4, n + 2)))

    @staticmethod
    def with_lambda(n: int = 3) -> "MarkedPoints":
        """The one-dimensional family labels: a single modulus called lambda."""
        if n != 3:
            raise ValueError("the single-lambda label set is the n=3 configuration")
        return MarkedPoints(3, ("inf", "0", "1", "λ"))

    @staticmethod
    def threefold(n: int = 5) -> "MarkedPoints":
        """Marked points in threefold-symmetric position."""
        if n != 5:
            raise ValueError("the threefold configuration is the n=5 case")
        return MarkedPoints(5, ("inf", "0", "1", "λ", "1/(1-λ)", "(λ-1)/λ"))

    @staticmethod
    def fourgroup(n: int = 5) -> "MarkedPoints":
        """Marked points in Klein-four-symmetric position."""
        if n != 5:
            raise ValueError("the Klein-four configuration is the n=5 case")
        return MarkedPoints(5, ("inf", "0", "1", "λ", "-1", "-λ"))


_PRESETS = {
    "standard": MarkedPoints.standard,
    "lambda": MarkedPoints.with_lambda,
    "d3": MarkedPoints.threefold,
    "k4": MarkedPoints.fourgroup,
}


def points_preset(name: str, n: int) -> MarkedPoints:
    try:
        return _PRESETS[name](n)
    except KeyError:
        raise ValueError(f"unknown label preset {name!r}") from None


@dataclass(frozen=True, slots=True)
class CurveModel:
    """A cyclic p-cover y^p = prod (x - q_j)^{e_j} over the marked points.

    ``exponents`` has one slot per marked point including infinity; their
    sum is 0 mod p (the slots of unbranched points are 0).
    """

    modulus: PrimeModulus
    points: MarkedPoints
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.modulus.p
        object.__setattr__(self, "exponents", tuple([int(e) % p for e in self.exponents]))
        if len(self.exponents) != self.points.n + 1:
            raise ValueError("one exponent per marked point required")
        if sum(self.exponents) % p != 0:
            raise ValueError("cyclic-cover exponents must sum to 0 mod p")

    @property
    def p(self) -> int:
        return self.modulus.p


@dataclass(frozen=True, slots=True)
class FiberProductModel:
    """Two cyclic p-covers sharing the x coordinate; their fiber product is S."""

    first: CurveModel
    second: CurveModel

    def __post_init__(self) -> None:
        if self.first.modulus != self.second.modulus or self.first.points != self.second.points:
            raise ValueError("fiber factors must share modulus and marked points")


def total_genus(k: int, n: int, m: int) -> int:
    """Genus of the Z_k^m action of signature (0; k^{n+1}).

    Valid for any k >= 2 (composite included) in the hyperbolic range;
    the value 1 + k^{m-1}((n-1)(k-1) - 2)/2 must be an integer, else
    ValueError.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= n, got m={m}, n={n}")
    if (n - 1) * (k - 1) <= 2:
        raise ValueError("non-hyperbolic parameters")
    numerator = k ** (m - 1) * ((n - 1) * (k - 1) - 2)
    if numerator % 2:
        raise ValueError(f"genus formula is non-integral at (k,n,m)=({k},{n},{m})")
    return 1 + numerator // 2


def subspace(modulus: PrimeModulus, vectors) -> FpMatrix:
    """Canonical (rref) basis of the span of ``vectors`` in Z_p^m.

    The span is the common kernel of its annihilator, and ``kernel_basis``
    returns every kernel as its rref basis.
    """
    rows = tuple(tuple(v) for v in vectors)
    width = len(rows[0]) if rows else 0
    return kernel_basis(kernel_basis(FpMatrix(modulus, rows, width)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _plane_tables(modulus: PrimeModulus) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """The p+1 lines as rref generators (a, b), the functionals (b, -a) cutting them out, and 1/x mod p."""
    gens = ((0, 1), *((1, c) for c in range(modulus.p)))
    functionals = np.array([(b, -a % modulus.p) for a, b in gens], dtype=np.int64)
    inverses = np.array(modulus.inverse_table, dtype=np.int64)
    return gens, _read_only(functionals), _read_only(inverses)


@lru_cache(maxsize=None)
def _functionals(modulus: PrimeModulus, m: int) -> np.ndarray:
    rows = [
        (0,) * k + (1,) + rest
        for k in range(m)
        for rest in itertools.product(range(modulus.p), repeat=m - 1 - k)
    ]
    return _read_only(np.array(rows, dtype=np.int64))


def _value_matrix(key: SubgroupKey, functionals: np.ndarray) -> np.ndarray:
    """Row h: functional h at theta(a_1..a_{n+1}) mod p; entries below 2^16 keep int64 products exact."""
    return np.asarray(functionals, dtype=np.int64) @ np.array(key.images, dtype=np.int64).T % key.params.p


def _genus_formula(p: int, deck: int, branched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - deck + branched (deck/p)(p - 1)/2 per entry, and where that is no nonnegative integer."""
    ramified = branched * (deck * (p - 1))  # the ramification's share of g, times 2p
    genera = 1 - deck + ramified // (2 * p)
    return genera, (ramified % (2 * p) != 0) | (genera < 0)


def _riemann_hurwitz(key: SubgroupKey, deck: int, branched: np.ndarray) -> np.ndarray:
    """Riemann-Hurwitz genus of S/L from its deck order and each entry's number of branched points.

    Over a branched marked point lie deck/p points of multiplicity p; all
    other points are unramified, so 2g - 2 = -2 deck + branched (deck/p)(p - 1).
    Each result must be a nonnegative integer; the first entry that is not
    raises VerificationError, as it signals an internal inconsistency.
    ``branched`` is an int64 array, or an object array of Python ints
    where deck (p - 1)(n + 1) would overflow int64.
    """
    p = key.params.p
    genera, bad = _genus_formula(p, deck, branched)
    bad = np.flatnonzero(bad)
    if bad.size:
        count = int(branched[bad[0]])
        shown = Fraction(2 * p * (1 - deck) + count * deck * (p - 1), 2 * p)
        raise VerificationError(
            f"quotient genus came out as {shown} for key {key}, deck order {deck} "
            f"and {count} branched points"
        )
    return genera


@lru_cache(maxsize=None)
def _genus_table(modulus: PrimeModulus, n: int, deck: int) -> np.ndarray:
    """Riemann-Hurwitz genus of S/L at each branched count 0..n+1, or -1 where it is no nonnegative integer.

    Computed in exact Python ints; the genera of index-p quotients are then
    one lookup of their counts.
    """
    genera, bad = _genus_formula(modulus.p, deck, np.arange(n + 2, dtype=object))
    return _read_only(np.where(bad, -1, genera).astype(np.int64))


def _index_p_genera(key: SubgroupKey, branched: np.ndarray) -> list[int]:
    """Genera of index-p quotients S/L from their branched counts, read from the genus table.

    A count whose entry is -1 goes to ``_riemann_hurwitz``, which raises
    its VerificationError for the first such count.
    """
    params = key.params
    genera = _genus_table(params.modulus, params.n, params.p)[branched].tolist()
    if -1 in genera:
        return _riemann_hurwitz(key, params.p, branched).tolist()
    return genera


def _pgonal_exponents(key: SubgroupKey, values: np.ndarray) -> np.ndarray:
    """Each row of ``values`` scaled so that its first nonzero finite entry is 1."""
    p, finite = key.params.p, values[:, 1:]
    leads = finite[np.arange(len(finite)), (finite != 0).argmax(axis=1)]
    if not leads.all():  # rank 2 forces a branched finite point
        bad = values[leads.argmin()].tolist()
        raise VerificationError(f"no finite point is branched for key {key}: values {bad}")
    exponents = values * _plane_tables(key.params.modulus)[2][leads, None] % p
    if (exponents.sum(axis=1) % p).any():
        raise ValueError("cyclic-cover exponents must sum to 0 mod p")
    return exponents


def quotient_genus(key: SubgroupKey, sub: FpMatrix) -> int:
    """Genus of S/L for a proper subgroup L <= Z_p^m, by Riemann-Hurwitz.

    L is the common kernel of its annihilator A = ``kernel_basis(sub)``.
    The deck group (Z_p^m)/L has order p^(rows of A), and S/L is branched
    over a marked point exactly when some row of A is nonzero on its image.
    """
    params = key.params
    if sub.cols != params.m or sub.modulus != params.modulus:
        raise ValueError("subspace does not live in the quotient Z_p^m")
    annihilator = kernel_basis(sub)
    if not annihilator.rows:
        raise ValueError("L must be a proper subgroup of Z_p^m")
    branched = int(_value_matrix(key, annihilator.entries).any(axis=0).sum())
    return _riemann_hurwitz(key, params.p**annihilator.rows, np.array([branched], dtype=object))[0]


def fiber_product_model(key: SubgroupKey, points: MarkedPoints | None = None) -> FiberProductModel:
    """The two-equation algebraic model of S at m = 2: the rows of [theta | -sum theta].

    Column j of that matrix is theta(a_j) = r_j theta(a_1) + s_j
    theta(a_{t+1}), read in the pivot basis (e_1, e_2); y1 takes the second
    row, the s_j, and y2 the first, the r_j.  In the plane form
    with t = 1 this reads y1^p = x prod (x-q_j)^{s_j}, y2^p = prod
    (x-q_j)^{r_j} over j = 3..n+1, with the last exponents forced by
    s_{n+1} = -(1 + s_3 + ... + s_n) and r_{n+1} = -(1 + r_3 + ... + r_n)
    mod p.  With t >= 2 the leading factor of y1 moves to q_{t+1} and y2
    gains the l_j exponents over q_2..q_t.
    """
    params = key.params
    if params.m != 2:
        raise ValueError("the fiber-product model is defined for m = 2")
    r, s = zip(*key.images)  # the rows of [theta | -sum theta]
    pts = points if points is not None else MarkedPoints.standard(params.n)
    return FiberProductModel(CurveModel(params.modulus, pts, s), CurveModel(params.modulus, pts, r))


@dataclass(frozen=True, slots=True)
class JacobianLine:
    """One cyclic subgroup L of the deck group, as its rref generator (a, b), with its quotient data."""

    line: tuple[int, int]
    genus: int
    fixed_points: int
    model: CurveModel


@dataclass(frozen=True)
class JacobianReport:
    """Genus decomposition of the Jacobian of S over the p+1 lines of Z_p^2.

    The line genera sum to the genus of S and the fixed-point counts sum
    to (n+1) p; both identities are enforced at construction.
    """

    key: SubgroupKey
    lines: tuple[JacobianLine, ...]
    total: int

    def __post_init__(self) -> None:
        if self.genus_sum != self.total:
            raise VerificationError(
                f"line genera sum to {self.genus_sum}, expected the genus {self.total}"
            )
        params = self.key.params
        expected = (params.n + 1) * params.p
        if self.fixed_sum != expected:
            raise VerificationError(
                f"fixed-point counts sum to {self.fixed_sum}, expected {expected}"
            )

    @property
    def genus_sum(self) -> int:
        return sum(entry.genus for entry in self.lines)

    @property
    def fixed_sum(self) -> int:
        return sum(entry.fixed_points for entry in self.lines)

    @property
    def genera(self) -> tuple[int, ...]:
        return tuple(entry.genus for entry in self.lines)


def jacobian_decomposition(key: SubgroupKey, points: MarkedPoints | None = None) -> JacobianReport:
    """Per-line quotient genera, fixed-point counts and models at m = 2.

    The line spanned by (a, b) is the kernel of f = (b, -a).  The values of
    f on the n+1 images give all three: S/L is branched where f is nonzero,
    each zero contributes p fixed points, and the values are the p-gonal
    exponents up to scale.
    """
    params = key.params
    if params.m != 2:
        raise ValueError("the line decomposition is defined for m = 2")
    modulus, p = params.modulus, params.p
    pts = points if points is not None else MarkedPoints.standard(params.n)
    if pts.n != params.n:
        raise ValueError("one exponent per marked point required")
    lines, functionals, _ = _plane_tables(modulus)
    values = _value_matrix(key, functionals)
    branched = (values != 0).sum(axis=1)
    genera = _index_p_genera(key, branched)
    fixed = (p * (params.n + 1 - branched)).tolist()
    exponents = _pgonal_exponents(key, values).tolist()
    entries, assign = [], object.__setattr__
    for ln, genus, fix, exps in zip(lines, genera, fixed, exponents):
        # built without CurveModel.__post_init__: its checks ran on the whole exponent matrix
        model = object.__new__(CurveModel)
        assign(model, "modulus", modulus)
        assign(model, "points", pts)
        assign(model, "exponents", tuple(exps))
        entries.append(JacobianLine(ln, genus, fix, model))
    return JacobianReport(key, tuple(entries), total_genus(p, params.n, params.m))


@dataclass(frozen=True)
class ConjectureProbe:
    """Hyperplane genus sum versus the genus of S; evidence, not proof."""

    genus_sum: int
    total: int

    @property
    def equal(self) -> bool:
        return self.genus_sum == self.total


def conjecture_probe(key: SubgroupKey) -> ConjectureProbe:
    """Sum quotient genera over all index-p subgroups L of Z_p^m.

    At m = 2 equality with the genus of S is a theorem and always holds;
    for m >= 3 the probe only reports both sides.
    """
    params = key.params
    if params.m < 2:
        raise ValueError("the probe needs m >= 2")
    values = _value_matrix(key, _functionals(params.modulus, params.m))
    genera = _index_p_genera(key, (values != 0).sum(axis=1))
    return ConjectureProbe(sum(genera), total_genus(params.p, params.n, params.m))


# ---------------------------------------------------------------------------
# rendering


def _render_curve(model: CurveModel, name: str = "y") -> str:
    factors = []
    for label, e in zip(model.points.labels, model.exponents):
        if label == model.points.labels[0] or e == 0:
            continue  # infinity is implicit; unbranched points are omitted
        base = "x" if label == "0" else f"(x - {label})"
        factors.append(base if e == 1 else f"{base}^{e}")
    product = "*".join(factors) if factors else "1"
    return f"{name}^{model.p} = {product}"


def render_model(model: CurveModel | FiberProductModel) -> str:
    """Deterministic text rendering of a curve or fiber product."""
    if isinstance(model, CurveModel):
        return _render_curve(model)
    return _render_curve(model.first, "y1") + " ; " + _render_curve(model.second, "y2")
