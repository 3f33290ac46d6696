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
p-gonal model.  The fiber product is the pair of coordinate functionals of
the basis (theta(a_1), theta(a_{t+1})): y1 takes the second coordinates
and y2 the first.

Marked points: the branch point at infinity is carried as point index 1
with an exponent slot like any other; rendering omits its factor, and the
sum-to-zero exponent invariant encodes its branching implicitly.  That
keeps the arithmetic uniform with no special cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import SubgroupKey, VerificationError, plane_coordinates
from .fpalgebra import FpMatrix, PrimeModulus, kernel_basis


@dataclass(frozen=True)
class MarkedPoints:
    """Display labels for the n+1 marked points; index 1 is infinity."""

    n: int
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.n + 1:
            raise ValueError(f"need {self.n + 1} labels, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("marked-point labels must be pairwise distinct")

    @staticmethod
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


@dataclass(frozen=True)
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
        object.__setattr__(self, "exponents", tuple(int(e) % p for e in self.exponents))
        if len(self.exponents) != self.points.n + 1:
            raise ValueError("one exponent per marked point required")
        if sum(self.exponents) % p != 0:
            raise ValueError("cyclic-cover exponents must sum to 0 mod p")

    @property
    def p(self) -> int:
        return self.modulus.p


@dataclass(frozen=True)
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
    the value 1 + k^{m-1}((n-1)(k-1) - 2)/2 must be an integer and that
    is asserted.
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


def line(modulus: PrimeModulus, vector) -> FpMatrix:
    sub = subspace(modulus, [vector])
    if sub.rows != 1:
        raise ValueError("a line needs one nonzero spanning vector")
    return sub


def lines_of_plane(modulus: PrimeModulus) -> list[FpMatrix]:
    """The p+1 one-dimensional subspaces of Z_p^2, sorted by their rref generator."""
    gens = [(0, 1)] + [(1, c) for c in range(modulus.p)]
    return [FpMatrix(modulus, (g,)) for g in gens]


def normalized_functionals(modulus: PrimeModulus, m: int) -> list[tuple[int, ...]]:
    """The functionals on Z_p^m with leading coefficient 1, one per hyperplane.

    No two of them are proportional, so their kernels are the
    (p^m - 1)/(p - 1) hyperplanes, each exactly once.
    """
    return [
        (0,) * k + (1,) + rest
        for k in range(m)
        for rest in itertools.product(range(modulus.p), repeat=m - 1 - k)
    ]


def _values(key: SubgroupKey, functional) -> list[int]:
    """A functional on Z_p^m evaluated at theta(a_1), ..., theta(a_{n+1})."""
    p = key.params.p
    return [sum(f * x for f, x in zip(functional, img)) % p for img in key.images]


def _riemann_hurwitz(key: SubgroupKey, deck: int, branched: int) -> int:
    """Riemann-Hurwitz genus of S/L from its deck order and its number of branched marked points.

    Over a branched marked point lie deck/p points of multiplicity p; all
    other points are unramified.  The result must be a nonnegative
    integer; a violation signals an internal inconsistency.
    """
    p = key.params.p
    genus = 1 - deck + Fraction(branched * deck * (p - 1), 2 * p)
    if genus.denominator != 1 or genus < 0:
        raise VerificationError(
            f"quotient genus came out as {genus} for key {key}, deck order {deck} "
            f"and {branched} branched points"
        )
    return int(genus)


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
    values = [_values(key, f) for f in annihilator.entries]
    branched = sum(1 for column in zip(*values) if any(column))
    return _riemann_hurwitz(key, params.p**annihilator.rows, branched)


def _pgonal_curve(key: SubgroupKey, values: list[int], points: MarkedPoints | None) -> CurveModel:
    """The p-cover with exponents ``values``, scaled so the first nonzero finite one is 1."""
    params = key.params
    lead = next((e for e in values[1:] if e), None)
    assert lead is not None  # rank 2 forces a branched finite point
    scale = params.modulus.inv(lead)
    pts = points if points is not None else MarkedPoints.standard(params.n)
    return CurveModel(params.modulus, pts, tuple(scale * e % params.p for e in values))


def pgonal_model(key: SubgroupKey, sub: FpMatrix, points: MarkedPoints | None = None) -> CurveModel:
    """Exponent table of the cyclic p-cover S/L -> sphere, for a line L.

    The functional f cutting out L maps (Z_p^2)/L onto Z_p, so the
    exponents are the values of f on the marked-point images, scaled so
    that the first nonzero exponent among the finite points equals 1.  The
    exponents sum to 0 mod p with the infinity slot included.
    """
    params = key.params
    if params.m != 2:
        raise ValueError("per-line models are defined for m = 2")
    annihilator = kernel_basis(sub)
    if sub.cols != 2 or annihilator.rows != 1:
        raise ValueError("L must be a line in Z_p^2")
    return _pgonal_curve(key, _values(key, annihilator.entries[0]), points)


def fiber_product_model(key: SubgroupKey, points: MarkedPoints | None = None) -> FiberProductModel:
    """The two-equation algebraic model of S, from the coordinates of the images.

    With theta(a_j) = r_j theta(a_1) + s_j theta(a_{t+1}) as in
    ``plane_coordinates``, y1 takes the exponents s_j and y2 the r_j.  In
    the plane presentation with t = 1 this reads y1^p = x prod (x-q_j)^{s_j},
    y2^p = prod (x-q_j)^{r_j} over j = 3..n+1, with the last exponents
    forced by s_{n+1} = -(1 + s_3 + ... + s_n) and r_{n+1} = -(1 + r_3 +
    ... + r_n) mod p.  With t >= 2 the leading factor of y1 moves to
    q_{t+1} and y2 gains the l_j exponents over q_2..q_t.
    """
    params = key.params
    _, coords = plane_coordinates(key)  # raises ValueError unless m = 2
    pts = points if points is not None else MarkedPoints.standard(params.n)
    return FiberProductModel(
        CurveModel(params.modulus, pts, tuple(s for _, s in coords)),
        CurveModel(params.modulus, pts, tuple(r for r, _ in coords)),
    )


@dataclass(frozen=True)
class JacobianLine:
    """One cyclic subgroup L of the deck group with its quotient data."""

    line: FpMatrix
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
    p = params.p
    entries = []
    for ln in lines_of_plane(params.modulus):
        ((a, b),) = ln.entries
        values = _values(key, (b, -a))
        zeros = values.count(0)
        genus = _riemann_hurwitz(key, p, len(values) - zeros)
        entries.append(JacobianLine(ln, genus, p * zeros, _pgonal_curve(key, values, points)))
    total = total_genus(p, params.n, params.m)
    return JacobianReport(key, tuple(entries), total)


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
    p = params.p
    total = total_genus(p, params.n, params.m)
    sum_genus = 0
    for functional in normalized_functionals(params.modulus, params.m):
        values = _values(key, functional)
        sum_genus += _riemann_hurwitz(key, p, len(values) - values.count(0))
    return ConjectureProbe(sum_genus, total)


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
