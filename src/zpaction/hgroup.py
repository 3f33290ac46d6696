"""Permutations of the n+1 branch-point labels and the groups they generate.

H = Z_p^n has n+1 distinguished generators a_1, ..., a_{n+1} that
multiply to the identity.  A relabeling sigma in S_{n+1} acts on H by
Phi_sigma(a_j) = a_{sigma(j)}; on a subgroup key it only permutes the n+1
generator images (``classify.act``).  This module holds the
permutation side: cycle notation, group closure, conjugacy classes and
normalizers.

Groups are closed and held as ``Permutation`` objects, but the
normalizer of a group in S_{n+1} is found by one array scan: all (n+1)!
relabelings are a single uint8 array, each generator is conjugated by
all of them at once, and membership in the group is a test on integer
codes of the conjugates.  Only the few normalizing relabelings picked as
generators become ``Permutation`` objects.

Composition convention, fixed once for the whole package: permutations
compose right-to-left, ``(sigma * tau)(j) = sigma(tau(j))``, so that
``Phi_{sigma * tau} = Phi_sigma Phi_tau``.  Both conventions appear in the
literature; this one matches the conjugation calculus
``Phi_f(a_j) = f a_j f^{-1}``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_CLOSURE_CAP = math.factorial(10)
MAX_NORMALIZER_DEGREE = 9


@dataclass(frozen=True, order=True)
class Permutation:
    """Element of S_degree on points 1..degree; images[j-1] = sigma(j)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(int(i) for i in self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for j, i in enumerate(self.images, start=1):
            inv[i - 1] = j
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for j, i in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, fixed points omitted, each starting at its least point."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(j) for j in cyc) + ")" for cyc in cycles)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(1 2)(3 4)`` into a Permutation.

    Whitespace- and comma-tolerant; ``()`` or an empty string is the
    identity.  Raises ValueError on malformed text, repeated points, or
    points outside 1..degree.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        return Permutation.identity(degree)
    if _CYCLE_RE.sub("", stripped).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        points = [tok for tok in re.split(r"[\s,]+", body.strip()) if tok]
        if not points:
            continue
        try:
            pts = [int(tok) for tok in points]
        except ValueError:
            raise ValueError(f"malformed cycle notation: {text!r}") from None
        for pt in pts:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} exceeds degree {degree}")
            if pt in seen:
                raise ValueError(f"repeated point {pt} in {text!r}")
            seen.add(pt)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators together with its full closure."""

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self.element_set

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[Permutation, int], ...]:
        """(first member in ``elements``, size) for each conjugacy class.

        A class is the closure of one element under conjugation by the
        generators, which reaches every conjugate in a finite group.
        """
        conjugators = [(g, g.inverse()) for g in self.generators]
        seen: set[Permutation] = set()
        classes = []
        for sigma in self.elements:
            if sigma not in seen:
                members = frontier = {sigma}
                while frontier:
                    conjugates = {g * a * g_inv for a in frontier for g, g_inv in conjugators}
                    frontier = conjugates - members
                    members = members | frontier
                seen |= members
                classes.append((sigma, len(members)))
        return tuple(classes)


def close_group(
    generators,
    degree: int | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> PermGroup:
    """Close a generator list under composition; the identity is always included."""
    gens = tuple(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree required to close an empty generator set")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators of unequal degree")
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = g * a
                if b not in elements:
                    elements.add(b)
                    nxt.append(b)
                    if len(elements) > cap:
                        raise ValueError(f"group closure exceeds cap {cap}")
        frontier = nxt
    return PermGroup(degree, gens, tuple(sorted(elements)))


def symmetric_group(degree: int) -> PermGroup:
    """All of S_degree, generated by the transposition (1 2) and the full cycle."""
    if degree > 10:
        raise ValueError("symmetric group too large to materialize")
    elements = tuple(Permutation(images) for images in itertools.permutations(range(1, degree + 1)))
    if degree == 1:
        gens: tuple[Permutation, ...] = ()
    elif degree == 2:
        gens = (Permutation((2, 1)),)
    else:
        swap = parse_cycles("(1 2)", degree)
        cycle = Permutation(tuple(list(range(2, degree + 1)) + [1]))
        gens = (swap, cycle)
    return PermGroup(degree, gens, elements)


def _permutation_codes(images: np.ndarray) -> np.ndarray:
    """One integer per row of 0-based permutation images: the row read as base-degree digits."""
    degree = images.shape[1]
    codes = np.zeros(len(images), dtype=np.int64)
    for column in images.T:
        codes *= degree
        codes += column
    return codes


def _element_codes(perms) -> np.ndarray:
    """``_permutation_codes`` of ``Permutation`` objects."""
    return _permutation_codes(np.array([perm.images for perm in perms]) - 1)


def _all_permutations(degree: int) -> np.ndarray:
    """Every permutation of 0..degree-1 as one (degree!, degree) uint8 array, in lexicographic order.

    The permutations of 0..k-1 that start with f are f followed by those
    of 0..k-2 with every point >= f moved up by one, which keeps their
    order.
    """
    perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, degree + 1):
        firsts = np.repeat(np.arange(k, dtype=np.uint8), len(perms))
        rest = np.tile(perms, (k, 1))
        rest += rest >= firsts[:, None]
        perms = np.column_stack([firsts, rest])
    return perms


def normalizer_in_symmetric(group: PermGroup) -> PermGroup:
    """{tau in S_degree : tau G tau^-1 = G}, by one array scan over S_degree.

    All degree! relabelings tau are one array, in lexicographic order.
    Each generator g of G is conjugated by all of them at once,
    (tau g tau^-1)[j] = tau[g[tau^-1[j]]], and tau normalizes G iff every
    conjugate's code is the code of an element of G.  The normalizer is
    generated by each normalizing tau, in that order, that lies outside
    the closure of those before, so by at most log2 |N| of them.  The scan
    is exact and cheap for degree <= 9, which covers every supported
    degree n+1.
    """
    degree = group.degree
    if degree > MAX_NORMALIZER_DEGREE:
        raise ValueError(f"degree {degree} too large for exhaustive normalizer scan")
    taus = _all_permutations(degree)
    inverses = np.empty_like(taus)
    np.put_along_axis(inverses, taus, np.arange(degree, dtype=np.uint8)[None], axis=1)
    members = _element_codes(group.elements)
    normalizing = np.ones(len(taus), dtype=bool)
    for g in group.generators:
        images = np.array(g.images, dtype=np.uint8) - 1
        conjugates = np.take_along_axis(taus, images[inverses], axis=1)
        normalizing &= np.isin(_permutation_codes(conjugates), members)
    taus = taus[normalizing]
    codes = _permutation_codes(taus)
    normalizer = close_group([], degree)
    while (outside := ~np.isin(codes, _element_codes(normalizer.elements))).any():
        tau = Permutation(tuple((taus[outside.argmax()] + 1).tolist()))
        normalizer = close_group(normalizer.generators + (tau,), degree)
    return normalizer
