"""Permutations of the n+1 branch-point labels and the groups they generate.

H = Z_p^n has n+1 distinguished generators a_1, ..., a_{n+1} that
multiply to the identity.  A relabeling sigma in S_{n+1} acts on H by
Phi_sigma(a_j) = a_{sigma(j)}; on a subgroup key it only permutes the n+1
generator images, which the array action (``classify._moved_rows``)
does for a whole key array at once.  This module holds the permutation
side: cycle notation, group closure, conjugacy classes and normalizers.

A group is one sorted array of 0-based images, a row per element,
compared through ``row_codes`` as key rows are; only its generators are
``Permutation`` objects.  ``_closure`` grows a group level by level.
Conjugacy classes are orbits of the rows under conjugation by the
generators, labelled by ``orbit_labels`` as key orbits are.  The
normalizer in S_{n+1} is one scan of all (n+1)! relabelings.

Composition convention, fixed once for the whole package: permutations
compose right-to-left, ``(sigma * tau)(j) = sigma(tau(j))``, so that
``Phi_{sigma * tau} = Phi_sigma Phi_tau``.  Both conventions appear in the
literature; this one matches the conjugation calculus
``Phi_f(a_j) = f a_j f^{-1}``.
"""

from __future__ import annotations

import collections
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_CLOSURE_CAP = math.factorial(10)
_CLOSURE_CHUNK = 1 << 16  # products merged at once in a closure: its most rows past the cap
MAX_NORMALIZER_DEGREE = 9


class ScaleCapError(RuntimeError):
    """Estimated work exceeds the configured cap."""

    def __init__(self, message: str, estimate: int, unit: str = "candidates"):
        super().__init__(f"{message} (estimated {unit}: {estimate})")
        self.estimate = estimate


@dataclass(frozen=True, order=True)
class Permutation:
    """Element of S_degree on points 1..degree; images[j-1] = sigma(j)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(map(int, self.images)))
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


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A permutation group: generators, and elements as ``images[i, j - 1] = sigma_i(j) - 1``.

    ``images`` is (order, degree) in ``digit_dtype(degree)``, its rows
    sorted, the identity first; ``elements`` builds objects on request.
    """

    degree: int
    generators: tuple[Permutation, ...]
    images: np.ndarray

    @property
    def order(self) -> int:
        return len(self.images)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return _permutations(self.images)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[Permutation, int], ...]:
        """(least member, size) for each conjugacy class, in the order of those members.

        Each generator conjugates every element at once, and binary search
        on the codes finds each conjugate's row; the classes are the orbits
        of those row permutations.
        """
        codes = row_codes(self.images, self.degree)
        moves = [np.searchsorted(codes, row_codes(g[self.images[:, np.argsort(g)]], self.degree))
                 for g in _image_array(self.generators, self.degree)]  # g a g^-1 = g[a[g^-1]]
        roots, sizes = np.unique(orbit_labels(moves, self.order), return_counts=True)
        return tuple(zip(_permutations(self.images[roots]), sizes.tolist()))

    @cached_property
    def cycle_types(self) -> dict[tuple[tuple[int, int], ...], int]:
        """Elements per cycle type, a type being its sorted (cycle length, cycles) pairs.

        Fixed points count as 1-cycles.  Conjugates share a cycle type, so
        the conjugacy classes give the counts.
        """
        types: dict[tuple[tuple[int, int], ...], int] = {}
        for sigma, size in self.conjugacy_classes:
            lengths = [len(cycle) for cycle in sigma.cycles()]
            lengths += [1] * (self.degree - sum(lengths))
            key = tuple(sorted(collections.Counter(lengths).items()))
            types[key] = types.get(key, 0) + size
        return types


def digit_dtype(base: int):
    """The unsigned dtype of rows whose digits lie below ``base``: uint8 up to base 256, else uint16."""
    return np.uint8 if base <= 1 << 8 else np.uint16


def row_codes(rows: np.ndarray, base: int) -> np.ndarray:
    """One code per row of digits below ``base`` (any trailing shape), sorting like the digits.

    Mixed-radix int64 codes while base^width < 2^63, else the row's
    big-endian 16-bit digits as one void scalar (base <= 2^16), which
    numpy sorts and searches several times slower.  Key rows take base
    p, permutation rows base degree.
    """
    flat = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    if base ** flat.shape[1] >= 1 << 63:
        flat = np.ascontiguousarray(flat, dtype=">u2")
        return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
    codes, step = np.zeros(len(flat), dtype=np.int64), 1 << 15  # a block of codes stays in cache
    for start in range(0, len(flat), step):
        block = codes[start : start + step]
        for column in flat[start : start + step].T:
            block *= base
            np.add(block, column, out=block, dtype=np.int64, casting="unsafe")  # uint64 digits too
    return codes


def orbit_labels(images: list[np.ndarray], size: int) -> np.ndarray:
    """Least row of each row's orbit, given the row permutation of each generator.

    Labels only decrease and always name a row of the same orbit.  Once
    pulling the least label across every generator changes nothing, each
    label is constant on every generator's cycles, hence on the orbit.
    Pointer jumping shortens the chains between rounds.
    """
    labels = np.arange(size)
    while True:
        updated = labels
        for image in images:
            updated = np.minimum(updated, updated[image])
        while not np.array_equal(jumped := updated[updated], updated):
            updated = jumped
        if np.array_equal(updated, labels):
            return labels
        labels = updated


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
    identity = np.arange(degree, dtype=digit_dtype(degree))[None]
    return PermGroup(degree, gens, _closure(_image_array(gens, degree), identity, cap))


def symmetric_group(degree: int) -> PermGroup:
    """All of S_degree, generated by the transposition (1 2) and the full cycle."""
    if degree > 10:
        raise ValueError("symmetric group too large to materialize")
    swap, cycle = (2, 1, *range(3, degree + 1)), (*range(2, degree + 1), 1)
    gens = tuple(map(Permutation, [swap, cycle][: degree - 1]))  # S_2: the swap alone; S_1: none
    return PermGroup(degree, gens, _all_permutations(degree))


def _image_array(perms, degree: int) -> np.ndarray:
    """0-based images of ``perms``, one row each, in ``digit_dtype(degree)``."""
    images = np.array([g.images for g in perms], dtype=np.intp).reshape(-1, degree) - 1
    return images.astype(digit_dtype(degree))


def _permutations(images: np.ndarray) -> tuple[Permutation, ...]:
    """``Permutation`` objects of rows of 0-based images."""
    return tuple(Permutation(tuple(row)) for row in (images.astype(np.intp) + 1).tolist())


def _closure(generators: np.ndarray, elements: np.ndarray, cap: int = DEFAULT_CLOSURE_CAP):
    """The group that ``generators`` generate, as sorted rows of 0-based images.

    It grows from ``elements``, the sorted rows of a subgroup (at least the
    identity), one level at a time: the last level's rows are multiplied
    on the left by every generator at once, (g a)[j] = g[a[j]], and the
    products with new codes form the next level.  A level is merged at most
    ``_CLOSURE_CHUNK`` products at a time into the sorted codes of the rows
    found so far, and ScaleCapError is raised once there are more than
    ``cap`` rows, so no more than one chunk past the cap is built.
    """
    degree = elements.shape[1]
    codes, found, frontier = row_codes(elements, degree), [elements], elements  # codes stay sorted
    step = max(1, _CLOSURE_CHUNK // max(1, len(generators)))  # frontier rows per chunk
    while len(frontier):
        level = []
        for start in range(0, len(frontier), step):
            products = generators[:, frontier[start : start + step]].reshape(-1, degree)
            product_codes, first = np.unique(row_codes(products, degree), return_index=True)
            at = np.searchsorted(codes, product_codes)
            new = codes[np.minimum(at, len(codes) - 1)] != product_codes
            if not new.any():  # always so on the last level
                continue
            codes = np.insert(codes, at[new], product_codes[new])
            level.append(products[first[new]])
            if len(codes) > cap:
                raise ScaleCapError(f"group closure exceeds cap {cap}", len(codes), "group order, at least")
        found += level
        frontier = np.concatenate(level) if level else level
    rows = np.concatenate(found)
    return rows[np.argsort(row_codes(rows, degree), kind="stable")]


def _all_permutations(degree: int) -> np.ndarray:
    """Every permutation of 0..degree-1 as one (degree!, degree) array, in lexicographic order.

    The permutations of 0..k-1 that start with f are f followed by those
    of 0..k-2 with every point >= f moved up by one, which keeps their
    order.
    """
    dtype = digit_dtype(degree)
    perms = np.zeros((1, 0), dtype=dtype)
    for k in range(1, degree + 1):
        firsts = np.repeat(np.arange(k, dtype=dtype), len(perms))
        rest = np.tile(perms, (k, 1))
        rest += rest >= firsts[:, None]
        perms = np.column_stack([firsts, rest])
    return perms


def normalizer_in_symmetric(group: PermGroup) -> PermGroup:
    """{tau in S_degree : tau G tau^-1 = G}, by one array scan over S_degree.

    All degree! relabelings tau are one array, in lexicographic order.
    Each generator g of G is conjugated by all of them at once,
    (tau g tau^-1)[j] = tau[g[tau^-1[j]]], and tau normalizes G iff every
    conjugate's code is the code of an element of G.  The normalizing tau
    are the normalizer's elements, already sorted.  It is generated by
    each of them, in that order, that lies outside the ``_closure`` of
    those before, so by at most log2 |N| of them.  The scan is exact and
    cheap for degree <= 9, which covers every supported degree n+1.
    """
    degree = group.degree
    if degree > MAX_NORMALIZER_DEGREE:
        raise ScaleCapError(
            f"degree {degree} too large for exhaustive normalizer scan",
            math.factorial(degree),
            "relabelings",
        )
    taus, members = _all_permutations(degree), row_codes(group.images, degree)
    inverses = np.argsort(taus, axis=1)
    normalizing = np.ones(len(taus), dtype=bool)
    for g in _image_array(group.generators, degree):
        conjugates = np.take_along_axis(taus, g[inverses], axis=1)
        normalizing &= np.isin(row_codes(conjugates, degree), members)
    taus = taus[normalizing]
    codes = row_codes(taus, degree)
    picked, closure = [], taus[:1]  # the identity, the least permutation
    while len(closure) < len(taus):  # the closure lies inside the normalizer
        picked.append(taus[(~np.isin(codes, row_codes(closure, degree))).argmax()])
        closure = _closure(np.array(picked), closure)
    return PermGroup(degree, _permutations(np.array(picked)), taus)
