"""Orbit and invariance computations on the subgroup parameter space.

The relabeling group S_{n+1} acts on admissible subgroups by
``(sigma, K) -> Phi_sigma(K)``, where Phi_sigma(a_j) = a_{sigma(j)}.  On
keys it only permutes the n+1 generator images: theta'(a_j) =
theta(a_{sigma^-1(j)}).  Orbits under the full group count
topologically inequivalent actions; orbits of an invariant set under the
normalizer of a permutation subgroup Q count inequivalent triples (the
action together with its extra automorphisms).

Two counting routes are kept independent; they must agree.  Orbit
closure follows the generators.  The Burnside (Cauchy-Frobenius) count
averages fixed-point counts over the group; on a G-stable key set
Fix(tau sigma tau^-1) = tau Fix(sigma), so it takes one fixed-point count
per conjugacy class, weighted by the class size.

Hot paths note.  Key sets are ``KeySet`` rows: both routes work on one
sorted (N, m, n) array and build no ``SubgroupKey``; ``OrbitReport``
builds keys only when a caller reads them.  A relabeling moves a whole
array at once by gathering columns, the implied image of a_{n+1} filled
in where it lands.  It fixes a key iff the moved theta' equals A theta for
A = theta' restricted to theta's pivot columns, so fixed keys are found
without re-echelonizing.  Orbit closure moves the whole array by one
generator at a time, re-echelonizes it in a narrow unsigned dtype, finds
each image's row by binary search, and merges orbits by minimum-label
propagation.  ``act`` is the per-key pure-Python action the tests check
these against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .enumeration import (
    DEFAULT_CANDIDATE_CAP,
    ActionParams,
    KeySet,
    SubgroupKey,
    VerificationError,
    key_from_theta,
)
from .hgroup import PermGroup, Permutation, normalizer_in_symmetric

# Exhaustive triples runs are capped near the p = 17, n = 5 scale; beyond
# that the predicted families are the intended route.
TRIPLES_CANDIDATE_CAP = 250_000_000


class ActionOutsideSetError(ValueError):
    """The group action maps a key outside the supplied key set."""


def act(sigma: Permutation, key: SubgroupKey) -> SubgroupKey:
    """The key of Phi_sigma(K); always admissible again.

    Phi_sigma(a_j) = a_{sigma(j)} only permutes the n+1 generator images:
    the new quotient sends a_j to theta(a_{sigma^-1(j)}).
    """
    n = key.params.n
    if sigma.degree != n + 1:
        raise ValueError(f"permutation degree {sigma.degree} != n+1 = {n + 1}")
    inverse = sigma.inverse()
    return key_from_theta(key.params, zip(*(key.images[inverse(j) - 1] for j in range(1, n + 1))))


def _product_dtype(params: ActionParams):
    """Narrowest unsigned dtype for the array products before their reduction mod p.

    Those are ``coeff @ block`` in ``_fixed_mask`` and the row updates of
    ``_rref_rows``; entries below p bound both by n(p-1)^2 + p, as m <= n.
    """
    bound = params.n * (params.p - 1) ** 2 + params.p
    return np.uint16 if bound < 1 << 16 else np.uint32 if bound < 1 << 32 else np.uint64


@dataclass(frozen=True, eq=False)
class OrbitReport:
    """A key set's orbits: ``labels[i]`` is the least row, and representative, of row i's orbit."""

    keys: KeySet
    group: PermGroup
    labels: np.ndarray

    @cached_property
    def _roots(self) -> np.ndarray:
        return np.flatnonzero(self.labels == np.arange(len(self.labels)))

    @property
    def count(self) -> int:
        return len(self._roots)

    @cached_property
    def orbit_rows(self) -> list[list[int]]:
        """Each orbit's rows, ascending, orbits in representative order."""
        order = np.argsort(self.labels, kind="stable")
        pieces = np.split(order, np.searchsorted(self.labels[order], self._roots))[1:]
        return [rows.tolist() for rows in pieces]  # the split's first piece is empty

    @cached_property
    def orbits(self) -> tuple[tuple[SubgroupKey, tuple[SubgroupKey, ...]], ...]:
        """(representative, members) per orbit, as keys."""
        keys = self.keys.keys()
        return tuple((keys[rows[0]], tuple(keys[i] for i in rows)) for rows in self.orbit_rows)

    @property
    def representatives(self) -> tuple[SubgroupKey, ...]:
        return tuple(KeySet(self.keys.params, self.keys.rows[self._roots]).keys())

    def orbit_of(self, key: SubgroupKey) -> int:
        """Index of the orbit containing ``key``; raises KeyError if absent."""
        if key.params != self.keys.params:
            raise KeyError(key)
        (row,) = self.keys.rows_of(np.array([key.theta.entries]))
        return int(np.searchsorted(self._roots, self.labels[row]))


def orbit_partition(keys: KeySet, group: PermGroup) -> OrbitReport:
    """Partition ``keys`` into orbits under the generators of ``group``.

    Deterministic: orbit representatives are the lexicographically least
    members, orbits are sorted by representative.  Raises
    ActionOutsideSetError if a generator maps a key out of the set.
    """
    if group.degree != keys.params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {keys.params.n + 1}")
    images = [_image_rows(keys, g) for g in group.generators]
    return OrbitReport(keys, group, _orbit_labels(images, len(keys)))


def count_orbits_burnside(keys: KeySet, group: PermGroup) -> int:
    """Burnside orbit count of a G-stable key set; must equal the partition count."""
    if group.degree != keys.params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {keys.params.n + 1}")
    classes = group.conjugacy_classes
    total = sum(size * int(_fixed_mask(keys, sigma).sum()) for sigma, size in classes)
    if total % group.order != 0:
        raise VerificationError("Burnside sum is not divisible by the group order")
    return total // group.order


def burnside_count_full(
    params: ActionParams, group: PermGroup, max_candidates: int = DEFAULT_CANDIDATE_CAP
) -> int:
    """Burnside orbit count over the whole parameter space."""
    return count_orbits_burnside(KeySet.full(params, max_candidates), group)


def invariant_set(keys: KeySet, group: PermGroup) -> KeySet:
    """Keys fixed by every generator of ``group`` (hence by all of it).

    Each generator scans only the keys the earlier ones fixed.
    """
    if group.degree != keys.params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {keys.params.n + 1}")
    for g in group.generators:
        keys = KeySet(keys.params, keys.rows[_fixed_mask(keys, g)])
    return keys


# ---------------------------------------------------------------------------
# vectorized internals over key sets


def _moved_rows(rows: np.ndarray, sigma: Permutation, params: ActionParams) -> np.ndarray:
    """Each key's theta' under sigma, theta'(a_j) = theta(a_{sigma^-1(j)}), in the product dtype.

    Column j - 1 gathers column sigma^-1(j) - 1 of theta.  The column that
    receives a_{n+1}, which theta lacks, is filled with its implied image
    (p - column sum mod p) mod p: negating the sum in an unsigned dtype
    would wrap, not reduce mod p.
    """
    p, n = params.p, params.n
    rows = rows.astype(_product_dtype(params), copy=False)
    inverse = sigma.inverse()
    # The slot of a_{n+1} takes column n - 1 until it is filled below.  np.take copies in
    # C order, which the later steps run faster on than a fancy-index copy.
    moved = np.take(rows, [min(inverse(j), n) - 1 for j in range(1, n + 1)], axis=2)
    if sigma(n + 1) <= n:
        implied = np.zeros(rows.shape[:2], rows.dtype)
        for column in range(n):  # whole-column adds beat a sum over the short last axis
            implied += rows[:, :, column]
        implied %= p
        np.subtract(p, implied, out=implied)
        implied %= p
        moved[:, :, sigma(n + 1) - 1] = implied
    return moved


def _fixed_mask(keys: KeySet, sigma: Permutation) -> np.ndarray:
    """Boolean mask of keys fixed by sigma, no echelonization needed."""
    p = keys.params.p
    mask = np.empty(len(keys), dtype=bool)
    chunk = 1 << 20
    for start in range(0, len(keys), chunk):
        block = keys.rows[start : start + chunk].astype(_product_dtype(keys.params))
        moved = _moved_rows(block, sigma, keys.params)
        pivots = (block != 0).argmax(axis=2)[:, None, :]  # first nonzero column per row (rref)
        rebuilt = np.take_along_axis(moved, pivots, axis=2) @ block
        rebuilt %= p
        mask[start : start + len(block)] = (rebuilt == moved).all(axis=(1, 2))
    return mask


def _rref_rows(block: np.ndarray, params: ActionParams) -> None:
    """Reduce every (m, n) matrix in ``block`` to rref in place; each has rank m.

    Entries stay below p between steps, so the products stay below p^2
    and fit the product dtype.
    """
    p = params.p
    inverse = np.array(params.modulus.inverse_table, dtype=block.dtype)
    count, m, n = block.shape
    rank = np.zeros(count, dtype=np.intp)
    row_ids = np.arange(m)
    for j in range(n):
        candidates = (block[:, :, j] != 0) & (row_ids >= rank[:, None])
        k = np.flatnonzero(candidates.any(axis=1))
        r, i = rank[k], candidates[k].argmax(axis=1)
        pivot_rows = block[k, i] * inverse[block[k, i, j]][:, None] % p
        block[k, i] = block[k, r]  # row r swaps down; row r itself is replaced below
        factors = (p - block[k, :, j]) % p
        reduced = block[k] + factors[:, :, None] * pivot_rows[:, None, :]
        reduced %= p
        reduced[np.arange(len(k)), r] = pivot_rows
        block[k] = reduced
        rank[k] += 1


def _image_rows(keys: KeySet, sigma: Permutation) -> np.ndarray:
    """Row of each key's image under sigma."""
    moved = _moved_rows(keys.rows, sigma, keys.params)
    _rref_rows(moved, keys.params)
    try:
        return keys.rows_of(moved)
    except KeyError:
        raise ActionOutsideSetError(
            "the action maps a key outside the supplied set; the set is not closed under the group"
        ) from None


def _orbit_labels(images: list[np.ndarray], size: int) -> np.ndarray:
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


def invariant_keys_full(
    params: ActionParams, group: PermGroup, max_candidates: int = TRIPLES_CANDIDATE_CAP
) -> KeySet:
    """All keys in the parameter space fixed by ``group``."""
    return invariant_set(KeySet.full(params, max_candidates), group)


# ---------------------------------------------------------------------------
# triples


@dataclass(frozen=True)
class TriplesReport:
    """Classification of triples: invariant set, normalizer, orbit report."""

    params: ActionParams
    group: PermGroup
    normalizer: PermGroup
    mode: str
    invariant: KeySet
    report: OrbitReport

    @property
    def count(self) -> int:
        return self.report.count


def classify_triples(
    params: ActionParams,
    group: PermGroup,
    mode: str = "exhaustive",
    max_candidates: int = TRIPLES_CANDIDATE_CAP,
) -> TriplesReport:
    """Count topological classes of actions admitting the symmetry ``group``.

    ``exhaustive`` enumerates the whole parameter space and filters the
    invariant subgroups; ``predicted`` instantiates the matching
    closed-form family (and re-verifies every member's invariance).  The
    classes are the orbits of the invariant set under the normalizer of
    ``group`` inside S_{n+1}; their Burnside count must agree with the
    partition, else VerificationError.
    """
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
    normalizer = normalizer_in_symmetric(group)
    if mode == "exhaustive":
        invariant = invariant_keys_full(params, group, max_candidates)
    elif mode == "predicted":
        from .predictions import family_for_group, predicted_invariant_set

        case = family_for_group(params.n, group)
        predicted = KeySet.of(params, predicted_invariant_set(case, params.p))
        invariant = invariant_set(predicted, group)
        if invariant != predicted:
            bad = min(set(predicted.digit_strings()) - set(invariant.digit_strings()))
            raise VerificationError(f"predicted member {bad} is not invariant")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report = orbit_partition(invariant, normalizer)
    burnside = count_orbits_burnside(invariant, normalizer)  # the invariant set is normalizer-stable
    if burnside != report.count:
        raise VerificationError(f"Burnside {burnside} != partition {report.count}")
    return TriplesReport(params, group, normalizer, mode, invariant, report)
