"""Orbit and invariance computations on the subgroup parameter space.

The relabeling group S_{n+1} acts on admissible subgroups by
``(sigma, K) -> Phi_sigma(K)``; on canonical keys this is
``rref(theta . M_sigma^{-1})``.  Orbits under the full group count
topologically inequivalent actions; orbits of an invariant set under the
normalizer of a permutation subgroup Q count inequivalent triples (the
action together with its extra automorphisms).

Two counting routes are kept independent; they must agree.  Orbit
closure follows the generators.  The Burnside (Cauchy-Frobenius) count
averages fixed-point counts over the group; on a G-stable key set
Fix(tau sigma tau^-1) = tau Fix(sigma), so it takes one fixed-point count
per conjugacy class, weighted by the class size.

Hot paths note.  Both routes work on the keys as one (N, m, n) array.
Keys fixed by a relabeling are detected without re-echelonizing:
theta' = theta M^{-1} has the same row space as theta iff theta' equals
A theta for A = theta' restricted to theta's pivot columns.  That check
vectorizes over the whole enumeration table, which is what makes
exhaustive n = 5 runs cheap.  Orbit closure moves the whole array by one
generator at a time (a product and a batched rref in a narrow unsigned
dtype), finds each image's row by binary search in the sorted array, and
merges orbits by minimum-label propagation.  ``act`` is the per-key
pure-Python action the tests check these against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .enumeration import (
    DEFAULT_CANDIDATE_CAP,
    ActionParams,
    SubgroupKey,
    VerificationError,
    _dtype_for,
    _key_from_row,
    theta_table,
    transform_key,
)
from .hgroup import PermGroup, Permutation, normalizer_in_symmetric, perm_to_matrix

# Exhaustive triples runs are capped near the p = 17, n = 5 scale; beyond
# that the predicted families are the intended route.
TRIPLES_CANDIDATE_CAP = 250_000_000


class ActionOutsideSetError(ValueError):
    """The group action maps a key outside the supplied key set."""


def act(sigma: Permutation, key: SubgroupKey) -> SubgroupKey:
    """The key of Phi_sigma(K); always admissible again."""
    return transform_key(key, sigma)


@lru_cache(maxsize=256)
def _inverse_action(sigma: Permutation, params: ActionParams) -> np.ndarray:
    """M_sigma^{-1} as a read-only int64 array."""
    entries = perm_to_matrix(sigma.inverse(), params.modulus, params.n).entries
    minv = np.array(entries, dtype=np.int64)
    minv.setflags(write=False)
    return minv


@dataclass(frozen=True)
class OrbitReport:
    """A partition of a key set into orbits, with canonical representatives."""

    params: ActionParams
    group: PermGroup
    orbits: tuple[tuple[SubgroupKey, tuple[SubgroupKey, ...]], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    @property
    def representatives(self) -> tuple[SubgroupKey, ...]:
        return tuple(rep for rep, _ in self.orbits)

    def orbit_of(self, key: SubgroupKey) -> int:
        """Index of the orbit containing ``key``; raises KeyError if absent."""
        for i, (_, members) in enumerate(self.orbits):
            if key in members:
                return i
        raise KeyError(key)


def _distinct_keys(keys) -> tuple[list[SubgroupKey], ActionParams | None, np.ndarray | None]:
    """The distinct keys sorted by digits, their shared params and their (N, m, n) array."""
    keys = list(keys)
    if not keys:
        return [], None, None
    params = {k.params for k in keys}
    if len(params) != 1:
        raise ValueError("keys must share a single parameter set")
    params = params.pop()
    table = _keys_to_array(keys, params)
    _, first = np.unique(_row_codes(table), return_index=True)
    return [keys[i] for i in first.tolist()], params, table[first]


def orbit_partition(keys, group: PermGroup) -> OrbitReport:
    """Partition ``keys`` into orbits under the generators of ``group``.

    Deterministic: orbit representatives are the lexicographically least
    members, orbits are sorted by representative.  Raises
    ActionOutsideSetError if a generator maps a key out of the set.
    """
    keys, params, table = _distinct_keys(keys)
    if not keys:
        raise ValueError("cannot partition an empty key set without parameters")
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
    codes = _row_codes(table)
    images = [_image_rows(table, codes, g, params) for g in group.generators]
    labels = _orbit_labels(images, len(keys))
    orbits: dict[int, list[SubgroupKey]] = {}
    for key, label in zip(keys, labels.tolist()):
        orbits.setdefault(label, []).append(key)
    ordered = sorted(orbits.items())  # by least member's row: the lexicographic order
    return OrbitReport(params, group, tuple((members[0], tuple(members)) for _, members in ordered))


def count_orbits_burnside(keys, group: PermGroup) -> int:
    """Burnside orbit count of a G-stable key set; must equal the partition count."""
    keys, params, table = _distinct_keys(keys)
    if not keys:
        return 0
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
    return _burnside(table, group, params)


def burnside_count_full(
    params: ActionParams, group: PermGroup, max_candidates: int = DEFAULT_CANDIDATE_CAP
) -> int:
    """Burnside orbit count over the whole parameter space."""
    return _burnside(theta_table(params, max_candidates), group, params)


def invariant_set(keys, group: PermGroup) -> list[SubgroupKey]:
    """Keys fixed by every generator of ``group`` (hence by all of it)."""
    keys, params, table = _distinct_keys(keys)
    if not keys:
        return []
    mask = _invariant_mask(table, group, params)
    return [key for key, fixed in zip(keys, mask.tolist()) if fixed]


# ---------------------------------------------------------------------------
# vectorized internals over key tables


def _keys_to_array(keys, params: ActionParams) -> np.ndarray:
    arr = np.array([k.digits for k in keys], dtype=_dtype_for(params.p))
    return arr.reshape(len(keys), params.m, params.n)


def _fixed_mask(table: np.ndarray, sigma: Permutation, params: ActionParams) -> np.ndarray:
    """Boolean mask of keys fixed by sigma, no echelonization needed."""
    p = params.p
    minv = _inverse_action(sigma, params)
    n_keys = len(table)
    mask = np.empty(n_keys, dtype=bool)
    chunk = 1 << 20
    for start in range(0, n_keys, chunk):
        block = np.asarray(table[start : start + chunk], dtype=np.int64)
        moved = np.matmul(block, minv) % p
        pivots = (block != 0).argmax(axis=2)  # first nonzero column per row (rref)
        m = params.m
        idx = np.broadcast_to(pivots[:, None, :], (len(block), m, m))
        coeff = np.take_along_axis(moved, idx, axis=2)
        rebuilt = np.matmul(coeff, block) % p
        mask[start : start + len(block)] = (rebuilt == moved).all(axis=(1, 2))
    return mask


def _invariant_mask(table: np.ndarray, group: PermGroup, params: ActionParams) -> np.ndarray:
    mask = np.ones(len(table), dtype=bool)
    for g in group.generators:
        mask &= _fixed_mask(table, g, params)
    return mask


def _burnside(table: np.ndarray, group: PermGroup, params: ActionParams) -> int:
    """(1/|G|) sum over G of fixed keys, for a G-stable table: one mask per class."""
    classes = group.conjugacy_classes
    total = sum(size * int(_fixed_mask(table, sigma, params).sum()) for sigma, size in classes)
    if total % group.order != 0:
        raise VerificationError("Burnside sum is not divisible by the group order")
    return total // group.order


def _rref_rows(block: np.ndarray, params: ActionParams) -> None:
    """Reduce every (m, n) matrix in ``block`` to rref in place; each has rank m.

    Entries stay below p between steps, so the products stay below p^2
    and fit any dtype that holds theta . M^-1 before its reduction.
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


def _row_codes(table: np.ndarray) -> np.ndarray:
    """One opaque scalar per key that sorts like the key's digits.

    Big-endian 16-bit digits compared bytewise order the same as the
    digit tuples, for every p < 2^16 and any m, n.
    """
    flat = np.ascontiguousarray(table.reshape(len(table), -1), dtype=">u2")
    return flat.view(np.dtype((np.void, 2 * flat.shape[1]))).ravel()


def _image_rows(
    table: np.ndarray, codes: np.ndarray, sigma: Permutation, params: ActionParams
) -> np.ndarray:
    """Row of each key's image under sigma, in a table sorted by ``codes``."""
    bound = params.n * (params.p - 1) ** 2 + params.p  # theta . M^-1 before reduction mod p
    dtype = np.uint16 if bound < 1 << 16 else np.uint32 if bound < 1 << 32 else np.uint64
    moved = np.matmul(table.astype(dtype), _inverse_action(sigma, params).astype(dtype))
    moved %= params.p
    _rref_rows(moved, params)
    images = _row_codes(moved)
    rows = np.minimum(np.searchsorted(codes, images), len(codes) - 1)
    if not (codes[rows] == images).all():
        raise ActionOutsideSetError(
            "the action maps a key outside the supplied set; the set is not closed under the group"
        )
    return rows


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
) -> list[SubgroupKey]:
    """All keys in the parameter space fixed by ``group`` (array path)."""
    table = theta_table(params, max_candidates)
    return [_key_from_row(params, row) for row in table[_invariant_mask(table, group, params)]]


# ---------------------------------------------------------------------------
# triples


@dataclass(frozen=True)
class TriplesReport:
    """Classification of triples: invariant set, normalizer, orbit report."""

    params: ActionParams
    group: PermGroup
    normalizer: PermGroup
    mode: str
    invariant: tuple[SubgroupKey, ...]
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
    ``group`` inside S_{n+1}.
    """
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
    normalizer = normalizer_in_symmetric(group)
    if mode == "exhaustive":
        invariant = invariant_keys_full(params, group, max_candidates)
    elif mode == "predicted":
        from .predictions import family_for_group, predicted_invariant_set

        case = family_for_group(params.n, group)
        invariant = predicted_invariant_set(case, params.p)
        if invariant:
            fixed = _invariant_mask(_keys_to_array(invariant, params), group, params)
            if not fixed.all():
                bad = invariant[int(np.argmin(fixed))]
                raise VerificationError(f"predicted member {bad} is not invariant")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if invariant:
        report = orbit_partition(invariant, normalizer)
    else:
        report = OrbitReport(params, normalizer, ())
    return TriplesReport(params, group, normalizer, mode, tuple(sorted(invariant)), report)
