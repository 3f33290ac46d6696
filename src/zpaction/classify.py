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

The invariant keys of the whole space at m <= 2 come from a scan of the
projective vectors v of F_p^n, not from the table.  Each block of v is
moved by every generator, and the rank of span(v, g_1 v, ..., g_r v) is
read in closed form: with c the pivot of v, each image reduces against v
to w_i = g_i v - chi_i v, chi_i = (g_i v)[c], and the rank is 1 if every
w_i is 0 and 2 if they are all multiples of one.  No stack is
echelonized.  Rank-2 spans are candidate planes; rank-1 spans are common
eigenvectors, which give the candidate lines and a basis of each common
eigenspace E_chi, whose planes come from the same rref walk that builds
the table.  The ``invariant_set`` mask certifies each block of
candidates and keeps only the fixed keys.  At m >= 3 a stable subspace
need not have that form, so those keys are the mask over the table.
``_rref_rows`` stays the one batched elimination, for the eigenspace
bases and for orbit closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .enumeration import (
    DEFAULT_CANDIDATE_CAP,
    ActionParams,
    KeySet,
    ScaleCapError,
    SubgroupKey,
    VerificationError,
    _admissible,
    _rref_walk,
    check_candidate_cap,
    key_from_theta,
)
from .hgroup import PermGroup, Permutation, normalizer_in_symmetric

# The m <= 2 scan's cap in projective vectors (or eigenspace planes).  At n = 5 it admits
# p <= 53, whose runs take no longer than the p = 17 table did, and refuses p = 59.
TRIPLES_CANDIDATE_CAP = 10_000_000

# Projective vectors per block of the invariant-key scan; bounds its working memory.
_SCAN_CHUNK = 1 << 16


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

    Those are ``coeff @ block`` in ``_fixed_mask``, the row updates of
    ``_rref_rows`` and the reductions of ``_orbit_spans``; entries below p
    bound them all by n(p-1)^2 + p, as m <= n.
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


def verified_orbits(keys: KeySet, group: PermGroup) -> OrbitReport:
    """``orbit_partition`` of a G-stable key set, checked against its Burnside count.

    Raises VerificationError when the two counts differ.
    """
    report = orbit_partition(keys, group)
    burnside = count_orbits_burnside(keys, group)
    if burnside != report.count:
        raise VerificationError(f"Burnside {burnside} != partition {report.count}")
    return report


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


def _rref_rows(block: np.ndarray, params: ActionParams) -> np.ndarray:
    """Reduce every (m, n) matrix in ``block`` to rref in place; returns each one's rank.

    A matrix of rank r ends with its rref in rows 0..r-1 and zeros below.
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
    return rank


def _orbit_spans(vectors: np.ndarray, images: list[np.ndarray], params: ActionParams):
    """Characters, rank and rref plane of each span(v, g_1 v, ..., g_r v), without elimination.

    ``vectors`` holds K rref rows v, (K, 1, n), each with its leading 1
    at a column c; ``images`` holds each generator's (K, 1, n) images
    g_i v.  Returns the (K, r) characters chi_i = (g_i v)[c], the (K,)
    ranks capped at 3 (3 stands for any rank above 2), and the (K_2, 2, n)
    rref rows of the rank-2 spans, in row order.

    Each image reduces against v to w_i = g_i v - chi_i v, which is 0 at
    c.  The span has rank 1 iff every w_i is 0.  Otherwise let u be the
    first nonzero w_i scaled to a leading 1 at its column d: the rank is
    2 iff every w_i - w_i[d] u is 0 (always so for that first w_i and the
    zero ones before it, so w_1 is never tested), and the plane's rref
    rows are u and v - v[d] u, ordered by pivot.  The work runs on (n, K)
    transposes, one contiguous row of K entries per column, since numpy
    is slow on a short last axis.  Entries stay below p, so the products
    stay below p^2 and fit the product dtype.
    """
    p = params.p
    count = len(vectors)
    ranks = np.ones(count, dtype=np.intp)
    if not images:
        return vectors[:, 0, :0], ranks, vectors[:0].repeat(2, axis=1)
    spread = np.arange(count)
    v = np.ascontiguousarray(vectors[:, 0].T)
    pivots = _leading(v)
    characters = np.empty((count, len(images)), dtype=vectors.dtype)
    reduced, nonzero = [], []
    for i, image in enumerate(images):
        w = image[:, 0].T.copy()  # C order; a K = 1 transpose would be a view of the image
        characters[:, i] = chi = w[pivots, spread]
        w += (p - chi) * v
        w %= p
        reduced.append(w)
        nonzero.append(_nonzero_columns(w))
    u = reduced[-1]
    for w, found in zip(reduced[-2::-1], nonzero[-2::-1]):
        u = np.where(found, w, u)
    d = _leading(u)
    inverse = np.array(params.modulus.inverse_table, dtype=u.dtype)
    u = u * inverse[u[d, spread]]
    u %= p
    outside = np.zeros(count, dtype=bool)
    for w in reduced[1:]:
        residue = w + (p - w[d, spread]) * u
        residue %= p
        outside |= _nonzero_columns(residue)
    spanned = np.logical_or.reduce(nonzero)
    ranks[spanned] = np.where(outside[spanned], 3, 2)
    k = np.flatnonzero(ranks == 2)
    u, d, v = np.take(u, k, axis=1), d[k], np.take(v, k, axis=1)  # take beats fancy indexing here
    rest = v + (p - v[d, np.arange(len(k))]) * u
    rest %= p
    v_first = pivots[k] < d
    planes = np.stack([np.where(v_first, rest, u), np.where(v_first, u, rest)])
    return characters, ranks, np.ascontiguousarray(planes.transpose(2, 0, 1))


def _leading(columns: np.ndarray) -> np.ndarray:
    """Row of the first nonzero entry in each column of an (n, K) array; 0 for a zero column."""
    lead = np.zeros(columns.shape[1], dtype=np.intp)
    for j in range(len(columns) - 1, -1, -1):  # the least row is written last
        lead[columns[j] != 0] = j
    return lead


def _nonzero_columns(columns: np.ndarray) -> np.ndarray:
    """Mask of the nonzero columns of an (n, K) array, reduced one row at a time."""
    found = columns[0] != 0
    for row in columns[1:]:
        found |= row != 0
    return found


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


def _projective_count(p: int, dim: int) -> int:
    return (p**dim - 1) // (p - 1)


def check_invariant_cap(
    params: ActionParams, max_candidates: int | None = None, planes: int | None = None
) -> None:
    """Raise ScaleCapError when ``invariant_keys_full`` at ``params`` exceeds its route's cap.

    At m >= 3 that is ``theta_table``'s cap on table rows.  At m <= 2 it
    is ``TRIPLES_CANDIDATE_CAP`` on the scan's projective vectors of F_p^n
    or, once the scan has counted them, its eigenspace ``planes``.
    ``max_candidates`` (None or 0: the route's cap) overrides either cap.
    """
    if params.m > 2:
        return check_candidate_cap(params, max_candidates or DEFAULT_CANDIDATE_CAP)
    estimate, unit = ((planes, "eigenspace planes") if planes is not None
                      else (_projective_count(params.p, params.n), "projective vectors"))
    if estimate > (max_candidates or TRIPLES_CANDIDATE_CAP):
        message = f"the invariant scan at (p={params.p}, n={params.n}, m={params.m}) exceeds the cap"
        raise ScaleCapError(message, estimate, unit)


def invariant_keys_full(
    params: ActionParams, group: PermGroup, max_candidates: int | None = None
) -> KeySet:
    """All keys in the parameter space fixed by ``group``, after ``check_invariant_cap``.

    At m <= 2 the candidates come in blocks from ``_stable_candidates``, a
    scan of the projective vectors that builds no table, and only the keys
    of each block that ``invariant_set`` certifies are kept, so memory
    follows the invariant set, not the candidates; at m >= 3 the
    candidates are the whole table.  Either way ``invariant_set`` stays
    the one invariance test.
    """
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
    check_invariant_cap(params, max_candidates)
    if params.m > 2:
        return invariant_set(KeySet.full(params, max_candidates or DEFAULT_CANDIDATE_CAP), group)
    fixed = [invariant_set(KeySet.from_rows(params, block), group).rows
             for block in _stable_candidates(params, group, max_candidates)]
    return KeySet.from_rows(params, np.concatenate(fixed))  # each key comes at most three times


def _stable_candidates(params: ActionParams, group: PermGroup, max_candidates: int | None):
    """Blocks of admissible rref (m, n) rows that include every Q-stable row space, m <= 2.

    A relabeling moves a key's rows by one linear map of F_p^n, so a key
    is fixed by Q iff its row space W is stable under every generator.
    A stable line is spanned by a common eigenvector v of the generators.
    A stable plane W either is span(v, g_1 v, ..., g_r v) of rank 2 for
    some v in W, or else every v in W is a common eigenvector, so each
    generator acts on W as a scalar and W is a plane of one common
    eigenspace E_chi, chi the tuple of those scalars.

    One walk over the projective vectors v, ``_SCAN_CHUNK`` at a time,
    moves v by every generator and reads the rank of span(v, g_1 v, ...,
    g_r v) and, at rank 2, its rref rows from ``_orbit_spans``, which
    reduces each image against v instead of echelonizing the stack.
    Rank 1 marks a common eigenvector: a candidate line, and a vector of
    E_chi for chi read off v's pivot entry.  Rank 2 gives a candidate
    plane W with rref rows (r_1, r_2), kept only from v = r_1, r_1 + r_2
    or r_2 (v's entry at r_2's pivot is at most 1): unless W is of scalar
    type, at most two points of W are common eigenvectors, so one of the
    three spans W.
    At m = 2 the planes of each E_chi come from the rref walk over
    G(2, dim E_chi) times a basis of E_chi, once their count passes the
    scan cap.  Rows may repeat.
    """
    p, n, m = params.p, params.n, params.m
    dtype = _product_dtype(params)
    eigenspaces = {}
    for vectors in _rref_walk(p, 1, n, _SCAN_CHUNK):
        vectors = vectors.astype(dtype)
        images = [_moved_rows(vectors, g, params) for g in group.generators]
        characters, ranks, planes = _orbit_spans(vectors, images, params)
        eigen = vectors[ranks == 1]
        if m == 1:
            yield eigen[_admissible(eigen, p)]
            continue
        spanning = vectors[ranks == 2, 0]
        second_pivots = (planes[:, 1] != 0).argmax(axis=1)
        planes = planes[spanning[np.arange(len(planes)), second_pivots] <= 1]
        yield planes[_admissible(planes, p)]
        labels, inverse = np.unique(characters[ranks == 1], axis=0, return_inverse=True)
        for label, chi in enumerate(map(tuple, labels.tolist())):
            basis = np.concatenate([eigenspaces.get(chi, eigen[:0, 0]), eigen[inverse == label, 0]])
            eigenspaces[chi] = basis[: _rref_rows(basis[None], params)[0]]
    plane_count = sum(_projective_count(p, len(b)) * _projective_count(p, len(b) - 1) // (p + 1)
                      for b in eigenspaces.values())  # [dim E_chi choose 2]_p each
    check_invariant_cap(params, max_candidates, plane_count)
    for basis in eigenspaces.values():
        for coefficients in _rref_walk(p, 2, len(basis), _SCAN_CHUNK):  # none if dim < 2
            planes = coefficients.astype(dtype) @ basis  # a product of rref matrices is rref
            planes %= p
            yield planes[_admissible(planes, p)]


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
    max_candidates: int | None = None,
) -> TriplesReport:
    """Count topological classes of actions admitting the symmetry ``group``.

    ``exhaustive`` finds every invariant subgroup of the parameter space
    with ``invariant_keys_full`` (at m <= 2 a projective-vector scan, at
    m >= 3 the table, each certified by the invariance mask); ``predicted``
    instantiates the matching closed-form family (and re-verifies every
    member's invariance).  The classes are the orbits of the invariant set
    under the normalizer of ``group`` inside S_{n+1}; their Burnside count
    must agree with the partition, else VerificationError.  The exhaustive
    route checks its cap before the normalizer is built.
    """
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
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
    normalizer = normalizer_in_symmetric(group)
    report = verified_orbits(invariant, normalizer)  # the invariant set is normalizer-stable
    return TriplesReport(params, group, normalizer, mode, invariant, report)
