"""Orbit and invariance computations on the subgroup parameter space.

The relabeling group S_{n+1} acts on admissible subgroups by
``(sigma, K) -> Phi_sigma(K)``, where Phi_sigma(a_j) = a_{sigma(j)}.  On
keys it only permutes the n+1 generator images: theta'(a_j) =
theta(a_{sigma^-1(j)}).  Orbits under the full group count
topologically inequivalent actions; orbits of an invariant set under the
normalizer of a permutation subgroup Q count inequivalent triples (the
action together with its extra automorphisms).

Every orbit count is checked by two independent routes; they must agree.
Orbit closure, ``orbit_partition``, follows the generators over a key
set, and a Burnside (Cauchy-Frobenius) count checks it:
* ``orbits`` at m <= 2 (``classify_orbits``): route B,
  ``count_orbits_keyless`` (module ``keyless``), a sum over GL_m(F_p) x G
  that reads no key; it costs about 0.3 ms per prime at n = 3 and does
  not grow with p.
* ``orbits`` at m >= 3 and ``classify_triples`` (``verified_orbits``):
  ``count_orbits_burnside`` over the keys, one fixed-point mask per
  conjugacy class weighted by the class size, as on a G-stable key set
  Fix(tau sigma tau^-1) = tau Fix(sigma); about 60 ms at (5, 5, 2).
* past the table, ``table --which n5-orbits``: route B against route A,
  ``count_orbits_scanned``, which takes each cycle type's fixed set from
  the invariant scan, or at m >= 3 one mask pass; (31, 5, 2): 3 s, 100 MB.
``table --which n3-orbits`` prints route B alone, which criterion 11 of
the acceptance suite checks against the table Burnside and the
published table.

Hot paths note.  Key sets are ``KeySet`` rows: orbit closure and the
table Burnside work on one sorted (N, m, n) array and build no
``SubgroupKey``; ``OrbitReport`` builds keys only when a caller reads
them.  A relabeling moves a whole array at once by one gather from its
(m, n + 1, N) ``_extended`` columns, theta and the implied image of
a_{n+1}, built once per block for every permutation.  It fixes a key iff
the moved theta' equals A theta for A = theta' restricted to theta's
pivot columns, so ``_fixed_masks`` finds fixed keys without
re-echelonizing.  Orbit closure moves the whole array by one generator
at a time: at m <= 2 it reads each moved key's rref in closed form
(``_rref_columns``), at m >= 3 it re-echelonizes in a narrow unsigned
dtype.  It finds each image's row by binary search and merges orbits by
minimum-label propagation in ``hgroup.orbit_labels``, which labels
conjugacy classes too.

The invariant keys of the whole space at m <= 2 come from a scan of the
projective vectors v of F_p^n, not from the table.  Each block of v is
moved by every generator, and the rank of span(v, g_1 v, ..., g_r v) is
read in closed form: with c the pivot of v, each image reduces against v
to w_i = g_i v - chi_i v, chi_i = (g_i v)[c], and the rank is 1 if every
w_i is 0 and 2 if they are all multiples of one.  No stack is
echelonized.  The candidates have two sources: the rank-2 planes that a
keep rule picks before they are built, and one rref walk over each common
eigenspace E_chi (its basis from the rank-1 spans) for its lines at m = 1
and its planes at m = 2.  The generators' ``_fixed_masks`` certify each
block and keep only the fixed keys.  At m >= 3 a
stable subspace need not have that form, so those keys are the mask over
the table.  ``_rref_rows`` is the one batched elimination, for the
eigenspace bases and for orbit closure at m >= 3.
"""

from __future__ import annotations

import math
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
)
from .hgroup import PermGroup, Permutation, close_group, normalizer_in_symmetric, orbit_labels
from .keyless import count_orbits_keyless

# The m <= 2 scan's cap on its projective vectors, then on its eigenspace subspaces.  At n = 5
# it admits p <= 53 (1.4-1.9 s, 0.2-0.3 us per vector, 2 vCPU) and refuses p = 59 (2.9-4.0 s).
TRIPLES_CANDIDATE_CAP = 10_000_000

# Projective vectors per block of the invariant-key scan; bounds its working memory.
_SCAN_CHUNK = 1 << 16

# Keys per block of orbit closure and of the fixed-point masks; each bounds its temporaries.
_CLOSURE_CHUNK = 1 << 16
_MASK_CHUNK = 1 << 20


class ActionOutsideSetError(ValueError):
    """The group action maps a key outside the supplied key set."""


def _product_dtype(params: ActionParams):
    """Narrowest unsigned dtype for the array products before their reduction mod p.

    Those are ``coeff @ block`` in ``_fixed_masks``, the row updates of
    ``_rref_rows``, the reductions of ``_orbit_spans`` and ``_rref_columns``
    and the column sums of ``_extended``; entries below p bound them
    all by n(p-1)^2 + p, as m <= n.
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
    def order(self) -> np.ndarray:
        """Every row, grouped by orbit: orbits in representative order, rows ascending in each."""
        return np.argsort(self.labels, kind="stable")

    @cached_property
    def orbit_rows(self) -> list[list[int]]:
        """Each orbit's rows, ascending, orbits in representative order."""
        order = self.order
        pieces = np.split(order, np.searchsorted(self.labels[order], self._roots))[1:]
        return [rows.tolist() for rows in pieces]  # the split's first piece is empty

    @cached_property
    def orbits(self) -> tuple[tuple[SubgroupKey, tuple[SubgroupKey, ...]], ...]:
        """(representative, members) per orbit, as keys."""
        keys = self.keys.keys()
        return tuple((keys[rows[0]], tuple(keys[i] for i in rows)) for rows in self.orbit_rows)

    @property
    def representatives(self) -> tuple[SubgroupKey, ...]:
        return tuple(self.representative_rows.keys())

    @property
    def representative_rows(self) -> KeySet:
        """The orbit representatives as a key set, in orbit order."""
        return KeySet(self.keys.params, self.keys.rows[self._roots])

    @property
    def sizes(self) -> list[int]:
        """Each orbit's size, in orbit order."""
        return np.bincount(self.labels, minlength=len(self.labels))[self._roots].tolist()

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
    images = _image_rows(keys, group.generators)
    return OrbitReport(keys, group, orbit_labels(images, len(keys)))


def count_orbits_burnside(keys: KeySet, group: PermGroup) -> int:
    """Burnside orbit count of a G-stable key set; must equal the partition count."""
    if group.degree != keys.params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {keys.params.n + 1}")
    representatives, sizes = zip(*group.conjugacy_classes)
    total = int(np.dot(sizes, _fixed_counts(keys.rows, keys.params, representatives)))
    if total % group.order != 0:
        raise VerificationError("Burnside sum is not divisible by the group order")
    return total // group.order


def verified_orbits(keys: KeySet, group: PermGroup) -> OrbitReport:
    """``orbit_partition`` of a G-stable key set, checked against its Burnside count.

    Raises VerificationError when the two counts differ.
    """
    return _checked(orbit_partition(keys, group), count_orbits_burnside(keys, group))


def classify_orbits(
    params: ActionParams, group: PermGroup, max_candidates: int = DEFAULT_CANDIDATE_CAP
) -> OrbitReport:
    """``orbit_partition`` of the whole parameter space, checked against a Burnside count.

    At m <= 2 the count is route B, ``count_orbits_keyless``, which reads
    no key; at m >= 3 it is ``count_orbits_burnside`` over the table.
    Raises VerificationError when the two counts differ.
    """
    keys = KeySet.full(params, max_candidates)
    if params.m > 2:
        return verified_orbits(keys, group)
    return _checked(orbit_partition(keys, group), count_orbits_keyless(params, group))


def _checked(report: OrbitReport, burnside: int) -> OrbitReport:
    if burnside != report.count:
        raise VerificationError(f"Burnside {burnside} != partition {report.count}")
    return report


def burnside_count_full(
    params: ActionParams, group: PermGroup, max_candidates: int = DEFAULT_CANDIDATE_CAP
) -> int:
    """Burnside orbit count over the whole parameter space."""
    return count_orbits_burnside(KeySet.full(params, max_candidates), group)


def count_orbits_scanned(
    params: ActionParams, group: PermGroup, max_candidates: int | None = None
) -> int:
    """Route A: Burnside over the cycle types of ``group``, each fixed set from the invariant scan.

    The whole space is S_{n+1}-stable, so Fix(sigma) depends only on
    sigma's cycle type; it is |``invariant_keys_full``(params, <sigma>)|
    for one sigma of each type, and for the identity the closed form
    sum_{s=0}^{n} (-1)^s C(n+1, s) [n-s choose m]_p, by inclusion-exclusion
    over the generators a_j in K, any n of which are independent.  At
    m <= 2 no table is built; at m >= 3 one mask pass over it counts the
    other types.  Raises VerificationError unless |G| divides the sum.
    """
    p, n, m = params.p, params.n, params.m
    types = {cycles: size for cycles, size in group.cycle_types.items() if cycles != ((1, n + 1),)}
    moved = [_permutation_of_type(cycles) for cycles in types]
    if m > 2 and moved:
        table = KeySet.full(params, max_candidates or DEFAULT_CANDIDATE_CAP)
        fixed = _fixed_counts(table.rows, params, moved).tolist()
    else:  # the scan; at m >= 3 the identity alone, which needs no table
        fixed = [len(invariant_keys_full(params, close_group([sigma], degree=n + 1), max_candidates))
                 for sigma in moved]
    total = sum((-1) ** s * math.comb(n + 1, s) * _subspace_count(p, n - s, m)
                for s in range(n + 1))
    total += sum(size * count for size, count in zip(types.values(), fixed))
    if total % group.order:
        raise VerificationError("the scanned Burnside sum is not divisible by the group order")
    return total // group.order


def _permutation_of_type(cycles: tuple[tuple[int, int], ...]) -> Permutation:
    """A permutation with the given (cycle length, cycles) pairs, on consecutive points."""
    images, start = [], 1
    for length, count in cycles:
        for _ in range(count):
            images += [*range(start + 1, start + length), start]
            start += length
    return Permutation(tuple(images))


def invariant_set(keys: KeySet, group: PermGroup) -> KeySet:
    """Keys fixed by every generator of ``group`` (hence by all of it).

    Each generator scans only the keys the earlier ones fixed.
    """
    if group.degree != keys.params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {keys.params.n + 1}")
    rows = keys.rows
    for g in group.generators:
        rows = rows[_fixed_masks(rows, keys.params, [g])[0]]
    return KeySet(keys.params, rows)


# ---------------------------------------------------------------------------
# vectorized internals over key sets


def _extended(rows: np.ndarray, params: ActionParams) -> np.ndarray:
    """The (m, n + 1, K) columns of (K, m, n) rows, in the product dtype: theta, then a_{n+1}.

    The image of a_{n+1} is (p - column sum mod p) mod p, as negation in an unsigned dtype wraps.
    Summing the middle axis adds whole columns, faster than a sum over a short last axis.
    """
    p, n = params.p, params.n
    columns = np.empty((rows.shape[1], n + 1, len(rows)), dtype=_product_dtype(params))
    columns[:, :n] = rows.transpose(1, 2, 0)
    implied = np.sum(columns[:, :n], axis=1, out=columns[:, n])
    implied %= p
    np.subtract(p, implied, out=implied)
    implied %= p
    return columns


def _moved_rows(columns: np.ndarray, sigma: Permutation) -> np.ndarray:
    """Each key's theta' under sigma, theta'(a_j) = theta(a_{sigma^-1(j)}), as (K, m, n) rows.

    A transposed view of one gather of the ``_extended`` columns; ``.transpose(1, 2, 0)`` undoes it.
    """
    inverse = np.argsort(sigma.images)[: columns.shape[1] - 1]  # sigma^-1(j) - 1 at j - 1
    return np.take(columns, inverse, axis=1).transpose(2, 0, 1)


def _fixed_masks(rows: np.ndarray, params: ActionParams, permutations) -> np.ndarray:
    """(len(permutations), K) masks of the (K, m, n) rref rows each permutation fixes.

    Each ``_MASK_CHUNK`` block builds its product-dtype rows, ``_extended``
    columns and pivots once for every permutation; see the module notes.
    """
    masks = np.empty((len(permutations), len(rows)), dtype=bool)
    for start in range(0, len(rows), _MASK_CHUNK):
        columns = _extended(rows[start : start + _MASK_CHUNK], params)
        block = columns[:, :-1].transpose(2, 0, 1)  # the rows again, in the product dtype
        pivots = (block != 0).argmax(axis=2)[:, None, :]  # first nonzero column per row (rref)
        for sigma, mask in zip(permutations, masks):
            moved = _moved_rows(columns, sigma)
            rebuilt = np.take_along_axis(moved, pivots, axis=2) @ block
            rebuilt %= params.p
            mask[start : start + len(block)] = (rebuilt == moved).all(axis=(1, 2))
            del moved, rebuilt  # before the next gather, or two permutations' temporaries peak together
    return masks


def _fixed_counts(rows: np.ndarray, params: ActionParams, permutations) -> np.ndarray:
    """How many of the (K, m, n) rref rows each permutation fixes; masks one block at a time."""
    counts = np.zeros(len(permutations), dtype=np.int64)
    for start in range(0, len(rows), _MASK_CHUNK):
        counts += _fixed_masks(rows[start : start + _MASK_CHUNK], params, permutations).sum(axis=1)
    return counts


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
    """Characters, rank and kept rref plane of each span(v, g_1 v, ..., g_r v), without elimination.

    ``vectors`` holds K rref rows v, (K, 1, n), each with its leading 1
    at a column c; ``images`` holds each generator's (K, 1, n) images
    g_i v.  Returns the (K, r) characters chi_i = (g_i v)[c], the (K,)
    ranks capped at 3 (3 stands for any rank above 2), and the (K_2, 2, n)
    rref rows, in row order, of the rank-2 spans whose v is at most 1 at
    the plane's second pivot max(c, d): v = r_1, r_1 + r_2 or r_2 of the
    plane's rref rows (r_1, r_2), so each plane comes from at most three v.

    Each image reduces against v to w_i = g_i v - chi_i v, which is 0 at
    c.  The span has rank 1 iff every w_i is 0.  Otherwise let u be the
    first nonzero w_i scaled to a leading 1 at its column d: the rank is
    2 iff every w_i - w_i[d] u is 0 (always so for that first w_i and the
    zero ones before it, so w_1 is never tested), and the plane's rref
    rows are u and v - v[d] u, ordered by pivot, built only for those v.
    The work runs on (n, K) transposes, one contiguous row of K entries
    per column, since numpy is slow on a short last axis.  Entries stay
    below p, so the products stay below p^2 and fit the product dtype.
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
    k = np.flatnonzero((ranks == 2) & (v[d, spread] <= 1))  # keep rule; v[d] = 0 if d < c
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


def _image_rows(keys: KeySet, generators) -> np.ndarray:
    """The (len(generators), K) rows of each key's image, ``_CLOSURE_CHUNK`` keys at a time.

    Each block's ``_extended`` columns are built once and gathered by
    every generator; at m <= 2 the moved rref is read in closed form
    (``_rref_columns``), at m >= 3 ``_rref_rows`` eliminates.  Blocks keep
    the temporaries small and reused: whole-table temporaries of tens of MB
    stayed resident after they were freed and raised the peak of a later
    JSON listing of the orbits.
    """
    params = keys.params
    images = np.empty((len(generators), len(keys)), dtype=np.intp)
    for start in range(0, len(keys), _CLOSURE_CHUNK):
        columns = _extended(keys.rows[start : start + _CLOSURE_CHUNK], params)
        for sigma, rows in zip(generators, images):
            moved = _moved_rows(columns, sigma)
            if params.m <= 2:
                moved = _rref_columns(moved.transpose(1, 2, 0), params).transpose(2, 0, 1)
            else:
                moved = moved.copy()  # C order, which _rref_rows runs faster on than the view
                _rref_rows(moved, params)
            try:
                rows[start : start + len(moved)] = keys.rows_of(moved)
            except KeyError:
                raise ActionOutsideSetError(
                    "the action maps a key outside the supplied set; the set is not closed under the group"
                ) from None
    return images


def _rref_columns(columns: np.ndarray, params: ActionParams) -> np.ndarray:
    """The rref of rank-m matrices, m <= 2, given and returned as (m, n, K) columns.

    At m = 1 the row is scaled by the inverse of its leading entry.  At
    m = 2, with rows r0, r1, c the first nonzero column and d the first
    column whose minor det(c, d) = r0[c] r1[d] - r1[c] r0[d] is nonzero,
    the rref rows are det^-1 (r1[d] r0 - r0[d] r1), which is 1 at c and 0
    at d, and det^-1 (det(c, j))_j, which is 0 before d and 1 at d.
    Entries stay below p, so every product stays below 2p^2 and fits the
    product dtype; the per-key factors carry it into the rows.
    """
    p = params.p
    dtype = _product_dtype(params)
    inverse = np.array(params.modulus.inverse_table, dtype=dtype)
    spread = np.arange(columns.shape[2])
    if params.m == 1:
        (row,) = columns
        row = row * inverse[row[_leading(row), spread]]
        row %= p
        return row[None]
    r0, r1 = columns
    c = _leading(r0 | r1)
    minor = r1 * r0[c, spread].astype(dtype)
    minor += r0 * (p - r1[c, spread].astype(dtype))
    minor %= p
    d = _leading(minor)
    scale = inverse[minor[d, spread]]
    first = r0 * r1[d, spread].astype(dtype)
    first += r1 * (p - r0[d, spread].astype(dtype))
    first %= p
    first *= scale
    first %= p
    minor *= scale
    minor %= p
    return np.stack([first, minor])


def _subspace_count(p: int, dim: int, m: int) -> int:
    """The Gaussian binomial [dim choose m]_p: the m-dimensional subspaces of F_p^dim."""
    return math.prod(p**dim - p**i for i in range(m)) // math.prod(p**m - p**i for i in range(m))


def check_invariant_cap(
    params: ActionParams, max_candidates: int | None = None, planes: int | None = None
) -> None:
    """Raise ScaleCapError when ``invariant_keys_full`` at ``params`` exceeds its route's cap.

    At m >= 3 that is ``theta_table``'s cap on table rows.  At m <= 2 it
    is ``TRIPLES_CANDIDATE_CAP`` on the span walk's projective vectors
    [n choose 1]_p or, once it has found the common eigenspaces, on the
    ``planes`` (lines at m = 1) sum [dim E_chi choose m]_p of their walk.
    ``max_candidates`` (None or 0: the route's cap) overrides either cap.
    """
    if params.m > 2:
        return check_candidate_cap(params, max_candidates or DEFAULT_CANDIDATE_CAP)
    estimate, unit = ((planes, "eigenspace planes") if planes is not None
                      else (_subspace_count(params.p, params.n, 1), "projective vectors"))
    if estimate > (max_candidates or TRIPLES_CANDIDATE_CAP):
        message = f"the invariant scan at (p={params.p}, n={params.n}, m={params.m}) exceeds the cap"
        raise ScaleCapError(message, estimate, unit)


def invariant_keys_full(
    params: ActionParams, group: PermGroup, max_candidates: int | None = None
) -> KeySet:
    """All keys in the parameter space fixed by ``group``, after ``check_invariant_cap``.

    At m <= 2 the candidates come in blocks from ``_stable_candidates``, a
    scan of the projective vectors that builds no table, and only the rows
    of each block that ``_fixed_masks`` certifies are kept, so memory
    follows the invariant set, not the candidates; they are sorted and
    deduplicated once at the end.  At m >= 3 the candidates are the whole
    table.  Either way ``_fixed_masks`` stays the one invariance test.
    """
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
    check_invariant_cap(params, max_candidates)
    if params.m > 2:
        return invariant_set(KeySet.full(params, max_candidates or DEFAULT_CANDIDATE_CAP), group)
    fixed = [np.empty((0, params.m, params.n), _product_dtype(params))]  # m = 1 may have no block
    fixed += (block[_fixed_masks(block, params, group.generators).all(axis=0)]  # keys repeat
              for block in _stable_candidates(params, group, max_candidates))
    return KeySet.from_rows(params, np.concatenate(fixed))


def _stable_candidates(params: ActionParams, group: PermGroup, max_candidates: int | None):
    """Blocks of admissible rref (m, n) rows that include every Q-stable row space, m <= 2.

    A relabeling moves a key's rows by one linear map of F_p^n, so a key
    is fixed by Q iff its row space W is stable under every generator.
    A stable line is spanned by a common eigenvector of the generators.
    A stable plane W either is span(v, g_1 v, ..., g_r v) of rank 2 for
    some v in W, or else every v in W is a common eigenvector, so each
    generator acts on W as a scalar and W is a plane of one common
    eigenspace E_chi, chi the tuple of those scalars.

    Two sources give the candidates.  A walk over the projective vectors
    v, ``_SCAN_CHUNK`` at a time, reads each span from ``_orbit_spans``.
    At m = 2 its kept planes are the first: a stable plane not of scalar
    type has at most two common eigenvectors as points, so one of its
    three kept v spans it.  Its rank-1 v give a basis of each E_chi, chi
    read off v's pivot entry.  The second, once the count of its
    subspaces passes the scan cap, is the rref walk over G(m, dim E_chi)
    times each basis: the lines at m = 1, the scalar-type planes at m = 2.
    Rows may repeat.
    """
    p, n, m = params.p, params.n, params.m
    dtype = _product_dtype(params)
    eigenspaces = {}
    for vectors in _rref_walk(p, 1, n, _SCAN_CHUNK):
        vectors = vectors.astype(dtype)
        columns = _extended(vectors, params)
        images = [_moved_rows(columns, g) for g in group.generators]
        characters, ranks, planes = _orbit_spans(vectors, images, params)
        if m == 2:
            yield planes[_admissible(planes, p)]
        eigen = vectors[ranks == 1, 0]
        labels, inverse = np.unique(characters[ranks == 1], axis=0, return_inverse=True)
        for label, chi in enumerate(map(tuple, labels.tolist())):
            basis = np.concatenate([eigenspaces.get(chi, eigen[:0]), eigen[inverse == label]])
            eigenspaces[chi] = basis[: _rref_rows(basis[None], params)[0]]
    count = sum(_subspace_count(p, len(basis), m) for basis in eigenspaces.values())
    check_invariant_cap(params, max_candidates, count)
    for basis in eigenspaces.values():
        for coefficients in _rref_walk(p, m, len(basis), _SCAN_CHUNK):  # none if dim E_chi < m
            rows = coefficients.astype(dtype) @ basis  # a product of rref matrices is rref
            rows %= p
            yield rows[_admissible(rows, p)]


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
    instantiates the matching closed-form m = 2 family (and re-verifies
    every member's invariance).  The classes are the orbits of the invariant
    set under the normalizer of ``group`` inside S_{n+1}; their Burnside
    count must agree with the partition, else VerificationError.  The
    exhaustive route checks its cap, then builds the normalizer, then scans.
    """
    if group.degree != params.n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {params.n + 1}")
    if mode == "exhaustive":
        check_invariant_cap(params, max_candidates)
        normalizer = normalizer_in_symmetric(group)
        invariant = invariant_keys_full(params, group, max_candidates)
    elif mode == "predicted":
        if params.m != 2:
            raise ValueError(f"the predicted families are m = 2, not m = {params.m}")
        from .predictions import family_for_group, predicted_invariant_set

        predicted = predicted_invariant_set(family_for_group(params.n, group), params.p)
        invariant = invariant_set(predicted, group)
        if invariant != predicted:
            bad = min(set(predicted.digit_strings()) - set(invariant.digit_strings()))
            raise VerificationError(f"predicted member {bad} is not invariant")
        normalizer = normalizer_in_symmetric(group)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report = verified_orbits(invariant, normalizer)  # the invariant set is normalizer-stable
    return TriplesReport(params, group, normalizer, mode, invariant, report)
