"""Closed-form invariant families and counting formulas.

For each built-in symmetry group these give the invariant subgroups and
class counts directly, without enumerating the parameter space; they are
the fast large-p route and, where the exhaustive classifier is feasible,
an independent oracle against it.

Cases: the eight n = 3 symmetry groups Q1..Q8, and at n = 5 the
threefold-symmetry (D3) and Klein-four (K4) one-dimensional families.

Every family is a list of named forms and integer parameters, stacked as
rref rows (``enumeration.named_rows``) into one ``KeySet``.  Congruences
are solved in O(p) work: the one-variable quadratics by residue scan, the
D3 conic r^2 + s^2 - rs = 1 by a square-root table, so every 16-bit prime
takes well under a second.

One deliberate correction: the published closed form for the n = 3
four-cycle case lists K(s/(1-s), s) over the roots of s^2 + 2s + 2, which
is degenerate at p = 5 (a root has s = 1) and fails direct invariance
checks at p = 13.  The family actually fixed by the four-cycle is
K(s+1, s) over the same roots, equivalently K(r, r-1) with r^2 = -1; that
is what this module instantiates, and the exhaustive cross-checks in the
test suite confirm it.
"""

from __future__ import annotations

import numpy as np

from .enumeration import ActionParams, KeySet, VerificationError, _admissible, named_key, named_rows
from .hgroup import PermGroup, close_group, parse_cycles

_CASE_GENERATORS: dict[str, tuple[int, tuple[str, ...]]] = {
    "N3_Q1": (3, ("(3 4)",)),
    "N3_Q2": (3, ("(1 2)(3 4)",)),
    "N3_Q3": (3, ("(2 3 4)",)),
    "N3_Q4": (3, ("(1 2 3 4)",)),
    "N3_Q5": (3, ("(1 2)(3 4)", "(1 4)(2 3)")),
    "N3_Q6": (3, ("(1 2)", "(3 4)")),
    "N3_Q7": (3, ("(1 2 3 4)", "(2 4)")),
    "N3_Q8": (3, ("(1 2)(3 4)", "(2 3 4)")),
    "N5_D3": (5, ("(1 2 3)(4 5 6)", "(1 4)(2 6)(3 5)")),
    "N5_K4": (5, ("(3 5)(4 6)", "(1 2)(3 4)(5 6)")),
}
CASES = tuple(_CASE_GENERATORS)
_FAMILIES = {"N5_D3": "d3", "N5_K4": "k4"}  # the NAMED_FORMS family of each case; else n3


def case_group(case: str) -> PermGroup:
    """The symmetry group a case describes, on the points 1..n+1."""
    n, gens = _CASE_GENERATORS[case]
    return close_group([parse_cycles(g, n + 1) for g in gens], degree=n + 1)


def family_for_group(n: int, group: PermGroup) -> str:
    """The case whose symmetry group equals ``group`` as an element set.

    Matching is verbatim: a conjugate of a built-in group yields a
    bijective but differently labeled classification, so it is reported
    as unknown rather than silently relabeled.
    """
    for case, (case_n, _) in _CASE_GENERATORS.items():
        if case_n != n:
            continue
        builtin = case_group(case)
        if np.array_equal(builtin.images, group.images):  # sorted rows: equal arrays, equal groups
            return case
    raise ValueError(f"no predicted family matches the given group at n={n}")


def _roots(p: int, c0: int, c1: int) -> list[int]:
    """Roots of s^2 + c1 s + c0 mod p, by residue scan."""
    return [s for s in range(p) if (s * s + c1 * s + c0) % p == 0]


def _conic_points(p: int) -> list[tuple[int, int]]:
    """Solutions of r^2 + s^2 - rs = 1 mod p, in lexicographic order.

    For odd p, s = (r +- sqrt(4 - 3r^2)) / 2, with square roots read from
    a table of x^2 mod p: O(p) work.  At p = 2 the three points are listed.
    """
    if p == 2:
        return [(0, 1), (1, 0), (1, 1)]
    roots = {x * x % p: x for x in range(p)}
    half = (p + 1) // 2
    points = []
    for r in range(p):
        root = roots.get((4 - 3 * r * r) % p)
        if root is not None:
            points += [(r, s) for s in sorted({(r - root) * half % p, (r + root) * half % p})]
    return points


def _members(case: str, p: int) -> list[tuple]:
    """The members of a case at p, each as (form, *parameters) of its ``NAMED_FORMS`` entry."""
    h = (p - 1) // 2
    if case == "N3_Q1":
        return [("K", l) for l in range(1, p)] + [("K", h, h)]
    if case == "N3_Q2":
        return [("K", 1), ("K", p - 1)] + [("K", r, p - 1 - r) for r in range(p)]
    if case == "N3_Q3":
        if p == 3 or p % 3 == 2:
            return []
        return [("K", s * pow(1 - s, -1, p) % p, s) for s in _roots(p, 1, 1)]
    if case == "N3_Q4":
        # corrected closed form: K(s+1, s) over roots of s^2 + 2s + 2
        return [("K", p - 1, 0)] + [("K", (s + 1) % p, s) for s in _roots(p, 2, 2)]
    if case == "N3_Q5":
        return [("K", p - 1), ("K", 0, p - 1), ("K", p - 1, 0)]
    if case == "N3_Q6":
        return [("K", 1), ("K", p - 1), ("K", h, h)]
    if case == "N3_Q7":
        return [("K", p - 1, 0)]
    if case == "N3_Q8":
        return []
    if case == "N5_D3":
        members = [("K", r, s) for r, s in _conic_points(p)]
        if p == 3 or p % 3 == 1:
            members += [("K", l) for l in _roots(p, 1, 1) if l]
        return members
    # N5_K4
    if p == 2:
        return [("Kbar1",), ("Kbar2",), ("Kbar3",), ("Kbar4",)]
    members = [("K", r, (h - r) % p) for r in range(p)]  # 2(r+s) + 1 = 0
    members += [("K1",), ("K2",), ("K5",), ("K6",)]
    members += [("K3", r) for r in range(p)]
    members += [("K4", r) for r in range(p)]
    return members


def predicted_invariant_set(case: str, p: int) -> KeySet:
    """The invariant subgroups of a case at prime p: its members' rows, stacked, as a key set."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    n, _ = _CASE_GENERATORS[case]
    params, family, members = ActionParams(p, n, 2), _FAMILIES.get(case, "n3"), _members(case, p)
    rows = np.array([named_rows(family, *x) for x in members], dtype=np.int64).reshape(-1, 2, n) % p
    bad = np.flatnonzero(~_admissible(rows, p))
    if len(bad):  # the first inadmissible member raises its own AdmissibilityError
        named_key(params, family, *members[bad[0]])
    return KeySet.from_rows(params, rows)


def predicted_triple_count(case: str, p: int) -> int:
    """Closed-form class count for the two n = 5 families.

    Threefold symmetry: alpha + beta + gamma/3, with alpha = 0 iff
    p = 2 mod 3 (else 1), beta = 1 at p = 2 (else 2), and gamma the
    number of pairs 2 <= s < r <= p-2 on the conic r^2 + s^2 - rs = 1.
    Klein four: 3 at p = 2, else p + 4.
    """
    ActionParams(p, 5, 2)  # rejects a non-prime p before any scan
    if case == "N5_D3":
        alpha = 0 if p % 3 == 2 else 1
        beta = 1 if p == 2 else 2
        gamma = sum(1 for r, s in _conic_points(p) if 2 <= s < r <= p - 2)
        if gamma % 3 != 0:
            raise VerificationError(f"conic pair count {gamma} is not divisible by 3")
        return alpha + beta + gamma // 3
    if case == "N5_K4":
        return 3 if p == 2 else p + 4
    raise ValueError(f"no closed-form count for case {case!r}")
