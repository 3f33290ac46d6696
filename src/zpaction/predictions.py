"""Closed-form invariant families and counting formulas.

For each built-in symmetry group these give the invariant subgroups and
class counts directly, without enumerating the parameter space; they are
the fast large-p route and, where the exhaustive classifier is feasible,
an independent oracle against it.

Cases: the eight n = 3 symmetry groups Q1..Q8, and at n = 5 the
threefold-symmetry (D3) and Klein-four (K4) one-dimensional families.

All congruence solving is by exhaustive residue scan; at 16-bit moduli
that is instant and has no square-root edge cases.

One deliberate correction: the published closed form for the n = 3
four-cycle case lists K(s/(1-s), s) over the roots of s^2 + 2s + 2, which
is degenerate at p = 5 (a root has s = 1) and fails direct invariance
checks at p = 13.  The family actually fixed by the four-cycle is
K(s+1, s) over the same roots, equivalently K(r, r-1) with r^2 = -1; that
is what this module instantiates, and the exhaustive cross-checks in the
test suite confirm it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import ActionParams, SubgroupKey, VerificationError, key_from_named
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


@dataclass(frozen=True)
class PredictedFamily:
    """A closed-form invariant family instantiated at a specific prime."""

    case: str
    params: ActionParams
    member_names: tuple[str, ...]
    family_tag: str | None  # key_from_named family ("n3", "d3", "k4")

    def keys(self) -> list[SubgroupKey]:
        out = [key_from_named(self.params, name, self.family_tag) for name in self.member_names]
        return sorted(out)


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
        if builtin.degree == group.degree and builtin.element_set == group.element_set:
            return case
    raise ValueError(f"no predicted family matches the given group at n={n}")


def _roots(p: int, c0: int, c1: int) -> list[int]:
    """Roots of s^2 + c1 s + c0 mod p, by residue scan."""
    return [s for s in range(p) if (s * s + c1 * s + c0) % p == 0]


def _conic_points(p: int) -> list[tuple[int, int]]:
    """Solutions of r^2 + s^2 - rs = 1 mod p, by residue scan."""
    return [
        (r, s)
        for r in range(p)
        for s in range(p)
        if (r * r + s * s - r * s - 1) % p == 0
    ]


def predicted_family(case: str, p: int) -> PredictedFamily:
    """Instantiate a case at a prime, listing its members by name."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    n, _ = _CASE_GENERATORS[case]
    params = ActionParams(p, n, 2)
    h = (p - 1) // 2

    if case == "N3_Q1":
        names = [f"K({l})" for l in range(1, p)] + [f"K({h},{h})"]
        return PredictedFamily(case, params, tuple(names), "n3")
    if case == "N3_Q2":
        names = ["K(1)", f"K({p - 1})"] + [f"K({r},{p - 1 - r})" for r in range(p)]
        return PredictedFamily(case, params, tuple(names), "n3")
    if case == "N3_Q3":
        if p == 3 or p % 3 == 2:
            names = []
        else:
            names = [
                f"K({s * pow(1 - s, -1, p) % p},{s})" for s in _roots(p, 1, 1)
            ]
        return PredictedFamily(case, params, tuple(names), "n3")
    if case == "N3_Q4":
        # corrected closed form: K(s+1, s) over roots of s^2 + 2s + 2
        names = [f"K({p - 1},0)"] + [f"K({(s + 1) % p},{s})" for s in _roots(p, 2, 2)]
        return PredictedFamily(case, params, tuple(names), "n3")
    if case == "N3_Q5":
        names = [f"K({p - 1})", f"K(0,{p - 1})", f"K({p - 1},0)"]
        return PredictedFamily(case, params, tuple(names), "n3")
    if case == "N3_Q6":
        names = ["K(1)", f"K({p - 1})", f"K({h},{h})"]
        return PredictedFamily(case, params, tuple(names), "n3")
    if case == "N3_Q7":
        return PredictedFamily(case, params, (f"K({p - 1},0)",), "n3")
    if case == "N3_Q8":
        return PredictedFamily(case, params, (), "n3")

    if case == "N5_D3":
        names = [f"K({r},{s})" for r, s in _conic_points(p)]
        if p == 3 or p % 3 == 1:
            names += [f"K({l})" for l in _roots(p, 1, 1) if l]
        return PredictedFamily(case, params, tuple(names), "d3")

    # N5_K4
    if p == 2:
        return PredictedFamily(case, params, ("Kbar1", "Kbar2", "Kbar3", "Kbar4"), "k4")
    names = [
        f"K({r},{s})"
        for r in range(p)
        for s in range(p)
        if (r + s) in (h, h + p)
    ]
    names += ["K1", "K2", "K5", "K6"]
    names += [f"K3({r})" for r in range(p)]
    names += [f"K4({r})" for r in range(p)]
    return PredictedFamily(case, params, tuple(names), "k4")


def predicted_invariant_set(case: str, p: int) -> list[SubgroupKey]:
    """The invariant subgroups of a case at prime p, as sorted keys."""
    return predicted_family(case, p).keys()


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
        gamma = sum(
            1
            for r in range(2, p - 1)
            for s in range(2, r)
            if (r * r + s * s - r * s - 1) % p == 0
        )
        if gamma % 3 != 0:
            raise VerificationError(f"conic pair count {gamma} is not divisible by 3")
        return alpha + beta + gamma // 3
    if case == "N5_K4":
        return 3 if p == 2 else p + 4
    raise ValueError(f"no closed-form count for case {case!r}")
