"""Route B: a relabeling group's orbit count on the whole parameter space at m <= 2, from no key.

``count_orbits_keyless`` reads only the cycle types of the group and the
conjugacy classes of GL_m(F_p), so it shares no code with the routes over
key sets; ``classify`` re-exports it and checks the orbit partition of the
table against it.
"""

from __future__ import annotations

import math

from .enumeration import ActionParams, VerificationError
from .hgroup import PermGroup


def count_orbits_keyless(params: ActionParams, group: PermGroup) -> int:
    """Route B: the orbit count of ``group`` on the whole parameter space at m <= 2, without keys.

    A key is a GL_m(F_p)-orbit of tuples (v_1, ..., v_{n+1}) of nonzero
    vectors of V = F_p^m that sum to 0 and span V, and GL_m acts freely on
    them, so the orbits of G on keys are those of GL_m x G on tuples.
    Cauchy-Frobenius counts them: (A, sigma) fixes a tuple iff
    v_{sigma(j)} = A v_j, which leaves one free nonzero u per c-cycle of
    sigma, in U_c = ker(A^c - I), adding S_c u to the sum, S_c = I + A +
    ... + A^{c-1}.  The fixed tuples that span V are those in V less those
    in each A-stable line (``_zero_sum_count`` counts each).  The count
    depends only on sigma's cycle type and on A's conjugacy class type
    (scalar, split, Jordan or elliptic at m = 2, scalar at m = 1) through
    the orders of its eigenvalues, which matter only up to n + 1: an
    eigenvalue of larger order leaves some U_c zero, or every u in the
    other eigenline, and then no fixed tuple spans.  So the work does not
    grow with p.  Raises VerificationError unless p^m |GL_m| |G| divides
    the scaled sum.
    """
    p, n, m = params.p, params.n, params.m
    if m > 2:
        raise ValueError(f"the keyless count covers m <= 2, not m = {m}")
    if group.degree != n + 1:
        raise ValueError(f"group degree {group.degree} != n+1 = {n + 1}")
    # eigenvalue order d <= n + 1 -> the elements of F_p^* of that order
    orders = {d: _totient(d) for d in range(1, n + 2) if (p - 1) % d == 0}
    classes = _gl2_classes(p, n, orders) if m == 2 else []
    total = 0
    for cycles, size in group.cycle_types.items():
        lengths = sum(1 << c for c, _ in cycles)
        lines = {d: _zero_sum_count(p, 1, [(*_eigenline(p, d, c), k) for c, k in cycles])
                 for d in orders}  # p times the fixed tuples in an eigenline of eigenvalue order d
        if m == 1:  # V is the eigenline of the scalar
            total += size * sum(count * lines[d] for d, count in orders.items())
            continue
        for weight, space, nonzero, eigenlines in classes:
            if lengths & ~nonzero:  # some U_c = 0, so no tuple is fixed
                continue
            in_lines = sum(copies * lines[d] for copies, d in eigenlines)
            in_space = _zero_sum_count(p, 2, [(*space[c], k) for c, k in cycles])
            total += size * weight * (in_space - p * in_lines)
    gl_order = p - 1 if m == 1 else (p * p - 1) * (p * p - p)
    scale = p**m * gl_order * group.order
    if total % scale:
        raise VerificationError("the keyless Burnside sum is not divisible by the group order")
    return total // scale


def _totient(d: int) -> int:
    return sum(math.gcd(d, k) == 1 for k in range(1, d + 1))


# A class type of GL_2 gives, for a cycle length c, the pair (e, image) of V: e = dim U_c and
# the image S_c U_c as 0 (zero), 1 (one line, the same for every c) or 2 (all of V).  An
# eigenvalue a of order d has a^c = 1 iff d | c, and on its eigenline S_c is c if a = 1 (d = 1)
# and (a^c - 1)/(a - 1) = 0 otherwise; ``_eigenline`` gives that line's (e, image) in it.


def _eigenline(p: int, d: int, c: int) -> tuple[int, int]:
    return int(c % d == 0), 2 if d == 1 and c % p else 0


def _gl2_classes(p: int, n: int, orders: dict[int, int]):
    """The class types of GL_2(F_p) whose eigenvalue orders are in ``orders``, elliptic up to n + 1.

    Each is (elements, (e, image) of V at c = 0..n+1, the mask of the c
    with U_c != 0, its stable lines as (copies, eigenvalue order)).  The
    elements are the class size |GL_2| / |centralizer| times the number
    of classes of the type with those eigenvalue orders:
    * scalar aI: U_c = V or 0, S_c = cI or 0, all p + 1 lines stable;
    * split diag(a, b), a != b: each eigenline holds its part of U_c and
      of S_c U_c, and at most one of a, b is 1;
    * Jordan a(I + E_12): U_c = V iff p | c, else the eigenline <e_1>.
      S_c = [[s, t], [0, s]] with s = sum a^k, t = sum k a^(k-1) over
      k < c; on U_c = V (d | c, p | c) s = 0, and t = 0 unless a = 1,
      p = 2 and c = 2 mod 4, where t = c(c-1)/2 is odd and S_c V = <e_1>;
    * elliptic, eigenvalues of order d outside F_p (phi(d)/2 classes):
      U_c = V or 0, S_c = 0 on it, no stable line.
    """
    def scalar(d):
        return lambda c: (2 * (c % d == 0), 2 if d == 1 and c % p else 0)

    def split(d1, d2):
        return lambda c: ((c % d1 == 0) + (c % d2 == 0), 1 if 1 in (d1, d2) and c % p else 0)

    def jordan(d):
        def space(c):
            if c % d:
                return 0, 0
            if c % p:
                return 1, int(d == 1)
            return 2, int(d == 1 and p == 2 and c % 4 == 2)
        return space

    def elliptic(d):
        return lambda c: (2 * (c % d == 0), 0)

    classes = [(count, scalar(d), [(p + 1, d)]) for d, count in orders.items()]
    listed = list(orders.items())
    for i, (d1, count1) in enumerate(listed):
        for d2, count2 in listed[i:]:
            pairs = count1 * count2 if d1 != d2 else count1 * (count1 - 1) // 2
            classes.append((p * (p + 1) * pairs, split(d1, d2), [(1, d1), (1, d2)]))
    classes += [((p * p - 1) * count, jordan(d), [(1, d)]) for d, count in orders.items()]
    classes += [(p * (p - 1) * (_totient(d) // 2), elliptic(d), [])
                for d in range(3, n + 2) if (p * p - 1) % d == 0 and (p - 1) % d]
    tables = [(weight, [space(c) for c in range(n + 2)], lines) for weight, space, lines in classes
              if weight]
    return [(weight, table, sum(1 << c for c, (e, _) in enumerate(table) if e), lines)
            for weight, table, lines in tables]


def _zero_sum_count(p: int, w: int, cycles: list[tuple[int, int, int]]) -> int:
    """p^w times the tuples of one nonzero u_c in U_c ∩ W per cycle whose S_c u_c sum to 0.

    ``cycles`` holds (e, image, k) for k cycles of one length c, with
    e = dim(U_c ∩ W) and image S_c(U_c ∩ W) as above, in W of dimension
    w.  By character orthogonality the count is p^-w sum_xi prod_c (p^e
    [xi kills the image] - 1) over the functionals xi of W.  xi = 0 kills
    every image; a nonzero xi kills the zero image, and the line only when
    its kernel is that line, which holds for p - 1 of the p^w - 1 nonzero xi.
    """
    everything = zero = line = 1  # xi kills every image; only the zero ones; also the line
    special = False
    for e, image, k in cycles:
        kept, lost = (p**e - 1) ** k, (-1) ** k
        everything *= kept
        zero *= kept if image == 0 else lost
        line *= kept if image <= 1 else lost
        special |= image == 1
    hyperplanes = (p**w - 1) // (p - 1)
    return everything + (p - 1) * ((hyperplanes - special) * zero + special * line)
