import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fp_oracle import mat_inverse
from zpaction.classify import act
from zpaction.enumeration import ActionParams, enumerate_actions, key_from_theta
from zpaction.fpalgebra import FpMatrix
from zpaction.hgroup import (
    Permutation,
    _all_permutations,
    close_group,
    normalizer_in_symmetric,
    parse_cycles,
    symmetric_group,
)

# The paper's matrix form of a relabeling, kept here as an oracle for the
# package's one action on keys, which permutes the n+1 generator images.


def generator_vector(j, n, p):
    """The vector of a_j in Z_p^n: e_j for j <= n, all-(p-1) for j = n+1."""
    return tuple(int(k == j - 1) for k in range(n)) if j <= n else (p - 1,) * n


def action_matrix(sigma, n, p):
    """M_sigma, the n x n matrix over F_p whose column i is the vector of a_{sigma(i)}."""
    return tuple(zip(*(generator_vector(sigma(i), n, p) for i in range(1, n + 1))))


def mat_mul(a, b, p):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def test_parse_cycles():
    t = parse_cycles("(3 4)", 4)
    assert t.images == (1, 2, 4, 3)
    u = parse_cycles("(1 2 3)(4 5 6)", 6)
    assert u.images == (2, 3, 1, 5, 6, 4)
    assert parse_cycles("(3 5)(4 6)", 6).images == (1, 2, 5, 6, 3, 4)
    assert parse_cycles("()", 4).is_identity()
    assert parse_cycles("", 4).is_identity()
    assert parse_cycles("(1, 2)", 4) == parse_cycles("( 1 2 )", 4)


def test_parse_cycles_errors():
    with pytest.raises(ValueError, match="exceeds degree"):
        parse_cycles("(1 5)", 4)
    with pytest.raises(ValueError, match="repeated"):
        parse_cycles("(1 2)(2 3)", 4)
    with pytest.raises(ValueError, match="malformed"):
        parse_cycles("1 2", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 x)", 4)


def test_cycle_string_round_trip():
    for text, degree in [("(1 2)(3 4)", 4), ("(1 2 3)(4 5 6)", 6), ("()", 5)]:
        sigma = parse_cycles(text, degree)
        assert parse_cycles(sigma.cycle_string(), degree) == sigma


def test_action_matrix_defining_invariant():
    # M_sigma maps every generator a_j onto a_{sigma(j)}, including j = n+1,
    # for every sigma in S_4 at p = 5 and in S_5 and S_6 at p = 3
    for p, n in [(5, 3), (3, 4), (3, 5)]:
        for sigma in symmetric_group(n + 1):
            act_matrix = action_matrix(sigma, n, p)
            for j in range(1, n + 2):
                column = tuple((e,) for e in generator_vector(j, n, p))
                image = mat_mul(act_matrix, column, p)
                assert image == tuple((e,) for e in generator_vector(sigma(j), n, p)), (p, sigma, j)


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_matrix_map_is_a_homomorphism(im1, im2):
    # the right-to-left composition convention: M(sigma * tau) = M(sigma) M(tau)
    sigma, tau = Permutation(tuple(im1)), Permutation(tuple(im2))
    lhs = action_matrix(sigma * tau, 4, 7)
    rhs = mat_mul(action_matrix(sigma, 4, 7), action_matrix(tau, 4, 7), 7)
    assert lhs == rhs


@pytest.mark.parametrize("p, n, m", [(5, 3, 2), (3, 4, 2), (3, 4, 3), (2, 5, 2), (3, 5, 1), (7, 3, 1)])
def test_matrix_form_matches_key_action(p, n, m):
    # rref(theta . M_sigma^-1), the paper's form of Phi_sigma(K), for every sigma and key
    params = ActionParams(p, n, m)
    keys = enumerate_actions(params)
    for sigma in symmetric_group(n + 1):
        m_inv = mat_inverse(FpMatrix(params.modulus, action_matrix(sigma, n, p))).entries
        for key in keys:
            expected = key_from_theta(params, mat_mul(key.theta.entries, m_inv, p))
            assert act(sigma, key) == expected, (sigma, key)


def test_close_group_d3():
    g = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    assert g.order == 6


def test_close_group_empty():
    g = close_group([], degree=4)
    assert g.order == 1 and g.elements[0].is_identity()


def test_close_group_dihedral():
    g = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    assert g.order == 8


def test_close_group_cap():
    with pytest.raises(ValueError, match="cap"):
        close_group([parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)], cap=10)


def test_symmetric_group():
    s4 = symmetric_group(4)
    assert s4.order == 24
    assert close_group(s4.generators).order == 24


def test_normalizer_d3_case():
    q = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    n = normalizer_in_symmetric(q)
    assert n.order == 36
    assert all(e in n for e in q.elements)
    # the normalizer is exactly Q extended by the two extra relabelings
    extended = close_group(
        list(q.generators) + [parse_cycles("(4 5 6)", 6), parse_cycles("(2 3)(5 6)", 6)]
    )
    assert set(extended.elements) == set(n.elements)


def test_normalizer_klein_case():
    q = close_group([parse_cycles("(3 5)(4 6)", 6), parse_cycles("(1 2)(3 4)(5 6)", 6)])
    assert q.order == 4
    n = normalizer_in_symmetric(q)
    assert n.order == 16
    extended = close_group(
        list(q.generators) + [parse_cycles("(4 6)", 6), parse_cycles("(3 4)(5 6)", 6)]
    )
    assert set(extended.elements) == set(n.elements)


def test_normalizer_of_trivial_group():
    n = normalizer_in_symmetric(close_group([], degree=4))
    assert n.order == 24


def test_normalizer_conjugation_closure():
    q = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    n = normalizer_in_symmetric(q)
    members = set(q.elements)
    for tau in n:
        for g in q:
            assert (tau * g) * tau.inverse() in members


def _normalizer_cases():
    d3 = ["(1 2 3)(4 5 6)", "(1 4)(2 6)(3 5)"]
    k4 = ["(3 5)(4 6)", "(1 2)(3 4)(5 6)"]
    c6 = ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]
    cases = {"D3": (6, d3), "K4": (6, k4), "involution": (6, ["(1 2)(3 4)(5 6)"]), "C6": (6, c6)}
    cases.update({f"trivial-{d}": (d, []) for d in (4, 6)})
    cases.update({"deg7-3-cycles": (7, ["(1 2 3)(4 5 6)"]), "deg7-involution": (7, ["(1 2)(3 4)"])})
    return [pytest.param(degree, gens, id=name) for name, (degree, gens) in cases.items()]


@pytest.mark.parametrize("degree, generators", _normalizer_cases())
def test_normalizer_matches_brute_force_with_few_generators(degree, generators):
    q = close_group([parse_cycles(g, degree) for g in generators], degree=degree)
    members = set(q.elements)
    brute = set()
    for images in itertools.permutations(range(1, degree + 1)):
        tau = Permutation(images)
        if {(tau * g) * tau.inverse() for g in q.elements} == members:
            brute.add(tau)
    n = normalizer_in_symmetric(q)
    assert set(n.elements) == brute
    assert close_group(n.generators, degree=degree).element_set == n.element_set
    assert len(n.generators) <= math.floor(math.log2(n.order)) + 1


# The generators the scan picks, in its order, as the per-relabeling scan over
# itertools.permutations picked them; orbit reports and traces list them.
NORMALIZER_GENERATORS = {
    "D3": ["(4 5 6)", "(2 3)(5 6)", "(1 2)(5 6)", "(1 4)(2 5)(3 6)"],
    "K4": ["(4 6)", "(3 4)(5 6)", "(1 2)"],
    "involution": ["(5 6)", "(3 4)", "(3 5)(4 6)", "(1 2)", "(1 3)(2 4)"],
    "C6": ["(2 3)(5 6)", "(1 2)(4 5)", "(1 4)(2 5)(3 6)"],
}


@pytest.mark.parametrize("name", NORMALIZER_GENERATORS)
def test_normalizer_generators_are_pinned(name):
    (degree, generators), = [c.values for c in _normalizer_cases() if c.id == name]
    q = close_group([parse_cycles(g, degree) for g in generators], degree=degree)
    n = normalizer_in_symmetric(q)
    assert [g.cycle_string() for g in n.generators] == NORMALIZER_GENERATORS[name]


@pytest.mark.parametrize("degree", range(1, 8))
def test_all_permutations_in_lexicographic_order(degree):
    expected = list(itertools.permutations(range(degree)))
    assert list(map(tuple, _all_permutations(degree).tolist())) == expected


def test_normalizer_degree_cap():
    with pytest.raises(ValueError, match="too large"):
        normalizer_in_symmetric(close_group([], degree=10))


@pytest.mark.parametrize("degree", [4, 5, 6, 7])
def test_conjugacy_classes_of_symmetric_groups(degree):
    group = symmetric_group(degree)

    def cycle_type(sigma):
        return tuple(sorted(len(c) for c in sigma.cycles()))

    classes = group.conjugacy_classes
    assert sum(size for _, size in classes) == group.order
    by_type = Counter(cycle_type(sigma) for sigma in group.elements)
    assert len(classes) == len(by_type)
    assert {cycle_type(rep): size for rep, size in classes} == by_type
    assert [rep for rep, _ in classes] == sorted(rep for rep, _ in classes)
