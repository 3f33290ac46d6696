from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zpaction.fpalgebra import PrimeModulus, mat_mul, mat_vec
from zpaction.hgroup import (
    Permutation,
    close_group,
    generator_vector,
    normalizer_in_symmetric,
    parse_cycles,
    perm_to_matrix,
    symmetric_group,
)


def test_generator_vectors():
    m5 = PrimeModulus(5)
    assert generator_vector(1, 3, m5) == (1, 0, 0)
    assert generator_vector(4, 3, m5) == (4, 4, 4)
    assert generator_vector(6, 5, PrimeModulus(2)) == (1, 1, 1, 1, 1)
    with pytest.raises(IndexError):
        generator_vector(5, 3, m5)
    with pytest.raises(IndexError):
        generator_vector(0, 3, m5)


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


def test_perm_to_matrix_identity():
    m5 = PrimeModulus(5)
    act = perm_to_matrix(Permutation.identity(4), m5, 3)
    assert act.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_perm_to_matrix_swap():
    m5 = PrimeModulus(5)
    act = perm_to_matrix(parse_cycles("(1 2)", 4), m5, 3)
    assert mat_vec(act, (1, 0, 0)) == (0, 1, 0)
    assert mat_vec(act, (0, 1, 0)) == (1, 0, 0)
    assert mat_vec(act, (0, 0, 1)) == (0, 0, 1)


def test_perm_to_matrix_last_generator():
    # sigma = (3 4): column 3 is the vector of a_4
    m5 = PrimeModulus(5)
    act = perm_to_matrix(parse_cycles("(3 4)", 4), m5, 3)
    assert act.column(0) == (1, 0, 0)
    assert act.column(1) == (0, 1, 0)
    assert act.column(2) == (4, 4, 4)


def test_action_matrix_defining_invariant():
    # M_sigma maps every generator a_j onto a_{sigma(j)}, including j = n+1,
    # for every sigma in S_4 at p = 5 and in S_5 and S_6 at p = 3
    for p, n in [(5, 3), (3, 4), (3, 5)]:
        modulus = PrimeModulus(p)
        for sigma in symmetric_group(n + 1):
            act = perm_to_matrix(sigma, modulus, n)
            for j in range(1, n + 2):
                image = generator_vector(sigma(j), n, modulus)
                assert mat_vec(act, generator_vector(j, n, modulus)) == image, (p, sigma, j)


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_matrix_map_is_a_homomorphism(im1, im2):
    m7 = PrimeModulus(7)
    sigma, tau = Permutation(tuple(im1)), Permutation(tuple(im2))
    lhs = perm_to_matrix(sigma * tau, m7, 4)
    rhs = mat_mul(perm_to_matrix(sigma, m7, 4), perm_to_matrix(tau, m7, 4))
    assert lhs == rhs


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
