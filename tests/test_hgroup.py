import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from action_oracle import act
from fp_oracle import mat_inverse
from zpaction.enumeration import ActionParams, enumerate_actions, key_from_theta
from zpaction import hgroup
from zpaction.fpalgebra import FpMatrix
from zpaction.hgroup import (
    Permutation,
    ScaleCapError,
    _all_permutations,
    close_group,
    normalizer_in_symmetric,
    parse_cycles,
    row_codes,
    symmetric_group,
)
from zpaction.predictions import CASES, case_group

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
    assert parse_cycles("()", 4) == Permutation.identity(4)
    assert parse_cycles("", 4) == Permutation.identity(4)
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
    assert g.order == 1 and g.elements[0] == Permutation.identity(4)


def test_close_group_dihedral():
    g = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    assert g.order == 8


def test_close_group_cap():
    with pytest.raises(ScaleCapError, match="cap"):
        close_group([parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)], cap=10)
    s3 = [parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)]
    assert close_group(s3, cap=6).order == 6  # the cap is the largest order admitted
    message = r"^group closure exceeds cap 5 \(estimated group order, at least: 6\)$"
    with pytest.raises(ScaleCapError, match=message):
        close_group(s3, cap=5)


@pytest.mark.parametrize("chunk, cap", [(None, 20000), (None, 100000), (64, 1000), (2, 500), (5, 37)])
def test_closure_stops_within_one_chunk_of_its_cap(chunk, cap, monkeypatch):
    # S_9 from a transposition and a 9-cycle: the count the error reports is past the cap
    # by at most one chunk of products
    if chunk is not None:
        monkeypatch.setattr(hgroup, "_CLOSURE_CHUNK", chunk)
    gens = [parse_cycles("(1 2)", 9), parse_cycles("(1 2 3 4 5 6 7 8 9)", 9)]
    with pytest.raises(ScaleCapError, match=f"^group closure exceeds cap {cap} ") as caught:
        close_group(gens, cap=cap)
    assert cap < caught.value.estimate <= cap + hgroup._CLOSURE_CHUNK


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_closure_in_small_chunks_is_the_same_group(chunk, monkeypatch):
    groups = [(8, ["(1 2 3)(4 5)", "(6 7 8)", "(1 6)"]), (6, ["(1 2)", "(1 2 3 4 5 6)"]),
              (16, ["(1 16)(2 15)", "(3 4 5)", "(14 15 16)"]), (4, [])]
    expected = [close_group([parse_cycles(g, d) for g in gens], degree=d).elements for d, gens in groups]
    monkeypatch.setattr(hgroup, "_CLOSURE_CHUNK", chunk)
    for (degree, gens), elements in zip(groups, expected):
        assert close_group([parse_cycles(g, degree) for g in gens], degree=degree).elements == elements


def _closure_by_products(generators, degree):
    """The group as a Python set, closed under products one element at a time."""
    elements = {Permutation.identity(degree)}
    frontier = list(elements)
    while frontier:
        products = {g * a for a in frontier for g in generators} - elements
        elements |= products
        frontier = list(products)
    return sorted(elements)


# Degrees above 15 take the closure's byte codes instead of its integer codes.
@pytest.mark.parametrize("degree, generators", [
    (1, []),
    (5, ["(1 2)", "(1 2 3 4 5)"]),
    (8, ["(1 2 3)(4 5)", "(6 7 8)", "(1 6)"]),
    (15, ["(1 15)(2 14)", "(3 4 5)", "(13 14 15)"]),
    (16, ["(1 16)(2 15)", "(3 4 5)", "(14 15 16)"]),
    (21, ["(" + " ".join(map(str, range(1, 22))) + ")",  # D_21: the 21-cycle and a reflection
          "".join(f"({k} {23 - k})" for k in range(2, 12))]),
])
def test_close_group_matches_products(degree, generators):
    gens = [parse_cycles(g, degree) for g in generators]
    g = close_group(gens, degree=degree)
    assert list(g.elements) == _closure_by_products(gens, degree)
    assert g.generators == tuple(gens)


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
    assert set(close_group(n.generators, degree=degree).elements) == set(n.elements)
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


# The trivial group's normalizer is all of S_9.  The generators are those the scan picked
# when it re-closed Permutation objects for each one, which took 25 s here.
@pytest.mark.parametrize("generators, order, expected", [
    ([], 362_880, ["(8 9)", "(7 8)", "(6 7)", "(5 6)", "(4 5)", "(3 4)", "(2 3)", "(1 2)"]),
    (["(1 2)"], 10_080, ["(8 9)", "(7 8)", "(6 7)", "(5 6)", "(4 5)", "(3 4)", "(1 2)"]),
])
def test_normalizer_at_degree_9(generators, order, expected):
    n = normalizer_in_symmetric(close_group([parse_cycles(g, 9) for g in generators], degree=9))
    assert n.order == order
    assert [g.cycle_string() for g in n.generators] == expected
    assert (np.diff(row_codes(n.images, 9)) > 0).all()  # sorted and distinct
    if not generators:
        assert np.array_equal(n.images, _all_permutations(9))


@pytest.mark.parametrize("degree", range(1, 8))
def test_all_permutations_in_lexicographic_order(degree):
    expected = list(itertools.permutations(range(degree)))
    assert list(map(tuple, _all_permutations(degree).tolist())) == expected


def test_normalizer_degree_cap():
    with pytest.raises(ScaleCapError, match="too large"):
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


def test_close_group_above_degree_256():
    # 0-based images up to 299 need 16 bits; an 8-bit image row would wrap
    swap = parse_cycles("(1 300)", 300)
    g = close_group([swap])
    assert g.order == 2
    assert g.elements == (Permutation.identity(300), swap)
    assert swap in g and parse_cycles("(1 299)", 300) not in g


@pytest.mark.parametrize("base, kind", [(1447, "i"), (1451, "V")])
def test_row_codes_switch_to_bytes_past_int64(base, kind):
    # 1447^6 < 2^63 <= 1451^6: six digits take int64 codes below the switch, byte codes above it
    rows = np.array([[base - 1] * 6, [base - 2] * 6, [0] * 5 + [1], [base - 1] * 5 + [0],
                     [1, 2, 3, 255, 256, 257], [1, 2, 3, 256, 255, 257]])
    codes = row_codes(rows.astype(np.uint16).reshape(-1, 2, 3), base)
    assert codes.dtype.kind == kind
    assert np.array_equal(row_codes(rows.astype(np.uint64), base), codes)  # the widest product dtype
    assert np.argsort(codes, kind="stable").tolist() == sorted(range(6), key=lambda i: rows[i].tolist())


def _classes_by_closure(group):
    """(first member in ``elements``, size) per class, each closed under conjugation as a Python set."""
    conjugators = [(g, g.inverse()) for g in group.generators]
    seen: set[Permutation] = set()
    classes = []
    for sigma in group.elements:
        if sigma not in seen:
            members = frontier = {sigma}
            while frontier:
                conjugates = {g * a * g_inv for a in frontier for g, g_inv in conjugators}
                frontier = conjugates - members
                members = members | frontier
            seen |= members
            classes.append((sigma, len(members)))
    return classes


def _random_groups(seed, count=3, max_order=5040):
    """``count`` groups of degree <= 9, each generated by up to three random permutations."""
    rng = random.Random(seed)
    groups = []
    while len(groups) < count:
        degree = rng.randint(1, 9)
        generators = []
        for _ in range(rng.randint(0, 3)):
            support = rng.sample(range(degree), rng.randint(1, degree))
            images = list(range(1, degree + 1))
            for a, b in zip(support, rng.sample(support, len(support))):
                images[a] = b + 1
            generators.append(Permutation(tuple(images)))
        try:
            groups.append(close_group(generators, degree=degree, cap=max_order))
        except ScaleCapError:  # over the order bound; draw again
            continue
    return groups


def _oracle_groups():
    cases = [pytest.param(lambda d=d: [symmetric_group(d)], id=f"S{d}") for d in range(1, 9)]
    cases += [pytest.param(lambda c=c: [case_group(c), normalizer_in_symmetric(case_group(c))], id=c)
              for c in CASES]
    cases += [pytest.param(lambda s=s: _random_groups(s), id=f"random-{s}") for s in range(50)]
    return cases


@pytest.mark.parametrize("groups", _oracle_groups())
def test_conjugacy_classes_match_set_closure(groups):
    for group in groups():
        assert list(group.conjugacy_classes) == _classes_by_closure(group)


def test_class_sizes_of_s9_match_cycle_types():
    # |class of cycle type 1^m_1 2^m_2 ...| = 9! / prod k^m_k m_k!, one class per partition of 9
    group = symmetric_group(9)
    classes = group.conjugacy_classes
    types = set()
    for rep, size in classes:
        lengths = Counter(len(c) for c in rep.cycles())
        lengths[1] = 9 - sum(k * m for k, m in lengths.items())
        types.add(tuple(sorted(lengths.elements())))
        assert size == math.factorial(9) // math.prod(k**m * math.factorial(m) for k, m in lengths.items())
    assert len(classes) == len(types) == 30
    assert sum(size for _, size in classes) == group.order
    assert "elements" not in vars(group)  # no Permutation per element was built


@pytest.mark.parametrize(
    "generators, degree",
    [([], 5), (["(1 2 3 4 5 6)"], 6), (["(1 2 3)(4 5 6)", "(1 4)(2 6)(3 5)"], 6), (["(1 2)", "(1 2 3 4 5 6 7)"], 7)],
)
def test_cycle_types_count_every_element_by_its_cycles(generators, degree):
    group = close_group([parse_cycles(g, degree) for g in generators], degree=degree)
    expected = Counter()
    for sigma in group.elements:
        lengths = Counter(len(c) for c in sigma.cycles())
        lengths[1] = degree - sum(k * m for k, m in lengths.items())
        expected[tuple(sorted((k, m) for k, m in lengths.items() if m))] += 1
    assert group.cycle_types == dict(expected)
    assert sum(group.cycle_types.values()) == group.order
