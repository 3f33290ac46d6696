import math

import numpy as np
import pytest

from zpaction.fpalgebra import FpMatrix, NotPrimeError, PrimeModulus, mat_inverse
from zpaction.enumeration import (
    ActionParams,
    AdmissibilityError,
    GeneralPresentation,
    KeySet,
    ScaleCapError,
    SubgroupKey,
    Type1Presentation,
    Type2Presentation,
    brute_force_oracle,
    classify_type,
    enumerate_actions,
    general_presentation,
    key_from_digit_string,
    key_from_generators,
    key_from_named,
    key_from_presentation,
    key_from_theta,
    name_of_key,
    theta_table,
    transform_key,
)
from zpaction.enumeration import _row_codes


def test_params_validation():
    with pytest.raises(NotPrimeError, match="composite modulus unsupported"):
        ActionParams(4, 3, 2)
    with pytest.raises(ValueError, match="non-hyperbolic"):
        ActionParams(2, 3, 2)  # (n-1)(p-1) = 2
    with pytest.raises(ValueError):
        ActionParams(5, 3, 4)  # m > n
    ActionParams(3, 3, 1)  # m = 1 is allowed


def test_counts_small():
    assert len(enumerate_actions(ActionParams(5, 3, 2))) == 27
    assert len(enumerate_actions(ActionParams(3, 3, 2))) == 9
    assert len(enumerate_actions(ActionParams(2, 5, 2))) == 30
    assert len(enumerate_actions(ActionParams(7, 3, 3))) == 1


def test_count_formula_n3():
    for p in (3, 5, 7, 11, 13):
        assert len(enumerate_actions(ActionParams(p, 3, 2))) == p * p + p - 3


def test_enumeration_sorted_and_valid():
    keys = enumerate_actions(ActionParams(3, 4, 2))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for k in keys:
        assert all(any(v) for v in k.images)  # all n+1 images nonzero


@pytest.mark.parametrize("p,n,m", [(3, 3, 2), (5, 3, 2), (2, 5, 2), (3, 4, 2)])
def test_oracle_equivalence(p, n, m):
    params = ActionParams(p, n, m)
    assert enumerate_actions(params) == brute_force_oracle(params)


def gaussian_binomial(a: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^a."""
    if not 0 <= k <= a:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "p,n,m",
    [(3, 3, 2), (113, 3, 2), (7, 4, 2), (13, 4, 2), (2, 5, 2), (7, 5, 2), (5, 6, 2), (2, 7, 2),
     (3, 4, 3), (2, 5, 3), (3, 6, 3), (3, 5, 4), (7, 3, 1), (5, 4, 1)],
)
def test_space_size_closed_form(p, n, m):
    # A key is a codimension-m subgroup K avoiding the n+1 generators a_j, i.e. an
    # m-dimensional subspace of the dual space F_p^n avoiding the n+1 hyperplanes
    # a_j^perp.  Any s <= n of those hyperplanes meet in dimension n - s and all
    # n+1 meet in 0, so inclusion-exclusion gives sum_{s<=n} (-1)^s C(n+1, s) [n-s choose m]_p.
    expected = sum(
        (-1) ** s * math.comb(n + 1, s) * gaussian_binomial(n - s, m, p) for s in range(n + 1)
    )
    assert len(theta_table(ActionParams(p, n, m))) == expected


def matrices(keys):
    return np.array([key.theta.entries for key in keys])


def test_key_set_of_sorts_and_deduplicates():
    params = ActionParams(5, 3, 2)
    keys = enumerate_actions(params)
    shuffled = keys[::-1] + keys[3:9]
    key_set = KeySet.of(params, shuffled)
    assert key_set == KeySet.full(params) and len(key_set) == 27
    assert key_set.keys() == keys
    assert key_set.digit_strings() == [key.digit_string() for key in keys]
    expected_rows = list(range(26, -1, -1)) + list(range(3, 9))
    assert key_set.rows_of(matrices(shuffled)).tolist() == expected_rows
    with pytest.raises(ValueError, match="share"):
        KeySet.of(params, keys[:1] + enumerate_actions(ActionParams(3, 3, 2))[:1])


def test_key_set_rows_of_misses_raise_key_error():
    params = ActionParams(5, 3, 2)
    keys = enumerate_actions(params)
    for key_set, key in (
        (KeySet.of(params, keys[1:]), keys[0]),  # sorts before every row
        (KeySet.of(params, keys[:-1]), keys[-1]),  # sorts after every row
        (KeySet.of(params, keys[:5] + keys[6:]), keys[5]),  # falls between two rows
        (KeySet.of(params, []), keys[0]),
    ):
        with pytest.raises(KeyError):
            key_set.rows_of(matrices([key]))
        with pytest.raises(KeyError):
            key_set.rows_of(matrices(keys))
    assert KeySet.of(params, []).rows_of(np.zeros((0, 2, 3), np.uint8)).shape == (0,)


def test_empty_key_sets():
    assert _row_codes(np.zeros((0, 2, 3), np.uint8)).shape == (0,)
    empty = KeySet.of(ActionParams(5, 3, 2), [])
    assert len(empty) == 0 and empty.rows.shape == (0, 2, 3)
    assert empty.keys() == [] and empty.digit_strings() == []


def test_scale_caps():
    with pytest.raises(ScaleCapError):
        enumerate_actions(ActionParams(5, 3, 2), max_candidates=10)
    with pytest.raises(ScaleCapError):
        brute_force_oracle(ActionParams(113, 3, 2), max_candidates=10**6)


def test_subgroup_key_validation():
    params = ActionParams(5, 3, 2)
    mod = params.modulus
    with pytest.raises(AdmissibilityError, match="row-echelon"):
        SubgroupKey(params, FpMatrix(mod, ((0, 1, 0), (1, 0, 0))))
    with pytest.raises(AdmissibilityError, match="a_3"):
        SubgroupKey(params, FpMatrix(mod, ((1, 0, 0), (0, 1, 0))))
    with pytest.raises(AdmissibilityError, match="a_4"):
        # columns sum to zero: the implied image of a_4 vanishes
        SubgroupKey(params, FpMatrix(mod, ((1, 0, 4), (0, 1, 4))))
    with pytest.raises(AdmissibilityError, match="rank"):
        SubgroupKey(params, FpMatrix(mod, ((1, 2, 3), (0, 0, 0))))


def test_digit_string_round_trip():
    params = ActionParams(5, 3, 2)
    key = key_from_named(params, "K(1,2)")
    assert key_from_digit_string(params, key.digit_string()) == key


def test_digit_string_rejects_digits_outside_the_field():
    # a digit string is a canonical key: 7 and -1 are not read as 2 and 4 mod 5
    params = ActionParams(5, 3, 2)
    for text in ("1,0,7;0,1,-1", "1,0,5;0,1,4", "1,0,2;0,1,-4"):
        with pytest.raises(ValueError, match="outside 0..4"):
            key_from_digit_string(params, text)
    assert key_from_digit_string(params, "1,0,2;0,1,4").digit_string() == "1,0,2;0,1,4"


def test_key_from_named_n3():
    params = ActionParams(5, 3, 2)
    key = key_from_named(params, "K(0,4)")
    assert key.theta.entries == ((1, 0, 0), (0, 1, 4))
    k1 = key_from_named(ActionParams(3, 3, 2), "K(1)")
    assert k1.theta.entries == ((1, 1, 0), (0, 0, 1))
    # kernel of K(r,s) is spanned by a_1^r a_2^s a_3^{-1}
    k = key_from_named(params, "K(2,3)")
    assert k.kernel().rows == 1
    assert key_from_generators(params, [(2, 3, -1, 0)]) == k


def test_key_from_named_rejects_inadmissible():
    params = ActionParams(5, 3, 2)
    with pytest.raises(AdmissibilityError):
        key_from_named(params, "K(4,4)")
    with pytest.raises(AdmissibilityError):
        key_from_named(params, "K(0,0)")
    with pytest.raises(AdmissibilityError):
        key_from_named(params, "K(5)")
    with pytest.raises(ValueError):
        key_from_named(params, "Q(1)")


def test_key_from_named_d3():
    params = ActionParams(5, 5, 2)
    key = key_from_named(params, "K(0,1)", family="d3")
    assert key == key_from_generators(
        params,
        [
            (1, 1, 1, 0, 0, 0),  # a1 a2 a3
            (1, 0, 0, 0, 0, -1),  # a1 a6^-1
            (0, 1, 0, -1, 0, 0),  # a2 a4^-1
        ],
    )
    assert key.images == ((1, 0), (0, 1), (4, 4), (0, 1), (4, 4), (1, 0))


def test_key_from_named_k4():
    params = ActionParams(3, 5, 2)
    k1 = key_from_named(params, "K1", family="k4")
    assert k1.images == ((1, 0), (1, 0), (0, 1), (0, 1), (2, 2), (2, 2))
    k3 = key_from_named(params, "K3(1)", family="k4")
    assert k3.images == ((1, 0), (2, 0), (0, 1), (2, 1), (1, 2), (0, 2))
    with pytest.raises(ValueError):
        key_from_named(params, "Kbar1", family="k4")  # p != 2
    kbar = key_from_named(ActionParams(2, 5, 2), "Kbar1", family="k4")
    assert kbar.images == ((1, 0), (1, 0), (0, 1), (0, 1), (0, 1), (0, 1))
    with pytest.raises(AdmissibilityError):
        key_from_named(params, "K(0,0)", family="k4")  # 2(r+s)+1 != 0 mod 3


def test_key_from_generators_rank_check():
    params = ActionParams(5, 3, 2)
    with pytest.raises(AdmissibilityError, match="rank"):
        key_from_generators(params, [(1, 0, 0, 0), (0, 1, 0, 0)])


def test_classify_type_examples():
    p = 5
    params = ActionParams(p, 3, 2)
    pres = classify_type(key_from_named(params, f"K(0,{p - 1})"))
    assert isinstance(pres, Type1Presentation)
    assert (pres.r, pres.s) == ((0,), (p - 1,))
    assert (pres.forced_r, pres.forced_s) == (p - 1, 0)

    pres2 = classify_type(key_from_named(params, "K(2)"))
    assert isinstance(pres2, Type2Presentation)
    assert pres2.t == 2 and pres2.l == (2,)


@pytest.mark.parametrize("p,n,m", [(3, 3, 2), (5, 3, 2), (2, 5, 2), (3, 4, 2), (3, 4, 3)])
def test_presentation_round_trip(p, n, m):
    params = ActionParams(p, n, m)
    for key in enumerate_actions(params):
        pres = classify_type(key)
        assert key_from_presentation(pres) == key
        if m != 2:
            assert isinstance(pres, GeneralPresentation)


def test_general_presentation_m2_agrees():
    # the any-m form also round-trips at m=2
    params = ActionParams(5, 3, 2)
    for key in enumerate_actions(params):
        pres = general_presentation(key)
        assert key_from_presentation(pres) == key


@pytest.mark.parametrize("p,n,m", [(5, 3, 2), (3, 4, 2), (3, 4, 3), (2, 5, 2), (3, 5, 1), (7, 3, 1)])
def test_general_presentation_matches_the_echelonized_relabeling(p, n, m):
    # coordinates read off the permuted images equal those of the re-echelonized moved key
    params = ActionParams(p, n, m)
    for key in enumerate_actions(params):
        pres = general_presentation(key)
        images = transform_key(key, pres.sigma).images
        basis_inv = mat_inverse(FpMatrix(params.modulus, images[:m])).entries
        table = tuple(
            tuple(sum(v[i] * basis_inv[i][k] for i in range(m)) % p for k in range(m))
            for v in images[m:]
        )
        assert pres.table == table, key
        assert key_from_presentation(pres) == key


def test_general_presentation_congruences():
    params = ActionParams(3, 4, 3)
    for key in enumerate_actions(params):
        pres = general_presentation(key)
        p, m = params.p, params.m
        for i in range(m):
            assert (1 + sum(row[i] for row in pres.table)) % p == 0
        assert all(any(e % p for e in row) for row in pres.table)


def test_key_from_theta_canonicalizes():
    params = ActionParams(5, 3, 2)
    key = key_from_theta(params, ((2, 0, 0), (0, 3, 2)))
    assert key.theta.entries == ((1, 0, 0), (0, 1, 4))


def test_name_of_key_round_trip():
    params = ActionParams(7, 3, 2)
    for key in enumerate_actions(params):
        name = name_of_key(key)
        assert name is not None
        assert key_from_named(params, name) == key
