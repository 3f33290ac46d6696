import re

import numpy as np
import pytest

import zpaction.predictions
from action_oracle import act
from zpaction import enumeration
from zpaction.enumeration import (
    ActionParams,
    AdmissibilityError,
    KeySet,
    SubgroupKey,
    key_from_named,
)
from zpaction.fpalgebra import NotPrimeError
from zpaction.classify import classify_triples, invariant_set
from zpaction.predictions import (
    CASES,
    _conic_points,
    _members,
    case_group,
    family_for_group,
    predicted_invariant_set,
    predicted_triple_count,
)
from zpaction.hgroup import close_group, parse_cycles


def named_keys(p, *names):
    """The n = 3 keys of ``names`` at p, sorted as a key set's keys are."""
    return sorted(key_from_named(ActionParams(p, 3, 2), name) for name in names)


def test_q4_p7_single_member():
    assert predicted_invariant_set("N3_Q4", 7).keys() == named_keys(7, "K(6,0)")


def test_q4_p5_includes_corrected_pairs():
    # roots of s^2+2s+2 mod 5 are 1 and 2; the invariant groups are K(s+1, s)
    assert predicted_invariant_set("N3_Q4", 5).keys() == named_keys(5, "K(2,1)", "K(3,2)", "K(4,0)")


def test_q6_p5():
    assert predicted_invariant_set("N3_Q6", 5).keys() == named_keys(5, "K(1)", "K(2,2)", "K(4)")


def test_q3_branches():
    assert predicted_invariant_set("N3_Q3", 3).keys() == []
    assert predicted_invariant_set("N3_Q3", 5).keys() == []  # 5 = 2 mod 3
    assert predicted_invariant_set("N3_Q3", 7).keys() == named_keys(7, "K(1,4)", "K(5,2)")


def test_d3_p2_members():
    keys = predicted_invariant_set("N5_D3", 2)
    assert len(keys) == 3


def test_d3_p3_member_count():
    assert len(predicted_invariant_set("N5_D3", 3)) == 7


def test_k4_membership_counts():
    # 3p + 4 members for odd p, 4 members at p = 2
    assert len(predicted_invariant_set("N5_K4", 2)) == 4
    for p in (3, 5, 7):
        assert len(predicted_invariant_set("N5_K4", p)) == 3 * p + 4


def test_predicted_counts():
    assert predicted_triple_count("N5_D3", 31) == 7
    assert predicted_triple_count("N5_D3", 5) == 2
    assert predicted_triple_count("N5_K4", 11) == 15
    assert predicted_triple_count("N5_K4", 2) == 3
    with pytest.raises(ValueError):
        predicted_triple_count("N3_Q1", 5)
    for p in (4, 1, -7, 65537):
        with pytest.raises(NotPrimeError):
            predicted_triple_count("N5_D3", p)


def _primes_up_to(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


@pytest.mark.parametrize("p", _primes_up_to(200))
def test_conic_points_match_the_residue_scan(p):
    scan = [(r, s) for r in range(p) for s in range(p) if (r * r + s * s - r * s - 1) % p == 0]
    assert _conic_points(p) == scan


@pytest.mark.parametrize("p", [4099, 65521])
def test_conic_at_large_primes(p):
    # r^2 - rs + s^2 is the norm form of F_p[(1 + sqrt(-3)) / 2], so the conic has
    # p - (-3/p) points, with (-3/p) = 1 exactly when p = 1 mod 3.  Six of them have
    # r or s in {0, 1, -1} and none other has r = s, so gamma = (p - (-3/p) - 6) / 2.
    chi = 1 if p % 3 == 1 else -1
    assert len(_conic_points(p)) == p - chi
    assert predicted_triple_count("N5_D3", p) == (1 if chi == 1 else 0) + 2 + (p - chi - 6) // 6


def test_d3_count_table():
    table = {5: 2, 7: 3, 11: 3, 13: 4, 17: 4, 19: 5, 23: 5, 29: 6, 31: 7}
    for p, expected in table.items():
        assert predicted_triple_count("N5_D3", p) == expected


def test_alpha_branch_consistency_at_p3():
    # the count formula's alpha branch treats p=3 like p = 1 mod 3, matching
    # the member list (one K(l) member, l=1)
    assert predicted_triple_count("N5_D3", 3) == 3
    assert len(predicted_invariant_set("N5_D3", 3)) == 7


@pytest.mark.parametrize("case", [c for c in CASES if c.startswith("N3")])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_n3_predictions_match_generic(case, p):
    keys = KeySet.full(ActionParams(p, 3, 2))
    generic = invariant_set(keys, case_group(case))
    assert sorted(generic.keys()) == predicted_invariant_set(case, p).keys()


@pytest.mark.parametrize("case", [c for c in CASES if c.startswith("N3")])
@pytest.mark.parametrize("p", [29, 113])
def test_n3_predictions_match_generic_large(case, p):
    keys = KeySet.full(ActionParams(p, 3, 2))
    generic = invariant_set(keys, case_group(case))
    assert sorted(generic.keys()) == predicted_invariant_set(case, p).keys()


@pytest.mark.parametrize("case", ["N5_D3", "N5_K4"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_n5_predictions_match_generic(case, p):
    keys = KeySet.full(ActionParams(p, 5, 2))
    generic = invariant_set(keys, case_group(case))
    assert sorted(generic.keys()) == predicted_invariant_set(case, p).keys()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("p", [31, 101, 199])
def test_predicted_members_invariant_large_p(case, p):
    # cheap spot check far beyond the exhaustive range
    group = case_group(case)
    for key in predicted_invariant_set(case, p).keys():
        for g in group.generators:
            assert act(g, key) == key


@pytest.mark.parametrize("case", ["N5_D3", "N5_K4"])
@pytest.mark.parametrize("p", [11, 13, 17, 31])
def test_predicted_count_matches_partition(case, p):
    res = classify_triples(ActionParams(p, 5, 2), case_group(case), mode="predicted")
    assert res.count == predicted_triple_count(case, p)


def test_family_for_group_matches_verbatim_only():
    assert family_for_group(5, case_group("N5_D3")) == "N5_D3"
    assert family_for_group(3, case_group("N3_Q7")) == "N3_Q7"
    conjugate = close_group(
        [parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(2 4)(3 5)(1 6)", 6)]
    )
    with pytest.raises(ValueError):
        family_for_group(5, conjugate)


def test_family_members_all_admissible():
    for case in CASES:
        p = 7 if case != "N3_Q4" else 13
        keys = predicted_invariant_set(case, p).keys()
        assert len(set(keys)) == len(keys) == len(_members(case, p))  # no member repeats another


def _per_member_keys(case, p):
    """The members one at a time, each a validated ``named_key``: the old route."""
    params = ActionParams(p, 3 if case.startswith("N3") else 5, 2)
    family = zpaction.predictions._FAMILIES.get(case, "n3")
    members = _members(case, p)
    return sorted(enumeration.named_key(params, family, form, *args) for form, *args in members)


def _oracle_cases():
    primes = _primes_up_to(31) + [101, 1009]
    return [
        pytest.param(case, p, id=f"{case}-p{p}")
        for case in CASES
        for p in primes
        if p > 2 or case.startswith("N5")  # p = 2 is not hyperbolic at n = 3
    ]


@pytest.mark.parametrize("case, p", [
    (case, p) for case in CASES for p in (2, 3, 5, 7, 13, 101, 65521) if p > 2 or case.startswith("N5")
])
def test_member_rows_match_the_per_member_stack(case, p):
    # one call per run of a form against one named_rows call per member, in member order
    n = 3 if case.startswith("N3") else 5
    family, members = zpaction.predictions._FAMILIES.get(case, "n3"), _members(case, p)
    stack = np.array([enumeration.named_rows(family, *x) for x in members], dtype=np.int64).reshape(-1, 2, n)
    rows = zpaction.predictions._member_rows(family, members, n)
    assert rows.dtype == np.int64 and np.array_equal(rows, stack)
    assert np.array_equal(predicted_invariant_set(case, p).rows, KeySet.from_rows(ActionParams(p, n, 2), stack % p).rows)


@pytest.mark.parametrize("case, p", _oracle_cases())
def test_predicted_rows_match_the_per_member_route(case, p):
    assert predicted_invariant_set(case, p).keys() == _per_member_keys(case, p)


def test_predicted_route_builds_no_key_or_presentation_and_runs_no_rref(monkeypatch):
    cases = [(case, p) for case in CASES for p in (2, 3, 5, 13) if p > 2 or case.startswith("N5")]
    expected = {(case, p): predicted_invariant_set(case, p) for case, p in cases}
    names = [(ActionParams(5, 3, 2), "K(0,4)", None), (ActionParams(5, 5, 2), "K(2)", "d3"),
             (ActionParams(7, 5, 2), "K3(1)", "k4"), (ActionParams(2, 5, 2), "Kbar2", "k4")]
    resolved = [key_from_named(*name) for name in names]

    def refuse(*args, **kwargs):
        raise AssertionError("called on the closed-form route")

    monkeypatch.setattr(enumeration, "rref", refuse)
    assert [key_from_named(*name) for name in names] == resolved
    monkeypatch.setattr(SubgroupKey, "__post_init__", refuse)
    for (case, p), keys in expected.items():
        assert predicted_invariant_set(case, p) == keys, (case, p)
    for case in ("N5_D3", "N5_K4"):
        report = classify_triples(ActionParams(31, 5, 2), case_group(case), mode="predicted")
        assert report.count == predicted_triple_count(case, 31)


@pytest.mark.parametrize(
    "case, p, member, message",
    [
        ("N3_Q1", 5, ("K", 0), "generator a_2 lies in the subgroup"),
        ("N3_Q6", 5, ("K", 4, 4), "generator a_4 lies in the subgroup"),
        ("N5_D3", 7, ("K", 0, 0), "generator a_4 lies in the subgroup"),
        ("N5_D3", 7, ("K", 0), "generator a_2 lies in the subgroup"),
    ],
)
def test_inadmissible_member_raises_its_own_error(case, p, member, message, monkeypatch):
    real = _members
    monkeypatch.setattr(zpaction.predictions, "_members", lambda case, p: [*real(case, p), member])
    with pytest.raises(AdmissibilityError, match=f"^{re.escape(message)}$"):
        predicted_invariant_set(case, p)
