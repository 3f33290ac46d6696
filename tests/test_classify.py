import ast
import itertools
import math
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zpaction.classify
import zpaction.enumeration
from action_oracle import act
from zpaction.enumeration import (
    ActionParams,
    AdmissibilityError,
    KeySet,
    ScaleCapError,
    SubgroupKey,
    VerificationError,
    _rref_walk,
    enumerate_actions,
    key_from_named,
    key_from_theta,
)
from zpaction.classify import (
    ActionOutsideSetError,
    burnside_count_full,
    classify_triples,
    count_orbits_burnside,
    count_orbits_keyless,
    count_orbits_scanned,
    invariant_keys_full,
    invariant_set,
    orbit_partition,
    _extended,
    _fixed_masks,
    _image_rows,
    _moved_rows,
    _orbit_spans,
    _product_dtype,
    _rref_columns,
    _rref_rows,
    _scan_element,
    _subspace_count,
)
from zpaction.fpalgebra import FpMatrix, kernel_basis, rref
from zpaction.hgroup import (
    Permutation,
    close_group,
    digit_dtype,
    normalizer_in_symmetric,
    parse_cycles,
    symmetric_group,
)
from zpaction.predictions import case_group, predicted_invariant_set

P5 = ActionParams(5, 3, 2)
S4 = symmetric_group(4)


def named(name, params=P5):
    return key_from_named(params, name)


def _set_block(monkeypatch, rows):
    """Set the one block size where it is read: ``enumeration`` and its import in ``classify``."""
    monkeypatch.setattr(zpaction.enumeration, "_BLOCK", rows)
    monkeypatch.setattr(zpaction.classify, "_BLOCK", rows)


def test_act_swap_first_two():
    assert act(parse_cycles("(1 2)", 4), named("K(0,1)")) == named("K(1,0)")


def test_act_four_cycle_on_type2():
    assert act(parse_cycles("(1 2 3 4)", 4), named("K(2)")) == named("K(0,2)")


def test_act_four_cycle_on_type1():
    # u(1+s) = -1 mod 5 with s=1 gives u=2
    assert act(parse_cycles("(1 2 3 4)", 4), named("K(0,1)")) == named("K(2,2)")


def test_act_identity():
    key = named("K(1,2)")
    assert act(Permutation.identity(4), key) == key


def test_relabelings_must_have_degree_n_plus_1():
    s5 = symmetric_group(5)
    with pytest.raises(ValueError, match="degree 5"):
        act(parse_cycles("(1 5)", 5), named("K(0,1)"))
    for route in (orbit_partition, count_orbits_burnside, invariant_set):
        with pytest.raises(ValueError, match="degree 5"):
            route(KeySet.full(P5), s5)


def test_act_swap_relation_everywhere():
    # Phi_1(K(r,s)) = K(s,r) across the whole space; K(r,s) has rref rows (1, 0, r), (0, 1, s)
    swap = parse_cycles("(1 2)", 4)
    for key in enumerate_actions(P5):
        (_, l, r), (_, t, s) = key.theta.entries
        if (l, t) == (0, 1):
            assert act(swap, key) == named(f"K({s},{r})")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(enumerate_actions(P5)),
    st.permutations(list(range(1, 5))),
    st.permutations(list(range(1, 5))),
)
def test_action_axioms(key, im1, im2):
    sigma, tau = Permutation(tuple(im1)), Permutation(tuple(im2))
    assert act(sigma * tau, key) == act(sigma, act(tau, key))
    assert act(Permutation.identity(4), key) == key


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(enumerate_actions(ActionParams(3, 4, 2))), st.permutations(list(range(1, 6))))
def test_act_preserves_admissibility(key, images):
    moved = act(Permutation(tuple(images)), key)
    assert isinstance(moved, SubgroupKey)  # constructor re-validates admissibility
    assert moved.params == key.params


def test_orbit_partition_p5():
    report = orbit_partition(KeySet.full(P5), S4)
    assert report.count == 4
    names = ("K(0,1)", "K(0,2)", "K(0,4)", "K(1,2)")
    assert set(report.representatives) == {named(name) for name in names}
    # orbits partition the space
    sizes = [len(members) for _, members in report.orbits]
    assert sum(sizes) == 27
    # representatives are the least members
    for rep, members in report.orbits:
        assert rep == min(members)


def test_orbit_partition_p3():
    report = orbit_partition(KeySet.full(ActionParams(3, 3, 2)), S4)
    assert report.count == 2


def test_orbit_partition_trivial_group():
    keys = KeySet.full(ActionParams(3, 3, 2))
    trivial = close_group([], degree=4)
    report = orbit_partition(keys, trivial)
    assert report.count == len(keys)


def test_orbit_partition_action_leaves_set():
    keys = enumerate_actions(P5)[:5]
    with pytest.raises(ActionOutsideSetError):
        orbit_partition(KeySet.of(P5, keys), S4)


@pytest.mark.parametrize("params", [ActionParams(5, 5, 2), ActionParams(3, 4, 3)])
def test_orbit_partition_of_a_set_missing_one_key(params):
    # one key gone from the middle of a whole space: the sorted lookup still sees the miss
    rows = KeySet.full(params).rows
    missing_one = KeySet(params, np.delete(rows, len(rows) // 2, axis=0))
    with pytest.raises(ActionOutsideSetError):
        orbit_partition(missing_one, symmetric_group(params.n + 1))


def test_burnside_matches_partition():
    keys = KeySet.full(P5)
    assert count_orbits_burnside(keys, S4) == 4
    assert burnside_count_full(P5, S4) == 4


def test_burnside_p113():
    assert burnside_count_full(ActionParams(113, 3, 2), S4) == 580


def test_burnside_singleton():
    key = named("K(4,0)")
    q7 = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    assert count_orbits_burnside(KeySet.of(P5, [key]), q7) == 1


def test_invariant_set_q1():
    inv = invariant_set(KeySet.full(P5), close_group([parse_cycles("(3 4)", 4)])).keys()
    assert inv == sorted(named(name) for name in ("K(1)", "K(2)", "K(2,2)", "K(3)", "K(4)"))


def test_invariant_set_q8_empty():
    q8 = close_group([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(2 3 4)", 4)])
    assert invariant_set(KeySet.full(P5), q8).keys() == []


def test_invariant_set_three_cycle_p7():
    keys = KeySet.full(ActionParams(7, 3, 2))
    inv = invariant_set(keys, close_group([parse_cycles("(2 3 4)", 4)])).keys()
    assert inv == sorted(named(name, keys.params) for name in ("K(1,4)", "K(5,2)"))


def test_invariant_set_q5_p3():
    keys = KeySet.full(ActionParams(3, 3, 2))
    q5 = close_group([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 4)(2 3)", 4)])
    inv = invariant_set(keys, q5).keys()
    assert inv == sorted(named(name, keys.params) for name in ("K(0,2)", "K(2)", "K(2,0)"))


def test_invariant_set_fixed_by_full_closure():
    # generator-only filtering suffices: the whole closure fixes the set pointwise
    keys = KeySet.full(P5)
    q = close_group([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 4)(2 3)", 4)])
    inv = invariant_set(keys, q).keys()
    for key in inv:
        for sigma in q:
            assert act(sigma, key) == key


def test_invariant_set_is_normalizer_stable():
    from zpaction.hgroup import normalizer_in_symmetric

    keys = KeySet.full(P5)
    q1 = close_group([parse_cycles("(3 4)", 4)])
    inv = set(invariant_set(keys, q1).keys())
    for tau in normalizer_in_symmetric(q1):
        assert {act(tau, k) for k in inv} == inv


def test_vectorized_invariants_match_object_path():
    params = ActionParams(3, 5, 2)
    q = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    fast = invariant_keys_full(params, q).keys()
    slow = [k for k in enumerate_actions(params) if all(act(g, k) == k for g in q.generators)]
    assert sorted(fast) == slow
    assert invariant_set(KeySet.full(params), q).keys() == slow


def test_triples_d3_p5_exhaustive():
    d3 = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    res = classify_triples(ActionParams(5, 5, 2), d3, mode="exhaustive")
    assert res.count == 2
    assert res.normalizer.order == 36


def test_triples_d3_p3():
    d3 = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    res = classify_triples(ActionParams(3, 5, 2), d3, mode="exhaustive")
    assert len(res.invariant) == 7 and res.count == 3


def test_triples_d3_p31_predicted():
    d3 = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    res = classify_triples(ActionParams(31, 5, 2), d3, mode="predicted")
    assert res.count == 7


def test_triples_k4_p2():
    k4 = close_group([parse_cycles("(3 5)(4 6)", 6), parse_cycles("(1 2)(3 4)(5 6)", 6)])
    res = classify_triples(ActionParams(2, 5, 2), k4, mode="exhaustive")
    assert len(res.invariant) == 4 and res.count == 3
    assert res.normalizer.order == 16


def test_triples_n3_q7():
    q7 = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    res = classify_triples(P5, q7, mode="exhaustive")
    assert res.invariant.keys() == [named("K(4,0)")]
    assert res.count == 1


def test_triples_predicted_rejects_unknown_group():
    mystery = close_group([parse_cycles("(1 2)", 6)])
    with pytest.raises(ValueError, match="no predicted family"):
        classify_triples(ActionParams(5, 5, 2), mystery, mode="predicted")


def test_triples_checks_the_cap_before_the_normalizer(monkeypatch):
    import zpaction.classify

    def never(group):
        raise AssertionError("the normalizer was built before the cap check")

    monkeypatch.setattr(zpaction.classify, "normalizer_in_symmetric", never)
    involution = close_group([parse_cycles("(1 2)(3 4)(5 6)", 6)])
    with pytest.raises(ScaleCapError, match=r"\(estimated projective vectors: 12326281\)"):
        classify_triples(ActionParams(59, 5, 2), involution, mode="exhaustive")


def test_triples_checks_the_normalizer_degree_before_the_scan(monkeypatch):
    import zpaction.classify

    def never(*args):
        raise AssertionError("the invariant scan started")

    monkeypatch.setattr(zpaction.classify, "invariant_keys_full", never)
    cycle = close_group([parse_cycles("(1 2 3 4 5 6 7 8 9 10)", 10)])
    with pytest.raises(ScaleCapError, match="degree 10 too large for exhaustive normalizer scan"):
        classify_triples(ActionParams(7, 9, 2), cycle, mode="exhaustive")


@pytest.mark.parametrize("m", [1, 3])
def test_triples_predicted_rejects_m_other_than_2(m):
    with pytest.raises(ValueError, match=f"the predicted families are m = 2, not m = {m}"):
        classify_triples(ActionParams(7, 5, m), D3, mode="predicted")


def test_triples_exhaustive_agrees_with_predicted_small():
    d3 = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
    for p in (2, 3, 5):
        a = classify_triples(ActionParams(p, 5, 2), d3, mode="exhaustive")
        b = classify_triples(ActionParams(p, 5, 2), d3, mode="predicted")
        assert a.invariant == b.invariant
        assert a.count == b.count


# ---------------------------------------------------------------------------
# independent oracles built on the per-key action ``act``

D3 = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 6)(3 5)", 6)])
C6 = close_group([parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 5)(3 6)", 6)])


def test_the_package_ships_no_per_key_action():
    # the per-key action is the test-side oracle alone; the package moves key arrays only
    package = Path(zpaction.classify.__file__).parent
    test_modules = {path.stem for path in Path(__file__).parent.glob("*.py")}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                assert node.name != "act", f"{where} defines act"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id != "act", f"{where} assigns act"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                assert "act" not in {alias.asname or alias.name for alias in node.names}, where
                modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names]
                assert not {str(module).split(".")[0] for module in modules} & test_modules, where


@lru_cache(maxsize=None)
def act_permutation(keys: tuple, sigma: Permutation) -> tuple[int, ...]:
    """Position in ``keys`` of act(sigma, key), for each key; keys must be sigma-stable."""
    position = {key: i for i, key in enumerate(keys)}
    return tuple(position[act(sigma, key)] for key in keys)


def burnside_per_element(keys, group) -> int:
    """(1/|G|) sum over every element of G of its fixed keys, from ``act`` alone.

    Each element's permutation of the keys is composed from the
    generators' (act is a homomorphism, see test_action_axioms), so every
    one of the |G| elements is counted on its own, with no use of
    conjugacy classes or the array code.
    """
    keys = tuple(sorted(set(keys)))
    generators = [(g, act_permutation(keys, g)) for g in group.generators]
    perms = {Permutation.identity(group.degree): tuple(range(len(keys)))}
    frontier = list(perms)
    while frontier:
        grown = []
        for sigma in frontier:
            for g, g_perm in generators:
                tau = g * sigma
                if tau not in perms:
                    perms[tau] = tuple(g_perm[i] for i in perms[sigma])
                    grown.append(tau)
        frontier = grown
    assert len(perms) == group.order
    total = sum(sum(1 for i, j in enumerate(perm) if i == j) for perm in perms.values())
    assert total % group.order == 0
    return total // group.order


def orbit_by_bfs(seed, group) -> set:
    members, frontier = {seed}, [seed]
    while frontier:
        frontier = [image for key in frontier for g in group.generators
                    if (image := act(g, key)) not in members and not members.add(image)]
    return members


def bfs_orbits(keys, group):
    """Orbits as (least member, sorted members) pairs, by breadth-first search with act."""
    remaining = set(keys)
    orbits = []
    for seed in sorted(remaining):
        if seed in remaining:
            members = orbit_by_bfs(seed, group)
            assert members <= remaining, "the key set is not closed under the group"
            remaining -= members
            ordered = tuple(sorted(members))
            orbits.append((ordered[0], ordered))
    return tuple(orbits)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_class_weighted_burnside_matches_per_element_s4(p):
    params = ActionParams(p, 3, 2)
    keys = enumerate_actions(params)
    expected = burnside_per_element(keys, S4)
    assert count_orbits_burnside(KeySet.of(params, keys), S4) == expected
    assert burnside_count_full(params, S4) == expected


def test_class_weighted_burnside_matches_per_element_s6():
    params = ActionParams(3, 5, 2)
    s6 = symmetric_group(6)
    keys = enumerate_actions(params)
    assert len(s6.conjugacy_classes) == 11
    assert burnside_count_full(params, s6) == burnside_per_element(keys, s6)


def test_burnside_builds_one_permutation_per_class(monkeypatch):
    # the class sum reads classes off the image array; it builds no Permutation per element
    s6, built = symmetric_group(6), []
    post_init = Permutation.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting_post_init)
    assert burnside_count_full(ActionParams(5, 5, 2), s6) == 58
    assert len(built) <= len(s6.conjugacy_classes) + len(s6.generators) + 2


@pytest.mark.parametrize("chunk, blocks", [(None, 1), (4096, 4)], ids=["one-block", "four-blocks"])
def test_burnside_builds_each_block_once_for_every_class(monkeypatch, chunk, blocks):
    keys, s6, built = KeySet.full(ActionParams(5, 5, 2)), symmetric_group(6), []
    extended = zpaction.classify._extended

    def counting_extended(rows, params):
        built.append(len(rows))
        return extended(rows, params)

    monkeypatch.setattr(zpaction.classify, "_extended", counting_extended)
    if chunk is not None:
        _set_block(monkeypatch, chunk)
    assert len(s6.conjugacy_classes) == 11 and len(keys) == 15_915
    assert count_orbits_burnside(keys, s6) == 58
    assert len(built) == blocks and sum(built) == len(keys)


@pytest.mark.parametrize("group, classes", [(D3, 3), (C6, 6)], ids=["D3", "C6"])
def test_class_weighted_burnside_matches_per_element_subgroups(group, classes):
    params = ActionParams(5, 5, 2)
    assert group.order == 6 and len(group.conjugacy_classes) == classes
    expected = burnside_per_element(enumerate_actions(params), group)
    assert burnside_count_full(params, group) == expected


def test_class_weighted_burnside_matches_per_element_normalizer():
    # the normalizer of an involution acting on the involution's invariant set
    params = ActionParams(5, 5, 2)
    q = close_group([parse_cycles("(1 2)(3 4)(5 6)", 6)])
    invariant = invariant_keys_full(params, q)
    normalizer = normalizer_in_symmetric(q)
    assert normalizer.order == 48
    expected = burnside_per_element(invariant.keys(), normalizer)
    assert count_orbits_burnside(invariant, normalizer) == expected
    assert orbit_partition(invariant, normalizer).count == expected


@pytest.mark.parametrize(
    "params, group",
    [
        (ActionParams(5, 3, 2), S4),
        (ActionParams(7, 3, 2), S4),
        (ActionParams(3, 5, 2), symmetric_group(6)),
        (ActionParams(3, 5, 2), close_group([], degree=6)),
        (ActionParams(3, 4, 3), symmetric_group(5)),
        (ActionParams(5, 3, 1), S4),
    ],
    ids=["S4-p5", "S4-p7", "S6-p3", "trivial", "m3", "m1"],
)
def test_array_orbit_partition_matches_bfs(params, group):
    keys = enumerate_actions(params)
    report = orbit_partition(KeySet.of(params, keys), group)
    assert report.orbits == bfs_orbits(keys, group)
    assert report.count == count_orbits_burnside(KeySet.of(params, keys), group)


def test_array_orbit_partition_matches_bfs_16_bit_digits():
    # p > 255 keeps digits in 16 bits; the set is a union of S_4 orbits
    params = ActionParams(257, 3, 2)
    names = ("K(0,1)", "K(1,2)", "K(3)", "K(100,200)", "K(255,254)")
    seeds = [named(name, params) for name in names]
    keys = set().union(*(orbit_by_bfs(seed, S4) for seed in seeds))
    assert max(max(k.digits) for k in keys) > 255
    report = orbit_partition(KeySet.of(params, keys), S4)
    assert report.orbits == bfs_orbits(keys, S4)
    assert report.count == count_orbits_burnside(KeySet.of(params, keys), S4) > 1


@pytest.mark.parametrize(
    "params, group",
    [(ActionParams(5, 3, 2), S4), (ActionParams(3, 5, 2), symmetric_group(6))],
    ids=["S4-p5", "S6-p3"],
)
def test_orbit_of_matches_bfs(params, group):
    keys = enumerate_actions(params)
    report = orbit_partition(KeySet.full(params), group)
    expected = {key: i for i, (_, members) in enumerate(bfs_orbits(keys, group)) for key in members}
    assert {key: report.orbit_of(key) for key in keys} == expected
    trivial = orbit_partition(KeySet.of(params, keys[1:]), close_group([], degree=params.n + 1))
    with pytest.raises(KeyError):
        trivial.orbit_of(keys[0])
    other_prime = ActionParams(params.p + 2, params.n, 2)
    with pytest.raises(KeyError):  # the same digits at another prime
        report.orbit_of(key_from_theta(other_prime, keys[0].theta.entries))


def test_empty_key_set_takes_the_array_path():
    empty = KeySet.of(P5, [])
    report = orbit_partition(empty, S4)
    assert report.count == 0 and report.orbits == () and report.representatives == ()
    assert count_orbits_burnside(empty, S4) == 0
    assert len(invariant_set(empty, S4)) == 0


def sample_keys(params, count, seed):
    """``count`` distinct keys canonicalized from seeded random quotient matrices."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        rows = [[rng.randrange(params.p) for _ in range(params.n)] for _ in range(params.m)]
        try:
            keys.add(key_from_theta(params, rows))
        except AdmissibilityError:
            pass
    return keys


@pytest.mark.parametrize("p", [113, 127], ids=["uint16", "uint32"])
def test_fixed_mask_matches_act_at_the_product_dtype_edge(p):
    # n(p-1)^2 + p first exceeds 16 bits between p = 113 and p = 127 at n = 5
    params = ActionParams(p, 5, 2)
    d3_fixed, k4_fixed = (set(predicted_invariant_set(case, p).keys()) for case in ("N5_D3", "N5_K4"))
    keys = KeySet.of(params, sample_keys(params, 200, seed=p) | d3_fixed | k4_fixed)
    listed = keys.keys()
    k4 = close_group([parse_cycles("(3 5)(4 6)", 6), parse_cycles("(1 2)(3 4)(5 6)", 6)])
    others = [parse_cycles(c, 6) for c in ("(1 6)", "(2 6 4)", "(1 2 3 4 5 6)", "(1 2)")]
    sigmas = [*D3, *k4, *others]
    for sigma, mask in zip(sigmas, _fixed_masks(keys.rows, params, sigmas).tolist()):
        assert mask == [act(sigma, key) == key for key in listed], sigma.cycle_string()
        for group, fixed in ((D3, d3_fixed), (k4, k4_fixed)):
            if sigma in group:  # every member of the group's family is among the fixed keys
                assert sum(mask) >= len(fixed) > 0


def test_image_rows_match_act_with_16_bit_digits():
    params = ActionParams(257, 3, 2)
    seeds = [named(name, params) for name in ("K(0,1)", "K(3)", "K(100,200)", "K(255,254)")]
    keys = KeySet.of(params, set().union(*(orbit_by_bfs(seed, S4) for seed in seeds)))
    listed = keys.keys()
    elements = S4.elements
    for sigma, rows in zip(elements, _image_rows(keys, elements)):
        images = [listed[i] for i in rows]
        assert images == [act(sigma, key) for key in listed], sigma.cycle_string()


@pytest.mark.parametrize("mode", ["exhaustive", "predicted"])
def test_triples_with_no_invariant_keys(mode):
    q8 = close_group([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(2 3 4)", 4)])
    res = classify_triples(P5, q8, mode=mode)
    assert len(res.invariant) == 0 and res.count == 0
    assert res.normalizer.order == 24


# ---------------------------------------------------------------------------
# the projective-vector scan behind invariant_keys_full, against the table mask


def _scan_oracle_cases():
    """(n, m, p, group name) for every oracle case, grouped so each table is built once."""
    cases = []
    for n in (3, 4, 5):
        names = ["(1 2)", "(1 2 3)", f"{n + 1}-cycle", f"S{n + 1}"]
        names += ["D3", "K4", "(1 2)(3 4)(5 6)"] if n == 5 else []
        for m in (1, 2):
            for p in (2, 3, 5, 7, 11, 13):
                if (n - 1) * (p - 1) <= 2:
                    continue  # not hyperbolic
                for name in names:
                    if p < 13 or name in ("D3", "K4", "(1 2)(3 4)(5 6)"):
                        cases.append(pytest.param(n, m, p, name, id=f"n{n}-m{m}-p{p}-{name}"))
    return cases


def _scan_group(n, name):
    degree = n + 1
    if name == f"S{degree}":
        return symmetric_group(degree)
    if name in ("D3", "K4"):
        return case_group(f"N5_{name}")
    if name == f"{degree}-cycle":
        name = "(" + " ".join(str(j) for j in range(1, degree + 1)) + ")"
    return close_group([parse_cycles(name, degree)])


@lru_cache(maxsize=1)
def _oracle_table(params):
    """The whole table, built once for the consecutive oracle cases that share it."""
    return KeySet.full(params)


@pytest.mark.parametrize("n, m, p, name", _scan_oracle_cases())
def test_invariant_keys_full_matches_the_table_mask(n, m, p, name):
    params, group = ActionParams(p, n, m), _scan_group(n, name)
    assert invariant_keys_full(params, group) == invariant_set(_oracle_table(params), group)


@pytest.mark.parametrize("m", [1, 2])
def test_invariant_keys_full_of_the_trivial_group_is_everything(m):
    params = ActionParams(5, 4, m)  # one common eigenspace, all of F_p^n
    assert invariant_keys_full(params, close_group([], degree=5)) == KeySet.full(params)


def test_invariant_keys_full_does_not_depend_on_the_scan_chunk(monkeypatch):
    import zpaction.classify

    cases = [
        (ActionParams(5, 5, 2), D3),
        (ActionParams(5, 5, 2), close_group([parse_cycles("(1 2)", 6)])),
        (ActionParams(7, 4, 2), close_group([parse_cycles("(1 2)(3 4)", 5)])),
        (ActionParams(7, 5, 1), D3),
    ]
    expected = [invariant_keys_full(params, group) for params, group in cases]
    assert all(len(keys) for keys in expected)
    for chunk in (1, 3, 7):  # block ends fall inside pivot patterns and inside eigenspace walks
        _set_block(monkeypatch, chunk)
        assert [invariant_keys_full(params, group) for params, group in cases] == expected


@pytest.mark.parametrize(
    "params, group, empty",
    [(ActionParams(5, 5, 2), D3, False), (ActionParams(7, 5, 1), D3, False),
     (ActionParams(5, 3, 1), S4, True)],  # S_4 shares no eigenvector on F_5^3: no block at all
    ids=["m2", "m1", "m1-no-block"],
)
def test_invariant_keys_full_sorts_and_deduplicates_once(monkeypatch, params, group, empty):
    expected = invariant_set(KeySet.full(params), group)
    assert (len(expected) == 0) == empty
    from_rows, calls = KeySet.from_rows, []

    def counting_from_rows(cls, params, rows):
        calls.append(len(rows))
        return from_rows(params, rows)

    monkeypatch.setattr(KeySet, "from_rows", classmethod(counting_from_rows))
    _set_block(monkeypatch, 7)  # many candidate blocks
    assert invariant_keys_full(params, group) == expected
    assert len(calls) == 1


def test_identity_like_group_is_refused_before_the_eigenspace_walk(monkeypatch):
    # the identity has one eigenspace, all of F_5^4: [4 choose 2]_5 = 806 planes, over 500
    import zpaction.classify

    real = zpaction.classify._rref_walk

    def walk(p, rank, n):
        if rank == 2:
            raise AssertionError("the eigenspace walk started")
        return real(p, rank, n)

    monkeypatch.setattr(zpaction.classify, "_rref_walk", walk)
    identity = close_group([parse_cycles("()", 5)])
    with pytest.raises(ScaleCapError, match=r"\(estimated eigenspace planes: 806\)"):
        invariant_keys_full(ActionParams(5, 4, 2), identity, max_candidates=500)
    # m = 1 walks no planes, so the same cap admits its 156 projective vectors
    lines = ActionParams(5, 4, 1)
    assert invariant_keys_full(lines, identity, max_candidates=500) == KeySet.full(lines)


# (n, p, generators, what the scan element must be): components with eigenvalues in F_{p^2}
# only ("quadratic"), a best h that is no generator, and p-groups, whose only h is the identity
SCAN_ELEMENT_CASES = [
    (4, 19, ["(1 2 3 4 5)"], "quadratic"),
    (4, 29, ["(1 2 3 4 5)"], "quadratic"),
    (4, 5, ["(1 2 3)"], "quadratic"),
    (5, 5, ["(1 2 3)"], "quadratic"),
    (4, 11, ["(1 2 3)"], "quadratic"),
    (5, 2, ["(1 2)", "(2 3)"], "no generator"),
    (5, 3, ["(1 2)", "(2 3)"], "any"),
    (4, 2, ["(1 2)(3 4 5)"], "no generator"),
    (5, 2, ["(1 2)(3 4 5)"], "no generator"),
    (4, 3, ["(1 2)(3 4 5)"], "no generator"),
    (5, 3, ["(1 2)(3 4 5)"], "no generator"),
    (5, 2, ["(3 5)(4 6)", "(1 2)(3 4)(5 6)"], "identity"),
    (5, 2, ["(1 2 3 4)", "(1 3)"], "identity"),
    (5, 3, ["(1 2 3)", "(4 5 6)"], "identity"),
    (4, 5, ["(1 2 3 4 5)"], "identity"),
    (5, 5, ["(1 2 3 4 5)"], "identity"),
]


def _scan_element_cases():
    return [pytest.param(n, m, p, gens, want, id=f"n{n}-m{m}-p{p}-{''.join(gens)}")
            for n, p, gens, want in SCAN_ELEMENT_CASES for m in (1, 2)]


@pytest.mark.parametrize("n, m, p, gens, want", _scan_element_cases())
def test_invariant_keys_full_matches_the_table_mask_from_the_scan_element(n, m, p, gens, want):
    params, group = ActionParams(p, n, m), close_group([parse_cycles(g, n + 1) for g in gens])
    h, eigenspaces, quadratic, count = _scan_element(params, group)
    if want == "identity":
        assert h == Permutation.identity(n + 1) and count == _subspace_count(p, n, 1)
        assert [basis.tolist() for basis in eigenspaces] == [np.eye(n, dtype=int).tolist()]
    elif want == "no generator":
        assert h not in group.generators and h != Permutation.identity(n + 1)
    elif want == "quadratic":
        assert (len(quadratic) == 1) == (m == 2) and len(eigenspaces) < 2  # no pairs to walk
    assert invariant_keys_full(params, group) == invariant_set(_oracle_table(params), group)


@pytest.mark.parametrize("n, m, p, gens, want", _scan_element_cases()[::3] + [
    pytest.param(5, m, p, [g.cycle_string() for g in case_group(name).generators], "any", id=f"{name}-m{m}-p{p}")
    for name in ("N5_D3", "N5_K4") for m in (1, 2) for p in (7, 13)])
def test_the_scan_walks_the_chosen_elements_count(monkeypatch, n, m, p, gens, want):
    # the points through _orbit_spans and the pairs through _rref_columns are the count,
    # which is never above the identity's [n choose 1]_p
    params, group = ActionParams(p, n, m), close_group([parse_cycles(g, n + 1) for g in gens])
    count, walked = _scan_element(params, group)[-1], []
    spans, rref_columns = zpaction.classify._orbit_spans, zpaction.classify._rref_columns

    def counted_spans(vectors, images, params):
        walked.append(len(vectors))  # (K, 1, n)
        return spans(vectors, images, params)

    def counted_rref_columns(columns, params):
        walked.append(columns.shape[2])  # (2, n, K)
        return rref_columns(columns, params)

    monkeypatch.setattr(zpaction.classify, "_orbit_spans", counted_spans)
    monkeypatch.setattr(zpaction.classify, "_rref_columns", counted_rref_columns)
    invariant_keys_full(params, group)
    assert sum(walked) == count <= _subspace_count(p, n, 1)


@pytest.mark.parametrize("params, gens", [
    (ActionParams(13, 5, 2), ["(1 2 3)(4 5 6)", "(1 4)(2 6)(3 5)"]),
    (ActionParams(7, 5, 2), ["(3 5)(4 6)", "(1 2)(3 4)(5 6)"]),
    (ActionParams(11, 5, 2), ["(1 2)(3 4)(5 6)"]),
    (ActionParams(11, 5, 1), ["(1 2)(3 4)(5 6)"]),
    (ActionParams(19, 4, 2), ["(1 2 3 4 5)"]),
    (ActionParams(5, 5, 2), ["(1 2 3)"]),
    (ActionParams(2, 5, 2), ["(1 2)", "(2 3)"]),
], ids=["D3", "K4", "involution", "involution-m1", "5-cycle", "3-cycle", "S3"])
def test_the_identity_as_scan_element_gives_the_same_keys(monkeypatch, params, gens):
    group = close_group([parse_cycles(g, params.n + 1) for g in gens])
    keys = invariant_keys_full(params, group)
    assert _scan_element(params, group)[0] != Permutation.identity(params.n + 1)
    real = _scan_element
    monkeypatch.setattr(zpaction.classify, "_scan_element",
                        lambda params, group: real(params, close_group([], degree=params.n + 1)))
    assert invariant_keys_full(params, group) == keys


def test_the_scan_element_of_a_group_larger_than_the_walk_needs_no_classes(monkeypatch):
    # S_9 has 362,880 elements and F_2^8 has 255 points: only the identity and the generators are tried
    from zpaction.hgroup import PermGroup

    params = ActionParams(2, 8, 2)
    expected = invariant_set(KeySet.full(params), symmetric_group(9))

    def no_classes(group):
        raise AssertionError("the conjugacy classes were computed")

    monkeypatch.setattr(PermGroup, "conjugacy_classes", property(no_classes))
    assert _scan_element(params, symmetric_group(9))[0] == parse_cycles("(1 2 3 4 5 6 7 8 9)", 9)
    assert invariant_keys_full(params, symmetric_group(9)) == expected


@pytest.mark.parametrize("p", [17, 19, 23, 29, 53])
@pytest.mark.parametrize("case", ["N5_D3", "N5_K4"])
def test_exhaustive_matches_predicted_past_p13(case, p):
    params, group = ActionParams(p, 5, 2), case_group(case)
    exhaustive = classify_triples(params, group, mode="exhaustive", max_candidates=10**9)
    predicted = classify_triples(params, group, mode="predicted")
    assert exhaustive.invariant == predicted.invariant and len(exhaustive.invariant) > 0
    assert exhaustive.count == predicted.count


@pytest.mark.parametrize("p, m, n", [(5, 3, 5), (7, 4, 4), (2, 3, 6), (13, 2, 3)])
def test_rref_rows_report_each_rank(p, m, n):
    params = ActionParams(p, n, 1)  # _rref_rows reads only p from it
    rng = random.Random(p * 100 + m * 10 + n)
    matrices = []
    for rank in range(min(m, n) + 1):  # every rank, built as products of random factors
        for _ in range(20):
            left = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
            right = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
            matrices.append([[sum(left[i][k] * right[k][j] for k in range(rank)) % p
                              for j in range(n)] for i in range(m)])
    block = np.array(matrices, dtype=np.uint16).reshape(-1, m, n)
    ranks = _rref_rows(block, params)
    for matrix, reduced, rank in zip(matrices, block.tolist(), ranks.tolist()):
        expected, expected_rank = rref(FpMatrix(params.modulus, tuple(map(tuple, matrix)), n))
        assert (reduced, rank) == ([list(row) for row in expected.entries], expected_rank)


# ---------------------------------------------------------------------------
# the scan's closed-form spans, against the batched elimination of the whole stacks

SPAN_GROUPS = ["no generator", "(1 2)", "D3", "K4", "(1 2)(3 4)(5 6)", "6-cycle"]  # n = 5
SPAN_GROUPS_N3 = ["no generator", "(1 2)", "(1 2)(3 4)", "4-cycle", "S4"]


def _span_group(n, name):
    return close_group([], degree=n + 1) if name == "no generator" else _scan_group(n, name)


def _eliminated_spans(vectors, images, params):
    """What ``_orbit_spans`` returns, read off ``_rref_rows`` of the whole (1 + r, n) stacks.

    Like ``_orbit_spans`` it keeps a plane only when v's entry at the plane's second pivot is
    at most 1.
    """
    stack = np.concatenate([vectors, *images], axis=1)
    pivots = (vectors[:, 0] != 0).argmax(axis=1)
    characters = stack[np.arange(len(stack)), 1:, pivots]
    ranks = _rref_rows(stack, params)
    planes = stack[ranks == 2, :2].reshape(-1, 2, params.n)  # (0, 2, n) also when the stack is v alone
    second_pivots = (planes[:, 1] != 0).argmax(axis=1)
    kept = vectors[ranks == 2, 0][np.arange(len(planes)), second_pivots] <= 1
    return characters, np.minimum(ranks, 3), planes[kept]


def _check_spans(vectors, group, params):
    """Assert that both routes agree on the rref rows ``vectors``; returns the ranks."""
    vectors = vectors.astype(_product_dtype(params))
    images = [_moved_rows(_extended(vectors, params), g) for g in group.generators]
    got = _orbit_spans(vectors, images, params)
    expected = _eliminated_spans(vectors, images, params)
    assert [a.tolist() for a in got] == [a.tolist() for a in expected]
    return set(got[1].tolist())


def _whole_walk_cases():
    cases = [(p, 5, name) for p in (2, 3) for name in SPAN_GROUPS]
    cases += [(p, 3, name) for p in (31, 53) for name in SPAN_GROUPS_N3]
    return [pytest.param(p, n, name, id=f"p{p}-n{n}-{name}") for p, n, name in cases]


@pytest.mark.parametrize("p, n, name", _whole_walk_cases())
def test_orbit_spans_match_the_elimination_on_whole_walks(monkeypatch, p, n, name):
    params, group = ActionParams(p, n, 1), _span_group(n, name)
    ranks = set()
    _set_block(monkeypatch, 1000)
    for vectors in _rref_walk(p, 1, n):
        ranks |= _check_spans(vectors, group, params)
    assert (ranks == {1}) if name == "no generator" else (2 in ranks)


@pytest.mark.parametrize("p, n, name", [(31, 3, "(1 2)"), (13, 5, "(1 2)(3 4)(5 6)"), (7, 5, "D3")])
def test_orbit_spans_keep_each_plane_from_at_most_three_vectors(monkeypatch, p, n, name):
    params, group = ActionParams(p, n, 2), _span_group(n, name)
    kept, spans = [], []
    _set_block(monkeypatch, 1 << 12)
    for vectors in _rref_walk(p, 1, n):
        vectors = vectors.astype(_product_dtype(params))
        images = [_moved_rows(_extended(vectors, params), g) for g in group.generators]
        kept.append(_orbit_spans(vectors, images, params)[2])
        stack = np.concatenate([vectors, *images], axis=1)
        ranks = _rref_rows(stack, params)
        spans.append(stack[ranks == 2, :2])
    kept, spans = np.concatenate(kept), np.concatenate(spans)
    _, multiplicity = np.unique(kept.reshape(len(kept), -1), axis=0, return_counts=True)
    assert 0 < multiplicity.max() <= 3
    assert invariant_set(KeySet.from_rows(params, kept), group) == invariant_set(
        KeySet.from_rows(params, spans), group)


@lru_cache(maxsize=None)
def _common_eigenspaces(p, name):
    """rref bases of the nonzero common eigenspaces E_chi of the generators on F_p^5, from kernels."""
    params, group = ActionParams(p, 5, 1), _span_group(5, name)
    units = np.eye(5, dtype=np.uint16)[:, None, :]
    matrices = [_moved_rows(_extended(units, params), g)[:, 0].tolist() for g in group.generators]  # g v = v M
    orders = [math.lcm(*map(len, g.cycles())) for g in group.generators]
    roots = [[x for x in range(1, p) if pow(x, order, p) == 1] for order in orders]
    spaces = []
    for chi in itertools.product(*roots):
        # v M = chi v  <=>  (M^T - chi I) v^T = 0
        rows = tuple(tuple(matrix[j][i] - c * (i == j) for j in range(5))
                     for matrix, c in zip(matrices, chi) for i in range(5))
        basis = kernel_basis(FpMatrix(params.modulus, rows, 5))
        if basis.rows:
            spaces.append(basis.entries)
    return tuple(spaces)


def _combination(basis, p):
    """A nonzero vector of the span of the independent rows ``basis``."""
    coefficients = st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis)).filter(any)
    return coefficients.map(lambda cs: [sum(c * row[j] for c, row in zip(cs, basis)) % p for j in range(5)])


@st.composite
def _span_vectors(draw, p, name):
    """Vectors of F_p^5, scaled to a leading 1: a common eigenvector (rank 1), a sum of two
    from distinct eigenspaces (rank 2), then any mix of eigenvectors and arbitrary vectors."""
    spaces = _common_eigenspaces(p, name)
    eigenvectors = st.sampled_from(spaces).flatmap(lambda basis: _combination(basis, p))
    vectors = [draw(eigenvectors)]
    if len(spaces) > 1:
        pair = draw(st.lists(st.sampled_from(range(len(spaces))), min_size=2, max_size=2, unique=True))
        summands = [draw(_combination(spaces[i], p)) for i in pair]
        vectors.append([(a + b) % p for a, b in zip(*summands)])
    anything = st.lists(st.integers(0, p - 1), min_size=5, max_size=5).filter(any)
    vectors += draw(st.lists(st.one_of(eigenvectors, anything), max_size=30))
    return [[x * pow(next(filter(None, v)), -1, p) % p for x in v] for v in vectors]


@pytest.mark.parametrize("p", [31, 53])
@pytest.mark.parametrize("name", SPAN_GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_orbit_spans_match_the_elimination_on_sampled_vectors(p, name, data):
    vectors = data.draw(_span_vectors(p, name))
    ranks = _check_spans(np.array(vectors)[:, None, :], _span_group(5, name), ActionParams(p, 5, 1))
    assert 1 in ranks and (2 in ranks or len(_common_eigenspaces(p, name)) == 1)


def _span_route_cases():
    cases = [(p, 5, m, name) for p in (2, 3) for m in (1, 2) for name in SPAN_GROUPS]
    cases += [(p, 3, m, name) for p in (31, 53) for m in (1, 2) for name in SPAN_GROUPS_N3]
    return [pytest.param(p, n, m, name, id=f"p{p}-n{n}-m{m}-{name}") for p, n, m, name in cases]


@pytest.mark.parametrize("p, n, m, name", _span_route_cases())
def test_invariant_keys_full_with_the_spans_eliminated(monkeypatch, p, n, m, name):
    import zpaction.classify

    params, group = ActionParams(p, n, m), _span_group(n, name)
    keys = invariant_keys_full(params, group)
    monkeypatch.setattr(zpaction.classify, "_orbit_spans", _eliminated_spans)
    assert invariant_keys_full(params, group) == keys
    assert invariant_set(KeySet.full(params), group) == keys


# ---------------------------------------------------------------------------
# route B, the keyless Burnside count, and the closed-form rref of orbit closure


def _space_size(p, n, m):
    """|F(p, n, m)| by inclusion-exclusion over the generators in K (route A's identity term)."""
    def subspaces(dim):
        return math.prod(p**dim - p**i for i in range(m)) // math.prod(p**m - p**i for i in range(m))
    return sum((-1) ** s * math.comb(n + 1, s) * subspaces(n - s) for s in range(n + 1))


def _keyless_cases():
    """Every (p, n, m <= 2) with p <= 13 and n <= 7 whose table has at most 10^6 rows."""
    cases = []
    for p, n, m in itertools.product((2, 3, 5, 7, 11, 13), range(2, 8), (1, 2)):
        if m <= n and (n - 1) * (p - 1) > 2 and _space_size(p, n, m) <= 10**6:
            cases.append(pytest.param(p, n, m, id=f"p{p}-n{n}-m{m}"))
    return cases


@lru_cache(maxsize=None)
def _keyless_groups(degree):
    """S_degree, the trivial group, the full cycle and, from degree 6, D3, K4 and an involution."""
    groups = [symmetric_group(degree), close_group([], degree=degree),
              close_group([Permutation((*range(2, degree + 1), 1))])]
    if degree >= 6:
        for generators in (D3.generators, case_group("N5_K4").generators,
                           [parse_cycles("(1 2)(3 4)(5 6)", 6)]):
            groups.append(close_group([parse_cycles(g.cycle_string(), degree) for g in generators]))
    return groups


@pytest.mark.parametrize("p, n, m", _keyless_cases())
def test_keyless_count_matches_the_table_burnside(p, n, m):
    params = ActionParams(p, n, m)
    keys = KeySet.full(params)
    assert len(keys) == _space_size(p, n, m)
    for group in _keyless_groups(n + 1):
        assert count_orbits_keyless(params, group) == count_orbits_burnside(keys, group), group.order


def test_keyless_count_reproduces_the_published_counts():
    from zpaction.acceptance import N3_ORBIT_TABLE

    s4, s6 = symmetric_group(4), symmetric_group(6)
    assert {p: count_orbits_keyless(ActionParams(p, 3, 2), s4) for p in N3_ORBIT_TABLE} == N3_ORBIT_TABLE
    n5 = {5: 58, 7: 282, 11: 3086, 13: 7974, 17: 37408, 19: 71688, 31: 1290318}
    assert {p: count_orbits_keyless(ActionParams(p, 5, 2), s6) for p in n5} == n5


def test_keyless_count_covers_m_up_to_2_only():
    with pytest.raises(ValueError, match="m <= 2"):
        count_orbits_keyless(ActionParams(3, 4, 3), symmetric_group(5))
    with pytest.raises(ValueError, match="degree"):
        count_orbits_keyless(ActionParams(5, 3, 2), symmetric_group(5))


def test_keyless_count_checks_its_divisibility(monkeypatch):
    import zpaction.keyless

    real = zpaction.keyless._zero_sum_count
    monkeypatch.setattr(zpaction.keyless, "_zero_sum_count", lambda p, w, cycles: real(p, w, cycles) + 1)
    with pytest.raises(VerificationError, match="not divisible"):
        count_orbits_keyless(ActionParams(5, 3, 2), S4)


@pytest.mark.parametrize("p, n, m", [(3, 4, 2), (5, 5, 2), (2, 6, 2), (5, 4, 1), (3, 5, 1)])
def test_scanned_count_matches_the_keyless_count(p, n, m):
    params = ActionParams(p, n, m)
    for group in _keyless_groups(n + 1):
        assert count_orbits_scanned(params, group) == count_orbits_keyless(params, group), group.order


def _no_table(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the table build started")

    monkeypatch.setattr(zpaction.enumeration, "theta_table", never)


@pytest.mark.parametrize("p, n, m", [(3, 4, 3), (2, 5, 3), (5, 5, 3), (2, 6, 4)])
def test_scanned_count_builds_no_table_at_m3(monkeypatch, p, n, m):
    params = ActionParams(p, n, m)
    expected = [burnside_count_full(params, group) for group in _keyless_groups(n + 1)]
    _no_table(monkeypatch)
    for group, count in zip(_keyless_groups(n + 1), expected):
        assert count_orbits_scanned(params, group) == count, group.order


@pytest.mark.parametrize("p, n, m", [(3, 4, 3), (5, 5, 3), (2, 6, 4)])
def test_scanned_count_walks_the_space_once_at_m3(monkeypatch, p, n, m):
    params, group = ActionParams(p, n, m), symmetric_group(n + 1)
    expected = burnside_count_full(params, group)
    real, walks = zpaction.classify._rref_walk, []

    def walk(p, rank, n):
        walks.append(rank)
        return real(p, rank, n)

    monkeypatch.setattr(zpaction.classify, "_rref_walk", walk)
    assert count_orbits_scanned(params, group) == expected
    assert walks == [m]  # every cycle type's representative masks the one walk


def test_scanned_count_checks_its_divisibility_at_m3(monkeypatch):
    real = zpaction.classify._fixed_counts
    monkeypatch.setattr(zpaction.classify, "_fixed_counts", lambda *args: real(*args) + 1)
    with pytest.raises(VerificationError, match="not divisible"):
        count_orbits_scanned(ActionParams(3, 4, 3), symmetric_group(5))


# D3, K4, an involution and the full cycle at degrees 5 and 6; at degree 5, where the
# paper's D3 and K4 do not act, D3 acts on three points and K4 on four.
_M3_GROUPS = {
    5: [["(1 2 3)", "(1 2)"], ["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 2)(3 4)"], ["(1 2 3 4 5)"]],
    6: [[g.cycle_string() for g in case_group(name).generators] for name in ("N5_D3", "N5_K4")]
       + [["(1 2)(3 4)(5 6)"], ["(1 2 3 4 5 6)"]],
}


@pytest.mark.parametrize("p, n, m", [(3, 4, 3), (3, 5, 3), (5, 5, 3)])
def test_invariant_keys_full_at_m3_masks_the_walk_and_builds_no_table(monkeypatch, p, n, m):
    params = ActionParams(p, n, m)
    groups = [close_group([parse_cycles(g, n + 1) for g in gens]) for gens in _M3_GROUPS[n + 1]]
    table = KeySet.full(params)
    expected = [invariant_set(table, group) for group in groups]
    for keys, group in zip(expected, groups):  # every generator masks the whole table
        masks = _fixed_masks(table.rows, params, group.generators)
        assert np.array_equal(keys.rows, table.rows[masks.all(axis=0)])
    assert any(len(keys) for keys in expected)  # the full cycle at (3, 4, 3) fixes none
    _no_table(monkeypatch)
    _set_block(monkeypatch, 7)  # block ends fall inside pivot patterns
    assert [invariant_keys_full(params, group) for group in groups] == expected


@pytest.mark.parametrize("p, n, m", [(3, 4, 3), (2, 6, 4)])
def test_scanned_count_of_the_trivial_group_passes_any_table_cap_at_m3(p, n, m):
    params = ActionParams(p, n, m)
    with pytest.raises(ScaleCapError):
        KeySet.full(params, max_candidates=1)
    assert count_orbits_scanned(params, close_group([], degree=n + 1), max_candidates=1) == len(
        KeySet.full(params))


def test_scanned_count_builds_no_table(monkeypatch):
    _no_table(monkeypatch)
    assert count_orbits_scanned(ActionParams(13, 5, 2), symmetric_group(6)) == 7974


def _moved_tables():
    """Whole tables at m = 1 and 2, with p = 2, 3 and both sides of the uint16 product dtype."""
    cases = [(2, 6, 2), (3, 5, 1), (3, 5, 2), (5, 5, 2), (7, 4, 1), (113, 3, 2), (127, 3, 2), (257, 3, 1)]
    return [pytest.param(p, n, m, id=f"p{p}-n{n}-m{m}") for p, n, m in cases]


@pytest.mark.parametrize("p, n, m", _moved_tables())
def test_closed_form_rref_matches_the_elimination_on_whole_tables(p, n, m):
    params = ActionParams(p, n, m)
    keys = KeySet.full(params)
    columns = _extended(keys.rows, params)
    theta = keys.rows.astype(np.int64)
    extended = np.concatenate([theta, -theta.sum(axis=2, keepdims=True) % p], axis=2)  # [theta | a_{n+1}]
    for sigma in symmetric_group(n + 1).generators + (Permutation.identity(n + 1),):
        moved = _moved_rows(columns, sigma)
        assert np.array_equal(moved, extended[:, :, np.argsort(sigma.images)[:n]])
        expected = moved.copy()
        _rref_rows(expected, params)
        assert np.array_equal(_rref_columns(moved.transpose(1, 2, 0), params).transpose(2, 0, 1), expected)


@pytest.mark.parametrize("p", [113, 127], ids=["uint16", "uint32"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_closed_form_rref_matches_the_elimination_on_sampled_matrices(p, data):
    # any rank-2 (2, 5) matrix, not only moved keys; n(p-1)^2 + p passes 16 bits between the primes
    params = ActionParams(p, 5, 2)
    reduced = lambda mat: rref(FpMatrix(params.modulus, tuple(map(tuple, mat))))
    row = st.lists(st.integers(0, p - 1), min_size=5, max_size=5)
    matrix = st.lists(row, min_size=2, max_size=2).filter(lambda mat: reduced(mat)[1] == 2)
    matrices = data.draw(st.lists(matrix, min_size=1, max_size=20))
    columns = np.array(matrices, dtype=digit_dtype(p)).transpose(1, 2, 0)  # as orbit closure has them
    closed = _rref_columns(np.ascontiguousarray(columns), params).transpose(2, 0, 1)
    block = np.array(matrices, dtype=_product_dtype(params))
    _rref_rows(block, params)
    assert np.array_equal(closed, block)
    assert [[list(r) for r in reduced(mat)[0].entries] for mat in matrices] == block.tolist()


@pytest.mark.parametrize(
    "params, group",
    [(ActionParams(5, 5, 2), D3), (ActionParams(13, 4, 1), symmetric_group(5)),
     (ActionParams(3, 5, 3), symmetric_group(6))],
    ids=["m2", "m1", "m3"],
)
def test_orbit_partition_does_not_depend_on_the_closure_chunk(monkeypatch, params, group):
    import zpaction.classify

    keys = KeySet.full(params)
    whole = orbit_partition(keys, group).labels
    _set_block(monkeypatch, 97)
    assert len(keys) > 97 * 3
    assert np.array_equal(orbit_partition(keys, group).labels, whole)
