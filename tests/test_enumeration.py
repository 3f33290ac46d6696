import itertools
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fp_oracle import SingularMatrixError, mat_inverse
from zpaction import enumeration
from zpaction.fpalgebra import (
    DimensionMismatchError,
    FpMatrix,
    NotPrimeError,
    PrimeModulus,
    kernel_basis,
    rref,
)
from zpaction.enumeration import (
    NAMED_FORMS,
    ActionParams,
    AdmissibilityError,
    KeySet,
    ScaleCapError,
    SubgroupKey,
    brute_force_oracle,
    enumerate_actions,
    key_from_digit_string,
    key_from_named,
    key_from_theta,
    theta_table,
)
from zpaction.hgroup import Permutation, row_codes


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


@pytest.mark.parametrize("p,n,m", [(3, 3, 2), (5, 3, 2), (2, 5, 2), (3, 4, 2), (3, 4, 1), (2, 5, 3)])
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


@pytest.mark.parametrize(
    "p, n, m",
    [(2, 5, 1), (2, 6, 2), (2, 6, 3), (3, 5, 1), (3, 5, 2), (3, 5, 3),
     (257, 3, 1), (257, 3, 2), (257, 3, 3)],
)
def test_theta_table_rows_come_in_digit_order(p, n, m):
    # the walk leaves digit order from n = 4 on; the lexsort of the flat digits is the oracle
    walk = [mats[enumeration._admissible(mats, p)] for mats in enumeration._rref_walk(p, m, n)]
    walk = np.concatenate(walk)
    flat = walk.reshape(len(walk), m * n)
    assert np.array_equal(theta_table(ActionParams(p, n, m)), walk[np.lexsort(flat[:, ::-1].T)])


def _admissible_reference(matrix, p: int) -> bool:
    """Every column nonzero, and the implied image of a_{n+1}, minus the row sums, nonzero."""
    return all(any(column) for column in zip(*matrix)) and any(sum(row) % p for row in matrix)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 13, 65521])
def test_admissible_matches_the_per_matrix_reference(p, m):
    # any (m, n) matrices, not only rref ones: random digits, zero columns and zero row sums mod p
    n, rng = 5, np.random.default_rng(p + m)
    dtype = enumeration.digit_dtype(p)
    mats = rng.integers(0, p, size=(300, m, n)).astype(dtype)
    mats[:40, :, rng.integers(0, n)] = 0  # a zero column
    mats[40:120, :, -1] = (-mats[40:120, :, :-1].sum(axis=2, dtype=np.int64)) % p  # row sums 0 mod p
    if p == 65521:
        mats[120:200] = rng.integers(p - 8, p, size=(80, m, n))
        assert (mats.sum(axis=2, dtype=np.int64) >= 1 << 16).any()  # uint16 sums would wrap
    mask = enumeration._admissible(mats, p)
    assert mask.tolist() == [_admissible_reference(matrix, p) for matrix in mats.tolist()]
    assert mask.any() and not mask[:120].any()  # the first 120 all fail, and some pass
    assert enumeration._admissible(np.zeros((0, m, n), dtype), p).shape == (0,)


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


@pytest.mark.parametrize("p", [5, 1451])
def test_key_set_rows_of_unsorted_targets_with_repeats(p):
    # int64 codes at p = 5, byte codes at p = 1451: rows scattered back to the targets' order
    params = ActionParams(p, 3, 2)
    key_set = KeySet.full(params) if p == 5 else _sampled_key_set(params, 500, 3)
    row_of = {tuple(row): i for i, row in enumerate(key_set.rows.reshape(len(key_set), 6).tolist())}
    picks = np.random.default_rng(p).integers(0, len(key_set), size=3 * len(key_set))
    targets = key_set.rows[picks]
    expected = [row_of[tuple(row)] for row in targets.reshape(len(targets), 6).tolist()]
    assert key_set.rows_of(targets).tolist() == expected == picks.tolist()
    absent = KeySet.from_rows(params, np.delete(key_set.rows, picks[7], axis=0))
    with pytest.raises(KeyError):
        absent.rows_of(targets)


@pytest.mark.parametrize("p, kind", [(1447, "i"), (1451, "V")])
def test_key_sets_at_the_row_code_switch(p, kind):
    # keys at (3, 2) have six digits: int64 codes while p^6 < 2^63 (p = 1447), byte codes above
    params = ActionParams(p, 3, 2)
    rng = random.Random(p)
    rows = [[[1, 0, rng.randrange(1, p)], [0, 1, rng.randrange(1, p - 1)]] for _ in range(300)]
    rows += [[[1, rng.randrange(1, p), 0], [0, 0, 1]] for _ in range(100)]
    rows += [[[1, 0, p - 1], [0, 1, p - 2]], [[1, p - 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 1]]]
    key_set = KeySet.from_rows(params, np.array(rows))
    assert row_codes(key_set.rows, p).dtype.kind == kind
    expected = sorted({tuple(first + second) for first, second in rows})
    assert list(map(tuple, key_set.rows.reshape(len(key_set), 6).tolist())) == expected
    assert key_set.rows_of(key_set.rows[::-1]).tolist() == list(range(len(key_set)))[::-1]
    missing = [[1, 0, p - 1], [0, 1, p - 1]]  # not admissible, so never a row
    with pytest.raises(KeyError):
        key_set.rows_of(np.array([missing], dtype=key_set.rows.dtype))


def test_empty_key_sets():
    assert row_codes(np.zeros((0, 2, 3), np.uint8), 5).shape == (0,)
    empty = KeySet.of(ActionParams(5, 3, 2), [])
    assert len(empty) == 0 and empty.rows.shape == (0, 2, 3)
    assert empty.keys() == [] and empty.digit_strings() == []


def _sampled_key_set(params: ActionParams, count: int, seed: int) -> KeySet:
    """The whole table where it has at most 5,000 rows, else ``count`` keys from random matrices."""
    p, n, m = params.p, params.n, params.m
    if math.comb(n, m) * p ** (m * (n - m)) <= 5000:
        return KeySet.full(params)
    rng, keys = random.Random(seed), set()
    while len(keys) < count:
        try:
            keys.add(key_from_theta(params, [[rng.randrange(p) for _ in range(n)] for _ in range(m)]))
        except AdmissibilityError:
            pass
    return KeySet.of(params, keys)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 11, 101, 113, 257])
def test_digit_strings_match_the_keys(p, m):
    # 257 takes the uint16 digit dtype; the random rows reach three-digit entries
    params = ActionParams(p, max(m + 1, 5 if p == 2 else 3), m)
    key_set = _sampled_key_set(params, 300, p * 10 + m)
    assert len(key_set) > 0 and key_set.rows.dtype == (np.uint16 if p > 256 else np.uint8)
    assert key_set.digit_strings() == [key.digit_string() for key in key_set.keys()]


@pytest.mark.parametrize("params", [ActionParams(5, 3, 2), ActionParams(113, 3, 2), ActionParams(3, 5, 3)])
def test_digit_strings_across_blocks(params, monkeypatch):
    key_set = _sampled_key_set(params, 40, 1)
    expected = [key.digit_string() for key in key_set.keys()]
    monkeypatch.setattr(enumeration, "_BLOCK", 7)
    assert len(key_set) > 3 * 7 and key_set.digit_strings() == expected
    assert KeySet.of(params, []).digit_strings() == []


def test_digit_strings_of_rows_in_any_order():
    params = ActionParams(113, 3, 2)
    key_set = _sampled_key_set(params, 40, 2)
    order = np.random.default_rng(2).permutation(len(key_set))
    expected = [key_set.keys()[i].digit_string() for i in order]
    assert enumeration.digit_strings_of(params, key_set.rows[order]) == expected


@pytest.mark.parametrize("block", [7, enumeration._BLOCK])
def test_digit_text_lines_and_ends(block, monkeypatch):
    params = ActionParams(113, 3, 2)
    key_set = _sampled_key_set(params, 40, 4)
    strings = [key.digit_string() for key in key_set.keys()]
    monkeypatch.setattr(enumeration, "_BLOCK", block)
    text, ends = enumeration.digit_text(params, key_set.rows)
    assert text == "\n".join(strings) and len(strings) > 3 * 7
    starts = [0] + [end + 1 for end in ends.tolist()[:-1]]
    assert [text[a:b] for a, b in zip(starts, ends.tolist())] == strings
    assert enumeration.digit_text(params, key_set.rows[:0])[0] == ""
    assert enumeration.digit_text(params, key_set.rows[:0])[1].shape == (0,)


def test_digit_strings_build_no_table_of_the_modulus():
    # the largest modulus, five-digit entries near p - 1: well under p bytes of temporaries
    p = 65521
    key_set = KeySet(ActionParams(p, 2, 1), np.array([[[1, 10000]], [[1, p - 3]], [[1, p - 2]]], np.uint16))
    tracemalloc.start()
    try:
        strings = key_set.digit_strings()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert strings == ["1,10000", f"1,{p - 3}", f"1,{p - 2}"]
    assert strings == [key.digit_string() for key in key_set.keys()]
    assert peak < 16_384


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


@pytest.mark.parametrize("p,rows,message", [
    (5, ((0, 1, 0), (1, 0, 0)), "theta is not in reduced row-echelon form"),
    (5, ((1, 2, 3), (0, 0, 0)), "theta has rank < m = 2"),
    (5, ((1, 0, 0), (0, 1, 0)), "generator a_3 lies in the subgroup"),
    (5, ((1, 0, 4), (0, 1, 4)), "generator a_4 lies in the subgroup"),
    (5, ((1, 0), (0, 1)), "theta must be 2x3, got 2x2"),
    (7, ((1, 0, 1), (0, 1, 1)), "theta modulus differs from params"),
    (5, ((1, 0, 0), (0, 0, 1)), "generator a_2 lies in the subgroup"),
    (5, ((0, 1, 0), (0, 0, 1)), "generator a_1 lies in the subgroup"),
])
def test_subgroup_key_admissibility_messages(p, rows, message):
    with pytest.raises(AdmissibilityError, match=f"^{re.escape(message)}$"):
        SubgroupKey(ActionParams(5, 3, 2), FpMatrix(PrimeModulus(p), rows))


@pytest.mark.parametrize("rows, message", [
    (((1, 0, 0, 0, 2), (0, 0, 0, 1, 3)), "generator a_2 lies in the subgroup"),  # a_2 and a_3 both vanish
    (((1, 2, 0, 0, 0), (0, 0, 1, 0, 4)), "generator a_4 lies in the subgroup"),
    (((1, 1, 0, 1, 2), (0, 0, 1, 3, 1)), "generator a_6 lies in the subgroup"),  # the sums are 0 mod 5
])
def test_first_vanishing_image_names_the_error(rows, message):
    with pytest.raises(AdmissibilityError, match=f"^{re.escape(message)}$"):
        SubgroupKey(ActionParams(5, 5, 2), FpMatrix(PrimeModulus(5), rows))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 4, 2), (3, 3, 1), (5, 3, 2), (7, 5, 3), (31, 4, 2)]), st.data())
def test_images_are_the_columns_and_minus_the_row_sums(pnm, data):
    p, n, m = pnm
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=m, max_size=m))
    try:
        key = key_from_theta(ActionParams(p, n, m), rows)
    except AdmissibilityError:
        assume(False)
    entries = key.theta.entries
    assert key.images == tuple(zip(*entries)) + (tuple(-sum(row) % p for row in entries),)
    # images takes no part in eq, hash or repr
    twin = SubgroupKey(key.params, key.theta)
    object.__setattr__(twin, "images", ())
    assert twin == key and hash(twin) == hash(key) and repr(twin) == repr(key)
    assert "images" not in repr(key)


def test_key_pickle_round_trip():
    key = key_from_digit_string(ActionParams(7, 5, 2), "1,0,3,0,5;0,1,2,6,4")
    restored = pickle.loads(pickle.dumps(key))
    assert restored == key and hash(restored) == hash(key) and restored.images == key.images


def test_digit_string_rejects_ragged_and_empty_rows():
    params = ActionParams(5, 3, 2)
    with pytest.raises(DimensionMismatchError, match="^rows of unequal length$"):
        key_from_digit_string(params, "1,0,2;0,1")
    with pytest.raises(DimensionMismatchError, match="^rows of unequal length$"):
        key_from_digit_string(params, "1,0;0,1")  # both rows short of n = 3
    for text in ("1,0,2;", ";0,1,4", "1,0,2;;0,1,4", ""):
        with pytest.raises(ValueError, match="invalid literal for int"):
            key_from_digit_string(params, text)
    with pytest.raises(AdmissibilityError, match=r"^theta must be 2x3, got 1x3$"):
        key_from_digit_string(params, "1,0,2")


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


def key_from_generators(params: ActionParams, words) -> SubgroupKey:
    """Key of the subgroup generated by exponent words over a_1..a_{n+1}: the paper's notation.

    Each word is a length-(n+1) exponent sequence w; since a_{n+1} is
    -(e_1 + ... + e_n), its vector is (w_j - w_{n+1}) for j = 1..n.  The
    words must span a subgroup of rank exactly n - m.
    """
    n, m, p = params.n, params.m, params.p
    vectors = []
    for word in words:
        exps = tuple(word)
        if len(exps) != n + 1:
            raise ValueError(f"generator word must have {n + 1} exponents, got {len(exps)}")
        vectors.append(tuple((e - exps[n]) % p for e in exps[:n]))
    span = FpMatrix(params.modulus, tuple(vectors), n)
    _, rank = rref(span)
    if rank != n - m:
        raise AdmissibilityError(
            f"generators span a subgroup of rank {rank}, expected n - m = {n - m}"
        )
    return SubgroupKey(params, kernel_basis(span))


def _word(n: int, entries) -> tuple[int, ...]:
    w = [0] * (n + 1)
    for idx, e in entries:
        w[idx - 1] = e
    return tuple(w)


# The paper's generator words of every named form, as (generator, exponent) entries.
_PAPER_WORDS = {
    ("n3", "K", 2): lambda r, s: [[(1, r), (2, s), (3, -1)]],
    ("n3", "K", 1): lambda l: [[(1, l), (2, -1)]],
    ("d3", "K", 2): lambda r, s: [
        [(1, 1), (2, 1), (3, 1)], [(1, r), (2, s), (4, -1)], [(1, -s), (2, r - s), (5, -1)]
    ],
    ("d3", "K", 1): lambda l: [[(1, 1), (2, 1), (3, 1)], [(1, l), (2, -1)], [(4, l), (6, -1)]],
    ("k4", "K", 2): lambda r, s: [[(1, r), (2, s), (3, -1)], [(3, 1), (5, -1)], [(4, 1), (6, -1)]],
    ("k4", "K1", 0): lambda: [[(1, 1), (2, -1)], [(3, 1), (4, -1)], [(5, 1), (6, -1)]],
    ("k4", "K2", 0): lambda: [[(1, 1), (2, -1)], [(3, 1), (6, -1)], [(4, 1), (5, -1)]],
    ("k4", "K5", 0): lambda: [[(1, 1), (2, -1)], [(3, 1), (5, -1)], [(4, 1), (6, -1)]],
    ("k4", "K6", 0): lambda: [[(1, 1), (2, 1)], [(3, 1), (5, -1)], [(4, 1), (6, -1)]],
    ("k4", "K3", 1): lambda r: [[(1, r), (3, -1), (4, 1)], [(1, 1), (2, 1)], [(3, 1), (6, 1)]],
    ("k4", "K4", 1): lambda r: [[(1, r), (3, -1), (6, 1)], [(1, 1), (2, 1)], [(3, 1), (4, 1)]],
    ("k4", "Kbar1", 0): lambda: [[(1, 1), (2, 1)], [(3, 1), (4, 1)], [(3, 1), (5, 1)]],
    ("k4", "Kbar2", 0): lambda: [[(1, 1), (2, 1)], [(3, 1), (4, 1)], [(1, 1), (3, 1), (5, 1)]],
    ("k4", "Kbar3", 0): lambda: [[(1, 1), (2, 1)], [(3, 1), (5, 1)], [(1, 1), (3, 1), (4, 1)]],
    ("k4", "Kbar4", 0): lambda: [[(1, 1), (2, 1)], [(4, 1), (5, 1)], [(1, 1), (3, 1), (4, 1)]],
}


def _key_from_paper_words(params: ActionParams, family: str, form: str, args) -> SubgroupKey:
    """A named subgroup from its generator words, with the k4 family's own conditions on p."""
    p = params.p
    if family == "k4" and form.startswith("Kbar") and p != 2:
        raise ValueError(f"{form} only exists at p=2")
    if family == "k4" and form == "K" and (2 * sum(args) + 1) % p:
        raise AdmissibilityError(f"K{args} is not in the k4 family at p={p}")
    words = _PAPER_WORDS[family, form, len(args)](*args)
    return key_from_generators(params, [_word(params.n, entries) for entries in words])


def _outcome(resolve):
    """The key ``resolve()`` returns, or the type of the ValueError it raises."""
    try:
        return resolve()
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_named_forms_match_the_paper_words(p):
    # every name with parameters in 0..p-1: the same key, or the same rejection
    assert {(family, *form) for family, forms in NAMED_FORMS.items() for form in forms} == set(
        _PAPER_WORDS
    )
    resolved = 0
    for family, form, arity in _PAPER_WORDS:
        n = 3 if family == "n3" else 5
        if (n - 1) * (p - 1) <= 2:  # n = 3, p = 2 is not hyperbolic
            continue
        params = ActionParams(p, n, 2)
        for args in itertools.product(range(p), repeat=arity):
            name = form + (f"({','.join(map(str, args))})" if args else "")
            got = _outcome(lambda: key_from_named(params, name, family))
            assert got == _outcome(lambda: _key_from_paper_words(params, family, form, args)), name
            resolved += isinstance(got, SubgroupKey)
    assert resolved


def test_key_from_named_n3():
    params = ActionParams(5, 3, 2)
    key = key_from_named(params, "K(0,4)")
    assert key.theta.entries == ((1, 0, 0), (0, 1, 4))
    k1 = key_from_named(ActionParams(3, 3, 2), "K(1)")
    assert k1.theta.entries == ((1, 1, 0), (0, 0, 1))
    # kernel of K(r,s) is spanned by a_1^r a_2^s a_3^{-1}
    k = key_from_named(params, "K(2,3)")
    assert kernel_basis(k.theta).rows == 1
    assert key_from_generators(params, [(2, 3, -1, 0)]) == k


def test_key_from_named_rejects_inadmissible():
    params = ActionParams(5, 3, 2)
    with pytest.raises(AdmissibilityError):
        key_from_named(params, "K(4,4)")
    with pytest.raises(AdmissibilityError):
        key_from_named(params, "K(0,0)")
    with pytest.raises(AdmissibilityError):
        key_from_named(params, "K(0)")
    with pytest.raises(ValueError):
        key_from_named(params, "Q(1)")
    # parameters are residues 0..p-1, as key digits are: 5 and 7 are not read as 0 and 2
    for name in ("K(5)", "K(7,2)"):
        with pytest.raises(ValueError, match="outside 0..4"):
            key_from_named(params, name)


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


def _plane_form(key):
    """(t, l, r, s) of an m = 2 key, read off its rref rows (1, l, 0, r) and (0, ..., 0, 1, s)."""
    first, second = key.theta.entries
    t = second.index(1)
    return t, first[1:t], first[t + 1 :], second[t + 1 :]


def _key_from_words(params, t, l, r, s):
    """The words route: a plane form's relations as generator words, through ``key_from_generators``.

    K = <a1^{l_j} a_j^{-1} : j = 2..t> + <a1^{r_j} a_{t+1}^{s_j} a_j^{-1} : j = t+2..n>.
    """
    words = [_word(params.n, [(1, lj), (j, -1)]) for j, lj in enumerate(l, start=2)]
    words += [
        _word(params.n, [(1, rj), (t + 1, sj), (j, -1)])
        for j, (rj, sj) in enumerate(zip(r, s), start=t + 2)
    ]
    return key_from_generators(params, words)


@pytest.mark.parametrize("p,n", [(5, 3), (7, 3), (3, 4), (7, 4), (3, 5), (2, 5)])
def test_plane_presentation_matches_the_words_route(p, n):
    # a key's rref rows are its plane form: their relations generate the key's subgroup
    params = ActionParams(p, n, 2)
    for key in enumerate_actions(params):
        assert _key_from_words(params, *_plane_form(key)) == key, key


def _least_relabeling(key):
    """The lexicographically least sigma whose first m relabeled images are a basis, by search,
    and the coordinates of the other relabeled images in that basis."""
    params = key.params
    p, n, m = params.p, params.n, params.m
    for candidate in itertools.permutations(range(1, n + 2)):
        sigma = Permutation(candidate)
        inverse = sigma.inverse()
        moved = [key.images[inverse(j) - 1] for j in range(1, n + 2)]
        try:
            basis_inv = mat_inverse(FpMatrix(params.modulus, tuple(moved[:m]))).entries
        except SingularMatrixError:
            continue
        table = tuple(
            tuple(sum(v[i] * basis_inv[i][k] for i in range(m)) % p for k in range(m))
            for v in moved[m:]
        )
        return sigma, table
    raise AssertionError("the images span Z_p^m, so some relabeling works")


@pytest.mark.parametrize(
    "p,n,m",
    [(5, 3, 2), (7, 3, 2), (3, 4, 2), (7, 4, 2), (3, 5, 2), (2, 5, 2),
     (3, 4, 3), (3, 5, 1), (2, 5, 3), (5, 4, 3), (3, 5, 4), (7, 3, 1)],
)
def test_presentations_match_the_solved_coordinates(p, n, m):
    # theta read in its pivot basis: the least relabeling search moves the pivot columns to
    # the front, and solves the other images to the key's images as they stand
    for key in enumerate_actions(ActionParams(p, n, m)):
        pivots = [next(j for j, e in enumerate(row) if e) for row in key.theta.entries]
        rest = [j for j in range(n + 1) if j not in pivots]
        sigma, table = _least_relabeling(key)
        assert [sigma(j + 1) for j in pivots + rest] == list(range(1, n + 2)), key
        assert table == tuple(key.images[j] for j in rest), key


def test_key_from_theta_canonicalizes():
    params = ActionParams(5, 3, 2)
    key = key_from_theta(params, ((2, 0, 0), (0, 3, 2)))
    assert key.theta.entries == ((1, 0, 0), (0, 1, 4))


def _n3_name(key):
    """The n = 3 family name of a key: K(r,s) for the plane form t = 1, else K(l)."""
    t, l, r, s = _plane_form(key)
    return f"K({r[0]},{s[0]})" if t == 1 else f"K({l[0]})"


def test_name_of_key_round_trip():
    params = ActionParams(7, 3, 2)
    for key in enumerate_actions(params):
        assert key_from_named(params, _n3_name(key)) == key


@pytest.mark.parametrize("m", [1, 3])
def test_named_key_off_m2_is_a_shape_error(m):
    # a named form is two rows, which SubgroupKey's shape check refuses at any other m
    message = rf"^K\(0,1\) is not admissible at p=5: theta must be {m}x3, got 2x3$"
    with pytest.raises(AdmissibilityError, match=message):
        key_from_named(ActionParams(5, 3, m), "K(0,1)")
