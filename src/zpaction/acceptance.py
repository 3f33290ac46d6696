"""The built-in verification suite.

Twelve numbered checks pin the package to its ground truth: published
orbit and class-count tables, closed-form invariant families, genus
identities, model emission, and randomized structural properties (1000
seeded trials each).  Each check raises AssertionError with a diagnostic
on failure, through ``_require`` rather than ``assert`` so that
``python -O`` checks the same, and returns a one-line detail string on
success.

Run via ``zpaction verify`` or through tests/test_acceptance.py.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .fpalgebra import FpMatrix, PrimeModulus, rref
from .hgroup import Permutation, symmetric_group
from .enumeration import (
    ActionParams,
    KeySet,
    SubgroupKey,
    brute_force_oracle,
    enumerate_actions,
    key_from_named,
)
from .classify import (
    act,
    burnside_count_full,
    classify_triples,
    count_orbits_burnside,
    count_orbits_keyless,
    invariant_set,
    orbit_partition,
)
from .predictions import case_group, predicted_invariant_set, predicted_triple_count
from .geometry import (
    MarkedPoints,
    fiber_product_model,
    jacobian_decomposition,
    quotient_genus,
    render_model,
    subspace,
    total_genus,
)

SEED = 20260810
TRIALS = 1000

N3_ORBIT_TABLE = {3: 2, 5: 4, 7: 6, 11: 10, 13: 14, 17: 20, 19: 24, 23: 32, 29: 48, 113: 580}
D3_TRIPLE_TABLE = {5: 2, 7: 3, 11: 3, 13: 4, 17: 4, 19: 5, 23: 5, 29: 6, 31: 7}
PRIMES_TO_113 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
PRIMES_TO_31 = [p for p in PRIMES_TO_113 if p <= 31]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _s4():
    return symmetric_group(4)


def _d3_group():
    return case_group("N5_D3")


def _k4_group():
    return case_group("N5_K4")


def check_1_orbit_table() -> str:
    """Orbit counts of the n=3 space under S_4 match the published table."""
    start = time.perf_counter()
    for p, expected in N3_ORBIT_TABLE.items():
        got = orbit_partition(KeySet.full(ActionParams(p, 3, 2)), _s4()).count
        _require(got == expected, f"p={p}: {got} orbits, expected {expected}")
    elapsed = time.perf_counter() - start
    _require(elapsed < 10.0, f"orbit table took {elapsed:.1f}s, budget 10s")
    return f"10 primes up to 113 match; {elapsed:.2f}s"


def check_2_space_sizes() -> str:
    """|F(5,3,2)| = 27 and |F(p,3,2)| = p^2 + p - 3 for primes up to 113."""
    _require(len(KeySet.full(ActionParams(5, 3, 2))) == 27, "|F(5,3,2)| != 27")
    for p in PRIMES_TO_113:
        got = len(KeySet.full(ActionParams(p, 3, 2)))
        _require(got == p * p + p - 3, f"p={p}: {got} != p^2+p-3")
    return f"{len(PRIMES_TO_113)} primes (3..113; p=2 is non-hyperbolic at n=3)"


def check_3_p5_representatives() -> str:
    """The four p=5 orbits contain K(0,1), K(0,2), K(0,4), K(1,2) separately."""
    params = ActionParams(5, 3, 2)
    report = orbit_partition(KeySet.full(params), _s4())
    _require(report.count == 4, f"expected 4 orbits, got {report.count}")
    named = [key_from_named(params, n) for n in ("K(0,1)", "K(0,2)", "K(0,4)", "K(1,2)")]
    indices = {report.orbit_of(k) for k in named}
    _require(len(indices) == 4, "named representatives are not in pairwise distinct orbits")
    return "4 orbits, named representatives pairwise inequivalent"


def check_4_invariant_sets() -> str:
    """Computed invariant sets match the closed-form lists for p in {3,5,7}."""
    start = time.perf_counter()
    for p in (3, 5, 7):
        keys = KeySet.full(ActionParams(p, 3, 2))
        for j in range(1, 9):
            case = f"N3_Q{j}"
            generic = invariant_set(keys, case_group(case))
            predicted = predicted_invariant_set(case, p)
            _require(generic == predicted,
                     f"{case} at p={p}: generic {len(generic)} keys != predicted {len(predicted)}")
        # three-cycle invariance is empty exactly when p = 3 or p = 2 mod 3
        empty = not predicted_invariant_set("N3_Q3", p)
        _require(empty == (p == 3 or p % 3 == 2), f"Q3 emptiness wrong at p={p}")
    elapsed = time.perf_counter() - start
    _require(elapsed < 5.0, f"invariant sets took {elapsed:.1f}s, budget 5s")
    return f"8 cases x 3 primes, exact set equality; {elapsed:.2f}s"


def check_5_d3_triples() -> str:
    """Threefold-symmetry class counts match the table; modes agree; N order 36."""
    group = _d3_group()
    start = time.perf_counter()
    exhaustive_13 = None
    for p, expected in D3_TRIPLE_TABLE.items():
        predicted = classify_triples(ActionParams(p, 5, 2), group, mode="predicted")
        _require(predicted.count == expected, f"p={p} predicted {predicted.count} != {expected}")
        order = predicted.normalizer.order
        _require(order == 36, f"p={p}: normalizer order {order} != 36")
        if p <= 13:
            t0 = time.perf_counter()
            exhaustive = classify_triples(ActionParams(p, 5, 2), group, mode="exhaustive")
            if p == 13:
                exhaustive_13 = time.perf_counter() - t0
            _require(exhaustive.count == expected, f"p={p} exhaustive {exhaustive.count}")
            _require(exhaustive.invariant == predicted.invariant, f"p={p} invariant sets differ")
    _require(exhaustive_13 is not None, "exhaustive p=13 did not run")
    _require(exhaustive_13 < 60.0, f"exhaustive p=13 took {exhaustive_13:.1f}s, budget 60s")
    elapsed = time.perf_counter() - start
    return f"9 primes; exhaustive p<=13 agrees; p=13 in {exhaustive_13:.1f}s; total {elapsed:.1f}s"


def check_6_d3_formula() -> str:
    """alpha + beta + gamma/3 equals the partition count for every table prime."""
    group = _d3_group()
    for p in D3_TRIPLE_TABLE:
        formula = predicted_triple_count("N5_D3", p)
        direct = classify_triples(ActionParams(p, 5, 2), group, mode="predicted").count
        _require(formula == direct, f"p={p}: formula {formula} != direct {direct}")
    return f"formula = partition count for {len(D3_TRIPLE_TABLE)} primes"


def check_7_k4_triples() -> str:
    """Klein-four class counts are 3 at p=2 and p+4 otherwise; N order 16."""
    group = _k4_group()
    for p in (2, 3, 5, 7, 11, 13):
        expected = 3 if p == 2 else p + 4
        predicted = classify_triples(ActionParams(p, 5, 2), group, mode="predicted")
        exhaustive = classify_triples(ActionParams(p, 5, 2), group, mode="exhaustive")
        _require(predicted.count == expected, f"p={p} predicted {predicted.count} != {expected}")
        _require(exhaustive.count == expected, f"p={p} exhaustive {exhaustive.count} != {expected}")
        _require(exhaustive.invariant == predicted.invariant, f"p={p} invariant sets differ")
        order = predicted.normalizer.order
        _require(order == 16, f"p={p}: normalizer order {order} != 16")
    return "p in {2..13}: counts 3 / p+4, exhaustive = predicted"


def check_8_small_prime_examples() -> str:
    """Threefold symmetry at p=3: 7 invariant groups in 3 classes; p=2: 3 in 1."""
    group = _d3_group()
    res3 = classify_triples(ActionParams(3, 5, 2), group, mode="exhaustive")
    _require(len(res3.invariant) == 7, f"|C_3| = {len(res3.invariant)} != 7")
    _require(res3.count == 3, f"p=3 classes {res3.count} != 3")
    res2 = classify_triples(ActionParams(2, 5, 2), group, mode="exhaustive")
    _require(len(res2.invariant) == 3, f"|C_2| = {len(res2.invariant)} != 3")
    _require(res2.count == 1, f"p=2 classes {res2.count} != 1")
    return "p=3: 7 groups / 3 classes; p=2: 3 groups / 1 class"


def check_9_jacobian_sums() -> str:
    """Line genera sum to (p-1)^2 and fixed points to 4p over all of F(p,3,2)."""
    start = time.perf_counter()
    for p in (3, 5, 7):
        for key in enumerate_actions(ActionParams(p, 3, 2)):
            report = jacobian_decomposition(key)
            _require(report.genus_sum == (p - 1) ** 2, f"{key}: genus sum {report.genus_sum}")
            _require(report.fixed_sum == 4 * p, f"{key}: fixed sum {report.fixed_sum}")
    elapsed = time.perf_counter() - start
    _require(elapsed < 10.0, f"jacobian sweep took {elapsed:.1f}s, budget 10s")
    return f"all keys at p=3,5,7: sums exact; {elapsed:.2f}s"


def check_10_model_emission() -> str:
    """Example-family and p=5 table models render exponent-for-exponent."""
    pts = MarkedPoints.with_lambda()
    for p in (5, 7, 11):
        params = ActionParams(p, 3, 2)
        fm = fiber_product_model(key_from_named(params, f"K(0,{p - 1})"), pts)
        _require(fm.first.exponents == (0, 1, p - 1, 0), f"y1 exponents wrong at p={p}")
        _require(fm.second.exponents == (1, 0, 0, p - 1), f"y2 exponents wrong at p={p}")
        got = render_model(fm)
        expected = f"y1^{p} = x*(x - 1)^{p - 1} ; y2^{p} = (x - λ)^{p - 1}"
        _require(got == expected, f"p={p}: {got!r}")
    table = {
        "K(0,1)": "y1^5 = x*(x - 1)*(x - λ)^3 ; y2^5 = (x - λ)^4",
        "K(0,2)": "y1^5 = x*(x - 1)^2*(x - λ)^2 ; y2^5 = (x - λ)^4",
        "K(0,4)": "y1^5 = x*(x - 1)^4 ; y2^5 = (x - λ)^4",
        "K(1,2)": "y1^5 = x*(x - 1)^2*(x - λ)^2 ; y2^5 = (x - 1)*(x - λ)^3",
    }
    params5 = ActionParams(5, 3, 2)
    for name, expected in table.items():
        got = render_model(fiber_product_model(key_from_named(params5, name), pts))
        _require(got == expected, f"{name}: {got!r}")
    return "example family at p=5,7,11 and all four p=5 table rows exact"


def _property_pools() -> list[list[SubgroupKey]]:
    return [
        enumerate_actions(ActionParams(5, 3, 2)),
        enumerate_actions(ActionParams(3, 4, 2)),
        enumerate_actions(ActionParams(2, 5, 2)),
        enumerate_actions(ActionParams(3, 4, 3)),
    ]


def check_11_oracles_and_properties() -> str:
    """Route equivalences plus 1000 seeded trials per structural property."""
    for p, n, m in [(3, 3, 2), (5, 3, 2), (2, 5, 2), (3, 4, 2)]:
        params = ActionParams(p, n, m)
        _require(enumerate_actions(params) == brute_force_oracle(params),
                 f"enumeration routes disagree at ({p},{n},{m})")
    # Burnside = partition count at every configuration exercised above; the keyless count
    # (route B) and the table Burnside both give the published n = 3 table
    s4 = _s4()
    for p in N3_ORBIT_TABLE:
        params = ActionParams(p, 3, 2)
        keyless, table = count_orbits_keyless(params, s4), burnside_count_full(params, s4)
        _require(keyless == table == N3_ORBIT_TABLE[p],
                 f"p={p}: keyless Burnside {keyless}, table Burnside {table}, "
                 f"published {N3_ORBIT_TABLE[p]}")
    for case, group in (("N5_D3", _d3_group()), ("N5_K4", _k4_group())):
        for p in (5, 7, 11, 13):
            res = classify_triples(ActionParams(p, 5, 2), group, mode="predicted")
            burnside = count_orbits_burnside(res.invariant, res.normalizer)
            _require(burnside == res.count, f"{case} p={p}: Burnside {burnside} != {res.count}")
    rng = random.Random(SEED)
    pools = _property_pools()

    def random_perm(degree):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        return Permutation(tuple(images))

    for _ in range(TRIALS):  # action axioms
        pool = rng.choice(pools)
        key = rng.choice(pool)
        degree = key.params.n + 1
        sigma, tau = random_perm(degree), random_perm(degree)
        _require(act(sigma * tau, key) == act(sigma, act(tau, key)),
                 f"{key}: act(sigma * tau) != act(sigma) act(tau)")
        _require(act(Permutation.identity(degree), key) == key, f"{key}: the identity moves it")

    for _ in range(TRIALS):  # rref idempotence
        p = rng.choice([2, 3, 5, 7, 11, 13])
        modulus = PrimeModulus(p)
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        mat = FpMatrix(modulus, tuple(tuple(rng.randrange(p) for _ in range(c)) for _ in range(r)))
        reduced, rank = rref(mat)
        again, rank2 = rref(reduced)
        _require(again == reduced and rank == rank2, "rref is not idempotent")

    for _ in range(TRIALS):  # admissibility preserved under the action
        pool = rng.choice(pools)
        key = rng.choice(pool)
        moved = act(random_perm(key.params.n + 1), key)
        # construction re-validates
        _require(isinstance(moved, SubgroupKey), f"{key}: the action leaves the admissible keys")

    for _ in range(TRIALS):  # quotient genus integral and nonnegative
        pool = rng.choice(pools)
        key = rng.choice(pool)
        m, p = key.params.m, key.params.p
        dim = rng.randint(0, m - 1)
        vectors = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(dim)]
        sub = subspace(key.params.modulus, vectors) if vectors else subspace(
            key.params.modulus, [(0,) * m]
        )
        _require(quotient_genus(key, sub) >= 0, f"{key}: negative quotient genus")

    return f"4 oracle configs, Burnside everywhere, keyless = table, 4x{TRIALS} trials, zero failures"


def check_12_genus_formulas() -> str:
    """Genus formula specializations for all primes up to 31."""
    _require(total_genus(2, 5, 2) == 3, "total_genus(2, 5, 2) != 3")
    for p in PRIMES_TO_31:
        _require(total_genus(p, 3, 2) == (p - 1) ** 2, f"p={p}: total_genus(p, 3, 2) != (p-1)^2")
        _require(total_genus(p, 5, 2) == (p - 1) * (2 * p - 1),
                 f"p={p}: total_genus(p, 5, 2) != (p-1)(2p-1)")
        for n in (3, 4, 5):
            fermat = 1 + p ** (n - 1) * ((n - 1) * (p - 1) - 2) // 2
            _require(total_genus(p, n, n) == fermat, f"m=n genus wrong at (p,n)=({p},{n})")
    for n in (5, 7):  # p=2 needs n >= 4 for hyperbolicity
        fermat = 1 + 2 ** (n - 1) * ((n - 1) - 2) // 2
        _require(total_genus(2, n, n) == fermat, f"n={n}: total_genus(2, n, n) wrong")
    return "(p-1)^2, (p-1)(2p-1), 3 at (2,5,2), and m=n cases for primes <= 31"


CHECKS: tuple[tuple[int, str, object], ...] = (
    (1, "orbit-count table for the n=3 space", check_1_orbit_table),
    (2, "parameter-space sizes p^2+p-3", check_2_space_sizes),
    (3, "p=5 orbit representatives", check_3_p5_representatives),
    (4, "invariant sets for the eight n=3 symmetry groups", check_4_invariant_sets),
    (5, "threefold-symmetry triple counts (n=5)", check_5_d3_triples),
    (6, "threefold-symmetry counting formula", check_6_d3_formula),
    (7, "Klein-four triple counts (n=5)", check_7_k4_triples),
    (8, "small-prime threefold examples", check_8_small_prime_examples),
    (9, "Jacobian genus and fixed-point sums", check_9_jacobian_sums),
    (10, "curve model emission", check_10_model_emission),
    (11, "oracle equivalences and randomized properties", check_11_oracles_and_properties),
    (12, "genus formula specializations", check_12_genus_formulas),
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


def run_criterion(number: int) -> CriterionResult:
    for num, title, func in CHECKS:
        if num == number:
            start = time.perf_counter()
            try:
                detail = func()
                return CriterionResult(num, title, True, detail, time.perf_counter() - start)
            except AssertionError as exc:
                return CriterionResult(num, title, False, str(exc), time.perf_counter() - start)
    raise ValueError(f"no criterion numbered {number}")


def run_all(write=None) -> list[CriterionResult]:
    results = []
    for num, _title, _func in CHECKS:
        result = run_criterion(num)
        results.append(result)
        if write is not None:
            status = "PASS" if result.passed else "FAIL"
            write(f"{status} {result.number:2d} {result.title}: {result.detail}")
    return results
