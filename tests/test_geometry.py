import itertools
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from action_oracle import act
from zpaction import geometry
from zpaction.fpalgebra import FpMatrix, PrimeModulus, kernel_basis
from zpaction.enumeration import (
    ActionParams,
    AdmissibilityError,
    VerificationError,
    enumerate_actions,
    key_from_named,
    key_from_theta,
)
from zpaction.geometry import (
    ConjectureProbe,
    CurveModel,
    FiberProductModel,
    JacobianLine,
    JacobianReport,
    MarkedPoints,
    _functionals,
    _genus_table,
    _pgonal_exponents,
    _plane_tables,
    _riemann_hurwitz,
    conjecture_probe,
    fiber_product_model,
    jacobian_decomposition,
    points_preset,
    quotient_genus,
    render_model,
    subspace,
    total_genus,
)
from zpaction.hgroup import Permutation


def test_total_genus_values():
    assert total_genus(2, 5, 2) == 3
    assert total_genus(5, 5, 2) == 36
    for p in (3, 5, 7, 11):
        assert total_genus(p, 3, 2) == (p - 1) ** 2
        assert total_genus(p, 5, 2) == (p - 1) * (2 * p - 1)
    # m = n is the homology cover itself
    assert total_genus(3, 3, 3) == 10
    for k in (2, 3, 4, 5):  # composite k supported here
        if (3 - 1) * (k - 1) > 2:
            assert total_genus(k, 3, 3) == 1 + k**2 * (2 * (k - 1) - 2) // 2


def test_total_genus_rejects_bad_params():
    with pytest.raises(ValueError, match="non-hyperbolic"):
        total_genus(2, 3, 2)
    with pytest.raises(ValueError):
        total_genus(1, 5, 2)
    with pytest.raises(ValueError):
        total_genus(3, 3, 4)
    with pytest.raises(ValueError, match="non-integral"):
        total_genus(2, 4, 1)


def test_marked_points_validation():
    with pytest.raises(ValueError):
        MarkedPoints(3, ("inf", "0", "1"))
    with pytest.raises(ValueError):
        MarkedPoints(3, ("inf", "0", "1", "1"))
    assert points_preset("standard", 4).labels == ("inf", "0", "1", "q4", "q5")
    assert points_preset("d3", 5).labels[3:] == ("λ", "1/(1-λ)", "(λ-1)/λ")
    assert points_preset("k4", 5).labels[3:] == ("λ", "-1", "-λ")


def test_curve_model_exponent_sum():
    m = PrimeModulus(5)
    pts = MarkedPoints.with_lambda()
    CurveModel(m, pts, (0, 1, 4, 0))
    with pytest.raises(ValueError, match="sum to 0"):
        CurveModel(m, pts, (0, 1, 1, 0))
    # the same check on a whole exponent matrix, which skips CurveModel's own
    key = key_from_named(ActionParams(5, 3, 2), "K(0,1)")
    with pytest.raises(ValueError, match="^cyclic-cover exponents must sum to 0 mod p$"):
        _pgonal_exponents(key, np.array([[0, 1, 4, 0], [0, 1, 1, 0]], dtype=np.int64))


def test_example_family_model():
    params = ActionParams(5, 3, 2)
    pts = MarkedPoints.with_lambda()
    fm = fiber_product_model(key_from_named(params, "K(0,4)"), pts)
    assert fm.first.exponents == (0, 1, 4, 0)
    assert fm.second.exponents == (1, 0, 0, 4)
    assert render_model(fm) == "y1^5 = x*(x - 1)^4 ; y2^5 = (x - λ)^4"


def test_p5_table_models():
    params = ActionParams(5, 3, 2)
    pts = MarkedPoints.with_lambda()
    expected = {
        "K(0,1)": "y1^5 = x*(x - 1)*(x - λ)^3 ; y2^5 = (x - λ)^4",
        "K(0,2)": "y1^5 = x*(x - 1)^2*(x - λ)^2 ; y2^5 = (x - λ)^4",
        "K(0,4)": "y1^5 = x*(x - 1)^4 ; y2^5 = (x - λ)^4",
        "K(1,2)": "y1^5 = x*(x - 1)^2*(x - λ)^2 ; y2^5 = (x - 1)*(x - λ)^3",
    }
    for name, text in expected.items():
        fm = fiber_product_model(key_from_named(params, name), pts)
        assert render_model(fm) == text


def test_threefold_p2_model():
    key = key_from_named(ActionParams(2, 5, 2), "K(0,1)", family="d3")
    fm = fiber_product_model(key, MarkedPoints.threefold())
    assert render_model(fm) == (
        "y1^2 = x*(x - 1)*(x - λ)*(x - 1/(1-λ)) ; "
        "y2^2 = (x - 1)*(x - 1/(1-λ))*(x - (λ-1)/λ)"
    )


def test_type2_model_has_l_exponents():
    params = ActionParams(5, 3, 2)
    fm = fiber_product_model(key_from_named(params, "K(2)"), MarkedPoints.with_lambda())
    # K(l): y1 = (x - q_3) (x - q_4)^{p-1}, y2 = x^l (x - q_4)^{-(1+l)}
    assert fm.first.exponents == (0, 0, 1, 4)
    assert fm.second.exponents == (1, 2, 0, 2)


def test_quotient_genus_hand_values():
    params = ActionParams(3, 3, 2)
    m3 = params.modulus
    key = key_from_named(params, "K(0,2)")
    assert quotient_genus(key, subspace(m3, [(1, 0)])) == 0
    assert quotient_genus(key, subspace(m3, [(1, 1)])) == 2


def test_quotient_genus_two_point_line():
    # a line containing all but two images gives a two-point cyclic cover: genus 0
    params = ActionParams(5, 3, 2)
    key = key_from_named(params, "K(0,4)")
    assert quotient_genus(key, subspace(params.modulus, [(0, 1)])) == 0


def test_quotient_genus_rejects_improper():
    from zpaction.fpalgebra import FpMatrix

    params = ActionParams(3, 3, 2)
    key = key_from_named(params, "K(1)")
    with pytest.raises(ValueError, match="proper"):
        quotient_genus(key, FpMatrix(params.modulus, ((1, 0), (0, 1))))


def test_jacobian_k02_p3():
    report = jacobian_decomposition(key_from_named(ActionParams(3, 3, 2), "K(0,2)"))
    assert sorted(report.genera) == [0, 0, 2, 2]
    assert report.genus_sum == 4 and report.total == 4
    assert report.fixed_sum == 12


def test_jacobian_sums_f532():
    for key in enumerate_actions(ActionParams(5, 3, 2)):
        report = jacobian_decomposition(key)
        assert report.genus_sum == 16
        assert report.fixed_sum == 20


def test_pgonal_normalization():
    params = ActionParams(5, 3, 2)
    pts = MarkedPoints.with_lambda()

    def model_of(name, line):
        lines = jacobian_decomposition(key_from_named(params, name), pts).lines
        (entry,) = [e for e in lines if e.line == line]
        return entry.model

    model = model_of("K(0,4)", (1, 0))
    assert model.exponents == (0, 1, 4, 0)
    assert render_model(model) == "y^5 = x*(x - 1)^4"
    assert model_of("K(0,1)", (1, 0)).exponents == (0, 1, 1, 3)
    # leading finite exponent is 1 and the sum vanishes, whatever the line
    for key in enumerate_actions(params):
        for entry in jacobian_decomposition(key).lines:
            exps = entry.model.exponents
            assert sum(exps) % 5 == 0
            assert next(e for e in exps[1:] if e) == 1


def test_line_genus_multiset_is_action_invariant():
    params = ActionParams(5, 3, 2)
    keys = enumerate_actions(params)
    sigma = Permutation((2, 3, 4, 1))
    for key in keys[::5]:
        before = sorted(jacobian_decomposition(key).genera)
        after = sorted(jacobian_decomposition(act(sigma, key)).genera)
        assert before == after


def test_conjecture_probe_m2_is_theorem():
    for key in enumerate_actions(ActionParams(3, 3, 2)):
        assert conjecture_probe(key).equal


def test_conjecture_probe_trivial_subgroup():
    (key,) = enumerate_actions(ActionParams(3, 3, 3))
    probe = conjecture_probe(key)
    assert probe.genus_sum == 10 and probe.total == 10 and probe.equal
    (key2,) = enumerate_actions(ActionParams(2, 5, 5))
    assert conjecture_probe(key2).equal
    (key5,) = enumerate_actions(ActionParams(5, 3, 3))
    assert conjecture_probe(key5).equal


def test_conjecture_probe_reports_m3():
    keys = enumerate_actions(ActionParams(2, 5, 3))
    probe = conjecture_probe(keys[0])
    assert probe.total == 5
    assert isinstance(probe, ConjectureProbe)


def test_hyperplane_count():
    for p, m in [(3, 2), (3, 3), (2, 4)]:
        modulus = PrimeModulus(p)
        functionals = _functionals(modulus, m).tolist()
        assert len(functionals) == (p**m - 1) // (p - 1)
        kernels = {kernel_basis(FpMatrix(modulus, (tuple(f),), m)).entries for f in functionals}
        assert len(kernels) == len(functionals)


def test_pgonal_curve_without_branched_finite_point_is_verification_error():
    # an all-zero finite column must not reach the inverse table, even under python -O;
    # the check runs on every row of the value matrix, not just the first
    key = key_from_named(ActionParams(5, 3, 2), "K(0,1)")
    values = np.array([[1, 2, 3, 4], [0, 0, 0, 0]], dtype=np.int64)
    with pytest.raises(VerificationError, match=r"no finite point is branched .*: values \[0, 0, 0, 0\]$"):
        _pgonal_exponents(key, values)


def test_riemann_hurwitz_matches_fraction_formula():
    # at deck order p, integrality fails only at p = 2 and nonnegativity below two branched
    # points; from p^2 on, 2 branched points are too few, so which entry fails first varies
    for p in (2, 3, 5, 7):
        key = key_from_theta(ActionParams(p, 4, 2), [[1, 0, 1, 1], [0, 1, 1, 0]])
        for deck in (p, p**2, p**3):
            for branched in range(9):
                counts = [4, branched, 2, 3]
                genera = [1 - deck + Fraction(b * deck * (p - 1), 2 * p) for b in counts]
                bad = [(g, b) for g, b in zip(genera, counts) if g.denominator != 1 or g < 0]
                if bad:
                    genus, b = bad[0]
                    message = (f"quotient genus came out as {genus} for key {key}, deck order {deck} "
                               f"and {b} branched points")
                    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
                        _riemann_hurwitz(key, deck, np.array(counts, dtype=np.int64))
                else:
                    assert _riemann_hurwitz(key, deck, np.array(counts, dtype=np.int64)).tolist() == genera
                one = np.array([branched], dtype=object)  # quotient_genus's one exact entry
                if genera[1].denominator == 1 and genera[1] >= 0:
                    assert _riemann_hurwitz(key, deck, one).tolist() == [genera[1]]
                else:
                    with pytest.raises(VerificationError, match=f"came out as {genera[1]} "):
                        _riemann_hurwitz(key, deck, one)


def test_index_p_genera_match_riemann_hurwitz_count_by_count():
    # the int64 array call at deck order p agrees with one exact call per count;
    # integrality fails only at p = 2, nonnegativity below two branched points
    for p in (2, 3, 5, 7):
        key = key_from_theta(ActionParams(p, 4, 2), [[1, 0, 1, 1], [0, 1, 1, 0]])
        for branched in range(9):
            counts = np.array([2, 4, branched, 2], dtype=np.int64)
            try:
                expected = [_riemann_hurwitz(key, p, np.array([b], dtype=object))[0] for b in counts.tolist()]
            except VerificationError as exc:
                with pytest.raises(VerificationError, match=f"^{re.escape(str(exc))}$"):
                    _riemann_hurwitz(key, p, counts)
            else:
                assert _riemann_hurwitz(key, p, counts).tolist() == expected


@pytest.mark.parametrize("p", [2, 3, 5, 13, 31, 65521])
def test_genus_table_matches_riemann_hurwitz_count_by_count(p):
    # one exact call per count; -1 marks the counts where Riemann-Hurwitz raises
    key = key_from_theta(ActionParams(p, 4, 2), [[1, 0, 1, 1], [0, 1, 1, 0]])
    for n in range(2, 8):
        for deck in (p, p * p):
            table = _genus_table(PrimeModulus(p), n, deck)
            assert table.dtype == np.int64 and table.shape == (n + 2,) and not table.flags.writeable
            for branched in range(n + 2):
                try:
                    expected = _riemann_hurwitz(key, deck, np.array([branched], dtype=object))[0]
                except VerificationError:
                    expected = -1
                assert table[branched] == expected, (n, deck, branched)


def _inconsistent_values(real, row, count):
    """``real``'s value matrix with row ``row`` replaced by one with ``count`` nonzero entries."""
    def values(key, functionals):
        out = real(key, functionals).copy()
        out[row] = 0
        out[row, :count] = 1
        return out
    return values


@pytest.mark.parametrize("p, n, row, count", [(5, 3, 2, 0), (5, 3, 4, 1), (2, 4, 1, 3), (31, 4, 7, 1)])
def test_inconsistent_count_raises_the_riemann_hurwitz_error(p, n, row, count, monkeypatch):
    # a branched count the genus table marks -1 raises _riemann_hurwitz's own error, text and all
    key = key_from_theta(ActionParams(p, n, 2), [[1, 0] + [1] * (n - 2), [0, 1] + list(range(1, n - 1))])
    genus = Fraction(2 * p * (1 - p) + count * p * (p - 1), 2 * p)
    message = f"quotient genus came out as {genus} for key {key}, deck order {p} and {count} branched points"
    monkeypatch.setattr(geometry, "_value_matrix", _inconsistent_values(geometry._value_matrix, row, count))
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        jacobian_decomposition(key)
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        conjecture_probe(key)
    m3 = key_from_theta(ActionParams(p, n, 3), [[1, 0, 0] + [1] * (n - 3), [0, 1, 0] + [0] * (n - 3),
                                               [0, 0, 1] + [0] * (n - 3)])
    message = message.replace(str(key), str(m3))
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        conjecture_probe(m3)


def _rebuilt(report):
    """``report`` rebuilt through the constructors and their checks, line by line."""
    lines = tuple(
        JacobianLine(entry.line, entry.genus, entry.fixed_points,
                     CurveModel(entry.model.modulus, entry.model.points, entry.model.exponents))
        for entry in report.lines
    )
    return JacobianReport(report.key, lines, report.total)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 4), (3, 4), (5, 3), (7, 5), (13, 5), (31, 4)]), st.data())
def test_jacobian_report_equals_the_constructor_built_one(pn, data):
    p, n = pn
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=2, max_size=2))
    try:
        key = key_from_theta(ActionParams(p, n, 2), rows)
    except AdmissibilityError:
        assume(False)
    report, rebuilt = jacobian_decomposition(key), _rebuilt(jacobian_decomposition(key))
    assert report == rebuilt and hash(report) == hash(rebuilt)
    assert all(type(entry) is JacobianLine and type(entry.model) is CurveModel for entry in report.lines)
    assert all(type(e) is int for entry in report.lines for e in (entry.genus, entry.fixed_points,
                                                                 *entry.model.exponents))
    assert pickle.dumps(report) == pickle.dumps(rebuilt)
    restored = pickle.loads(pickle.dumps(report))
    assert restored == rebuilt and hash(restored) == hash(rebuilt)


def test_quotient_genus_stays_exact_past_int64():
    # L = 0 at p = 65521, m = 3: S/L is S, and deck order p^3 times p - 1 is about 1.8e19
    params = ActionParams(65521, 3, 3)
    key = key_from_theta(params, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert quotient_genus(key, FpMatrix(params.modulus, (), 3)) == total_genus(65521, 3, 3)


def test_line_and_functional_tables_are_not_shared():
    # the cached tables cannot be changed through what they hand out: tuples and read-only arrays
    modulus = PrimeModulus(5)
    key = key_from_named(ActionParams(5, 3, 2), "K(1,2)")
    before = jacobian_decomposition(key)
    lines = _plane_tables(modulus)[0]
    assert lines == ((0, 1), *((1, c) for c in range(5)))
    assert tuple(entry.line for entry in before.lines) == lines
    for table in (*_plane_tables(modulus)[1:], _functionals(modulus, 2), _functionals(modulus, 3)):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    assert jacobian_decomposition(key) == before
    assert conjecture_probe(key).equal


@pytest.mark.parametrize("preset", ["d3", "k4"])
def test_jacobian_labels_change_only_labels(preset):
    points = points_preset(preset, 5)
    for key in enumerate_actions(ActionParams(3, 5, 2))[::7]:
        standard = jacobian_decomposition(key)
        labelled = jacobian_decomposition(key, points)
        assert labelled.genera == standard.genera and labelled.total == standard.total
        for ours, theirs in zip(labelled.lines, standard.lines):
            assert ours.line == theirs.line and ours.fixed_points == theirs.fixed_points
            assert ours.model.exponents == theirs.model.exponents
            assert ours.model.points == points and theirs.model.points == MarkedPoints.standard(5)
    with pytest.raises(ValueError, match="^one exponent per marked point required$"):
        jacobian_decomposition(enumerate_actions(ActionParams(3, 4, 2))[0], points)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(enumerate_actions(ActionParams(3, 4, 2))),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_quotient_genus_integral_nonnegative(key, a, b):
    if (a, b) == (0, 0):
        return
    sub = subspace(key.params.modulus, [(a, b)])
    assert quotient_genus(key, sub) >= 0


@pytest.mark.parametrize("p,n,m", [(3, 3, 2), (5, 3, 2), (2, 5, 2), (3, 5, 2)])
def test_quotient_genus_nonnegative_exhaustive(p, n, m):
    params = ActionParams(p, n, m)
    lines = [subspace(params.modulus, [ln]) for ln in _plane_tables(params.modulus)[0]]
    for key in enumerate_actions(params):
        for ln in lines:
            assert quotient_genus(key, ln) >= 0  # raises on non-integrality


# ---------------------------------------------------------------------------
# oracles: subgroups as explicit element sets, models from the presentation


def _elements(basis, p, m):
    """Every element of the span of ``basis``: all p^dim coefficient combinations."""
    return {
        tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) % p for i in range(m))
        for coeffs in itertools.product(range(p), repeat=len(basis))
    }


def _all_subspaces(p, m, dim):
    """(basis, element set) for every dim-dimensional subspace of Z_p^m, found by listing spans."""
    found = {}
    for basis in itertools.combinations(itertools.product(range(p), repeat=m), dim):
        elements = frozenset(_elements(basis, p, m))
        if len(elements) == p**dim:
            found.setdefault(elements, basis)
    return [(basis, elements) for elements, basis in found.items()]


def _oracle_genus(p, m, elements, images):
    deck = p**m // len(elements)
    branched = sum(1 for img in images if img not in elements)
    genus = 1 - deck + Fraction(branched * deck * (p - 1), 2 * p)
    assert genus.denominator == 1 and genus >= 0
    return int(genus)


@pytest.mark.parametrize("p,n,m", [(3, 4, 3), (2, 5, 3)])
def test_quotient_genus_matches_element_listing(p, n, m):
    params = ActionParams(p, n, m)
    subspaces = [sub for dim in range(m) for sub in _all_subspaces(p, m, dim)]
    assert len(subspaces) == 1 + 2 * (p**m - 1) // (p - 1)  # L = 0, lines, planes
    for key in enumerate_actions(params):
        for basis, elements in subspaces:
            sub = FpMatrix(params.modulus, basis, m)
            assert quotient_genus(key, sub) == _oracle_genus(p, m, elements, key.images)


def _check_jacobian_by_listing(key, lines):
    """``jacobian_decomposition(key)`` against lines given as (generator, element set)."""
    p = key.params.p
    images = key.images
    report = jacobian_decomposition(key)
    assert [entry.line for entry in report.lines] == [ln for ln, _ in lines]
    for entry, (ln, elements) in zip(report.lines, lines):
        genus = _oracle_genus(p, 2, elements, images)
        assert entry.genus == genus == quotient_genus(key, subspace(key.params.modulus, [ln]))
        assert entry.fixed_points == p * sum(1 for img in images if img in elements)
        # exponent of x: the e with x - e*g in L, g the first finite image outside L
        g = next(img for img in images[1:] if img not in elements)
        exponents = tuple(
            next(
                e for e in range(p)
                if tuple((x - e * y) % p for x, y in zip(img, g)) in elements
            )
            for img in images
        )
        assert entry.model.exponents == exponents


def _listed_lines(modulus):
    return [(ln, _elements([ln], modulus.p, 2)) for ln in _plane_tables(modulus)[0]]


@pytest.mark.parametrize("p,n", [(5, 3), (3, 5), (7, 4), (2, 4), (2, 5)])
def test_jacobian_lines_match_element_listing(p, n):
    params = ActionParams(p, n, 2)
    lines = _listed_lines(params.modulus)
    for key in enumerate_actions(params):
        _check_jacobian_by_listing(key, lines)


@pytest.mark.parametrize("p,n", [(3, 4), (2, 5)])
def test_conjecture_probe_matches_element_listing(p, n):
    hyperplanes = _all_subspaces(p, 3, 2)
    assert len(hyperplanes) == p * p + p + 1
    for key in enumerate_actions(ActionParams(p, n, 3)):
        expected = sum(_oracle_genus(p, 3, elements, key.images) for _, elements in hyperplanes)
        assert conjecture_probe(key).genus_sum == expected


def test_jacobian_at_the_widest_modulus_matches_per_line_formula():
    # entries near p make the value products pass 2^31
    p = 65521
    key = key_from_theta(ActionParams(p, 4, 2), [[1, 0, p - 1, 12345], [0, 1, 40000, p - 2]])
    report = jacobian_decomposition(key)
    assert len(report.lines) == p + 1
    xs, ys = zip(*key.images)
    for entry in report.lines:
        a, b = entry.line
        values = [(b * x - a * y) % p for x, y in zip(xs, ys)]
        branched = len(values) - values.count(0)
        assert entry.genus == 1 - p + branched * p * (p - 1) // (2 * p)
        assert entry.fixed_points == p * values.count(0)
        scale = pow(next(e for e in values[1:] if e), -1, p)
        assert entry.model.exponents == tuple(scale * e % p for e in values)


# The benchmark's largest m = 2 classes, too large to enumerate here.
_SAMPLED_CLASSES = {(p, n): _listed_lines(PrimeModulus(p)) for p, n in ((31, 4), (13, 5))}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SAMPLED_CLASSES)), st.data())
def test_jacobian_sampled_large_classes_match_element_listing(pn, data):
    p, n = pn
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=2, max_size=2))
    try:
        key = key_from_theta(ActionParams(p, n, 2), rows)
    except AdmissibilityError:
        assume(False)
    _check_jacobian_by_listing(key, _SAMPLED_CLASSES[pn])


@pytest.mark.parametrize("p,n,m", [(3, 4, 1), (3, 4, 3)])
def test_fiber_product_model_needs_m2(p, n, m):
    key = enumerate_actions(ActionParams(p, n, m))[0]
    with pytest.raises(ValueError, match="the fiber-product model is defined for m = 2"):
        fiber_product_model(key)


def _cramer_coordinates(key):
    """The m = 2 basis rule by Cramer's rule: t, and (r_j, s_j) for every image, j = 1..n+1.

    t + 1 is the first index whose image is not proportional to theta(a_1).
    With D = det(theta(a_1), theta(a_{t+1})), the coordinates of v are
    r(v) = det(v, theta(a_{t+1})) / D and s(v) = det(theta(a_1), v) / D.
    """
    params, images = key.params, key.images
    p = params.p
    a, b = images[0]
    t = next(j for j in range(1, params.n) if (a * images[j][1] - b * images[j][0]) % p)
    c, d = images[t]
    scale = pow(a * d - b * c, -1, p)
    return t, tuple(((x * d - y * c) * scale % p, (a * y - b * x) * scale % p) for x, y in images)


@pytest.mark.parametrize("p,n", [(5, 3), (7, 3), (3, 4), (7, 4), (3, 5), (2, 5)])
def test_fiber_product_exponents_match_the_cramer_coordinates(p, n):
    # y1 takes the s coordinates of the images, y2 the r coordinates
    for key in enumerate_actions(ActionParams(p, n, 2)):
        coords = _cramer_coordinates(key)[1]
        model = fiber_product_model(key)
        assert model.first.exponents == tuple(s for _, s in coords), key
        assert model.second.exponents == tuple(r for r, _ in coords), key


def _presentation_model(key):
    """y1 and y2 exponents from the plane form's t, l, r, s (by Cramer's rule) and forced fields."""
    n, p = key.params.n, key.params.p
    t, coords = _cramer_coordinates(key)
    l = [lj for lj, _ in coords[1:t]]  # theta(a_j) = l_j theta(a_1) for j = 2..t
    r, s = zip(*coords[t + 1 : n]) if t + 1 < n else ((), ())  # j = t+2..n
    forced_r, forced_s = -(1 + sum(l) + sum(r)) % p, -(1 + sum(s)) % p
    y1 = [0] * (n + 1)
    y2 = [0] * (n + 1)
    y1[t] = 1  # the factor (x - q_{t+1})
    for j, lj in enumerate(l, start=2):
        y2[j - 1] = lj
    for j, (rj, sj) in enumerate(zip(r, s), start=t + 2):
        y1[j - 1] = sj
        y2[j - 1] = rj
    y1[n] = forced_s
    y2[n] = forced_r
    y2[0] = (-(sum(l) + sum(r) + forced_r)) % p  # infinity slot, always 1
    return tuple(y1), tuple(y2)


@pytest.mark.parametrize("p,n", [(5, 3), (3, 5), (7, 4)])
def test_fiber_product_matches_presentation(p, n):
    for key in enumerate_actions(ActionParams(p, n, 2)):
        fm = fiber_product_model(key)
        assert (fm.first.exponents, fm.second.exponents) == _presentation_model(key)
