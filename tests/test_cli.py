import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zpaction
from zpaction.cli import _json, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbits_table_row(capsys):
    code, out, _ = run_cli(["orbits", "--p", "113", "--n", "3"], capsys)
    assert code == 0
    assert out.splitlines()[:2] == ["p, N", "113, 580"]


def test_orbit_listing_builds_only_sorted_key_sets(monkeypatch, capsys):
    # a KeySet's rows are distinct and in digit order; the JSON members are in orbit order
    from zpaction.enumeration import KeySet
    from zpaction.hgroup import row_codes

    init, built = KeySet.__init__, []

    def checked_init(self, params, rows):
        init(self, params, rows)
        built.append(len(rows))
        assert (np.diff(row_codes(rows, params.p)) > 0).all(), "unsorted KeySet rows"

    monkeypatch.setattr(KeySet, "__init__", checked_init)
    code, out, _ = run_cli(["orbits", "--p", "5", "--n", "4", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["count"] == 14 and built


def test_orbits_default_s9_at_the_order_cap(capsys):
    # S_9, the largest default group, through classes, closure and Burnside at p = 2
    code, out, _ = run_cli(["orbits", "--p", "2", "--n", "8"], capsys)
    assert code == 0
    assert out == (
        "p, N\n"
        "2, 3\n"
        "   1. size   36  rep 1,0,0,0,0,0,0,0;0,1,1,1,1,1,1,1\n"
        "   2. size  504  rep 1,0,0,0,0,0,1,1;0,1,1,1,1,1,0,0\n"
        "   3. size  280  rep 1,0,0,0,1,1,1,1;0,1,1,1,0,0,1,1\n"
    )


def test_composite_modulus_rejected(capsys):
    code, _, err = run_cli(["enumerate", "--p", "4", "--n", "3"], capsys)
    assert code == 1
    assert "composite modulus unsupported" in err


def test_help_shows_usage_and_exit_codes(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    out = capsys.readouterr().out
    assert exited.value.code == 0
    assert out.startswith("usage: zpaction ")
    assert (
        "\n\nExact classification of Z_p^m actions on compact Riemann surfaces of\n"
        "signature (0; p, ..., p): admissible subgroups, their orbits under\n"
        "branch-point relabelings, symmetric triples, curve models and Jacobian\n"
        "decompositions.\n\n"
        "exit codes: 0 success, 1 usage or validation error, 2 scale cap exceeded,\n"
        "3 verification failure\n\n"
    ) in out
    assert "cache" not in out and "command table" not in out
    with pytest.raises(SystemExit) as exited:
        main(["orbits", "--help"])
    out = capsys.readouterr().out
    assert exited.value.code == 0 and out.startswith("usage: zpaction orbits ")
    assert "--output" in out and "cache" not in out


@pytest.mark.parametrize(
    "which, prime, message",
    [
        ("k4-triples", "4", "composite modulus unsupported: 4"),
        ("k4-triples", "1", "modulus must be a prime >= 2, got 1"),
        ("k4-triples", "-7", "modulus must be a prime >= 2, got -7"),
        # rejected by the range check, before the O(p^2) conic scan starts
        ("d3-triples", "65537", "modulus 65537 exceeds the supported 16-bit range"),
    ],
)
def test_predicted_table_rejects_non_primes(which, prime, message, capsys):
    code, out, err = run_cli(["table", "--which", which, "--primes", prime], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_models_key_rejects_digits_outside_the_field(capsys):
    code, out, err = run_cli(
        ["models", "--p", "5", "--n", "3", "--key", "1,0,7;0,1,-1"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "error: digit string '1,0,7;0,1,-1' has a digit outside 0..4\n"


def test_scale_cap_exit_code(capsys):
    code, _, err = run_cli(
        ["enumerate", "--p", "113", "--n", "3", "--max-candidates", "10"], capsys
    )
    assert code == 2
    assert "scale cap" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["enumerate", "--n", "3"], capsys)
    assert code == 1


def test_triples_predicted(capsys):
    code, out, _ = run_cli(
        [
            "triples", "--n", "5", "--p", "7",
            "--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)",
            "--mode", "predicted",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "7, 3"
    assert "normalizer order: 36" in out


def test_triples_predicted_rejects_m_1(capsys):
    code, out, err = run_cli(
        [
            "triples", "--n", "5", "--p", "7", "--m", "1",
            "--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)",
            "--mode", "predicted",
        ],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: the predicted families are m = 2, not m = 1\n"


def test_triples_requires_group(capsys):
    code, _, err = run_cli(["triples", "--n", "5", "--p", "7"], capsys)
    assert code == 1
    assert "--group" in err


def test_models_text(capsys):
    code, out, _ = run_cli(
        ["models", "--p", "5", "--n", "3", "--name", "K(0,4)"], capsys
    )
    assert code == 0
    assert out == "y1^5 = x*(x - 1)^4 ; y2^5 = (x - λ)^4\n"


def test_models_by_key_digits(capsys):
    code, out, _ = run_cli(
        ["models", "--p", "5", "--n", "3", "--key", "1,0,0;0,1,4"], capsys
    )
    assert code == 0
    assert "y1^5 = x*(x - 1)^4" in out


def test_models_selection_is_exclusive(capsys):
    code, _, err = run_cli(
        ["models", "--p", "5", "--n", "3", "--name", "K(0,4)", "--key", "1,0,0;0,1,4"],
        capsys,
    )
    assert code == 1
    assert "exactly one" in err


def test_jacobian_text(capsys):
    code, out, _ = run_cli(
        ["jacobian", "--p", "3", "--n", "3", "--name", "K(0,2)"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "genus 4"
    assert out.splitlines()[-1] == "genus sum 4, fixed sum 12"


def test_table_csv(capsys):
    code, out, _ = run_cli(
        ["table", "--which", "k4-triples", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "p,N"
    assert "2,3" in out.splitlines() and "13,17" in out.splitlines()


def test_json_round_trip(capsys):
    args = ["orbits", "--p", "5", "--n", "3", "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert json.dumps(doc, indent=2, ensure_ascii=False) + "\n" == out
    sizes = sorted(o["size"] for o in doc["orbits"])
    assert sum(sizes) == 27


def test_determinism(capsys):
    args = ["invariants", "--p", "5", "--n", "3", "--group", "(3 4)", "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    assert json.loads(out1)["count"] == 5


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        ["models", "--p", "5", "--n", "3", "--name", "K(0,1)", "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert target.read_text() == "y1^5 = x*(x - 1)*(x - λ)^3 ; y2^5 = (x - λ)^4\n"


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--p", "3", "--n", "3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key" and len(lines) == 10  # header + 9 keys


def test_labels_preset(capsys):
    code, out, _ = run_cli(
        ["models", "--p", "2", "--n", "5", "--name", "Kbar1", "--family", "k4",
         "--labels", "k4"],
        capsys,
    )
    assert code == 0
    assert "(x - -1)" in out or "(x - λ)" in out


def test_invariants_scale_cap_exit_code(capsys):
    code, _, err = run_cli(
        ["invariants", "--p", "5", "--n", "3", "--max-candidates", "1"], capsys
    )
    assert code == 2
    assert "scale cap" in err


def test_route_disagreement_exit_code(monkeypatch, capsys):
    # at m <= 2 the partition is checked against route B, the keyless count
    import zpaction.classify

    real = zpaction.classify.count_orbits_keyless
    monkeypatch.setattr(zpaction.classify, "count_orbits_keyless", lambda *a: real(*a) + 1)
    code, out, err = run_cli(["orbits", "--p", "5", "--n", "3"], capsys)
    assert code == 3 and out == ""
    assert err == "verification failed: Burnside 5 != partition 4\n"


def _forbid(monkeypatch, module, *names):
    """Make each named function of ``module`` fail the test when it is called."""
    def never(*args, **kwargs):
        raise AssertionError("a forbidden route ran")

    for name in names:  # raising=False: also a name the module does not import today
        monkeypatch.setattr(module, name, never, raising=False)


@pytest.mark.parametrize(
    "args",
    [
        ["orbits", "--p", "5", "--n", "5"],
        ["orbits", "--p", "113", "--n", "3", "--format", "json"],
        ["orbits", "--p", "7", "--n", "4", "--m", "1", "--group", "(1 2 3)"],
        ["table", "--which", "n3-orbits"],
        ["table", "--which", "n5-orbits", "--primes", "5"],
    ],
)
def test_orbit_counts_at_m_up_to_2_skip_the_table_burnside(args, monkeypatch, capsys):
    import zpaction.classify
    import zpaction.cli

    for module in (zpaction.classify, zpaction.cli):
        _forbid(monkeypatch, module, "count_orbits_burnside", "burnside_count_full")
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "") and out


def test_table_orbit_counts_build_no_table(monkeypatch, capsys):
    import zpaction.enumeration

    _forbid(monkeypatch, zpaction.enumeration, "theta_table")
    for which in ("n3-orbits", "n5-orbits"):
        code, out, err = run_cli(["table", "--which", which, "--primes", "5,7"], capsys)
        assert (code, err) == (0, "") and out


def test_orbits_at_m3_keep_the_table_burnside(monkeypatch, capsys):
    import zpaction.classify

    calls = []
    real = zpaction.classify.count_orbits_burnside
    monkeypatch.setattr(zpaction.classify, "count_orbits_burnside",
                        lambda *a: calls.append(a) or real(*a))
    _forbid(monkeypatch, zpaction.classify, "count_orbits_keyless")
    code, out, _ = run_cli(["orbits", "--p", "3", "--n", "4", "--m", "3"], capsys)
    assert code == 0 and out.startswith("p, N\n3, ") and len(calls) == 1


def test_n5_orbit_table(capsys):
    code, out, err = run_cli(["table", "--which", "n5-orbits", "--primes", "5,7,11"], capsys)
    assert (code, out, err) == (0, "p   N\n5   58\n7   282\n11  3086\n", "")


@pytest.mark.parametrize("route", ["count_orbits_keyless", "count_orbits_scanned"])
def test_n5_orbit_table_route_disagreement_exit_code(route, monkeypatch, capsys):
    import zpaction.cli

    real = getattr(zpaction.cli, route)
    monkeypatch.setattr(zpaction.cli, route, lambda *a: real(*a) + 1)
    code, out, err = run_cli(["table", "--which", "n5-orbits", "--primes", "5"], capsys)
    assert (code, out) == (3, "")
    keyless, scanned = (59, 58) if route == "count_orbits_keyless" else (58, 59)
    assert err == f"verification failed: p=5: keyless Burnside {keyless} != scanned Burnside {scanned}\n"


def test_n5_orbit_table_checks_every_cap_first(monkeypatch, capsys):
    import zpaction.cli

    _forbid(monkeypatch, zpaction.cli, "count_orbits_keyless", "count_orbits_scanned")
    code, out, err = run_cli(["table", "--which", "n5-orbits", "--primes", "5,59"], capsys)
    assert (code, out) == (2, "") and f"(estimated {SCAN_59})" in err


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("command", ["orbits", "triples"])
def test_text_and_csv_list_no_members(command, fmt, monkeypatch, capsys):
    # only JSON prints the members, so only JSON builds their digit strings
    from zpaction.classify import OrbitReport
    from zpaction.enumeration import KeySet

    def never(self):
        raise AssertionError("the member lists were built")

    digits = []
    real = KeySet.digit_strings
    monkeypatch.setattr(OrbitReport, "orbit_rows", property(never))
    monkeypatch.setattr(KeySet, "digit_strings", lambda self: digits.append(len(self)) or real(self))
    args = ["--p", "7", "--n", "5", "--format", fmt]
    args = ["orbits", *args] if command == "orbits" else ["triples", *args, "--group", "(1 2)(3 4)(5 6)"]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    count = int(out.splitlines()[1].split(", ")[1]) if fmt == "text" else len(out.splitlines()) - 1
    assert digits == [count]


@pytest.mark.parametrize(
    "args",
    [
        ["triples", "--p", "7", "--n", "5", "--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)"],
        ["triples", "--p", "7", "--n", "5", "--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)",
         "--mode", "predicted"],
        ["table", "--which", "d3-triples", "--primes", "7", "--mode", "exhaustive"],
        ["table", "--which", "k4-triples", "--primes", "5", "--mode", "exhaustive"],
    ],
)
def test_triples_route_disagreement_exit_code(args, monkeypatch, capsys):
    import zpaction.classify

    real = zpaction.classify.count_orbits_burnside
    monkeypatch.setattr(zpaction.classify, "count_orbits_burnside", lambda *a: real(*a) + 1)
    code, out, err = run_cli(args, capsys)
    assert code == 3 and out == ""
    assert err.startswith("verification failed: Burnside ") and err.count("\n") == 1


SCAN_59 = "projective vectors: 12326281"  # (59^5 - 1) / 58: the first refused prime at n = 5


def test_invariants_uses_the_triples_cap(monkeypatch, capsys):
    # the same scan as exhaustive triples, so the same default cap; no table build starts
    import zpaction.enumeration

    def never(*args, **kwargs):
        raise AssertionError("the table build started")

    monkeypatch.setattr(zpaction.enumeration, "theta_table", never)
    code, out, err = run_cli(
        ["invariants", "--p", "59", "--n", "5", "--group", "(1 2)(3 4)(5 6)"], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("scale cap exceeded:") and f"(estimated {SCAN_59})" in err


@pytest.mark.parametrize(
    "args,estimate",
    [
        (["orbits", "--p", "113", "--n", "9"], 36 * 113**14),  # table rows
        (["invariants", "--p", "59", "--n", "5", "--group", "(1 2)(3 4)(5 6)"], 12326281),
        (["triples", "--p", "59", "--n", "5", "--group", "(1 2)(3 4)(5 6)"], 12326281),
        (["triples", "--p", "113", "--n", "9", "--group", "(1 2)"], (113**9 - 1) // 112),
    ],
)
def test_scale_cap_is_checked_before_any_group_is_built(args, estimate, monkeypatch, capsys):
    # S_10, a closure or a normalizer at n = 9 takes seconds before the cap would fail the run
    import zpaction.classify
    import zpaction.cli

    def never(*args, **kwargs):
        raise AssertionError("a permutation group was built before the cap check")

    monkeypatch.setattr(zpaction.cli, "symmetric_group", never)
    monkeypatch.setattr(zpaction.cli, "close_group", never)
    monkeypatch.setattr(zpaction.classify, "normalizer_in_symmetric", never)
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    unit = "candidates" if args[0] == "orbits" else "projective vectors"
    assert err.startswith("scale cap exceeded:") and f"(estimated {unit}: {estimate})" in err


@pytest.mark.parametrize(
    "args,order",
    [
        (["orbits", "--p", "2", "--n", "9"], 3628800),
        (["invariants", "--p", "2", "--n", "9"], 3628800),
        (["orbits", "--p", "2", "--n", "10"], 39916800),
    ],
)
def test_default_group_order_is_capped_before_it_is_built(args, order, monkeypatch, capsys):
    # these pass the candidate cap, but S_10 alone took minutes and gigabytes to build
    import zpaction.cli

    def never(*args, **kwargs):
        raise AssertionError("the symmetric group was built before the order cap")

    monkeypatch.setattr(zpaction.cli, "symmetric_group", never)
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("scale cap exceeded:") and f"(estimated group order: {order})" in err


def test_default_group_order_cap_admits_s9(monkeypatch):
    import zpaction.cli

    class Built(Exception):
        pass

    def stop(degree):
        raise Built(degree)

    monkeypatch.setattr(zpaction.cli, "symmetric_group", stop)
    with pytest.raises(Built, match="^9$"):  # the run gets as far as building S_9
        main(["orbits", "--p", "2", "--n", "8"])


@pytest.mark.parametrize(
    "command,message",
    [
        ("models", "the fiber-product model is defined for m = 2"),
        ("jacobian", "the line decomposition is defined for m = 2"),
    ],
)
def test_one_subgroup_commands_need_m2(command, message, capsys):
    code, out, err = run_cli(
        [command, "--p", "3", "--n", "4", "--m", "3", "--key", "1,0,0,1;0,1,0,1;0,0,1,1"],
        capsys,
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_predicted_member_check_exit_code(monkeypatch, capsys):
    import zpaction.predictions
    from zpaction.enumeration import ActionParams, KeySet, key_from_digit_string

    params = ActionParams(7, 5, 2)
    not_invariant = KeySet.of(params, [key_from_digit_string(params, "1,0,1,1,1;0,1,1,2,3")])
    monkeypatch.setattr(
        zpaction.predictions, "predicted_invariant_set", lambda case, p: not_invariant
    )
    code, _, err = run_cli(
        [
            "triples", "--n", "5", "--p", "7",
            "--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)",
            "--mode", "predicted",
        ],
        capsys,
    )
    assert code == 3
    assert err.startswith("verification failed: predicted member") and err.count("\n") == 1


def test_jacobian_type2_json(capsys):
    # golden output; the d3 key K(2) at p = 5 is type 2 with t = 3
    code, out, _ = run_cli(
        ["jacobian", "--p", "5", "--n", "5", "--family", "d3", "--name", "K(2)",
         "--format", "json"],
        capsys,
    )
    lines = [
        ("0,1", 2, 15, "y^5 = x*(x - 1)"),
        ("1,0", 2, 15, "y^5 = (x - q4)*(x - q5)^2*(x - q6)^2"),
        ("1,1", 8, 0, "y^5 = x*(x - 1)*(x - q4)^2*(x - q5)^4*(x - q6)^4"),
        ("1,2", 8, 0, "y^5 = x*(x - 1)*(x - q4)*(x - q5)^2*(x - q6)^2"),
        ("1,3", 8, 0, "y^5 = x*(x - 1)*(x - q4)^4*(x - q5)^3*(x - q6)^3"),
        ("1,4", 8, 0, "y^5 = x*(x - 1)*(x - q4)^3*(x - q5)*(x - q6)"),
    ]
    expected = {
        "params": {"p": 5, "n": 5, "m": 2},
        "key": "1,2,2,0,0;0,0,0,1,2",
        "genus": 36,
        "lines": [
            {"line": ln, "genus": g, "fixed_points": f, "model": model}
            for ln, g, f, model in lines
        ],
        "genus_sum": 36,
        "fixed_sum": 30,
    }
    assert code == 0
    assert out == json.dumps(expected, indent=2, ensure_ascii=False) + "\n"


def test_models_d3_type1(capsys):
    code, out, _ = run_cli(
        ["models", "--p", "7", "--n", "5", "--family", "d3", "--name", "K(2,3)"],
        capsys,
    )
    assert code == 0
    assert out == (
        "y1^7 = x*(x - 1)^6*(x - q4)^3*(x - q5)^6*(x - q6)^5 ; "
        "y2^7 = (x - 1)^6*(x - q4)^2*(x - q5)^4*(x - q6)\n"
    )


def test_unwritable_output_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(
        ["enumerate", "--p", "5", "--n", "3", "--output", str(blocker / "x.txt")],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exhaustive_table_checks_every_cap_first(monkeypatch, capsys):
    import zpaction.cli

    def never(*args, **kwargs):
        raise AssertionError("a row was computed before the cap check")

    monkeypatch.setattr(zpaction.cli, "classify_triples", never)
    code, out, err = run_cli(
        ["table", "--which", "d3-triples", "--mode", "exhaustive", "--primes", "5,7,59"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "scale cap exceeded" in err and SCAN_59 in err


@pytest.mark.parametrize("which", ["d3-triples", "k4-triples"])
def test_default_exhaustive_table_equals_the_predicted_table(which, capsys):
    # every default prime (up to 31) is admitted, and the scan agrees with the closed forms
    exhaustive = run_cli(["table", "--which", which, "--mode", "exhaustive"], capsys)
    predicted = run_cli(["table", "--which", which, "--mode", "predicted"], capsys)
    assert exhaustive == predicted and exhaustive[0] == 0
    primes = [int(line.split()[0]) for line in predicted[1].splitlines()[1:]]
    assert primes == list(zpaction.cli.DEFAULT_TABLE_PRIMES[which])


@pytest.mark.parametrize("mode", ["exhaustive", "predicted"])
def test_triples_with_no_invariant_keys(mode, capsys):
    code, out, _ = run_cli(
        ["triples", "--p", "5", "--n", "3", "--group", "(1 2)(3 4)", "--group", "(2 3 4)",
         "--mode", mode, "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["invariant_count"], doc["count"], doc["orbits"]) == (0, 0, [])


def test_key_objects_are_built_only_where_needed(monkeypatch, capsys):
    from zpaction.enumeration import SubgroupKey

    built = []
    real = SubgroupKey.__post_init__
    monkeypatch.setattr(SubgroupKey, "__post_init__", lambda self: built.append(1) or real(self))
    for args in (["orbits", "--p", "5", "--n", "5"], ["enumerate", "--p", "5", "--n", "4"]):
        code, _, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0 and built == [], args
    d3 = ["--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)"]
    for mode in ("exhaustive", "predicted"):
        built.clear()
        code, _, _ = run_cli(
            ["triples", "--p", "7", "--n", "5", *d3, "--mode", mode, "--format", "json"],
            capsys,
        )
        assert code == 0 and built == [], mode  # both routes hand classify_triples a KeySet


def test_commands_write_nothing_but_their_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    d3 = ["--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)"]
    for args in (
        ["enumerate", "--p", "5", "--n", "3"],
        ["orbits", "--p", "5", "--n", "3"],
        ["invariants", "--p", "5", "--n", "3", "--group", "(3 4)"],
        ["triples", "--p", "7", "--n", "5", *d3],
        ["table", "--which", "n3-orbits", "--primes", "3,5"],
    ):
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "") and out, args
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", [["--no-cache"], ["--cache-dir", "somewhere"]])
def test_cache_options_are_gone(option, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["orbits", "--p", "5", "--n", "3", *option], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and option[0] in err
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_exit_status():
    src = str(Path(zpaction.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "zpaction.cli", "enumerate", "--p", "4", "--n", "3"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "composite modulus unsupported" in proc.stderr


def test_output_is_utf8_whatever_the_locale(tmp_path):
    # "λ" in a model: an ASCII locale must not change the bytes written, to stdout or --output
    src = str(Path(zpaction.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    ascii_env = {**base, "PYTHONPATH": src, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
    utf8_env = {**base, "PYTHONPATH": src, "PYTHONUTF8": "1"}
    args = [sys.executable, "-m", "zpaction.cli", *MODELS_P5, "--format", "json"]
    ascii_run, utf8_run = (
        subprocess.run(args, capture_output=True, env=env, check=False) for env in (ascii_env, utf8_env)
    )
    assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
    assert ascii_run.stdout == utf8_run.stdout and "λ".encode() in ascii_run.stdout
    path = tmp_path / "model.json"
    to_file = subprocess.run(args + ["--output", str(path)], capture_output=True, env=ascii_env, check=False)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert path.read_bytes() == utf8_run.stdout


# Exact output of every (subcommand, format) pair at small parameters.  JSON
# documents are given as values and compared as the indented dump the command
# line prints.
D3 = ["--group", "(1 2 3)(4 5 6)", "--group", "(1 4)(2 6)(3 5)"]
P3N3_KEYS = [
    "1,0,0;0,1,1", "1,0,0;0,1,2", "1,0,1;0,1,0", "1,0,1;0,1,1", "1,0,1;0,1,2",
    "1,0,2;0,1,0", "1,0,2;0,1,1", "1,1,0;0,0,1", "1,2,0;0,0,1",
]
P5_INVOLUTION_KEYS = ["1,0,2;0,1,2", "1,1,0;0,0,1", "1,2,0;0,0,1", "1,3,0;0,0,1", "1,4,0;0,0,1"]
ORBITS_P3 = ["orbits", "--p", "3", "--n", "3"]
INVARIANTS_P5 = ["invariants", "--p", "5", "--n", "3", "--group", "(3 4)"]
TRIPLES_P5 = ["triples", "--p", "5", "--n", "3", "--group", "(3 4)"]
MODELS_P5 = ["models", "--p", "5", "--n", "3", "--name", "K(0,1)"]
JACOBIAN_P3 = ["jacobian", "--p", "3", "--n", "3", "--name", "K(0,2)"]


def _params(p, n, m=2):
    return {"p": p, "n": n, "m": m}


def _orbit(members):
    return {"rep": members[0], "size": len(members), "members": members}


GOLDEN = {
    "enumerate-text": (
        ["enumerate", "--p", "3", "--n", "3"],
        "\n".join(["p, count", "3, 9", *P3N3_KEYS]) + "\n",
    ),
    "enumerate-json": (
        ["enumerate", "--p", "3", "--n", "3", "--format", "json"],
        {"params": _params(3, 3), "count": 9, "keys": P3N3_KEYS},
    ),
    "enumerate-csv": (
        ["enumerate", "--p", "3", "--n", "3", "--format", "csv"],
        "\n".join(["key", *P3N3_KEYS]) + "\n",
    ),
    "orbits-text": (
        ORBITS_P3,
        "p, N\n3, 2\n   1. size    6  rep 1,0,0;0,1,1\n   2. size    3  rep 1,0,0;0,1,2\n",
    ),
    "orbits-json": (
        ORBITS_P3 + ["--format", "json"],
        {
            "params": _params(3, 3),
            "group": [],
            "count": 2,
            "orbits": [
                _orbit([P3N3_KEYS[i] for i in (0, 2, 3, 4, 6, 7)]),
                _orbit([P3N3_KEYS[i] for i in (1, 5, 8)]),
            ],
        },
    ),
    "orbits-csv": (
        ORBITS_P3 + ["--format", "csv"],
        "orbit,size,rep\n1,6,1,0,0;0,1,1\n2,3,1,0,0;0,1,2\n",
    ),
    "invariants-text": (
        INVARIANTS_P5,
        "\n".join(["p, count", "5, 5", *P5_INVOLUTION_KEYS]) + "\n",
    ),
    "invariants-json": (
        INVARIANTS_P5 + ["--format", "json"],
        {"params": _params(5, 3), "group": ["(3 4)"], "count": 5, "keys": P5_INVOLUTION_KEYS},
    ),
    "invariants-csv": (
        INVARIANTS_P5 + ["--format", "csv"],
        "\n".join(["key", *P5_INVOLUTION_KEYS]) + "\n",
    ),
    "triples-text": (
        TRIPLES_P5,
        "p, N\n5, 4\nmode: exhaustive\nnormalizer order: 4\ninvariant subgroups: 5\n"
        "   1. size    1  rep 1,0,2;0,1,2\n"
        "   2. size    1  rep 1,1,0;0,0,1\n"
        "   3. size    2  rep 1,2,0;0,0,1\n"
        "   4. size    1  rep 1,4,0;0,0,1\n",
    ),
    "triples-json": (
        TRIPLES_P5 + ["--format", "json"],
        {
            "params": _params(5, 3),
            "group": ["(3 4)"],
            "mode": "exhaustive",
            "normalizer_order": 4,
            "invariant_count": 5,
            "count": 4,
            "orbits": [
                _orbit(["1,0,2;0,1,2"]),
                _orbit(["1,1,0;0,0,1"]),
                _orbit(["1,2,0;0,0,1", "1,3,0;0,0,1"]),
                _orbit(["1,4,0;0,0,1"]),
            ],
        },
    ),
    "triples-csv": (
        TRIPLES_P5 + ["--format", "csv"],
        "orbit,size,rep\n1,1,1,0,2;0,1,2\n2,1,1,1,0;0,0,1\n3,2,1,2,0;0,0,1\n4,1,1,4,0;0,0,1\n",
    ),
    "triples-predicted-text": (
        ["triples", "--p", "7", "--n", "5", *D3, "--mode", "predicted"],
        "p, N\n7, 3\nmode: predicted\nnormalizer order: 36\ninvariant subgroups: 8\n"
        "   1. size    3  rep 1,0,6,0,1;0,1,6,6,1\n"
        "   2. size    3  rep 1,0,6,0,6;0,1,6,1,6\n"
        "   3. size    2  rep 1,2,4,0,0;0,0,0,1,4\n",
    ),
    "models-json": (
        MODELS_P5 + ["--format", "json"],
        {
            "params": _params(5, 3),
            "key": "1,0,0;0,1,1",
            "labels": ["inf", "0", "1", "λ"],
            "y1": [0, 1, 1, 3],
            "y2": [1, 0, 0, 4],
            "text": "y1^5 = x*(x - 1)*(x - λ)^3 ; y2^5 = (x - λ)^4",
        },
    ),
    "models-csv": (
        MODELS_P5 + ["--format", "csv"],
        "curve,exponents\ny1,0;1;1;3\ny2,1;0;0;4\n",
    ),
    "jacobian-text": (
        JACOBIAN_P3,
        "genus 4\n"
        "line <0,1>  genus   0  fixed   6  y^3 = (x - λ)\n"
        "line <1,0>  genus   0  fixed   6  y^3 = x*(x - 1)^2\n"
        "line <1,1>  genus   2  fixed   0  y^3 = x*(x - 1)^2*(x - λ)\n"
        "line <1,2>  genus   2  fixed   0  y^3 = x*(x - 1)^2*(x - λ)^2\n"
        "genus sum 4, fixed sum 12\n",
    ),
    "jacobian-csv": (
        JACOBIAN_P3 + ["--format", "csv"],
        "line,genus,fixed_points\n0;1,0,6\n1;0,0,6\n1;1,2,0\n1;2,2,0\n",
    ),
    "table-text": (
        ["table", "--which", "k4-triples", "--primes", "2,3,11"],
        "p   N\n2   3\n3   7\n11  15\n",
    ),
    "table-json": (
        ["table", "--which", "n3-orbits", "--primes", "3,5,11", "--format", "json"],
        {
            "table": "n3-orbits",
            "mode": "predicted",
            "rows": [{"p": 3, "N": 2}, {"p": 5, "N": 4}, {"p": 11, "N": 10}],
        },
    ),
    "table-csv": (
        ["table", "--which", "d3-triples", "--mode", "exhaustive", "--primes", "5,7",
         "--format", "csv"],
        "p,N\n5,2\n7,3\n",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, capsys):
    args, expected = GOLDEN[case]
    if isinstance(expected, dict):
        expected = json.dumps(expected, indent=2, ensure_ascii=False) + "\n"
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert out == expected


def test_json_writer_matches_json_dumps_on_the_golden_documents():
    documents = [expected for _, expected in GOLDEN.values() if isinstance(expected, dict)]
    assert len(documents) == 6
    for doc in documents:
        assert _json(doc) == json.dumps(doc, indent=2, ensure_ascii=False)


_TEXT = st.text(st.sampled_from('aλ"\\\n\t\x00\x1f\x7f\u2028é,; ') | st.characters(), max_size=8)
_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS | st.lists(_TEXT) | st.dictionaries(_TEXT, st.lists(_TEXT)))
def test_json_writer_matches_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("command", ["models", "jacobian"])
def test_one_subgroup_commands_take_no_scale_cap(command, capsys):
    # one subgroup has no scale to cap, so the flag is unknown there
    code, out, err = run_cli(
        [command, "--p", "5", "--n", "3", "--name", "K(0,1)", "--max-candidates", "3"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "usage error: unrecognized arguments: --max-candidates 3\n"


def test_jacobian_csv_renders_no_model(monkeypatch, capsys):
    import zpaction.cli

    def never(model):
        raise AssertionError("a model was rendered for CSV")

    code, text, _ = run_cli(["jacobian", "--p", "7", "--n", "3", "--key", "1,0,1;0,1,1"], capsys)
    monkeypatch.setattr(zpaction.cli, "render_model", never)
    code, csv, err = run_cli(
        ["jacobian", "--p", "7", "--n", "3", "--key", "1,0,1;0,1,1", "--format", "csv"], capsys
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert len(rows) == len(text.splitlines()) - 2 == 8  # the p + 1 lines
