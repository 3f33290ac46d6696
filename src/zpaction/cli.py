"""Batch command-line front end.

Subcommands: enumerate, orbits, invariants, triples, models, jacobian,
table, verify.  A command table maps every subcommand but verify to
three functions: a builder that computes a JSON-ready document from the
parsed arguments, and the two functions that lay that document out as
text lines and as CSV lines; ``--format json`` prints the document
itself.  A second table maps every subcommand to the function that adds
its arguments, so that a command builds only its own parser.  Output is
deterministic, and nothing but ``--output`` is written.

Exit codes: 0 success, 1 usage or validation error, 2 scale cap
exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from json.encoder import encode_basestring as _encode
from pathlib import Path

import numpy as np

from . import __version__
from .fpalgebra import NotPrimeError
from .hgroup import PermGroup, close_group, parse_cycles, symmetric_group
from .enumeration import (
    ActionParams,
    AdmissibilityError,
    KeySet,
    ScaleCapError,
    SubgroupKey,
    VerificationError,
    check_candidate_cap,
    digit_text,
    key_from_digit_string,
    key_from_named,
)
from .classify import (
    check_invariant_cap,
    classify_orbits,
    classify_triples,
    count_orbits_keyless,
    count_orbits_scanned,
    invariant_keys_full,
)
from .geometry import (
    MarkedPoints,
    fiber_product_model,
    jacobian_decomposition,
    points_preset,
    render_model,
)
from .predictions import case_group, predicted_triple_count

# Read only by bench/workloads.py, which sets it on every pass; nothing in the package reads it.
CACHE_ENV = "ZPACTION_CACHE_DIR"
# S_9 is the largest default group.  S_10's image array is only 36 MB, but its conjugacy
# classes take 3-4 s and 280 MB (S_9's: 0.3 s), so orbits at p = 2, n = 9 would take 4 s.
SYMMETRIC_ORDER_CAP = math.factorial(9)

DEFAULT_TABLE_PRIMES = {
    "n3-orbits": (3, 5, 7, 11, 13, 17, 19, 23, 29, 113),
    "n5-orbits": (5, 7, 11, 13, 17, 19),
    "d3-triples": (5, 7, 11, 13, 17, 19, 23, 29, 31),
    "k4-triples": (2, 3, 5, 7, 11, 13),
}


DESCRIPTION = """\
Exact classification of Z_p^m actions on compact Riemann surfaces of
signature (0; p, ..., p): admissible subgroups, their orbits under
branch-point relabelings, symmetric triples, curve models and Jacobian
decompositions.

exit codes: 0 success, 1 usage or validation error, 2 scale cap exceeded,
3 verification failure
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _prime_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _add_output(p) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", metavar="PATH", help="write output to a file instead of stdout")


def _add_common(p, with_group=False, capped=True) -> None:
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--n", type=int, required=True, help="number of branch points minus one")
    p.add_argument("--m", type=int, default=2, help="rank of the deck group (default 2)")
    if with_group:
        p.add_argument("--group", action="append", default=[], dest="groups", metavar="CYCLES",
                       help="generator in cycle notation, repeatable")
    _add_output(p)
    if capped:
        p.add_argument("--max-candidates", type=int, metavar="N", help="override the scale cap")


def _add_grouped(p) -> None:
    _add_common(p, with_group=True)


def _add_triples(p) -> None:
    _add_grouped(p)
    p.add_argument("--mode", choices=("exhaustive", "predicted"), default="exhaustive")


def _add_one_subgroup(p) -> None:
    _add_common(p, capped=False)  # one subgroup: no scale to cap
    p.add_argument("--name", help="named subgroup, e.g. 'K(0,1)'")
    p.add_argument("--family", choices=("n3", "d3", "k4"))
    p.add_argument("--key", help="digit string, e.g. '1,0,0;0,1,4'")
    p.add_argument("--labels", choices=("standard", "lambda", "d3", "k4"))


def _add_table(p) -> None:
    p.add_argument("--which", choices=sorted(DEFAULT_TABLE_PRIMES), required=True)
    p.add_argument("--primes", type=_prime_list, default=(),
                   help="comma-separated primes (defaults per table)")
    p.add_argument("--mode", choices=("exhaustive", "predicted"), default="predicted")
    _add_output(p)


# subcommand -> (help line, function that adds its arguments to a parser)
_SUBCOMMANDS = {
    "enumerate": ("list the admissible subgroup keys", _add_common),
    "orbits": ("orbit partition under relabelings", _add_grouped),
    "invariants": ("subgroups invariant under a symmetry group", _add_grouped),
    "triples": ("classes of actions with extra symmetry", _add_triples),
    "models": ("fiber-product curve model of one subgroup", _add_one_subgroup),
    "jacobian": ("per-line genus decomposition of one subgroup", _add_one_subgroup),
    "table": ("reproduce a published count table", _add_table),
    "verify": ("run the built-in verification suite", lambda p: None),
}


def build_parser() -> _Parser:
    """The whole command tree, for ``--help``, ``--version`` and argument lists without a subcommand."""
    parser = _Parser(
        prog="zpaction", description=DESCRIPTION, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--version", action="version", version=f"zpaction {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (helptext, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(command, help=helptext))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named subcommand's parser.

    That parser is the one ``build_parser`` adds for the subcommand, with
    the same prog, so help, errors and the namespace are the same.  It
    parses in about 0.2 ms, the whole tree in about 1.5 ms.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return build_parser().parse_args(argv)
    parser = _Parser(prog=f"zpaction {argv[0]}")
    _SUBCOMMANDS[argv[0]][1](parser)
    return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _params(args) -> ActionParams:
    return ActionParams(args.p, args.n, args.m)


def _group(args) -> PermGroup:
    degree = args.n + 1
    gens = [parse_cycles(g, degree) for g in args.groups]
    return close_group(gens, degree=degree) if gens else symmetric_group(degree)


# ---------------------------------------------------------------------------
# result documents


def _params_doc(params: ActionParams) -> dict:
    return {"p": params.p, "n": params.n, "m": params.m}


def _group_head(args) -> dict:
    """The leading fields of a document about a group action."""
    group = [parse_cycles(g, args.n + 1).cycle_string() for g in args.groups]
    return {"params": _params_doc(_params(args)), "group": group}


class _Lines:
    """Nonempty newline-joined digit strings, which ``_json`` writes as a list of strings."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _orbit_entries(report, args) -> list[dict]:
    """Each orbit's representative and size, and its members for JSON, which alone prints them.

    The JSON entries are slices of one ``digit_text`` of the rows in orbit
    order: the representative is an orbit's first line, the members all
    of its lines.
    """
    sizes = report.sizes
    if args.format != "json":
        reps = report.representative_rows.digit_strings()
        return [{"rep": rep, "size": size} for rep, size in zip(reps, sizes)]
    text, line_ends = digit_text(report.keys.params, report.keys.rows[report.order])
    bounds = np.cumsum([0, *sizes])  # each orbit's first line, and one past its last
    rep_ends, ends = line_ends[bounds[:-1]].tolist(), line_ends[bounds[1:] - 1].tolist()
    starts = [0, *(end + 1 for end in ends[:-1])]
    return [
        {"rep": text[start:rep_end], "size": size, "members": _Lines(text[start:end])}
        for start, rep_end, end, size in zip(starts, rep_ends, ends, sizes)
    ]


def _cap(args) -> dict:
    """``--max-candidates`` as keyword arguments; absent or 0 keeps each route's default cap."""
    if (args.max_candidates or 0) < 0:
        raise UsageError(f"argument --max-candidates: must be 0 or more, got {args.max_candidates}")
    return {"max_candidates": args.max_candidates} if args.max_candidates else {}


def _check_cap(args, check) -> None:
    """Raise ScaleCapError before any group is built; ``check`` is the route's own cap check.

    At n = 9, S_10, its closure and the normalizer take seconds and
    hundreds of MB, so a run over the cap fails before it builds them.
    Without ``--group`` the group is S_{n+1}, whose classes cost time
    and memory in step with its order, so that order is capped too,
    whatever the candidate count.
    """
    check(_params(args), **_cap(args))
    order = math.factorial(args.n + 1)
    if not args.groups and order > SYMMETRIC_ORDER_CAP:
        raise ScaleCapError(
            f"the default group S_{args.n + 1} exceeds the order cap {SYMMETRIC_ORDER_CAP}",
            order,
            "group order",
        )


def _orbits_doc(args) -> dict:
    _check_cap(args, check_candidate_cap)
    report = classify_orbits(_params(args), _group(args), **_cap(args))
    return {**_group_head(args), "count": report.count, "orbits": _orbit_entries(report, args)}


def _enumerate_doc(args) -> dict:
    keys = KeySet.full(_params(args), **_cap(args))
    return {"params": _params_doc(keys.params), "count": len(keys), "keys": keys.digit_strings()}


def _invariants_doc(args) -> dict:
    _check_cap(args, check_invariant_cap)
    params, group = _params(args), _group(args)
    inv = invariant_keys_full(params, group, **_cap(args))
    return {**_group_head(args), "count": len(inv), "keys": inv.digit_strings()}


def _triples_doc(args) -> dict:
    params = _params(args)
    if not args.groups:
        raise UsageError("triples requires at least one --group generator")
    if args.mode == "exhaustive":
        _check_cap(args, check_invariant_cap)
    result = classify_triples(params, _group(args), mode=args.mode, **_cap(args))
    return {
        **_group_head(args),
        "mode": result.mode,
        "normalizer_order": result.normalizer.order,
        "invariant_count": len(result.invariant),
        "count": result.count,
        "orbits": _orbit_entries(result.report, args),
    }


def _key_and_points(args) -> tuple[SubgroupKey, MarkedPoints]:
    """The one subgroup that ``--name`` or ``--key`` selects, and its ``--labels`` points."""
    params = _params(args)
    if (args.name is None) == (args.key is None):
        raise UsageError("select the subgroup with exactly one of --name or --key")
    if args.name is not None:
        key = key_from_named(params, args.name, args.family)
    else:
        key = key_from_digit_string(params, args.key)
    return key, points_preset(args.labels or ("lambda" if params.n == 3 else "standard"), params.n)


def _models_doc(args) -> dict:
    key, points = _key_and_points(args)
    model = fiber_product_model(key, points)
    return {
        "params": _params_doc(key.params),
        "key": key.digit_string(),
        "labels": list(points.labels),
        "y1": list(model.first.exponents),
        "y2": list(model.second.exponents),
        "text": render_model(model),
    }


def _jacobian_doc(args) -> dict:
    key, points = _key_and_points(args)
    report = jacobian_decomposition(key, points)
    lines = [
        {"line": "{},{}".format(*entry.line), "genus": entry.genus, "fixed_points": entry.fixed_points}
        for entry in report.lines
    ]
    if args.format != "csv":  # only text and JSON print the models, so only they render them
        for line, entry in zip(lines, report.lines):
            line["model"] = render_model(entry.model)
    return {
        "params": _params_doc(key.params),
        "key": key.digit_string(),
        "genus": report.total,
        "lines": lines,
        "genus_sum": report.genus_sum,
        "fixed_sum": report.fixed_sum,
    }


def _n5_orbit_count(p: int, s6: PermGroup) -> int:
    """Route B's orbit count at (p, 5, 2), checked against route A; neither builds the table."""
    params = ActionParams(p, 5, 2)
    keyless, scanned = count_orbits_keyless(params, s6), count_orbits_scanned(params, s6)
    if keyless != scanned:
        raise VerificationError(f"p={p}: keyless Burnside {keyless} != scanned Burnside {scanned}")
    return keyless


def _table_doc(args) -> dict:
    primes = args.primes or DEFAULT_TABLE_PRIMES[args.which]
    case = "N5_D3" if args.which == "d3-triples" else "N5_K4"
    if args.which == "n3-orbits":
        s4 = symmetric_group(4)
        count = lambda p: count_orbits_keyless(ActionParams(p, 3, 2), s4)
    elif args.which == "n5-orbits":
        for p in primes:  # fail on the first prime over the scan's cap before any row runs
            check_invariant_cap(ActionParams(p, 5, 2))
        s6 = symmetric_group(6)
        count = lambda p: _n5_orbit_count(p, s6)
    elif args.mode == "predicted":
        count = lambda p: predicted_triple_count(case, p)
    else:
        for p in primes:  # fail on the first prime over the cap before any row runs
            check_invariant_cap(ActionParams(p, 5, 2))
        group = case_group(case)
        count = lambda p: classify_triples(ActionParams(p, 5, 2), group, mode="exhaustive").count
    rows = [{"p": p, "N": count(p)} for p in primes]
    return {"table": args.which, "mode": args.mode, "rows": rows}


# ---------------------------------------------------------------------------
# text and CSV lines


def _keys_text(doc: dict) -> list[str]:
    return ["p, count", f"{doc['params']['p']}, {doc['count']}", *doc["keys"]]


def _keys_csv(doc: dict) -> list[str]:
    return ["key", *doc["keys"]]


def _orbits_text(doc: dict, details: tuple[str, ...] = ()) -> list[str]:
    orbits = enumerate(doc["orbits"], start=1)
    return [
        "p, N",
        f"{doc['params']['p']}, {doc['count']}",
        *details,
        *(f"{i:4d}. size {orbit['size']:4d}  rep {orbit['rep']}" for i, orbit in orbits),
    ]


def _triples_text(doc: dict) -> list[str]:
    return _orbits_text(doc, (
        f"mode: {doc['mode']}",
        f"normalizer order: {doc['normalizer_order']}",
        f"invariant subgroups: {doc['invariant_count']}",
    ))


def _orbits_csv(doc: dict) -> list[str]:
    orbits = enumerate(doc["orbits"], start=1)
    return ["orbit,size,rep", *(f"{i},{orbit['size']},{orbit['rep']}" for i, orbit in orbits)]


def _models_csv(doc: dict) -> list[str]:
    return ["curve,exponents", *(f"{y}," + ";".join(map(str, doc[y])) for y in ("y1", "y2"))]


def _jacobian_text(doc: dict) -> list[str]:
    return [
        f"genus {doc['genus']}",
        *(f"line <{e['line']}>  genus {e['genus']:3d}  fixed {e['fixed_points']:3d}  {e['model']}"
          for e in doc["lines"]),
        f"genus sum {doc['genus_sum']}, fixed sum {doc['fixed_sum']}",
    ]


def _jacobian_csv(doc: dict) -> list[str]:
    return ["line,genus,fixed_points", *(
        f"{e['line'].replace(',', ';')},{e['genus']},{e['fixed_points']}" for e in doc["lines"]
    )]


def _table_text(doc: dict) -> list[str]:
    width = max(len(str(row["p"])) for row in doc["rows"])
    return [f"{'p':<{width}}  N", *(f"{row['p']:<{width}}  {row['N']}" for row in doc["rows"])]


def _table_csv(doc: dict) -> list[str]:
    return ["p,N", *(f"{row['p']},{row['N']}" for row in doc["rows"])]


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` of a document with string keys.

    An indent sends ``json.dumps`` to its pure-Python encoder; here each
    list of strings is encoded in one join, and each ``_Lines``, such as
    an orbit's members, in one ``str.replace``.
    """
    inner = pad + "  "
    if type(value) is _Lines:  # digit strings, which need no escaping
        quoted = value.text.replace("\n", f'",{inner}"')
        return f'[{inner}"{quoted}"{pad}]'
    sep = "," + inner
    if isinstance(value, dict) and value:
        body = sep.join(f"{_encode(key)}: {_json(item, inner)}" for key, item in value.items())
        return f"{{{inner}{body}{pad}}}"  # one copy of the body, where "+" chains make several
    if isinstance(value, (list, tuple)) and value:
        strings = all(isinstance(item, str) for item in value)
        body = sep.join(map(_encode, value) if strings else (_json(item, inner) for item in value))
        return f"[{inner}{body}{pad}]"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return _encode(value) if isinstance(value, str) else json.dumps(value)


# subcommand -> (document builder, text lines, CSV lines); JSON is the document itself.
_COMMANDS = {
    "enumerate": (_enumerate_doc, _keys_text, _keys_csv),
    "orbits": (_orbits_doc, _orbits_text, _orbits_csv),
    "invariants": (_invariants_doc, _keys_text, _keys_csv),
    "triples": (_triples_doc, _triples_text, _orbits_csv),
    "models": (_models_doc, lambda doc: [doc["text"]], _models_csv),
    "jacobian": (_jacobian_doc, _jacobian_text, _jacobian_csv),
    "table": (_table_doc, _table_text, _table_csv),
}


def _run_verify() -> int:
    from .acceptance import run_all

    results = run_all(lambda line: print(line, flush=True))
    failures = sum(1 for r in results if not r.passed)
    if failures:
        print(f"{failures} criterion(s) failed", file=sys.stderr)
        return 3
    print(f"all {len(results)} criteria passed")
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.command == "verify":
            return _run_verify()
        build, text_lines, csv_lines = _COMMANDS[args.command]
        doc = build(args)
        if args.format == "json":
            text = _json(doc) + "\n"
        else:
            text = "\n".join((csv_lines if args.format == "csv" else text_lines)(doc)) + "\n"
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ScaleCapError as exc:
        print(f"scale cap exceeded: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (NotPrimeError, AdmissibilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    # Output is UTF-8 whatever the locale: "λ" in a model cannot be written as ASCII.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    console_main()
