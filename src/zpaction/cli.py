"""Batch command-line front end.

Subcommands: enumerate, orbits, invariants, triples, models, jacobian,
table, verify.  Output is deterministic text, JSON or CSV; heavyweight
results are cached as JSON documents keyed by the command, parameters,
canonical group text and a digest of the package's source files.

Exit codes: 0 success, 1 usage or validation error, 2 scale cap
exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

from . import __version__
from .fpalgebra import NotPrimeError
from .hgroup import PermGroup, close_group, parse_cycles, symmetric_group
from .enumeration import (
    DEFAULT_CANDIDATE_CAP,
    ActionParams,
    AdmissibilityError,
    KeySet,
    ScaleCapError,
    SubgroupKey,
    VerificationError,
    check_candidate_cap,
    key_from_digit_string,
    key_from_named,
)
from .classify import (
    TRIPLES_CANDIDATE_CAP,
    burnside_count_full,
    classify_triples,
    invariant_keys_full,
    orbit_partition,
)
from .geometry import fiber_product_model, jacobian_decomposition, points_preset, render_model
from .predictions import predicted_triple_count

CACHE_ENV = "ZPACTION_CACHE_DIR"
CACHEABLE = {"enumerate", "orbits", "invariants", "triples", "table"}

DEFAULT_TABLE_PRIMES = {
    "n3-orbits": (3, 5, 7, 11, 13, 17, 19, 23, 29, 113),
    "d3-triples": (5, 7, 11, 13, 17, 19, 23, 29, 31),
    "k4-triples": (2, 3, 5, 7, 11, 13),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: subcommand, parameters, groups, output options."""

    command: str
    p: int | None = None
    n: int | None = None
    m: int | None = None
    groups: tuple[str, ...] = ()
    mode: str = "exhaustive"
    format: str = "text"
    output: str | None = None
    labels: str | None = None
    name: str | None = None
    family: str | None = None
    key: str | None = None
    which: str | None = None
    primes: tuple[int, ...] = ()
    max_candidates: int | None = None
    cache_dir: str | None = None
    no_cache: bool = False

    def params(self) -> ActionParams:
        return ActionParams(self.p, self.n, self.m)

    def parsed_groups(self) -> PermGroup:
        degree = self.n + 1
        gens = [parse_cycles(g, degree) for g in self.groups]
        if not gens:
            return symmetric_group(degree)
        return close_group(gens, degree=degree)

    def canonical_group_text(self) -> tuple[str, ...]:
        degree = self.n + 1
        return tuple(parse_cycles(g, degree).cycle_string() for g in self.groups)


def _prime_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def build_parser() -> _Parser:
    parser = _Parser(prog="zpaction", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zpaction {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_group=False, with_m=True):
        p.add_argument("--p", type=int, required=True, help="prime modulus")
        p.add_argument("--n", type=int, required=True, help="number of branch points minus one")
        if with_m:
            p.add_argument("--m", type=int, default=2, help="rank of the deck group (default 2)")
        if with_group:
            p.add_argument(
                "--group",
                action="append",
                default=[],
                dest="groups",
                metavar="CYCLES",
                help="generator in cycle notation, repeatable",
            )
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", metavar="PATH", help="write output to a file instead of stdout")
        p.add_argument("--cache-dir", metavar="DIR")
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--max-candidates", type=int, metavar="N", help="override the scale cap")

    p_enum = sub.add_parser("enumerate", help="list the admissible subgroup keys")
    add_common(p_enum)

    p_orbits = sub.add_parser("orbits", help="orbit partition under relabelings")
    add_common(p_orbits, with_group=True)

    p_inv = sub.add_parser("invariants", help="subgroups invariant under a symmetry group")
    add_common(p_inv, with_group=True)

    p_tri = sub.add_parser("triples", help="classes of actions with extra symmetry")
    add_common(p_tri, with_group=True)
    p_tri.add_argument("--mode", choices=("exhaustive", "predicted"), default="exhaustive")

    for cmd, helptext in (("models", "fiber-product curve model of one subgroup"),
                          ("jacobian", "per-line genus decomposition of one subgroup")):
        p_one = sub.add_parser(cmd, help=helptext)
        add_common(p_one)
        p_one.add_argument("--name", help="named subgroup, e.g. 'K(0,1)'")
        p_one.add_argument("--family", choices=("n3", "d3", "k4"))
        p_one.add_argument("--key", help="digit string, e.g. '1,0,0;0,1,4'")
        p_one.add_argument("--labels", choices=("standard", "lambda", "d3", "k4"))

    p_table = sub.add_parser("table", help="reproduce a published count table")
    p_table.add_argument("--which", choices=sorted(DEFAULT_TABLE_PRIMES), required=True)
    p_table.add_argument("--primes", type=_prime_list, default=(),
                         help="comma-separated primes (defaults per table)")
    p_table.add_argument("--mode", choices=("exhaustive", "predicted"), default="predicted")
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--output", metavar="PATH")
    p_table.add_argument("--cache-dir", metavar="DIR")
    p_table.add_argument("--no-cache", action="store_true")

    sub.add_parser("verify", help="run the built-in verification suite")
    return parser


def _config_from_args(args) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(**{**given, "groups": tuple(given.get("groups", ()))})


# ---------------------------------------------------------------------------
# caching


def _cache_dir(config: RunConfig) -> Path:
    if config.cache_dir:
        return Path(config.cache_dir)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "zpaction"


@cache
def _source_digest() -> str:
    """sha256 of the package's ``*.py`` files: an edited checkout misses every older entry."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cache_key(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "p": config.p,
        "n": config.n,
        "m": config.m,
        "groups": list(config.canonical_group_text()) if config.n else list(config.groups),
        "mode": config.mode,
        "which": config.which,
        "primes": list(config.primes),
        "source": _source_digest(),
    }


def _with_cache(config: RunConfig, compute) -> dict:
    if config.no_cache or config.command not in CACHEABLE:
        return compute()
    key = _cache_key(config)
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    path = _cache_dir(config) / f"{digest}.json"
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # missing or unreadable: a miss, overwritten below
        stored = None
    if isinstance(stored, dict) and stored.get("key") == key and "result" in stored:
        return stored["result"]
    result = compute()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # A name of its own per writer, so concurrent runs never share a partial file.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{digest}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"key": key, "result": result}, ensure_ascii=False))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:  # an entry that cannot be stored is skipped, as an unreadable one is a miss
        pass
    return result


# ---------------------------------------------------------------------------
# result documents


def _params_doc(params: ActionParams) -> dict:
    return {"p": params.p, "n": params.n, "m": params.m}


def _group_head(config: RunConfig) -> dict:
    """The leading fields of a document about a group action."""
    return {"params": _params_doc(config.params()), "group": list(config.canonical_group_text())}


def _orbit_entries(report) -> list[dict]:
    digits = report.keys.digit_strings()
    return [
        {"rep": digits[rows[0]], "size": len(rows), "members": [digits[i] for i in rows]}
        for rows in report.orbit_rows
    ]


def _cap(config: RunConfig) -> dict:
    """``--max-candidates`` as keyword arguments; absent or 0 keeps each route's default cap."""
    return {"max_candidates": config.max_candidates} if config.max_candidates else {}


def _orbits_doc(config: RunConfig) -> dict:
    params, group = config.params(), config.parsed_groups()
    report = orbit_partition(KeySet.full(params, **_cap(config)), group)
    burnside = burnside_count_full(params, group, **_cap(config))
    if burnside != report.count:
        raise VerificationError(f"Burnside {burnside} != partition {report.count}")
    return {**_group_head(config), "count": report.count, "orbits": _orbit_entries(report)}


def _enumerate_doc(config: RunConfig) -> dict:
    keys = KeySet.full(config.params(), **_cap(config))
    return {"params": _params_doc(keys.params), "count": len(keys), "keys": keys.digit_strings()}


def _invariants_doc(config: RunConfig) -> dict:
    params, group = config.params(), config.parsed_groups()
    inv = invariant_keys_full(params, group, config.max_candidates or DEFAULT_CANDIDATE_CAP)
    return {**_group_head(config), "count": len(inv), "keys": inv.digit_strings()}


def _triples_doc(config: RunConfig) -> dict:
    params = config.params()
    if not config.groups:
        raise UsageError("triples requires at least one --group generator")
    result = classify_triples(params, config.parsed_groups(), mode=config.mode, **_cap(config))
    return {
        **_group_head(config),
        "mode": result.mode,
        "normalizer_order": result.normalizer.order,
        "invariant_count": len(result.invariant),
        "count": result.count,
        "orbits": _orbit_entries(result.report),
    }


def _select_key(config: RunConfig, params: ActionParams) -> SubgroupKey:
    if (config.name is None) == (config.key is None):
        raise UsageError("select the subgroup with exactly one of --name or --key")
    if config.name is not None:
        return key_from_named(params, config.name, config.family)
    return key_from_digit_string(params, config.key)


def _points_for(config: RunConfig, n: int):
    preset = config.labels or ("lambda" if n == 3 else "standard")
    return points_preset(preset, n)


def _models_doc(config: RunConfig) -> dict:
    params = config.params()
    key = _select_key(config, params)
    points = _points_for(config, params.n)
    model = fiber_product_model(key, points)
    return {
        "params": _params_doc(params),
        "key": key.digit_string(),
        "labels": list(points.labels),
        "y1": list(model.first.exponents),
        "y2": list(model.second.exponents),
        "text": render_model(model),
    }


def _jacobian_doc(config: RunConfig) -> dict:
    params = config.params()
    key = _select_key(config, params)
    points = _points_for(config, params.n)
    report = jacobian_decomposition(key, points)
    return {
        "params": _params_doc(params),
        "key": key.digit_string(),
        "genus": report.total,
        "lines": [
            {
                "line": ",".join(str(e) for e in entry.line.entries[0]),
                "genus": entry.genus,
                "fixed_points": entry.fixed_points,
                "model": render_model(entry.model),
            }
            for entry in report.lines
        ],
        "genus_sum": report.genus_sum,
        "fixed_sum": report.fixed_sum,
    }


def _table_doc(config: RunConfig) -> dict:
    which = config.which
    primes = config.primes or DEFAULT_TABLE_PRIMES[which]
    rows = []
    if which == "n3-orbits":
        s4 = symmetric_group(4)
        for p in primes:
            rows.append({"p": p, "N": burnside_count_full(ActionParams(p, 3, 2), s4)})
    else:
        case = "N5_D3" if which == "d3-triples" else "N5_K4"
        from .predictions import case_group

        group = case_group(case)
        if config.mode == "exhaustive":  # fail on the first prime over the cap before any row runs
            for p in primes:
                check_candidate_cap(ActionParams(p, 5, 2), TRIPLES_CANDIDATE_CAP)
        for p in primes:
            if config.mode == "exhaustive":
                count = classify_triples(ActionParams(p, 5, 2), group, mode="exhaustive").count
            else:
                count = predicted_triple_count(case, p)
            rows.append({"p": p, "N": count})
    return {"table": which, "mode": config.mode, "rows": rows}


# ---------------------------------------------------------------------------
# rendering


def _render_text(config: RunConfig, doc: dict) -> str:
    cmd = config.command
    lines: list[str] = []
    if cmd in ("enumerate", "invariants"):
        lines.append("p, count")
        lines.append(f"{doc['params']['p']}, {doc['count']}")
        lines.extend(doc["keys"])
    elif cmd in ("orbits", "triples"):
        lines.append("p, N")
        lines.append(f"{doc['params']['p']}, {doc['count']}")
        if cmd == "triples":
            lines.append(f"mode: {doc['mode']}")
            lines.append(f"normalizer order: {doc['normalizer_order']}")
            lines.append(f"invariant subgroups: {doc['invariant_count']}")
        for i, orbit in enumerate(doc["orbits"], start=1):
            lines.append(f"{i:4d}. size {orbit['size']:4d}  rep {orbit['rep']}")
    elif cmd == "models":
        lines.append(doc["text"])
    elif cmd == "jacobian":
        lines.append(f"genus {doc['genus']}")
        for entry in doc["lines"]:
            lines.append(
                f"line <{entry['line']}>  genus {entry['genus']:3d}  "
                f"fixed {entry['fixed_points']:3d}  {entry['model']}"
            )
        lines.append(f"genus sum {doc['genus_sum']}, fixed sum {doc['fixed_sum']}")
    elif cmd == "table":
        width = max(len(str(row["p"])) for row in doc["rows"])
        lines.append(f"{'p'.ljust(width)}  N")
        for row in doc["rows"]:
            lines.append(f"{str(row['p']).ljust(width)}  {row['N']}")
    return "\n".join(lines) + "\n"


def _render_csv(config: RunConfig, doc: dict) -> str:
    cmd = config.command
    rows: list[str] = []
    if cmd == "enumerate" or cmd == "invariants":
        rows.append("key")
        rows.extend(doc["keys"])
    elif cmd in ("orbits", "triples"):
        rows.append("orbit,size,rep")
        for i, orbit in enumerate(doc["orbits"], start=1):
            rows.append(f"{i},{orbit['size']},{orbit['rep']}")
    elif cmd == "models":
        rows.append("curve,exponents")
        rows.append("y1," + ";".join(str(e) for e in doc["y1"]))
        rows.append("y2," + ";".join(str(e) for e in doc["y2"]))
    elif cmd == "jacobian":
        rows.append("line,genus,fixed_points")
        for entry in doc["lines"]:
            rows.append(f"{entry['line'].replace(',', ';')},{entry['genus']},{entry['fixed_points']}")
    elif cmd == "table":
        rows.append("p,N")
        for row in doc["rows"]:
            rows.append(f"{row['p']},{row['N']}")
    return "\n".join(rows) + "\n"


def _emit(config: RunConfig, doc: dict) -> str:
    if config.format == "json":
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if config.format == "csv":
        return _render_csv(config, doc)
    return _render_text(config, doc)


_COMMANDS = {
    "enumerate": _enumerate_doc,
    "orbits": _orbits_doc,
    "invariants": _invariants_doc,
    "triples": _triples_doc,
    "models": _models_doc,
    "jacobian": _jacobian_doc,
    "table": _table_doc,
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if config.command == "verify":
            return _run_verify()
        doc = _with_cache(config, lambda: _COMMANDS[config.command](config))
        text = _emit(config, doc)
        if config.output:
            Path(config.output).write_text(text)
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
    sys.exit(main())


if __name__ == "__main__":
    console_main()
