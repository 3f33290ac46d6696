"""The benchmark's three workloads: inputs, one timed pass, answer checks.

A pass runs a workload's fixed query set once, one query at a time, and
returns its wall time and the answers.  Answers are checked after the
pass, outside the timed region.  ``orbits`` and ``triples`` drive the
command line in-process, the way a user runs ``zpaction``; ``geometry``
makes per-key library calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through the module attributes so that the traced run's
# wrappers (spans.py) see them.
from zpaction import cli, enumeration, geometry
from zpaction.enumeration import ActionParams, AdmissibilityError, key_from_theta
from zpaction.predictions import case_group

# Published relabeling-orbit counts of Z_p^2 actions at n = 3 (the
# ``table --which n3-orbits`` rows).
N3_ORBITS = {3: 2, 5: 4, 7: 6, 11: 10, 13: 14, 17: 20, 19: 24, 23: 32, 29: 48, 113: 580}

D3 = ("(1 2 3)(4 5 6)", "(1 4)(2 6)(3 5)")
K4 = tuple(g.cycle_string() for g in case_group("N5_K4").generators)
INVOLUTION = ("(1 2)(3 4)(5 6)",)

# Keys per (p, n, m) class in one geometry pass; every class is equally
# represented so that the pass time does not depend on the seed's mix.
GEOMETRY_CLASSES = ((5, 5, 2), (7, 5, 2), (13, 3, 2), (13, 5, 2), (31, 4, 2), (3, 5, 3), (5, 4, 3))
KEYS_PER_CLASS = 200


@dataclass
class PassResult:
    wall_s: float
    answers: list
    latencies_s: list[float] = field(default_factory=list)
    output_bytes: int = 0


def _genus(p: int, n: int, m: int) -> int:
    """Genus of the covering surface, by Riemann-Hurwitz."""
    return 1 + p ** (m - 1) * ((n - 1) * (p - 1) - 2) // 2


def clear_package_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name == "zpaction" or name.startswith("zpaction."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# command-line workloads


def _group_args(generators) -> list[str]:
    return [arg for g in generators for arg in ("--group", g)]


class CliWorkload:
    """Runs ``zpaction.cli.main`` on a fixed list of commands per pass.

    Each pass starts from empty package caches and an empty result-cache
    directory, as consecutive command-line invocations do; commands
    within a pass share the process, as ``scripts/triples_tables.py`` does.
    """

    commands: tuple[tuple[str, ...], ...] = ()

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir  # the inputs are fixed; the seed is unused

    def run_pass(self) -> PassResult:
        clear_package_caches()
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        saved = os.environ.get(cli.CACHE_ENV)
        os.environ[cli.CACHE_ENV] = str(cache_dir)
        answers = []
        try:
            start = time.perf_counter()
            for argv in self.commands:
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        code = cli.main(list(argv))
                except Exception as exc:  # a crash is a failed operation, not a crashed run
                    answers.append((argv, None, f"{type(exc).__name__}: {exc}"))
                    continue
                answers.append((argv, code, out.getvalue()))
            wall = time.perf_counter() - start
        finally:
            if saved is None:
                os.environ.pop(cli.CACHE_ENV, None)
            else:
                os.environ[cli.CACHE_ENV] = saved
            shutil.rmtree(cache_dir, ignore_errors=True)
        output_bytes = sum(len(text.encode()) for _, code, text in answers if code is not None)
        return PassResult(wall, answers, output_bytes=output_bytes)

    def check(self, result: PassResult) -> list[str]:
        """One message per wrong answer or failed command."""
        errors = []
        for argv, code, text in result.answers:
            if code != 0:
                errors.append(f"{' '.join(argv)}: exit {code}: {text[:200] if code is None else ''}")
                continue
            try:
                problem = self.check_document(argv, json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc}"
            if problem:
                errors.append(f"{' '.join(argv)}: {problem}")
        return errors

    def check_document(self, argv, doc) -> str | None:
        raise NotImplementedError

    def final_check(self, result: PassResult) -> list[str]:
        """Checks made once per run, on the first pass, outside the timed region."""
        return []


def _orbit_doc_problem(doc, expected: int) -> str | None:
    if doc["count"] != expected:
        return f"count {doc['count']}, expected {expected}"
    if len(doc["orbits"]) != doc["count"]:
        return f"{len(doc['orbits'])} orbits listed for count {doc['count']}"
    if any(len(o["members"]) != o["size"] for o in doc["orbits"]):
        return "an orbit size differs from its member list"
    return None


class OrbitsWorkload(CliWorkload):
    """Full-group classification: Burnside sum, orbit closure, key building."""

    name = "orbits"
    commands = (
        ("orbits", "--p", "5", "--n", "5", "--format", "json"),
        ("orbits", "--p", "113", "--n", "3", "--format", "json"),
        ("table", "--which", "n3-orbits", "--format", "json"),
    )
    expected = {"5": 58, "113": 580}

    def check_document(self, argv, doc):
        if argv[0] == "table":
            got = {row["p"]: row["N"] for row in doc["rows"]}
            return None if got == N3_ORBITS else f"rows {got}, expected {N3_ORBITS}"
        return _orbit_doc_problem(doc, self.expected[argv[2]])


def _triples(p: int, generators, mode: str = "exhaustive") -> tuple[str, ...]:
    return ("triples", "--n", "5", "--p", str(p), "--mode", mode, "--format", "json", *_group_args(generators))


def _close(generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The group generated by permutations of 0..d-1 given as image tuples."""
    identity = tuple(range(len(generators[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        products = {tuple(g[i] for i in a) for a in frontier for g in generators}
        frontier = list(products - elements)
        elements.update(frontier)
    return elements


def _images(cycles: str, degree: int) -> tuple[int, ...]:
    """Image tuple on 0..degree-1 of a permutation in 1-based cycle notation."""
    images = list(range(degree))
    for cycle in cycles.strip("()").split(")("):
        points = [int(tok) - 1 for tok in cycle.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def burnside_over_invariant_set(digit_strings, generators, p: int, n: int) -> tuple[int, int]:
    """Orbit count of a Q-invariant key set under the normalizer of Q.

    Independent of the package: Q and its normalizer in S_{n+1} are built
    here, and a relabeling fixes a key exactly when permuting the columns
    of its extended quotient matrix [theta | -sum of columns] keeps the
    row space, i.e. when the permuted matrix equals C theta for C its
    restriction to theta's pivot columns.  Returns (count, |normalizer|).
    """
    degree = n + 1
    q = _close([_images(g, degree) for g in generators])
    normalizer = [
        tau
        for tau in itertools.permutations(range(degree))
        if {tuple(tau[g[tau.index(i)]] for i in range(degree)) for g in q} == q
    ]
    theta = np.array([[row.split(",") for row in s.split(";")] for s in digit_strings], dtype=np.int64)
    extended = np.concatenate([theta, (-theta.sum(axis=2, keepdims=True)) % p], axis=2)
    pivots = (theta != 0).argmax(axis=2)
    fixed = 0
    for tau in normalizer:
        moved = extended[:, :, list(tau)]
        coeff = np.take_along_axis(moved, pivots[:, None, :].repeat(theta.shape[1], axis=1), axis=2)
        fixed += int(((coeff @ extended) % p == moved).all(axis=(1, 2)).sum())
    if fixed % len(normalizer):
        raise ArithmeticError("Burnside sum not divisible by the normalizer order")
    return fixed // len(normalizer), len(normalizer)


class TriplesWorkload(CliWorkload):
    """Symmetry search over the p = 13, n = 5 table, then two predicted runs."""

    name = "triples"
    commands = (
        _triples(13, D3),
        _triples(13, K4),
        _triples(13, INVOLUTION),
        _triples(101, D3, "predicted"),
        _triples(101, K4, "predicted"),
    )
    expected = (4, 17, 154, 18, 105)

    def check_document(self, argv, doc):
        expected = self.expected[self.commands.index(tuple(argv))]
        problem = _orbit_doc_problem(doc, expected)
        if problem is None and sum(o["size"] for o in doc["orbits"]) != doc["invariant_count"]:
            problem = "orbit sizes do not add up to the invariant count"
        return problem

    def final_check(self, result):
        """Recount the involution classes by Burnside."""
        index = self.commands.index(_triples(13, INVOLUTION))
        _, code, text = result.answers[index]
        if code != 0:
            return []  # already counted as failed
        doc = json.loads(text)
        keys = [key for orbit in doc["orbits"] for key in orbit["members"]]
        count, order = burnside_over_invariant_set(keys, INVOLUTION, 13, 5)
        if (count, order) != (doc["count"], doc["normalizer_order"]):
            return [f"involution: Burnside gives {count} classes under a normalizer of order {order}, "
                    f"the command gave {doc['count']} and {doc['normalizer_order']}"]
        return []


# ---------------------------------------------------------------------------
# library workload


class GeometryWorkload:
    """Per-key curve models and Jacobian decompositions from random keys.

    Each query parses a key from its digit string; at m = 2 it builds and
    renders the fiber-product model and decomposes the Jacobian, at
    m = 3 it runs the hyperplane genus-sum probe.
    """

    name = "geometry"

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(seed)
        self.queries = []
        for p, n, m in GEOMETRY_CLASSES:
            params = ActionParams(p, n, m)
            made = 0
            while made < KEYS_PER_CLASS:
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
                try:
                    key = key_from_theta(params, rows)
                except AdmissibilityError:
                    continue
                self.queries.append((params, key.digit_string()))
                made += 1
        rng.shuffle(self.queries)

    def run_pass(self) -> PassResult:
        answers, latencies = [], []
        clock = time.perf_counter
        start = clock()
        for params, text in self.queries:
            t0 = clock()
            try:
                key = enumeration.key_from_digit_string(params, text)
                if params.m == 2:
                    model = geometry.fiber_product_model(key)
                    answer = (key, model, geometry.render_model(model), geometry.jacobian_decomposition(key))
                else:
                    answer = (key, geometry.conjecture_probe(key))
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                answer = exc
            latencies.append(clock() - t0)
            answers.append(answer)
        wall = clock() - start
        return PassResult(wall, answers, latencies)

    def check(self, result: PassResult) -> list[str]:
        errors = []
        for (params, text), answer in zip(self.queries, result.answers):
            try:
                problem = self._problem(params, text, answer)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                errors.append(f"{params.p},{params.n},{params.m} {text}: {problem}")
        return errors

    @staticmethod
    def _problem(params, text, answer) -> str | None:
        if isinstance(answer, Exception):
            return f"{type(answer).__name__}: {answer}"
        p, n, m = params.p, params.n, params.m
        key = answer[0]
        if key.digit_string() != text:
            return f"parsed key reads {key.digit_string()}"
        if m != 2:
            probe = answer[1]
            # Equality holds for every key at these (p, n, 3), by exhaustive scan.
            if probe.total != _genus(p, n, m) or not probe.equal:
                return f"probe {probe.genus_sum} vs genus {probe.total}, expected {_genus(p, n, m)}"
            return None
        _, model, rendered, report = answer
        if report.genus_sum != _genus(p, n, m) or report.total != _genus(p, n, m):
            return f"genus sum {report.genus_sum}, expected {_genus(p, n, m)}"
        if report.fixed_sum != (n + 1) * p:
            return f"fixed-point sum {report.fixed_sum}, expected {(n + 1) * p}"
        curves = [model.first, model.second] + [line.model for line in report.lines]
        if any(sum(c.exponents) % p for c in curves):
            return "model exponents do not sum to 0 mod p"
        if len(report.lines) != p + 1 or not rendered.startswith(f"y1^{p} = "):
            return f"{len(report.lines)} lines, model {rendered!r}"
        return None

    def final_check(self, result):
        """Cross-check every m = 2 key by the hyperplane probe (a theorem at m = 2)."""
        errors = []
        for params, text in dict.fromkeys(q for q in self.queries if q[0].m == 2):
            try:
                probe = geometry.conjecture_probe(enumeration.key_from_digit_string(params, text))
                expected = _genus(params.p, params.n, 2)
                if probe.equal and probe.total == expected:
                    continue
                problem = f"sum {probe.genus_sum}, genus {probe.total}, expected {expected}"
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            errors.append(f"{params.p},{params.n},2 {text}: hyperplane probe: {problem}")
        return errors


WORKLOADS = {w.name: w for w in (OrbitsWorkload, TriplesWorkload, GeometryWorkload)}
