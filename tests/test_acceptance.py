"""Acceptance gate: every numbered verification criterion at its stated
tolerance (exact equality everywhere; runtime budgets where stated).

One test per criterion; each prints its own PASS/FAIL line so a plain
``pytest -v tests/test_acceptance.py`` (or ``zpaction verify``) shows the
full scoreboard.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zpaction import acceptance
from zpaction.acceptance import CHECKS, run_criterion


@pytest.mark.parametrize(
    "number,title", [(num, title) for num, title, _ in CHECKS], ids=[f"criterion-{n}" for n, _, _ in CHECKS]
)
def test_criterion(number, title):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.number:2d} {result.title}: {result.detail} ({result.seconds:.2f}s)")
    assert result.passed, f"criterion {number} ({title}): {result.detail}"


def test_acceptance_checks_use_no_assert_statement():
    # ``python -O`` strips assert statements, so a check made with one would pass unchecked
    tree = ast.parse(Path(acceptance.__file__).read_text(encoding="utf-8"))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == [], f"assert statements at lines {asserts}"


def test_a_failing_check_fails_under_optimization():
    code = (
        "import zpaction.acceptance as acceptance\n"
        "acceptance.total_genus = lambda p, n, m: -1\n"
        "result = acceptance.run_criterion(12)\n"
        "print(result.passed, result.detail)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(acceptance.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "False total_genus(2, 5, 2) != 3\n"
