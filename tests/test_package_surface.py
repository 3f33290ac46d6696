"""Every public top-level function and class of the package has a caller outside the tests.

A caller is code in the package itself, in ``bench/`` or ``scripts/``, or a
``pyproject.toml`` entry point.  A name counts as used where it appears as a
name, an attribute or an imported name; docstrings and comments never do.
Another object of the same name anywhere can hide a dead function, so the
check errs towards passing.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "zpaction").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _references(tree: ast.AST) -> Counter:
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_caller_outside_the_tests():
    used = sum((_references(_parse(path)) for path in CALLERS), Counter())
    used.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    definitions = [
        (path.stem, node)
        for path in PACKAGE
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(definitions) > 50
    # uses inside a definition's own body, such as recursion, do not count
    unused = [
        f"{module}.{node.name}"
        for module, node in definitions
        if used[node.name] == _references(node)[node.name]
    ]
    assert unused == []
