"""The table scripts on a route disagreement: one stderr line and exit code 3, as ``zpaction``.

Each case runs a script in a fresh interpreter, with and without ``-O``,
after replacing one route so that the two routes the script compares
disagree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = {
    "orbit-table-keyless": (
        "orbit_table.py", ["--primes", "3,5"],
        "import zpaction.classify as route; route.count_orbits_keyless = lambda params, group: 0",
        "p     |F|     N\n", "verification failed: Burnside 0 != partition 2\n",
    ),
    "triples-closed-form": (
        "triples_tables.py", ["--exhaustive-limit", "2"],
        "import zpaction.predictions as route; route.predicted_triple_count = lambda case, p: -1",
        "== d3 family, normalizer order 36\np     N     |C|    checked\n",
        "verification failed: d3 p=2: 1 classes, closed form -1\n",
    ),
    "triples-burnside": (
        "triples_tables.py", ["--exhaustive-limit", "2"],
        "import zpaction.classify as route; route.count_orbits_burnside = lambda keys, group: 0",
        "", "verification failed: Burnside 0 != partition 1\n",
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("case", list(CASES))
def test_script_reports_a_disagreement_with_exit_code_3(case, flags):
    script, args, patch, stdout, stderr = CASES[case]
    path = str(ROOT / "scripts" / script)
    code = (f"{patch}\nimport runpy, sys\nsys.argv = [{path!r}, *{args!r}]\n"
            f"runpy.run_path({path!r}, run_name='__main__')\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, stdout, stderr)
