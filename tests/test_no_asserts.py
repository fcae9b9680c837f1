"""No check in src/tbtl is an assert statement, since python -O strips
those and a verdict would then rest on a premise nobody checked.

The syntax tree is read, so nothing is imported to find the asserts; one
premise is then broken in a python -O interpreter to see that it still
raises.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tbtl"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_broken_premise_raises_under_optimize():
    # a type A component with i pluses is c Q^i; dropping its Q power breaks
    # the premise that decompose_sum reads the coefficients from
    code = (
        "import dataclasses, sys\n"
        "from tbtl import combinatorics\n"
        "assert not __debug__\n"
        "real = combinatorics.psi_component\n"
        "combinatorics.psi_component = lambda tag, D: dataclasses.replace(real(tag, D), Q_exp=0)\n"
        "try:\n"
        "    print(combinatorics.decompose_sum('A', 3))\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised A component "), done.stdout
