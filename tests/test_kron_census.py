"""The package forms every Kronecker product through ``linalg._kron``: no
module calls ``np.kron``, whose per-call reshaping costs more than the
multiply on the small factors the package works with."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))


def kron_uses(source: str) -> list[int]:
    """Line numbers of every ``kron`` attribute (``np.kron(...)``, or
    ``np.kron`` passed as a function) and every ``from ... import kron``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "kron":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines += [node.lineno for a in node.names if a.name == "kron"]
    return sorted(lines)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"linalg.py", "schmidt.py", "sequences.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_np_kron(path):
    assert kron_uses(path.read_text()) == []


def test_detects_kron_uses():
    source = (
        "import numpy as np\n"
        "from numpy import kron\n"
        "a = np.kron(x, y)\n"
        "b = functools.reduce(np.kron, arrays)\n"
        "c = numpy.kron(x, y)\n"
        "d = _kron(x, y)  # the package's own helper\n"
        "e = linalg.kron_all([x, y])\n"
        "'''np.kron in a docstring'''\n"
    )
    assert kron_uses(source) == [2, 3, 4, 5]
