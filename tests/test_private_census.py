"""No package module reaches into another module's private names: each
module's ``_``-prefixed helpers can change without touching any other module,
and a monkeypatch of a public name reaches every caller."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = frozenset(p.stem for p in MODULES) - {"__init__"}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[int]:
    """Line numbers of every ``from .x import _y`` (or ``from frameforge.x``)
    and every ``x._y`` where ``x`` is the name of a package module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("frameforge")):
            lines += [node.lineno for a in node.names if is_private(a.name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in MODULE_NAMES and is_private(node.attr):
                lines.append(node.lineno)
    return sorted(lines)


def test_modules_found():
    assert MODULE_NAMES >= {"gabor", "linalg", "schmidt", "sequences", "verify"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reach(path):
    assert private_reaches(path.read_text()) == []


def test_detects_private_reaches():
    source = (
        "from . import linalg, sequences\n"
        "from .sequences import FrameReport, _helper\n"
        "from frameforge.linalg import _kron\n"
        "a = sequences._helper(x)\n"
        "b = linalg._kron\n"
        "from .errors import FrameForgeError\n"
        "c = self._cache\n"
        "d = sequences.__name__\n"
        "e = np.linalg._umath_linalg\n"
        "from __future__ import annotations\n"
        "'''sequences._helper in a docstring'''\n"
    )
    assert private_reaches(source) == [2, 3, 4, 5]
