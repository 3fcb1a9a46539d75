"""The package decides "this result left the float range" in one place:
``linalg.within_float_range`` is the only code that switches numpy's
floating-point warnings off, apart from ``schmidt.reshuffle_rank``, whose
rank threshold may be scaled beyond the float range on purpose (it then
ranks everything as zero).  Any other ``np.errstate`` is a hand-written copy
of the guard, or a warning hidden without a check after it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, enclosing function) of each np.errstate the package may hold
ALLOWED = {("linalg.py", "within_float_range"), ("schmidt.py", "reshuffle_rank")}


def errstate_uses(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function name or None, line number) of every ``errstate``
    attribute (``np.errstate(...)``, or ``np.errstate`` passed on) and every
    ``from ... import errstate``."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "errstate":
            uses.append((function, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses.extend((function, node.lineno) for a in node.names if a.name == "errstate")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(uses, key=lambda use: use[1])


def test_modules_found():
    assert {p.name for p in MODULES} >= {"linalg.py", "schmidt.py", "sequences.py", "gabor.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_errstate_only_in_the_guard(path):
    found = [(path.name, function) for function, _ in errstate_uses(path.read_text())]
    assert [use for use in found if use not in ALLOWED] == []


def test_each_allowed_use_exists():
    found = {(path.name, function) for path in MODULES for function, _ in errstate_uses(path.read_text())}
    assert found == ALLOWED


def test_detects_errstate_uses():
    source = (
        "import numpy as np\n"
        "from numpy import errstate\n"
        "def f(x):\n"
        "    with np.errstate(over='ignore'):\n"
        "        return x * x\n"
        "class C:\n"
        "    def g(self):\n"
        "        quiet = numpy.errstate(all='ignore')\n"
        "        def inner():\n"
        "            return functools.partial(np.errstate, invalid='ignore')\n"
        "        return quiet, inner\n"
        "'''np.errstate in a docstring'''\n"
        "h = linalg.within_float_range(lambda: x * x, 'x squared')\n"
    )
    assert errstate_uses(source) == [(None, 2), ("f", 4), ("g", 8), ("inner", 10)]
