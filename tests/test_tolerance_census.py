"""Tolerances that no caller varies are module constants, not parameters,
and the package reads no environment variable."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))

# The only tolerance parameters that two callers set differently:
# ``schmidt decompose --tol`` sets the first three; the rank-law suite and
# demo 03 pass tol=1e-7 and the operator's norm as scale, which
# ``reshuffle_rank`` forwards to ``singular_value_rank``.
ALLOWED = {
    ("schmidt_decompose_deflation", "tol"),
    ("reshuffle_rank", "tol"),
    ("reshuffle_rank", "scale"),
    ("singular_value_rank", "tol"),
    ("singular_value_rank", "scale"),
}

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def tolerance_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter named ``tol``, ``*_tol`` or
    ``scale`` outside ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            name = getattr(node, "name", "<lambda>")
            found += [(name, p.arg) for p in params if p.arg in ("tol", "scale") or p.arg.endswith("_tol")]
    return [f for f in found if f not in ALLOWED]


def environment_reads(source: str) -> list[int]:
    """Line numbers of every ``os.environ``/``os.getenv`` access and import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for a in node.names if a.name in ENVIRONMENT]
    return lines


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "linalg.py", "schmidt.py", "sequences.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_parameters_outside_the_allowlist(path):
    assert tolerance_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


def test_allowlist_is_in_use():
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        found |= {(n.name, p.arg) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) for p in n.args.args}
    assert ALLOWED <= found


def test_detects_knobs_and_environment_reads():
    source = (
        "import os\n"
        "from os import getenv\n"
        "def classify(seq, tol=1e-10): pass\n"
        "def deflate(f, *, pairing_tol=1e-9): pass\n"
        "def sample(n, scale=None, rtol_count=0): pass\n"
        "f = lambda x, tol: x\n"
        "def reshuffle_rank(f, shape, tol=1e-9, scale=0.0): pass\n"
        "def reader(): return os.environ.get('X'), os.getenv('Y')\n"
    )
    assert tolerance_parameters(source) == [
        ("classify", "tol"), ("deflate", "pairing_tol"), ("sample", "scale"), ("<lambda>", "tol"),
    ]
    assert environment_reads(source) == [2, 8, 8]
