"""Every public function or class of the package has a reader outside the
tests: a package module, a script or a demo that reads its name, or a name
table of the benchmark.  A public name that only tests read is dead code,
so it either gains a caller or goes.  The few names waiting for a caller
are listed in ``ALLOWED``, each with its reason."""

import ast
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frameforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = [p for d in (PACKAGE, ROOT / "scripts", ROOT / "demos") for p in sorted(d.glob("*.py"))]
SPANS = ROOT / "perfbench" / "spans.py"

ALLOWED = {
    "gabor.build_rank_r_window": "rank-r windows on product groups; ROADMAP item 3 gives them a suite and a command",
}


def public_defs(source: str) -> list[str]:
    """Names of the module's top-level public functions and classes."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def names_read(source: str) -> set[str]:
    """Every name read as an ``ast.Name`` or an ``ast.Attribute``, except the
    reads of a top-level definition's own name inside it (recursion)."""
    read = set()
    for top in ast.parse(source).body:
        names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        read |= names
    return read


def bench_names() -> set[str]:
    """The 'layer.name' entries of perfbench/spans.py's tables, wildcards left
    out; the file is executed without being imported, so nothing is written
    under perfbench/."""
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    names = {*spans.UNTRACED, *spans.DRAWS, *(child for child, _ in spans.DRAWS.values()), *spans.COUNTERS}
    names |= {p for _, _, patterns in spans.TIMES for p in patterns}
    return {n for n in names if not any(c in n for c in "*?[")}


def unread(module: str, source: str, read: set[str], named: set[str]) -> list[str]:
    """The public 'module.name's of ``source`` neither read nor named."""
    return [f"{module}.{n}" for n in public_defs(source) if n not in read and f"{module}.{n}" not in named]


READ = set().union(*(names_read(p.read_text()) for p in READERS))
NAMED = bench_names()


def test_modules_found():
    assert {p.name for p in MODULES} >= {"gabor.py", "io.py", "linalg.py", "schmidt.py", "sequences.py"}
    assert {p.parent.name for p in READERS} == {"frameforge", "scripts", "demos"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_reader(path):
    assert [n for n in unread(path.stem, path.read_text(), READ, NAMED) if n not in ALLOWED] == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_exists_and_still_has_no_reader(name):
    module, attr = name.split(".")
    source = (PACKAGE / f"{module}.py").read_text()
    assert attr in public_defs(source), f"{name} is gone: drop it from ALLOWED"
    assert name in unread(module, source, READ, NAMED), f"{name} has a reader now: drop it from ALLOWED"


def test_detects_an_unused_def():
    source = (
        "def used(x):\n"
        "    return helper(x)\n"
        "def helper(x):\n"
        "    return x\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def unused():\n"
        "    '''unused in a docstring'''\n"
        "class Shape:\n"
        "    pass\n"
        "class Orphan:\n"
        "    pass\n"
        "def traced():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    reader = "from m import used, unused\nused(m.Shape())\n"
    read = names_read(source) | names_read(reader)
    assert unread("m", source, read, {"m.traced"}) == ["m.recursive", "m.unused", "m.Orphan"]
