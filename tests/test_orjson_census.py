"""``orjson`` writes the package's JSON files and reads them only behind a
check.  ``orjson.loads`` has one call site, in ``io.load_json``, in the branch
taken only when ``io._orjson_reads_as_json`` returns ``True``: the file has no
backslash, nests at most ``_MAX_FAST_DEPTH`` deep and has no integer of 19
digits or more.  ``orjson.loads`` has no nesting limit and crashes the process
on a file of 200,000 ``[``, and it reads integers beyond 64 bits as floats;
every other file goes to the standard ``json`` module, whose parser turns
nesting too deep to parse into an error.  Every other use of ``orjson`` lies
in ``io.save_json``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))
CHECK = "_orjson_reads_as_json"


def orjson_uses(source: str) -> list[tuple]:
    """(top-level function or class, name, guarded) of every use of ``orjson`` beyond its import: an
    ``orjson.name`` attribute under any alias, each name of ``from orjson import ...``, and a bare alias as
    ``(owner, None, guarded)``.  A use is guarded when it lies in the body of an ``if CHECK(...):``."""
    tree = ast.parse(source)
    aliases = {"orjson"} | {
        a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "orjson"
    }
    guarded = {
        id(n) for node in ast.walk(tree) if isinstance(node, ast.If) and isinstance(node.test, ast.Call)
        and isinstance(node.test.func, ast.Name) and node.test.func.id == CHECK
        for stmt in node.body for n in ast.walk(stmt)
    }
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        attributes = [n for n in ast.walk(top) if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id in aliases]
        uses += [(owner, n.attr, id(n) in guarded) for n in attributes]
        named = {id(n.value) for n in attributes}
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "orjson":
                uses += [(owner, a.name, id(node) in guarded) for a in node.names]
            elif isinstance(node, ast.Name) and node.id in aliases and id(node) not in named:
                uses.append((owner, None, id(node) in guarded))
    return uses


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "io.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_orjson_loads_only_behind_the_check(path):
    loads = [(path.name, owner, guarded) for owner, name, guarded in orjson_uses(path.read_text())
             if name == "loads"]
    assert set(loads) <= {("io.py", "load_json", True)}


def test_orjson_loads_has_one_call_site():
    loads = [(path.name, owner, guarded) for path in MODULES
             for owner, name, guarded in orjson_uses(path.read_text()) if name == "loads"]
    assert loads == [("io.py", "load_json", True)]


def test_other_orjson_uses_are_in_save_json():
    owners = {(path.name, owner) for path in MODULES
              for owner, name, _ in orjson_uses(path.read_text()) if name != "loads"}
    assert owners == {("io.py", "save_json")}


def test_detects_orjson_uses():
    source = (
        "import json\n"
        "import orjson\n"
        "import orjson as oj\n"
        "from orjson import loads\n"
        "def save_json(path, payload):\n"
        "    return orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY)\n"
        "def load(text):\n"
        "    return oj.loads(text)\n"
        "def load_json(data):\n"
        f"    if {CHECK}(data):\n"
        "        return orjson.loads(data)\n"
        f"    if not {CHECK}(data):\n"
        "        return orjson.loads(data)\n"
        "    return orjson.loads(data)\n"
        "class Reader:\n"
        "    parse = staticmethod(orjson.loads)\n"
        "codec = orjson\n"
        "x = json.loads('1')  # the standard module\n"
        "'''orjson.loads in a docstring'''\n"
    )
    assert sorted(orjson_uses(source), key=str) == sorted([
        (None, "loads", False),
        ("save_json", "dumps", False), ("save_json", "OPT_SERIALIZE_NUMPY", False),
        ("load", "loads", False),
        ("load_json", "loads", True), ("load_json", "loads", False), ("load_json", "loads", False),
        ("Reader", "loads", False),
        (None, None, False),
    ], key=str)
