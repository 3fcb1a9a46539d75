"""``orjson`` writes the package's JSON files, and only that: every use lies in
``io.save_json``, and nothing calls ``orjson.loads``.  Reading stays on the
standard ``json`` module, whose parser turns nesting too deep to parse into an
error, where ``orjson.loads`` crashes the process on a file of 200,000 ``[``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))


def orjson_uses(source: str) -> list[tuple]:
    """(top-level function or class, name) of every use of ``orjson`` beyond its import: an ``orjson.name``
    attribute under any alias, each name of ``from orjson import ...``, and a bare alias as ``(owner, None)``."""
    tree = ast.parse(source)
    aliases = {"orjson"} | {
        a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "orjson"
    }
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        attributes = [n for n in ast.walk(top) if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id in aliases]
        uses += [(owner, n.attr) for n in attributes]
        named = {id(n.value) for n in attributes}
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "orjson":
                uses += [(owner, a.name) for a in node.names]
            elif isinstance(node, ast.Name) and node.id in aliases and id(node) not in named:
                uses.append((owner, None))
    return uses


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "io.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orjson_loads(path):
    assert [name for _, name in orjson_uses(path.read_text()) if name == "loads"] == []


def test_orjson_is_used_by_save_json_alone():
    owners = {(path.name, owner) for path in MODULES for owner, _ in orjson_uses(path.read_text())}
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
        "class Reader:\n"
        "    parse = staticmethod(orjson.loads)\n"
        "codec = orjson\n"
        "x = json.loads('1')  # the standard module\n"
        "'''orjson.loads in a docstring'''\n"
    )
    assert sorted(orjson_uses(source), key=str) == sorted([
        (None, "loads"),
        ("save_json", "dumps"), ("save_json", "OPT_SERIALIZE_NUMPY"),
        ("load", "loads"),
        ("Reader", "loads"),
        (None, None),
    ], key=str)
