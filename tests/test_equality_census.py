"""Paper objects that hold arrays compare and hash by identity.

The ``__eq__`` and ``__hash__`` that ``@dataclass`` generates compare and hash
the fields as a tuple, which cannot work on a numpy array: ``==`` of two
separately built objects raises numpy's ``ValueError`` (the truth value of an
array is ambiguous), and ``hash`` raises ``TypeError`` (unhashable
``numpy.ndarray``).  So every dataclass of the package whose fields name
``np.ndarray``, or a class this rule already covers, passes ``eq=False``; the
census below keeps the generated methods from coming back.  Dataclasses of
scalars keep value equality.

Identity equality is sound only if an object's arrays cannot change after its
checks ran, so a second census builds each dataclass whose fields name
``np.ndarray`` from complex arrays (which ``np.asarray`` would not copy) and
requires every array field to be read-only and to share no memory with an input.
"""

import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from frameforge.gabor import RankRWindowSpec, ZNLattice, ZNWindow
from frameforge.schmidt import BipartiteShape, FSROperator
from frameforge.sequences import FrameReport, MinimalSumSequence, VectorSequence

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))


def dataclass_call(node: ast.ClassDef):
    """The ``dataclass`` decorator of a class (a bare name or a call), or None."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return dec
    return None


def names_in(annotation: ast.expr) -> set[str]:
    """Every name and attribute read in one annotation, string annotations parsed."""
    names, todo = set(), [annotation]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            todo.append(ast.parse(n.value, mode="eval").body)
            continue
        names |= {x.id for x in ast.walk(n) if isinstance(x, ast.Name)}
        names |= {x.attr for x in ast.walk(n) if isinstance(x, ast.Attribute)}
    return names


def annotation_names(node: ast.ClassDef) -> set[str]:
    """Every name and attribute read in the class's field annotations, string annotations parsed."""
    return set().union(*(names_in(stmt.annotation) for stmt in node.body if isinstance(stmt, ast.AnnAssign)))


def array_fields(sources: list[str]) -> dict[str, list[str]]:
    """Each dataclass with a field whose annotation names ``ndarray``, mapped to those fields in order."""
    found = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and dataclass_call(node) is not None:
                fields = [stmt.target.id for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and "ndarray" in names_in(stmt.annotation)]
                if fields:
                    found[node.name] = fields
    return found


def unowned_fields(obj, fields: list[str], inputs) -> list[str]:
    """The array ``fields`` of a built ``obj`` that are writable or share memory with an array of ``inputs``."""
    arrays = [x for x in inputs if isinstance(x, np.ndarray)]
    return [name for name in fields if (v := getattr(obj, name)).flags.writeable
            or any(np.shares_memory(v, x) for x in arrays)]


def array_holders(sources: list[str]) -> dict[str, bool]:
    """Each dataclass that holds an array, directly or through a covered class, mapped to
    whether its decorator passes ``eq=False``."""
    classes = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and (dec := dataclass_call(node)) is not None:
                keywords = dec.keywords if isinstance(dec, ast.Call) else []
                eq_false = any(k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
                               for k in keywords)
                classes[node.name] = (annotation_names(node), eq_false)
    covered = {"ndarray"}
    while True:
        grown = covered | {name for name, (names, _) in classes.items() if names & covered}
        if grown == covered:
            return {name: classes[name][1] for name in sorted(covered - {"ndarray"})}
        covered = grown


HOLDERS = array_holders([p.read_text() for p in MODULES])


def test_census_finds_the_paper_objects():
    assert set(HOLDERS) >= {"VectorSequence", "MinimalSumSequence", "FSROperator", "ZNWindow", "RankRWindowSpec"}
    assert not set(HOLDERS) & {"FrameReport", "BipartiteShape", "ZNLattice"}


def test_every_array_holder_passes_eq_false():
    assert [name for name, eq_false in HOLDERS.items() if not eq_false] == []


def test_detects_array_holders_without_eq_false():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Direct:\n"
        "    v: np.ndarray\n"
        "@dataclass\n"
        "class Bare:\n"
        "    v: 'np.ndarray | None'\n"
        "@dataclasses.dataclass(frozen=True, eq=True)\n"
        "class Explicit:\n"
        "    v: numpy.ndarray\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class Fine:\n"
        "    v: np.ndarray\n"
    )
    holder = (
        "@dataclass(frozen=True)\n"
        "class Nested:\n"
        "    parts: tuple[tuple[Fine, ...], ...]\n"
        "@dataclass(frozen=True)\n"
        "class Scalars:\n"
        "    n: int\n"
        "    '''np.ndarray in a docstring'''\n"
        "class Plain:\n"
        "    v: np.ndarray\n"
    )
    assert array_holders([source, holder]) == {
        "Bare": False, "Direct": False, "Explicit": False, "Fine": True, "Nested": False,
    }


_E2, _S2 = np.eye(2), BipartiteShape(2, 2, 2, 2)
BUILDERS = {  # each call builds a new object; two calls build equal twins
    "VectorSequence": lambda: VectorSequence(np.eye(2)),
    "MinimalSumSequence": lambda: MinimalSumSequence(((VectorSequence(np.eye(2)),), (VectorSequence(np.eye(3)),))),
    "FSROperator": lambda: FSROperator(_S2, [_E2], [_E2]),
    "ZNWindow": lambda: ZNWindow(np.ones(4), "gaussian"),
    "RankRWindowSpec": lambda: RankRWindowSpec((ZNWindow(np.ones(4)),), ((0,),), ((0,),)),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
class TestIdentity:
    def test_equal_only_to_itself(self, build):
        x, twin = build(), build()
        assert x == x and not x != x
        assert x != twin and not x == twin

    def test_hashes_by_identity(self, build):
        x, twin = build(), build()
        assert hash(x) == hash(x) and x in {x}
        assert len({x, twin}) == 2


@pytest.mark.parametrize("build", [
    lambda: FrameReport(0.5, 2.0, True, False), lambda: BipartiteShape(2, 3, 4, 5), lambda: ZNLattice(12, 2, 3),
], ids=["FrameReport", "BipartiteShape", "ZNLattice"])
def test_scalar_dataclasses_keep_value_equality(build):
    x, twin = build(), build()
    assert x == twin and hash(x) == hash(twin) and len({x, twin}) == 1


ARRAY_FIELDS = array_fields([p.read_text() for p in MODULES])
OWNERS = {  # each class with array fields: the class, and a call that makes the complex arrays to build one from
    "VectorSequence": (VectorSequence, lambda: (np.eye(2, dtype=complex),)),
    "FSROperator": (FSROperator, lambda: (_S2, np.eye(2, dtype=complex)[None], np.ones((1, 2, 2), complex))),
    "ZNWindow": (ZNWindow, lambda: (np.ones(4, complex),)),
}


def test_census_finds_the_array_fields():
    assert ARRAY_FIELDS == {"VectorSequence": ["vectors"], "FSROperator": ["a", "b"], "ZNWindow": ["g"]}


@pytest.mark.parametrize("name", ARRAY_FIELDS)
def test_every_array_field_is_an_owned_read_only_copy(name):
    cls, make_inputs = OWNERS[name]
    inputs = make_inputs()
    assert unowned_fields(cls(*inputs), ARRAY_FIELDS[name], inputs) == []


@dataclass(frozen=True, eq=False)
class _Planted:
    """Keeps ``kept`` as given, a writable copy of ``copied`` and a read-only view of ``viewed``; ``owned`` is
    a read-only copy, as the package's classes keep theirs."""

    kept: np.ndarray
    copied: np.ndarray
    viewed: np.ndarray
    owned: np.ndarray

    def __post_init__(self):
        viewed, owned = self.viewed.view(), self.owned.copy()
        viewed.flags.writeable = owned.flags.writeable = False
        object.__setattr__(self, "copied", self.copied.copy())
        object.__setattr__(self, "viewed", viewed)
        object.__setattr__(self, "owned", owned)


def test_detects_fields_that_alias_their_input_or_stay_writable():
    inputs = tuple(np.ones(2, complex) for _ in range(4))
    fields = array_fields([Path(__file__).read_text()])["_Planted"]
    assert fields == ["kept", "copied", "viewed", "owned"]
    assert unowned_fields(_Planted(*inputs), fields, inputs) == ["kept", "copied", "viewed"]
