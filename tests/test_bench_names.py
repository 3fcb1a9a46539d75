"""The benchmark's name tables in perfbench/spans.py name real functions.

The tracer finds what it times by name.  A renamed or deleted function
leaves its per-layer metric silently at zero, so every name the tables list
must resolve to a function the tracer can see, and every wildcard pattern
must match at least one.  spans.py is read and executed here without being
imported, so nothing is written under perfbench/.
"""

import fnmatch
import importlib
import inspect
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    mod = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


spans = load_spans()


def package_functions():
    """Every 'layer.name' the tracer could wrap: the public functions each
    layer defines itself, and FSROperator.materialize."""
    names = {"schmidt.FSROperator.materialize"}
    for layer in spans.LAYERS:
        mod = importlib.import_module(f"frameforge.{layer}")
        names.update(
            f"{layer}.{attr}"
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_")
        )
    return names


FUNCTIONS = package_functions()


def table_names():
    yield from (("UNTRACED", n) for n in spans.UNTRACED)
    for draw, (child, _) in spans.DRAWS.items():
        yield "DRAWS", draw
        yield "DRAWS", child
    yield from (("COUNTERS", n) for n in spans.COUNTERS)
    for metric, _, patterns in spans.TIMES:
        yield from ((f"TIMES {metric}", p) for p in patterns)


@pytest.mark.parametrize("table, name", sorted(set(table_names())))
def test_bench_name_resolves(table, name):
    if any(c in name for c in "*?["):
        assert fnmatch.filter(FUNCTIONS, name), f"{table} pattern {name!r} matches no package function"
    else:
        assert name in FUNCTIONS, f"{table} names {name!r}, which is not a public package function"
