"""The benchmark's name tables in perfbench/spans.py name real functions.

The tracer finds what it times by name.  A renamed or deleted function
leaves its per-layer metric silently at zero, so every name the tables list
must resolve to a function the tracer can see, and every wildcard pattern
must match at least one.  spans.py is read and executed here without being
imported, so nothing is written under perfbench/.  Each draw the tables
list must also call its listed child as often as the tables say.
"""

import fnmatch
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

from frameforge.schmidt import BipartiteShape
from frameforge.verify import suite_rng

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



# The arguments after the rng of one draw for each DRAWS entry.
DRAW_ARGS = {
    "verify.random_fsr_operator": (BipartiteShape(2, 3, 2, 3), 2),
    "verify.random_frame_minimal_sum": ([2, 3], [3, 4], 2),
    "verify.branch3_minimal_sum": (),
    "verify.branch1_minimal_sum": (),
}


def resolve(name):
    layer, attr = name.split(".", 1)
    return getattr(importlib.import_module(f"frameforge.{layer}"), attr)


@pytest.mark.parametrize("draw", sorted(spans.DRAWS))
def test_draw_calls_child_as_listed(draw, monkeypatch):
    # verify.draw_accept_ratio counts a draw's attempts by its calls to the
    # listed child, so a draw accepted on its first attempt must call the
    # child exactly the listed number of times, through any binding
    child, per_attempt = spans.DRAWS[draw]
    original = resolve(child)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n == "frameforge" or n.startswith("frameforge.")]:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                monkeypatch.setattr(mod, attr, counted)
    resolve(draw)(suite_rng(0, 0), *DRAW_ARGS[draw])
    assert len(calls) == per_attempt, f"{draw} called {child} {len(calls)} times; DRAWS lists {per_attempt}"
