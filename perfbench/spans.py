"""Spans around frameforge's public functions, kept in memory, and the
per-layer metrics computed from them.

``Tracer.install`` replaces every binding of each traced function: the
defining module's attribute (which ``sequences`` and ``schmidt`` reach as
``linalg.matrix_rank``), every other frameforge module that imported it by
name (``classify`` in ``gabor`` and ``verify``, the package namespace), the
``verify.SUITES`` table and ``FSROperator.materialize``.
``Tracer.uninstall`` restores the originals.  The program itself is not
edited.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("linalg", "sequences", "schmidt", "gabor", "io", "verify", "cli")

# Per-vector and per-atom helpers, called up to ~10^5 times per op: a span
# each would cost more than the work it times.  Their time stays inside the
# spans of their callers (gabor_atom inside gabor_system, and so on).
UNTRACED = frozenset(
    {
        "linalg.as_cvector",
        "linalg.as_coperator",
        "linalg.inner",
        "linalg.tensor_vec",
        "gabor.translate",
        "gabor.modulate",
        "gabor.gabor_atom",
    }
)

SUITES = (
    "prop22_identities",
    "rank_one_fixed_point",
    "deflation_rank_law",
    "inverse_factors",
    "span_uniqueness",
    "tensor_bounds_multiply",
    "minimal_sum_frames",
    "two_term_disjunction",
    "gabor_density",
    "oversampling",
    "perturbation",
)

# Random draws that retry until a candidate passes, and the direct child
# call each attempt makes a fixed number of times.
DRAWS = {
    "verify.random_fsr_operator": ("schmidt.reshuffle_rank", 1),
    "verify.random_frame_minimal_sum": ("sequences.build_minimal_sum", 1),
    "verify.branch3_minimal_sum": ("sequences.build_minimal_sum", 1),
    "verify.branch1_minimal_sum": ("verify.random_vector_sequence", 2),
}

# (metric, "incl" | "self", span-name patterns).  "incl" sums the spans of
# the group not nested in another span of the group; "self" sums span time
# not covered by direct child spans.
TIMES = (
    ("gabor.system_s", "incl", ("gabor.gabor_system",)),
    ("sequences.frame_op_s", "incl", ("sequences.frame_operator",)),
    ("sequences.classify_s", "self", ("sequences.classify",)),
    ("sequences.materialize_s", "incl", ("sequences.materialize",)),
    ("sequences.tensor_s", "incl", ("sequences.tensor_sequences",)),
    ("sequences.build_minimal_sum_s", "incl", ("sequences.build_minimal_sum",)),
    ("linalg.matrix_rank_s", "incl", ("linalg.matrix_rank",)),
    ("schmidt.deflation_s", "incl", ("schmidt.schmidt_decompose_deflation",)),
    ("schmidt.reshuffle_rank_s", "incl", ("schmidt.reshuffle_rank",)),
    ("schmidt.fsr_materialize_s", "incl", ("schmidt.FSROperator.materialize",)),
    ("io.json_load_s", "incl", ("io.load_json",)),
    ("io.decode_s", "incl", ("io.*_from_dict",)),
    ("io.encode_s", "incl", ("io.*_to_dict",)),
    ("io.json_save_s", "incl", ("io.save_json",)),
    ("io.csv_write_s", "incl", ("io.write_sweep_csv",)),
    *((f"verify.suite.{s}_s", "incl", (f"verify.suite_{s}",)) for s in SUITES),
    ("verify.draw_s", "incl", (*DRAWS, "verify.random_vector_sequence")),
    ("cli.self_s", "self", ("cli.*",)),
)


def _arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_system(c, args, kwargs, seq):
    n, dim = seq.vectors.shape
    c["gabor.atoms"] += n
    c["gabor.system_mb"] += n * dim * 16 / 1e6


def _count_frame_op(c, args, kwargs, _):
    n, dim = _arg(args, kwargs).vectors.shape
    c["sequences.frame_op_gflop"] += 8 * n * dim * dim / 1e9


def _count_classify(c, args, kwargs, _):
    c["sequences.classify_calls"] += 1
    c["sequences.eig_work"] += _arg(args, kwargs).space_dim ** 3


def _count_materialize(c, args, kwargs, seq):
    c["sequences.materialize_rows"] += len(seq)


def _count_svd(c, args, kwargs, _):
    c["linalg.svd_calls"] += 1


def _count_deflation(c, args, kwargs, fsr):
    c["schmidt.deflation_steps"] += fsr.rank_bound


def _count_read(c, args, kwargs, _):
    c["io.bytes_read"] += os.path.getsize(_arg(args, kwargs))


def _count_written(c, args, kwargs, _):
    c["io.bytes_written"] += os.path.getsize(_arg(args, kwargs))


# Counts taken at the traced call from its arguments or result.
COUNTERS = {
    "gabor.gabor_system": _count_system,
    "sequences.frame_operator": _count_frame_op,
    "sequences.classify": _count_classify,
    "sequences.materialize": _count_materialize,
    "linalg.matrix_rank": _count_svd,
    "linalg.op_norm_extremes": _count_svd,
    "schmidt.schmidt_decompose_deflation": _count_deflation,
    "io.load_json": _count_read,
    "io.save_json": _count_written,
    "io.write_sweep_csv": _count_written,
}

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER = (
    ("gabor.system_s", "s", "lower"),
    ("gabor.atoms", "count", "lower"),
    ("gabor.system_mb", "MB", "lower"),
    ("sequences.frame_op_s", "s", "lower"),
    ("sequences.classify_s", "s", "lower"),
    ("sequences.classify_calls", "count", "lower"),
    ("sequences.frame_op_gflop", "GFLOP", "lower"),
    ("sequences.eig_work", "count", "lower"),
    ("sequences.materialize_s", "s", "lower"),
    ("sequences.materialize_rows", "count", "lower"),
    ("sequences.tensor_s", "s", "lower"),
    ("sequences.build_minimal_sum_s", "s", "lower"),
    ("linalg.matrix_rank_s", "s", "lower"),
    ("linalg.svd_calls", "count", "lower"),
    ("schmidt.deflation_s", "s", "lower"),
    ("schmidt.deflation_steps", "count", "lower"),
    ("schmidt.reshuffle_rank_s", "s", "lower"),
    ("schmidt.fsr_materialize_s", "s", "lower"),
    ("io.json_load_s", "s", "lower"),
    ("io.decode_s", "s", "lower"),
    ("io.encode_s", "s", "lower"),
    ("io.json_save_s", "s", "lower"),
    ("io.csv_write_s", "s", "lower"),
    ("io.bytes_read", "B", "lower"),
    ("io.bytes_written", "B", "lower"),
    *((f"verify.suite.{s}_s", "s", "lower") for s in SUITES),
    ("verify.draw_s", "s", "lower"),
    ("verify.draw_accept_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.untraced_op_p50_s", "s", "lower"),
    ("trace.traced_op_p50_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# The per-layer metrics that COUNTERS add up.
COUNTS = (
    "gabor.atoms",
    "gabor.system_mb",
    "sequences.classify_calls",
    "sequences.frame_op_gflop",
    "sequences.eig_work",
    "sequences.materialize_rows",
    "linalg.svd_calls",
    "schmidt.deflation_steps",
    "io.bytes_read",
    "io.bytes_written",
)


class Tracer:
    """Records one span per traced call: (op, name, parent index, t0 ns, t1 ns, returned)."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (self.op, name, parent, t0, t1, returned)
                if returned and counter is not None:
                    counter(counts, args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"frameforge.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[id(obj)] = self._wrap(name, obj)
        modules = [m for n, m in list(sys.modules.items()) if n == "frameforge" or n.startswith("frameforge.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        suites = sys.modules["frameforge.verify"].SUITES
        for i, (suite, fn) in enumerate(list(suites)):
            if id(fn) in wrappers:
                self._undo.append((suites.__setitem__, i, (suite, fn)))
                suites[i] = (suite, wrappers[id(fn)])
        fsr = sys.modules["frameforge.schmidt"].FSROperator
        self._set(fsr, "materialize", self._wrap("schmidt.FSROperator.materialize", fsr.materialize))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    def write(self, path) -> None:
        """Write all spans as JSON lines [op, name, parent, t0_ns, t1_ns, returned]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer times and counts per traced op."""
        spans = self.spans
        child_time = [0] * len(spans)
        for op, name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        names = {s[1] for s in spans}
        totals = dict.fromkeys((metric for metric, _, _ in TIMES), 0)
        by_name: dict[str, list] = {}
        for metric, kind, patterns in TIMES:
            group = {n for n in names if any(fnmatch.fnmatchcase(n, p) for p in patterns)}
            for n in group:
                by_name.setdefault(n, []).append((metric, kind, group))
        for i, (op, name, parent, t0, t1, _) in enumerate(spans):
            for metric, kind, group in by_name.get(name, ()):
                if kind == "self":
                    totals[metric] += t1 - t0 - child_time[i]
                elif not _has_ancestor_in(spans, parent, group):
                    totals[metric] += t1 - t0
        out = {metric: total / 1e9 / n_ops for metric, total in totals.items()}
        for name in COUNTS:
            out[name] = self.counts[name] / n_ops
        out["verify.draw_accept_ratio"] = _draw_accept_ratio(spans)
        return out


def _has_ancestor_in(spans, parent: int, group) -> bool:
    while parent >= 0:
        if spans[parent][1] in group:
            return True
        parent = spans[parent][2]
    return False


def _draw_accept_ratio(spans) -> float:
    """Draws returned / candidates tried by the retrying draws; 0 when none ran."""
    attempts = {i: 0 for i, s in enumerate(spans) if s[1] in DRAWS}
    accepted = sum(spans[i][5] for i in attempts)
    for op, name, parent, t0, t1, _ in spans:
        if parent in attempts and DRAWS[spans[parent][1]][0] == name:
            attempts[parent] += 1
    tried = sum(n / DRAWS[spans[i][1]][1] for i, n in attempts.items())
    return accepted / tried if tried else 0.0
