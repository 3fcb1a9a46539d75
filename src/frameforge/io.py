"""JSON / CSV serialization for all data files shared between modules."""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
from pathlib import Path

import numpy as np
import orjson

from .errors import NonFiniteData
from .gabor import SWEEP_COLUMNS, ZNWindow
from .schmidt import FSROperator
from .sequences import VectorSequence

SWEEP_FIELDS = list(SWEEP_COLUMNS[:-1])  # every column of a sweep but density_ok
_MAX_FAST_DEPTH = 256  # orjson.loads has no nesting limit: 200,000 levels crash the process
_NOT_STRUCTURAL = bytes(b for b in range(256) if b not in b'[]{}"')
_DEPTH_STEP = np.array([(b in b"[{") - (b in b"]}") for b in range(256)], np.int8)
_DIGIT_RUNS = bytes(ord("0") if b in b"0123456789" else ord(" ") for b in range(256))
_DEPTH_CHUNK = 1 << 20  # marks per step of the depth count: its arrays take about 9 bytes a mark, about 9 MiB a step


def _entries_to_list(a) -> list:
    """The [[re, im], ...] layout of a complex array in C order, as Python floats."""
    return np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


_JSON_NAMES = {int: "non-negative integer", list: "list"}


def _field(d, kind: str, name: str, json_type: type):
    """Field ``name`` of the ``kind`` object ``d``, of exactly ``json_type``.

    ``json_type`` is ``int`` or ``list``.  A ``d`` that is not a
    JSON object, a missing field or a value of another JSON type is a data
    error; so is a negative integer.  ``true``, ``1.5``, ``1e400`` and
    ``"3"`` are not integers.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object for the {kind}, got {type(d).__name__}")
    if name not in d:
        raise ValueError(f"{kind} has no {name!r} field")
    value = d[name]
    if type(value) is not json_type or (json_type is int and value < 0):
        raise ValueError(
            f"{kind} field {name!r} must be a JSON {_JSON_NAMES[json_type]}, "
            f"got {type(value).__name__} {value!r:.40}"
        )
    return value


def _finite_entries(d, kind: str) -> np.ndarray:
    """Complex entries of a vector or operator file; booleans, NaN and inf are data errors."""
    raw = _field(d, kind, "entries", list)
    try:  # one flat list of the parts spares numpy's nested-list discovery; a number or null has no len
        parts = np.array(flat := list(itertools.chain.from_iterable(raw))) if set(map(len, raw)) <= {2} else None
    except (TypeError, ValueError):  # ValueError: ragged parts such as [[1], [2, 3]]
        parts = None
    if parts is None or parts.dtype.kind not in "iuf" or parts.ndim != 1:  # two characters or keys fail here
        raise ValueError(f"{kind} file entries must be a list of [re, im] pairs of numbers")
    # numpy reads a true or false among numbers as 1 or 0, so only a part equal to 0 or 1 can be one
    if bool in map(type, map(flat.__getitem__, np.flatnonzero((parts == 0) | (parts == 1)).tolist())):
        raise ValueError(f"{kind} file entries must be numbers, not the booleans true and false")
    entries = parts.astype(float, copy=False).view(complex)
    if not np.isfinite(entries).all():
        raise NonFiniteData(f"{kind} file has non-finite entries (NaN or inf)")
    return entries


def vector_to_dict(x) -> dict:
    x = np.asarray(x, dtype=complex)
    return {"dim": int(x.shape[0]), "entries": _entries_to_list(x)}


def vector_from_dict(d) -> np.ndarray:
    entries = _finite_entries(d, "vector")
    dim = _field(d, "vector", "dim", int)
    if entries.shape[0] != dim:
        raise ValueError(f"vector file declares dim {dim} but has {entries.shape[0]} entries")
    return entries


def operator_to_dict(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": _entries_to_list(a)}


def operator_from_dict(d) -> np.ndarray:
    entries = _finite_entries(d, "operator")
    rows, cols = _field(d, "operator", "rows", int), _field(d, "operator", "cols", int)
    if entries.shape[0] != rows * cols:
        raise ValueError(f"operator file declares {rows}x{cols} but has {entries.shape[0]} entries")
    return entries.reshape(rows, cols)


def sequence_to_dict(seq: VectorSequence) -> dict:
    return {
        "space_dim": seq.space_dim,
        "vectors": [vector_to_dict(v) for v in seq.vectors],
    }


def sequence_from_dict(d) -> VectorSequence:
    vecs = [vector_from_dict(v) for v in _field(d, "sequence", "vectors", list)]
    dim = _field(d, "sequence", "space_dim", int)
    for n, v in enumerate(vecs):
        if v.shape[0] != dim:
            raise ValueError(f"sequence file vector {n} has dim {v.shape[0]}, but space_dim is {dim}")
    return VectorSequence(np.array(vecs))


def fsr_to_dict(f: FSROperator) -> dict:
    return {
        "shape": {"h1": f.shape.h1, "h2": f.shape.h2, "k1": f.shape.k1, "k2": f.shape.k2},
        "terms": [{"A": operator_to_dict(a), "B": operator_to_dict(b)} for a, b in zip(f.a, f.b)],
    }


def window_to_dict(w: ZNWindow) -> dict:
    d = vector_to_dict(w.g)
    d["N"] = w.N
    d["generator"] = w.generator
    return d


def window_from_dict(d) -> ZNWindow:
    """The window of a file written by ``window_to_dict``: ``N`` equals ``dim``; ``ZNWindow`` checks ``generator``."""
    g = vector_from_dict(d)
    n = _field(d, "window", "N", int)
    if n != g.shape[0]:
        raise ValueError(f"window field 'N' is {n}, but the window has {g.shape[0]} entries")
    return ZNWindow(g, d.get("generator"))


def save_json(path, payload) -> None:
    """Write ``payload`` as one compact line of JSON through ``orjson``: floats in the shortest text that
    round-trips bit for bit (``0.00001`` and ``1e16`` where ``json`` writes ``1e-05`` and ``1e+16``).  What
    ``orjson`` cannot write, such as an integer beyond 64 bits, goes through ``json.dumps``.  NaN and inf,
    which ``orjson`` writes as ``null``, raise ``ValueError`` before the file is opened."""
    try:
        data = orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        data = (json.dumps(payload, allow_nan=False) + "\n").encode()
    if b"null" in data:  # a None, or a NaN or inf, which json.dumps refuses
        json.dumps(payload, allow_nan=False)
    with open(path, "wb") as fh:
        fh.write(data)


def _orjson_reads_as_json(data: bytes) -> bool:
    """Whether ``orjson.loads(data)`` returns or raises as ``json.loads`` does: ``data`` has no backslash, nests
    at most ``_MAX_FAST_DEPTH`` deep and has no integer of 19 digits or more, which orjson may read as a float."""
    if b"\\" in data:
        return False
    marks, depth, in_string = np.frombuffer(data.translate(None, _NOT_STRUCTURAL), np.uint8), 0, False
    for chunk in (marks[i:i + _DEPTH_CHUNK] for i in range(0, len(marks), _DEPTH_CHUNK)):
        steps, inside = _DEPTH_STEP[chunk], np.logical_xor.accumulate(chunk == ord('"')) ^ in_string
        steps[inside & (steps < 0)] = 0  # a ] or } in a string closes nothing
        walk, in_string = np.cumsum(steps, dtype=np.int32), inside[-1]
        if depth + int(walk.max()) > _MAX_FAST_DEPTH:
            return False
        depth += int(walk[-1])
    digits, end = data.translate(_DIGIT_RUNS), 0
    while (start := digits.find(b"0" * 19, end)) >= 0:
        end = digits.find(b" ", start) % (len(data) + 1)  # a run that ends the file ends at len(data)
        if data[start - 1:start] != b"." and data[end:end + 1] not in (b".", b"e", b"E"):  # not a float
            return False
    return True


def load_json(path):
    """The JSON value in file ``path``, parsed by ``orjson`` if ``_orjson_reads_as_json`` holds and it parses,
    else by ``json``, so errors are ``json``'s; nesting too deep to parse is a ``ValueError``."""
    data = Path(path).read_bytes()
    if _orjson_reads_as_json(data):
        with contextlib.suppress(ValueError):  # orjson's error (NaN, 1e400, bad UTF-8): json reads or names it
            return orjson.loads(data)
    try:
        return json.loads(data.decode())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def write_sweep_csv(path, table) -> None:
    """Write the SWEEP_FIELDS columns of a ``density_sweep`` table, one CSV row per lattice."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_FIELDS)
        writer.writerows(zip(*(table[k] for k in SWEEP_FIELDS)))
