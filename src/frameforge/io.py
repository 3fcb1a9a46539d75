"""JSON / CSV serialization for all data files shared between modules."""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import NonFiniteData
from .gabor import ZNWindow
from .schmidt import FSROperator
from .sequences import VectorSequence

SWEEP_FIELDS = ["N", "a", "b", "count", "A", "B", "is_frame", "is_riesz", "ab_over_N"]


def _entries_to_list(a) -> list:
    """The [[re, im], ...] layout of a complex array in C order, as Python floats."""
    return np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


_JSON_NAMES = {int: "non-negative integer", list: "list", dict: "object"}


def _field(d, kind: str, name: str, json_type: type):
    """Field ``name`` of the ``kind`` object ``d``, of exactly ``json_type``.

    ``json_type`` is ``int``, ``list`` or ``dict``.  A ``d`` that is not a
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
    """Complex entries of a vector or operator file; NaN and inf are data errors."""
    pairs = np.asarray(_field(d, kind, "entries", list))
    if pairs.shape == (0,):
        pairs = pairs.reshape(0, 2)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{kind} file entries must be a list of [re, im] pairs of numbers")
    entries = np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(-1)
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
        "terms": [{"A": operator_to_dict(a), "B": operator_to_dict(b)} for a, b in f.terms],
    }


def window_to_dict(w: ZNWindow) -> dict:
    d = vector_to_dict(w.g)
    d["N"] = w.N
    d["generator"] = w.generator
    return d


def window_from_dict(d) -> ZNWindow:
    """The window of a file written by ``window_to_dict``; its ``N`` must equal ``dim``."""
    g = vector_from_dict(d)
    n = _field(d, "window", "N", int)
    if n != g.shape[0]:
        raise ValueError(f"window field 'N' is {n}, but the window has {g.shape[0]} entries")
    return ZNWindow(g, d.get("generator"))


def save_json(path, payload) -> None:
    """Write ``payload`` as compact one-line JSON.

    ``json.dumps`` without ``indent`` runs the C encoder; float text is the
    same ``repr`` either way, so values round-trip bit for bit.  NaN and
    infinity raise ``ValueError`` before the file is opened.
    """
    text = json.dumps(payload, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path):
    """The JSON value in file ``path``; nesting too deep to parse is a ``ValueError``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_FIELDS)
        writer.writerows([row[k] for k in SWEEP_FIELDS] for row in rows)
