import contextlib
import copy
import csv
import functools
import gc
import json
import operator
import os
import resource
import subprocess
import sys
import time
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frameforge import cli, gabor, io, schmidt, sequences, verify
from frameforge.errors import ConditionViolated, DependentGroup, DimensionMismatch, DrawFailed, FrameForgeError
from frameforge.linalg import DEFAULT_RTOL
from frameforge.schmidt import BipartiteShape, FSROperator
from frameforge.sequences import VectorSequence, build_minimal_sum, classify, materialize
from frameforge.verify import random_fsr_operator, suite_rng
from sweep_table import sweep_rows


SRC = Path(__file__).resolve().parents[1] / "src"


def crandom(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def fsr_from_dict(d):
    """The decomposition a dict holds, each factor read back with ``operator_from_dict``."""
    s = BipartiteShape(**d["shape"])
    a = [io.operator_from_dict(t["A"]) for t in d["terms"]]
    b = [io.operator_from_dict(t["B"]) for t in d["terms"]]
    return FSROperator(s, np.reshape(a, (-1, s.k1, s.h1)), np.reshape(b, (-1, s.k2, s.h2)))


def read_sweep_rows(path):
    """The rows of a sweep CSV as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(args, timeout=30, **kwargs):
    """Run the CLI in a child process, so a hang fails the test instead of stalling it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "frameforge.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=env, **kwargs,
    )


class TestRoundTrips:
    def test_vector(self):
        rng = np.random.default_rng(0)
        x = crandom(rng, 5)
        np.testing.assert_allclose(io.vector_from_dict(io.vector_to_dict(x)), x, atol=1e-15)

    def test_operator(self):
        rng = np.random.default_rng(1)
        a = crandom(rng, 3, 4)
        np.testing.assert_allclose(io.operator_from_dict(io.operator_to_dict(a)), a, atol=1e-15)

    def test_sequence(self):
        rng = np.random.default_rng(2)
        seq = VectorSequence(crandom(rng, 4, 3))
        back = io.sequence_from_dict(io.sequence_to_dict(seq))
        np.testing.assert_allclose(back.vectors, seq.vectors, atol=1e-15)

    def test_fsr(self):
        fsr = random_fsr_operator(suite_rng(3, 0), BipartiteShape(2, 3, 2, 3), 2)[0]
        d = io.fsr_to_dict(fsr)
        assert d["shape"] == {"h1": 2, "h2": 3, "k1": 2, "k2": 3}
        back = fsr_from_dict(d)
        np.testing.assert_allclose(back.materialize(), fsr.materialize(), atol=1e-15)

    def test_window(self):
        w = gabor.sample_window("sech", 8)
        back = io.window_from_dict(io.window_to_dict(w))
        np.testing.assert_allclose(back.g, w.g, atol=1e-15)
        assert back.generator == "sech"

    def test_sweep_csv(self, tmp_path):
        table = gabor.density_sweep(gabor.sample_window("gaussian", 6))
        rows = sweep_rows(table)
        path = tmp_path / "sweep.csv"
        io.write_sweep_csv(path, table)
        back = read_sweep_rows(path)
        assert len(back) == len(rows)
        for r1, r2 in zip(rows, back):
            assert [str(r1[k]) for k in ("N", "a", "b", "count", "is_frame")] == [
                r2[k] for k in ("N", "a", "b", "count", "is_frame")]
            assert r1["A"] == float(r2["A"])

    def test_sweep_csv_bytes_match_dict_writer(self, tmp_path):
        table = gabor.density_sweep(gabor.sample_window("gaussian", 12))
        rows = sweep_rows(table)
        io.write_sweep_csv(tmp_path / "sweep.csv", table)
        # csv.DictWriter dropping the rows' other keys: oracle for the field lists
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=io.SWEEP_FIELDS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def entries_by_scalar(z):
    """The per-scalar [[re, im], ...] comprehension: oracle for the array codec."""
    return [[float(w.real), float(w.imag)] for w in np.asarray(z, dtype=complex).ravel()]


def bits(z):
    """Raw IEEE bits of a complex array, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


# signed zeros, the smallest and a mid-range subnormal, +-1e308 and +-max float,
# and thirds, which have no short decimal form
SPECIAL = np.array(
    [complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -5e-324),
     complex(2.2250738585072014e-308 / 3, 1.0), complex(1e308, -1e308),
     complex(-1.7976931348623157e308, 1.7976931348623157e308), complex(1 / 3, -2 / 3)]
)


# One small valid file of each kind, with the loader that reads it.  The
# operator is 1x1 and the sequence lives in C^2, so both also suit the CLI.
VALID_FILES = {
    "vector": (io.vector_from_dict, io.vector_to_dict([1, 2j])),
    "operator": (io.operator_from_dict, io.operator_to_dict([[2 + 1j]])),
    "sequence": (io.sequence_from_dict, io.sequence_to_dict(VectorSequence(np.eye(2)))),
    "window": (io.window_from_dict, io.window_to_dict(gabor.sample_window("gaussian", 4))),
}
DELETE = object()


def node_paths(value, path=()):
    """The path (keys and indices) to every node of a JSON value, root first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, (*path, key))


def mutated(value, path, new):
    """A copy of ``value`` with the node at ``path`` set to ``new``, or deleted
    when ``new`` is ``DELETE``; ``path`` is not the root."""
    out = copy.deepcopy(value)
    parent = functools.reduce(operator.getitem, path[:-1], out)
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return out


# Header and container fields of the wrong JSON type, and missing fields.
# A float field value is what json.load gives for 2.5 or 1e400.
FIELD_ERRORS = [
    ("vector", ("dim",), [1]),
    ("vector", ("dim",), 2.5),
    ("vector", ("dim",), True),
    ("vector", ("dim",), "2"),
    ("vector", ("dim",), DELETE),
    ("vector", ("entries",), DELETE),
    ("operator", ("rows",), float("inf")),
    ("operator", ("cols",), -1),
    ("sequence", ("vectors",), 5),
    ("sequence", ("space_dim",), 2.0),
    ("sequence", ("space_dim",), 3),
    ("sequence", ("vectors", 0), {"dim": 1, "entries": [[1, 0]]}),
    ("window", ("dim",), None),
    ("window", ("N",), "abc"),
    ("window", ("N",), DELETE),
    ("window", ("N",), 5),
]


class TestEntryCodec:
    def test_vector_entries_match_per_scalar(self):
        x = np.concatenate([SPECIAL, crandom(np.random.default_rng(30), 9)])
        got = io.vector_to_dict(x)["entries"]
        assert json.dumps(got) == json.dumps(entries_by_scalar(x))
        assert all(type(v) is float for pair in got for v in pair)

    def test_operator_entries_match_per_scalar(self):
        a = np.concatenate([SPECIAL, crandom(np.random.default_rng(31), 14)]).reshape(3, 7)
        for op in (a, a.T, a[:, ::2]):  # C-ordered, transposed and strided inputs
            assert json.dumps(io.operator_to_dict(op)["entries"]) == json.dumps(entries_by_scalar(op))

    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(32)
        x = np.concatenate([SPECIAL, crandom(rng, 5)])
        fsr = random_fsr_operator(suite_rng(32, 0), BipartiteShape(2, 3, 1, 2), 2)[0]
        path = tmp_path / "x.json"
        io.save_json(path, io.vector_to_dict(x))
        assert np.array_equal(bits(io.vector_from_dict(io.load_json(path))), bits(x))
        io.save_json(path, io.operator_to_dict(x.reshape(3, 4)))
        assert np.array_equal(bits(io.operator_from_dict(io.load_json(path))), bits(x.reshape(3, 4)))
        io.save_json(path, io.fsr_to_dict(fsr))
        back = fsr_from_dict(io.load_json(path))
        assert np.array_equal(bits(back.a), bits(fsr.a)) and np.array_equal(bits(back.b), bits(fsr.b))

    def test_save_json_is_one_compact_line(self, tmp_path):
        # every value of SPECIAL, and 1e-05 and 1e+16 in orjson's spelling
        x = np.append(SPECIAL, 1e-5 + 1e16j)
        path = tmp_path / "x.json"
        io.save_json(path, io.vector_to_dict(x))
        assert path.read_bytes() == (
            b'{"dim":8,"entries":[[-0.0,0.0],[0.0,-0.0],[5e-324,-5e-324],[7.41691286169067e-309,1.0],'
            b'[1e308,-1e308],[-1.7976931348623157e308,1.7976931348623157e308],'
            b'[0.3333333333333333,-0.6666666666666666],[0.00001,1e16]]}\n'
        )
        for loaded in (json.loads(path.read_text()), io.load_json(path)):
            assert np.array_equal(bits(io.vector_from_dict(loaded)), bits(x))

    def test_window_without_generator_writes_null(self, tmp_path):
        w = gabor.ZNWindow(crandom(np.random.default_rng(35), 4))
        path = tmp_path / "w.json"
        io.save_json(path, io.window_to_dict(w))
        assert b'"generator":null' in path.read_bytes()
        back = io.window_from_dict(io.load_json(path))
        assert back.generator is None and np.array_equal(bits(back.g), bits(w.g))

    @pytest.mark.parametrize("label", [None, "random", "", "rank_r", 'quote " backslash \\ \u00fc'])
    def test_every_window_the_type_accepts_round_trips(self, tmp_path, label):
        w = gabor.ZNWindow(crandom(np.random.default_rng(36), 5), label)
        path = tmp_path / "w.json"
        io.save_json(path, io.window_to_dict(w))
        back = io.window_from_dict(io.load_json(path))
        assert back.generator == label and type(back.generator) is type(label)
        assert np.array_equal(bits(back.g), bits(w.g))

    def test_window_with_an_object_label_raises_before_a_file_is_written(self, tmp_path):
        # the library wrote {"generator": {"x": 1}}, which window_from_dict then refused
        path = tmp_path / "w.json"
        with pytest.raises(ValueError, match="^window field 'generator' must be a string or null"):
            io.save_json(path, io.window_to_dict(gabor.ZNWindow(np.ones(4, complex), {"x": 1})))
        assert not path.exists()

    def test_integers_at_the_int64_edge_decode_as_floats(self, tmp_path):
        # numpy reads 2**63 beside -1 as float64, not as an object array, so the pair is a number
        path = tmp_path / "op.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[9223372036854775808, -1]]}')
        got = io.operator_from_dict(io.load_json(path))
        assert got.dtype == complex and np.array_equal(bits(got), bits(np.array([[2.0**63 - 1j]])))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_save_json_refuses_non_finite_and_keeps_the_file(self, tmp_path, bad):
        path = tmp_path / "x.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError):
            io.save_json(path, {"A": bad})
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("payload", [{"seed": 2**64}, {"seed": -(2**63) - 1}, {1: [0.5, None]}])
    def test_save_json_writes_what_orjson_cannot_through_json(self, tmp_path, payload):
        # integers beyond 64 bits and keys that are not strings are written as json.dumps writes them
        path = tmp_path / "x.json"
        io.save_json(path, payload)
        assert path.read_text() == json.dumps(payload) + "\n"

    def test_indented_files_still_load(self, tmp_path):
        def write_indented(payload):  # the layout files were written in before
            path = tmp_path / "old.json"
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            return path

        x = np.concatenate([SPECIAL, crandom(np.random.default_rng(34), 3)])
        back = io.vector_from_dict(io.load_json(write_indented(io.vector_to_dict(x))))
        assert np.array_equal(bits(back), bits(x))
        fsr = random_fsr_operator(suite_rng(34, 0), BipartiteShape(2, 2, 2, 2), 2)[0]
        back = fsr_from_dict(io.load_json(write_indented(io.fsr_to_dict(fsr))))
        assert np.array_equal(back.materialize(), fsr.materialize())

    def test_empty_entries_decode_to_empty_array(self):
        v = io.vector_from_dict({"dim": 0, "entries": []})
        assert v.shape == (0,) and v.dtype == complex
        a = io.operator_from_dict({"rows": 0, "cols": 3, "entries": []})
        assert a.shape == (0, 3) and a.dtype == complex

    def test_integer_entries_decode_as_numbers(self):
        v = io.vector_from_dict({"dim": 2, "entries": [[1, 0], [2**62 + 1, -3]]})
        assert np.array_equal(bits(v), bits([complex(1, 0), complex(2**62 + 1, -3)]))

    # numpy reads an all-boolean list as dtype bool, and a true or false among numbers as 1 or 0
    @pytest.mark.parametrize("entries", [
        [[True, False]], [[False, False]], [[1, 0], [True, False]], [[1, True], [0.5, False]],
        [[1.5, True]], [[0, 2], [3, False]], [[0.0, 1.0], [1, 0], [False, 0]],
    ])
    def test_boolean_entries_are_value_errors(self, entries):
        with pytest.raises(ValueError, match="entries must be"):
            io.vector_from_dict({"dim": len(entries), "entries": entries})
        with pytest.raises(ValueError, match="entries must be"):
            io.operator_from_dict({"rows": len(entries), "cols": 1, "entries": entries})

    @pytest.mark.parametrize("entries", [
        [[1, "a"]], [["1.5", 0]], [[1, 2, 3]], [[1]], [[]], [[1, 2], [3]],
        [[[1, 2]]], [1, 2], "12", {"re": 1}, [[None, 0]], [[10**400, 0]],
    ])
    def test_malformed_entries_are_value_errors(self, entries):
        with pytest.raises(ValueError):
            io.vector_from_dict({"dim": 1, "entries": entries})
        with pytest.raises(ValueError):
            io.operator_from_dict({"rows": 1, "cols": 1, "entries": entries})

    @pytest.mark.parametrize("loader", [
        io.vector_from_dict, io.operator_from_dict, io.sequence_from_dict, io.window_from_dict,
    ])
    @pytest.mark.parametrize("top", [[1, 2], "text", 3, None])
    def test_non_object_top_level_is_a_value_error(self, loader, top):
        with pytest.raises(ValueError, match="JSON object"):
            loader(top)

    @pytest.mark.parametrize("kind, path, value", FIELD_ERRORS, ids=[
        f"{kind}-{'.'.join(map(str, path))}-{'missing' if value is DELETE else json.dumps(value)}"
        for kind, path, value in FIELD_ERRORS
    ])
    def test_bad_field_is_a_value_error(self, kind, path, value):
        loader, valid = VALID_FILES[kind]
        with pytest.raises(ValueError, match=str(path[-1])):
            loader(mutated(valid, path, value))


# Entry lists of the wrong JSON shape, and the file layout each command reads.
BAD_ENTRIES = {
    "string_imag": '[[1, "a"]]',
    "string_real": '[["1.5", 0]]',
    "int_too_large_for_float": "[[1" + "0" * 400 + ", 0]]",
    "empty_pair": "[[]]",
    "pair_of_pairs": "[[[1, 2], [3, 4]]]",
    "ragged_pair_of_lists": "[[[1], [2, 3]]]",
    "pair_then_pair_of_lists": "[[1, 2], [[1], [2]]]",
    "two_character_string": '["ab"]',
    "two_key_object": '[{"a": 1, "b": 2}]',
    "null_part": "[[null, 1]]",
    "triple": "[[1, 2, 3]]",
    "bare_numbers": "[1, 2]",
    "int_beyond_64_bits": "[[1180591620717411303424, 1.0]]",
}
INPUT_LAYOUTS = {
    "classify": ('{"space_dim": 1, "vectors": [{"dim": 1, "entries": %s}]}', ["frames", "classify"]),
    "decompose": ('{"rows": 1, "cols": 1, "entries": %s}', ["schmidt", "decompose", "--shape", "1,1,1,1"]),
}
ENTRIES_KIND = {"classify": "vector", "decompose": "operator"}
# Per command, a whole file with a header field that is not an integer.
NON_INTEGER_HEADER = {
    "classify": '{"space_dim": 1, "vectors": [{"dim": [1], "entries": [[1, 0]]}]}',
    "decompose": '{"rows": 1e400, "cols": 1, "entries": [[1, 0]]}',
}


# Files nested too deeply for orjson.loads, which must reach json instead.  orjson
# 3.8.3 crashes the process when it builds the values of a complete file 200,000
# levels deep (100,000 still parse); it refuses an incomplete one first.  The
# string cases hide 300,000 closing brackets in a string, so a depth count that
# let them close, or that missed the escaped quote, would pass the nesting after.
CRASH_INPUTS = {
    "deep_closed": "[" * 200_000 + "]" * 200_000,
    "deep_unclosed": "[" * 200_000,
    "deep_objects": '{"a":' * 200_000,
    "deep_objects_closed": '{"a":' * 200_000 + "1" + "}" * 200_000,
    "closes_then_opens": "]" * 100_000 + "[" * 200_000,
    "closes_in_a_string": '["' + "]" * 300_000 + '",' + "[" * 200_000 + "]" * 200_001,
    "closes_after_an_escaped_quote": '["\\"' + "]" * 300_000 + '",' + "[" * 200_000 + "]" * 200_001,
}
# Bytes json cannot decode, made from a valid file's text, and the error each gives.
UNDECODABLE = {
    "utf8_bom": (lambda text: b"\xef\xbb\xbf" + text, "Unexpected UTF-8 BOM"),
    "invalid_utf8": (lambda text: text[:-1] + b', "note": "\xff"}', "can't decode byte 0xff"),
    "encoded_surrogate": (lambda text: text[:-1] + b', "note": "\xed\xa0\x80"}', "can't decode byte 0xed"),
}


class TestLoaderBoundary:
    @pytest.mark.parametrize("command", sorted(INPUT_LAYOUTS))
    @pytest.mark.parametrize("case", ["top_level_list", "non_integer_header", "deeply_nested", *BAD_ENTRIES])
    def test_wrong_shaped_json_exits_2(self, tmp_path, capsys, command, case):
        layout, argv = INPUT_LAYOUTS[command]
        path = tmp_path / "in.json"
        if case == "top_level_list":
            path.write_text("[1, 2]")
        elif case == "non_integer_header":
            path.write_text(NON_INTEGER_HEADER[command])
        elif case == "deeply_nested":
            path.write_text("[" * 200_000 + "]" * 200_000)
        else:
            path.write_text(layout % BAD_ENTRIES[case])
        assert cli.main([*argv, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert case != "deeply_nested" or str(path) in captured.err
        # a malformed entries field is named by the decoder, not by numpy
        assert case not in BAD_ENTRIES or f"{ENTRIES_KIND[command]} file entries" in captured.err


    @pytest.mark.parametrize("entries", ["[[true, false], [false, true]]", "[[1, true], [0.5, false]]"],
                             ids=["all_boolean", "mixed"])
    @pytest.mark.parametrize("command", ["decompose", "classify", "sweep"])
    def test_boolean_entries_exit_2(self, tmp_path, capsys, command, entries):
        # these decomposed to rank 1, classified as a Riesz basis and swept, all with exit 0
        path = tmp_path / "in.json"
        if command == "decompose":
            path.write_text('{"rows": 2, "cols": 1, "entries": %s}' % entries)
            argv = ["schmidt", "decompose", "--shape", "1,1,2,1", "--input", str(path)]
        elif command == "classify":
            path.write_text('{"space_dim": 2, "vectors": [{"dim": 2, "entries": %s}]}' % entries)
            argv = ["frames", "classify", "--input", str(path)]
        else:
            path.write_text('{"dim": 2, "N": 2, "generator": null, "entries": %s}' % entries)
            argv = ["gabor", "sweep", "--N", "2", "--window", f"file:{path}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "entries must be" in captured.err

    @pytest.mark.parametrize("command", sorted(INPUT_LAYOUTS))
    @pytest.mark.parametrize("case", sorted(CRASH_INPUTS))
    def test_nesting_orjson_cannot_parse_exits_2(self, tmp_path, command, case):
        path = tmp_path / "in.json"
        path.write_text(CRASH_INPUTS[case])
        result = run_cli([*INPUT_LAYOUTS[command][1], "--input", str(path)], timeout=60)
        assert result.returncode == 2, result.stderr[-300:]  # a crash is a negative return code
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(INPUT_LAYOUTS))
    @pytest.mark.parametrize("extra", [0, 1], ids=["at_limit", "beyond_limit"])
    def test_valid_files_at_the_fast_depth_limit(self, tmp_path, command, extra):
        # orjson reads the first and json the second; both are lists, as json has always read them
        depth = io._MAX_FAST_DEPTH + extra
        path = tmp_path / "in.json"
        path.write_text("[" * depth + "]" * depth)
        result = run_cli([*INPUT_LAYOUTS[command][1], "--input", str(path)])
        kind = {"classify": "sequence", "decompose": "operator"}[command]
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: expected a JSON object for the {kind}, got list\n"

    @pytest.mark.parametrize("command", sorted(INPUT_LAYOUTS))
    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_undecodable_bytes_exit_2(self, tmp_path, capsys, command, case):
        layout, argv = INPUT_LAYOUTS[command]
        corrupt, message = UNDECODABLE[case]
        path = tmp_path / "in.json"
        path.write_bytes(corrupt((layout % "[[1, 0]]").encode()))
        assert cli.main([*argv, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["schmidt", "decompose", "--input", "F.json", "--shape", "1,1,1,1", "--output"],
    ["gabor", "sweep", "--N", "12", "--output"],
    ["verify", "all", "--trials", "1", "--report"],
], ids=lambda argv: "_".join(argv[:2]))
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, argv):
    # every command writes its file before it prints, so stdout stays empty
    monkeypatch.chdir(tmp_path)
    io.save_json("F.json", VALID_FILES["operator"][1])
    assert cli.main([*argv, "no_such_dir/out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Per case, the argv of a command run in a directory that holds op.json and bad.json, and its exit code.
COLLECTOR_CASES = {
    "exit_0": (["schmidt", "decompose", "--shape", "1,1,1,1", "--input", "op.json"], 0),
    "exit_1": (["frames", "verify-main", "--dims", "2", "--lens", "3", "--rank", "1", "--trials", "1"], 1),
    "exit_2_bad_file": (["schmidt", "decompose", "--shape", "1,1,1,1", "--input", "bad.json"], 2),
    "usage_error": (["schmidt", "decompose", "--shape"], 2),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["caller_collects", "caller_paused"])
@pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
def test_main_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, capsys, case, collecting):
    monkeypatch.chdir(tmp_path)
    io.save_json("op.json", VALID_FILES["operator"][1])
    Path("bad.json").write_text('{"rows": 1, "cols": 1, "entries": [[null, 1]]}')
    seen, load, verify_main = [], io.load_json, sequences.verify_main_theorem

    def failed_rank_one(ms):  # a false rank-one check makes verify-main exit 1
        report = verify_main(ms)
        report["rank_one_check"]["bounds_multiply"] = False
        return report

    monkeypatch.setattr(io, "load_json", lambda path: seen.append(gc.isenabled()) or load(path))
    monkeypatch.setattr(sequences, "verify_main_theorem", lambda ms: seen.append(gc.isenabled()) or failed_rank_one(ms))
    argv, code = COLLECTOR_CASES[case]
    (gc.enable if collecting else gc.disable)()
    try:
        assert (cli.main(argv), gc.isenabled()) == (code, collecting)
    finally:
        gc.enable()
    assert (seen == []) == (case == "usage_error") and not any(seen)  # a command runs with the collector off
    capsys.readouterr()


def cap_address_space():
    """Limit the child to 4 GiB of address space, so a huge allocation fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("argv", [
    # the window of length 2**29 alone takes 8 GiB
    ["gabor", "perturb", "--N", "536870912", "--a", "1", "--b", "536870912", "--alpha", "268435456", "--beta", "0"],
    # materialize of a 90,000 x 90,000 family (121 GiB), refused by MAX_MINIMAL_SUM_ENTRIES before any draw
    ["frames", "verify-main", "--dims", "300,300", "--lens", "300,300", "--rank", "1", "--trials", "1"],
], ids=lambda argv: "_".join(argv[:2]))
def test_allocation_failure_exits_2(argv):
    proc = run_cli(argv, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "allocate" in proc.stderr


def test_large_perturb_within_address_cap():
    # gathering all 50000 Walnut blocks takes 37.3 GiB, the 2 orbit representatives a few MB
    argv = ["gabor", "perturb", "--N", "100000", "--a", "2", "--b", "2", "--alpha", "50000", "--beta", "50000"]
    proc = run_cli(argv, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["spectral_ratio"] < 1e-8


def test_sweep_n840_within_address_cap():
    # 840 has 32 divisors, so 1024 lattices
    proc = run_cli(["gabor", "sweep", "--N", "840"], timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "rows: 1024"


def test_sweep_n7560_within_address_cap():
    # 7560 has 64 divisors, the most of any N <= MAX_SWEEP_N = 8192, so 4096 lattices
    proc = run_cli(["gabor", "sweep", "--N", "7560"], timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "rows: 4096"


# Any JSON value, NaN, infinities and integers far outside the float range included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.integers()
    | st.sampled_from([2**63, -(2**64), 10**400]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)


@st.composite
def mutated_files(draw, kind):
    """A valid file of ``kind`` with one node replaced by any JSON value, or deleted."""
    valid = VALID_FILES[kind][1]
    path = draw(st.sampled_from(list(node_paths(valid))))
    if not path:
        return draw(JSON_VALUES)
    return mutated(valid, path, draw(JSON_VALUES | st.just(DELETE)))


# Magnitudes at the ends of the float range: the largest float, huge, tiny,
# the smallest normal, subnormals and 1.
EXTREME_SCALES = [1.7976931348623157e308, 1e300, 1.0, 1e-300, 2.2250738585072014e-308, 1e-310, 5e-324]


@st.composite
def extreme_windows(draw, n):
    """A length-n complex window whose parts are multiples in [-1, 1] of up to
    three extreme scales, so one window may mix scales."""
    scales = draw(st.lists(st.sampled_from(EXTREME_SCALES), min_size=1, max_size=3))
    factor = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0)
    part = st.builds(operator.mul, factor, st.sampled_from(scales))
    return np.array([complex(draw(part), draw(part)) for _ in range(n)])


class TestFuzzedFiles:
    @pytest.mark.parametrize("kind", sorted(VALID_FILES))
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_loader_returns_or_raises_a_data_error(self, kind, data):
        loader, _ = VALID_FILES[kind]
        try:
            loader(data.draw(mutated_files(kind)))
        except (ValueError, FrameForgeError):
            pass

    @pytest.mark.parametrize("kind, argv", [
        ("sequence", ["frames", "classify"]),
        ("operator", ["schmidt", "decompose", "--shape", "1,1,1,1"]),
    ], ids=["frames_classify", "schmidt_decompose"])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cli_exits_0_1_or_2(self, tmp_path_factory, kind, argv, data):
        path = tmp_path_factory.getbasetemp() / f"fuzzed_{kind}.json"
        path.write_text(json.dumps(data.draw(mutated_files(kind))))
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
            assert cli.main([*argv, "--input", str(path)]) in (0, 1, 2)

    @pytest.mark.parametrize("argv", [
        ["gabor", "sweep", "--N", "12"],
        ["gabor", "perturb", "--N", "12", "--a", "2", "--b", "2", "--alpha", "6", "--beta", "6"],
    ], ids=["gabor_sweep", "gabor_perturb"])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(entries=extreme_windows(12))
    def test_gabor_cli_at_extreme_magnitudes(self, tmp_path_factory, argv, entries):
        path = tmp_path_factory.getbasetemp() / "extreme_window.json"
        io.save_json(path, io.window_to_dict(gabor.ZNWindow(entries)))
        csv_path = tmp_path_factory.getbasetemp() / "extreme_sweep.csv"
        extra = ["--output", str(csv_path)] if argv[1] == "sweep" else []
        code, out, err, caught = run_main_capturing([*argv, "--window", f"file:{path}", *extra])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "float range" in err, err
        elif argv[1] == "sweep":
            assert all(np.isfinite([float(r["A"]), float(r["B"])]).all() for r in read_sweep_rows(csv_path))
        else:
            json.loads(out, parse_constant=reject_constant)


    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(vectors=st.lists(extreme_windows(3), min_size=1, max_size=4))
    def test_classify_cli_at_extreme_magnitudes(self, tmp_path_factory, vectors):
        path = tmp_path_factory.getbasetemp() / "extreme_sequence.json"
        io.save_json(path, io.sequence_to_dict(VectorSequence(np.array(vectors))))
        code, out, err, caught = run_main_capturing(["frames", "classify", "--input", str(path)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "float range" in err, err
        else:
            json.loads(out, parse_constant=reject_constant)


def same_as_json(path) -> bool:
    """Whether ``io.load_json(path)`` equals ``json.loads`` of the file with the same type at every node.
    ``repr`` tells an int from a float and one float's bits from another's (any NaN reads as ``nan``)."""
    return repr(io.load_json(path)) == repr(json.loads(path.read_text(encoding="utf-8")))


# Digit runs of 19 digits or more, which orjson may read as a float, in values
# and in file texts: integers at the 64-bit edges, floats with long runs, a bare
# number touching both ends of the file, digits in strings, and halfway cases.
DIGIT_RUN_VALUES = [
    1234567890123456789, -1234567890123456789, 12345678901234567890, -12345678901234567890,
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, -(2**64), 10**400,
    [1234567890123456789, 0.5, -12345678901234567890], {"12345678901234567890": "-12345678901234567890"},
]
DIGIT_RUN_TEXTS = [
    "12345678901234567890", "-1234567890123456789", "1234567890123456789.5", "[1234567890123456789.5]",
    "0.0012345678901234567", "[0.0012345678901234567, 12345678901234567890e-5, 1234567890123456789E2]",
    '["12345678901234567890", {"a": "1234567890123456789012"}]',
    "[1.00000000000000011102230246251565404236316680908203125, "
    "1.00000000000000011102230246251565404236316680908203126, 9007199254740993.0]",
    "[2.2250738585072011e-308, 2.4703282292062328e-324, 1.7976931348623158e308, 1e-400]",
    "[1e400, -1e400, NaN, -Infinity, 1e1234567890123456789]",
]


class TestReaderParity:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(value=JSON_VALUES)
    def test_load_json_reads_what_json_reads(self, tmp_path_factory, value):
        self.check_both_writers(tmp_path_factory.getbasetemp() / "parity.json", value)

    @pytest.mark.parametrize("value", DIGIT_RUN_VALUES, ids=lambda v: repr(v)[:24])
    def test_digit_run_values(self, tmp_path, value):
        self.check_both_writers(tmp_path / "parity.json", value)

    @pytest.mark.parametrize("text", DIGIT_RUN_TEXTS)
    def test_digit_run_texts(self, tmp_path, text):
        path = tmp_path / "parity.json"
        path.write_text(text)
        assert same_as_json(path)

    @pytest.mark.parametrize("text, fast", [
        ('{"rows": 1, "cols": 2, "entries": [[0.5, -1e-07], [1e+16, 0.0012345678901234567]]}', True),
        ("[1234567890123456789.5, 1234567890123456789e2, -123456789012345678]", True),
        ('["]]]]", [[1]], "{{"]', True),
        ("[" * 256 + "]" * 256, True),
        ("", True),
        ("[" * 257 + "]" * 257, False),
        ('"' + "[" * 257 + '"', False),  # every [ counts, so the depth is an upper bound
        ("12345678901234567890", False),
        ("[-1234567890123456789]", False),
        ('["\\u00e9"]', False),
    ])
    def test_fast_path_check(self, text, fast):
        assert io._orjson_reads_as_json(text.encode()) is fast

    @pytest.mark.parametrize("opens, fast", [(255, True), (256, False)])
    def test_string_that_opens_across_a_chunk_end(self, tmp_path, opens, fast):
        # the quote is the last mark of the first chunk, so the ] in the string are the next chunk's first
        pad = "[]," * ((io._DEPTH_CHUNK - 2) // 2)
        text = "[" + pad + '"' + "]" * 300 + '", ' + "[" * opens + "]" * opens + "]"
        assert 1 + 2 * len(pad) // 3 == io._DEPTH_CHUNK - 1
        self.check_verdict(tmp_path, text, fast)

    @pytest.mark.parametrize("opens, fast", [(255, True), (256, False)])
    def test_depth_257_reached_across_a_chunk_end(self, tmp_path, opens, fast):
        # the deepest nest opens 99 marks before the first chunk ends, and its 257th level in the next chunk
        pad = "[]," * ((io._DEPTH_CHUNK - 100) // 2)
        text = "[" + pad + "[" * opens + "]" * opens + "]"
        assert 1 + 2 * len(pad) // 3 == io._DEPTH_CHUNK - 99
        self.check_verdict(tmp_path, text, fast)

    def test_operator_files_take_the_fast_path(self, tmp_path):
        path = tmp_path / "op.json"
        d = io.operator_to_dict(crandom(np.random.default_rng(36), 16, 16))
        io.save_json(path, d)
        assert io._orjson_reads_as_json(path.read_bytes())
        assert io._orjson_reads_as_json(json.dumps(d).encode())

    def test_deep_brackets_stay_within_memory(self, tmp_path):
        # the depth count runs in chunks, so a file of brackets costs about its own size twice, not ten times
        path = tmp_path / "brackets.json"
        path.write_bytes(b"[" * 20_000_000)
        code = (
            "import resource, sys\n"
            "from frameforge import io\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    io.load_json(sys.argv[1])\n"
            "except ValueError:\n"
            "    print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, timeout=60,
                              env=env)
        assert proc.returncode == 0 and proc.stdout, proc.stderr
        assert int(proc.stdout) < 64, f"peak RSS rose by {proc.stdout.strip()} MB"

    @staticmethod
    def check_verdict(tmp_path, text, fast):
        assert io._orjson_reads_as_json(text.encode()) is fast
        path = tmp_path / "parity.json"
        path.write_text(text)
        assert same_as_json(path)

    @staticmethod
    def check_both_writers(path, value):
        path.write_text(json.dumps(value))
        assert same_as_json(path)
        try:
            io.save_json(path, value)
        except ValueError:  # NaN and inf, which save_json refuses
            return
        assert same_as_json(path)


def reject_constant(name):
    raise AssertionError(f"{name} in JSON output")


def run_main_capturing(argv):
    """cli.main(argv) in process: exit code, stdout, stderr and the warnings it raised."""
    out, err = StringIO(), StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


class TestSchmidtCommand:
    def write_operator(self, tmp_path, f):
        path = tmp_path / "F.json"
        io.save_json(path, io.operator_to_dict(f))
        return str(path)

    def test_rank_one_exit_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        f = np.kron(crandom(rng, 2, 2), crandom(rng, 2, 2))
        out = tmp_path / "D.json"
        code = cli.main(
            ["schmidt", "decompose", "--input", self.write_operator(tmp_path, f),
             "--shape", "2,2,2,2", "--output", str(out)]
        )
        assert code == 0
        assert "rank: 1" in capsys.readouterr().out
        assert fsr_from_dict(io.load_json(out)).rank_bound == 1

    def test_deflate_and_svd_agree(self, tmp_path, capsys):
        f = random_fsr_operator(suite_rng(5, 0), BipartiteShape(2, 3, 2, 3), 3)[1]
        path = self.write_operator(tmp_path, f)
        ranks = []
        for method in ("deflate", "svd"):
            code = cli.main(
                ["schmidt", "decompose", "--input", path, "--shape", "2,3,2,3", "--method", method]
            )
            assert code == 0
            out = capsys.readouterr().out
            ranks.append(int(out.split("rank: ")[1].split()[0]))
        assert ranks[0] == ranks[1] == 3

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["schmidt", "decompose", "--input", str(bad), "--shape", "2,2,2,2"]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(
            ["schmidt", "decompose", "--input", str(tmp_path / "nope.json"), "--shape", "2,2,2,2"]
        ) == 2

    @pytest.mark.parametrize("method", ["svd", "deflate"])
    def test_non_finite_operator_file(self, tmp_path, method):
        payload = io.operator_to_dict(crandom(np.random.default_rng(8), 4, 4))
        # On this operator, np.linalg.svd does not return once entry 0 is inf.
        payload["entries"][0] = [float("inf"), 0.0]
        path = tmp_path / "F.json"
        path.write_text(json.dumps(payload))
        proc = run_cli(["schmidt", "decompose", "--input", str(path),
                        "--shape", "2,2,2,2", "--method", method])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_tol_default_and_override(self):
        def parse(*extra):
            return cli.build_parser().parse_args(["schmidt", "decompose", "--input", "F.json",
                                                  "--shape", "2,2,2,2", *extra])
        assert parse().tol == DEFAULT_RTOL
        assert parse("--tol", "1e-7").tol == 1e-7

    @pytest.mark.parametrize("method", ["deflate", "svd"])
    @pytest.mark.parametrize("value", ["abc", "-1e-9", "-1", "0", "1e-400", "1", "inf", "nan"])
    def test_tol_outside_unit_interval_exits_2(self, tmp_path, capsys, value, method):
        # tol <= 0 kept rank 4 and tol >= 1 ranked 0, both with exit 0
        f = random_fsr_operator(suite_rng(6, 0), BipartiteShape(2, 2, 2, 2), 2)[1]
        code = cli.main(["schmidt", "decompose", "--input", self.write_operator(tmp_path, f),
                         "--shape", "2,2,2,2", "--method", method, "--tol", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--tol" in errors[0]

    @pytest.mark.parametrize("method", ["deflate", "svd"])
    @pytest.mark.parametrize("entries", [[1e308, 1e308], [5e-324, 0.0]], ids=["1e308", "5e-324"])
    def test_extreme_magnitudes_rank_one(self, tmp_path, capsys, entries, method):
        # deflation ranked both 0 and the norms of 1e308 turned the reconstruction error into NaN
        path = self.write_operator(tmp_path, np.array([entries], dtype=complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["schmidt", "decompose", "--input", path, "--shape", "1,2,1,1", "--method", method])
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert code == 0
        assert int(fields["rank"]) == 1
        assert np.isfinite(float(fields["reconstruction_error"]))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_planted_rank_three_near_the_float_max(self, tmp_path, capsys):
        # --method svd printed rank 0 and exited 1: sigma_max of the unscaled reshuffle overflowed
        f = random_fsr_operator(suite_rng(0, 99), BipartiteShape(4, 4, 4, 4), 3)[1]
        f *= 9.97e307 / np.abs(f.view(float)).max()
        path = self.write_operator(tmp_path, f)
        for method in ("deflate", "svd"):
            code = cli.main(["schmidt", "decompose", "--input", path, "--shape", "4,4,4,4", "--method", method])
            fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            assert code == 0
            assert int(fields["rank"]) == 3
            assert float(fields["reconstruction_error"]) <= 1e-12

    def test_svd_output_of_benchmark_inputs_is_unchanged(self, tmp_path):
        # the schmidt_cli operators of perfbench seed 1; the file is that of an SVD of the unscaled reshuffle
        rng = np.random.default_rng(1)
        shape = BipartiteShape(16, 16, 16, 16)
        for r in (8, 32, 128):
            f = np.einsum("kac,kbd->abcd", crandom(rng, r, 16, 16), crandom(rng, r, 16, 16)).reshape(256, 256)
            u, s, vh = np.linalg.svd(schmidt.reshuffle(f, shape))
            roots = np.sqrt(s[:r])
            a = [roots[k] * u[:, k].reshape(16, 16) for k in range(r)]
            b = [roots[k] * vh[k, :].reshape(16, 16) for k in range(r)]
            want, got = tmp_path / "want.json", tmp_path / "got.json"
            io.save_json(want, io.fsr_to_dict(FSROperator(shape, a, b)))
            assert cli.main(["schmidt", "decompose", "--input", self.write_operator(tmp_path, f),
                             "--shape", "16,16,16,16", "--method", "svd", "--output", str(got)]) == 0
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("method", ["deflate", "svd"])
    def test_planted_rank_128_end_to_end(self, tmp_path, method):
        # 256x256 operator of Schmidt rank 128 on C^16 (x) C^16, as the CLI sees it
        rng = np.random.default_rng(40)
        r, (h1, h2, k1, k2) = 128, (16, 16, 16, 16)
        a, b = crandom(rng, r, k1, h1), crandom(rng, r, k2, h2)
        f = np.einsum("kac,kbd->abcd", a, b).reshape(k1 * k2, h1 * h2)
        out = tmp_path / "D.json"
        proc = run_cli(["schmidt", "decompose", "--input", self.write_operator(tmp_path, f),
                        "--shape", "16,16,16,16", "--method", method, "--output", str(out)],
                       timeout=120)
        assert proc.returncode == 0, proc.stderr
        fields = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
        assert int(fields["rank"]) == r
        assert float(fields["reconstruction_error"]) <= 1e-8
        dec = fsr_from_dict(io.load_json(out))
        assert dec.shape == BipartiteShape(h1, h2, k1, k2) and dec.rank_bound == r
        assert np.linalg.norm(dec.materialize() - f) <= 1e-8 * np.linalg.norm(f)


class TestFramesCommands:
    def test_classify(self, tmp_path, capsys):
        seq = VectorSequence(np.eye(3, dtype=complex))
        path = tmp_path / "seq.json"
        io.save_json(path, io.sequence_to_dict(seq))
        assert cli.main(["frames", "classify", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_riesz"]

    def test_verify_main(self, capsys):
        code = cli.main(
            ["frames", "verify-main", "--dims", "2,2", "--lens", "3,3",
             "--rank", "2", "--seed", "1", "--trials", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_groups_frames"]

    def test_false_rank_one_check_fails_suite_and_command(self, monkeypatch, capsys):
        # every r = 1 frame draw reports bounds_multiply; a false one is a failed check
        real = sequences.verify_main_theorem

        def false_rank_one(ms):
            report = real(ms)
            if "rank_one_check" in report:
                report["rank_one_check"]["bounds_multiply"] = False
            return report

        argv = ["frames", "verify-main", "--dims", "2,2", "--lens", "3,3", "--rank", "1", "--trials", "2"]
        assert verify.suite_minimal_sum_frames(suite_rng(0, 0), 3)["passed"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(sequences, "verify_main_theorem", false_rank_one)
        assert not verify.suite_minimal_sum_frames(suite_rng(0, 0), 3)["passed"]
        assert cli.main(argv) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["all_groups_frames"]
        assert not any(rep["rank_one_check"]["bounds_multiply"] for rep in out["reports"])

    def test_verify_main_bad_args(self):
        assert cli.main(
            ["frames", "verify-main", "--dims", "2,2", "--lens", "3", "--trials", "2"]
        ) == 2

    @pytest.mark.parametrize("dims, lens", [("-2,-2", "-3,-3"), ("0,0", "1,1")])
    def test_verify_main_sizes_below_one_name_the_arguments(self, monkeypatch, capsys, dims, lens):
        draws = []
        monkeypatch.setattr(verify, "random_vector_sequence", lambda *a: draws.append(a))
        argv = ["frames", "verify-main", f"--dims={dims}", f"--lens={lens}", "--rank", "1", "--trials", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: dims and lengths must be >= 1, got dims [{dims.replace(',', ', ')}], "
            f"lengths [{lens.replace(',', ', ')}]\n"
        )
        assert draws == []

    @pytest.mark.parametrize("argv, message", [
        (["frames", "verify-main", "--dims", "2,,2", "--lens", "3,3,3"],
         "--dims needs comma-separated integers, got '2,,2'"),
        (["frames", "verify-main", "--dims", "2,2", "--lens", "3,"], "--lens needs comma-separated integers, got '3,'"),
        (["frames", "verify-main", "--dims", "2,x", "--lens", "3,3"],
         "--dims needs comma-separated integers, got '2,x'"),
        (["schmidt", "decompose", "--input", "missing.json", "--shape", ",2,2,2"],
         "--shape needs comma-separated integers, got ',2,2,2'"),
        (["schmidt", "decompose", "--input", "missing.json", "--shape", "2,2,2"], "--shape needs h1,h2,k1,k2"),
        (["frames", "verify-main", "--dims", "2,2", "--lens", "3,3", "--trials", "0"], "trials must be >= 1"),
    ])
    def test_integer_list_errors_name_their_argument(self, monkeypatch, capsys, argv, message):
        draws = []
        monkeypatch.setattr(verify, "random_vector_sequence", lambda *a: draws.append(a))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert draws == []

    def test_classify_empty_sequence(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"space_dim": 2, "vectors": []}))
        assert cli.main(["frames", "classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "at least one vector" in captured.err

    def test_classify_non_finite_sequence(self, tmp_path, capsys):
        payload = io.sequence_to_dict(VectorSequence(np.eye(3, dtype=complex)))
        payload["vectors"][1]["entries"][0] = [float("nan"), 0.0]
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["frames", "classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "non-finite" in captured.err

    @pytest.mark.parametrize("vectors", [
        [[[1e308, 0]]],
        [[[1e308, 1e308], [1e200, 0]], [[1, 0], [1e-300, 0]]],
    ])
    def test_classify_prints_no_nan_json(self, tmp_path, capsys, vectors):
        # finite entries whose frame operator overflows to inf or NaN bounds
        payload = {"space_dim": len(vectors[0]), "vectors": [{"dim": len(v), "entries": v} for v in vectors]}
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(payload))
        code, out, err, caught = run_main_capturing(["frames", "classify", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_verify_main_impossible_draw(self, capsys):
        # Two vectors can never span C^3, so no draw is a frame.
        assert cli.main(
            ["frames", "verify-main", "--dims", "3", "--lens", "2", "--trials", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    def test_verify_main_rank_too_large_draws_nothing(self, monkeypatch, capsys):
        # 5 sequences of 2 vectors in C^2 are always dependent: fail before any draw
        draws = []
        monkeypatch.setattr(verify, "random_vector_sequence", lambda *a: draws.append(a))
        assert cli.main(
            ["frames", "verify-main", "--dims", "2", "--lens", "2", "--rank", "5", "--trials", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rank <= length * dim" in err
        assert draws == []

    def test_verify_main_oversized_shape_draws_nothing(self, monkeypatch, capsys):
        # 50,50 ran for 5 s at 424 MB, and 100,100 would need about 6 GB
        draws = []
        monkeypatch.setattr(verify, "random_vector_sequence", lambda *a: draws.append(a))
        assert cli.main(["frames", "verify-main", "--dims", "50,50", "--lens", "50,50", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: dims [50, 50] and lengths [50, 50] would allocate 6250000 entries, "
            f"more than MAX_MINIMAL_SUM_ENTRIES = {verify.MAX_MINIMAL_SUM_ENTRIES}\n"
        )
        assert draws == []

    @pytest.mark.parametrize("lengths, accepted", [((2048,), True), ((2049,), False), ((64, 32), True)])
    def test_frame_draw_size_bound_is_inclusive(self, monkeypatch, lengths, accepted):
        # prod(lengths) * prod(dims) = 2**22 is the largest accepted; the draw itself is stubbed out
        dims = (2048,) if len(lengths) == 1 else (32, 64)
        monkeypatch.setattr(verify, "random_vector_sequence", lambda rng, m, n: None)
        monkeypatch.setattr(verify, "_frame_sum", lambda groups, check: "drawn")
        rng = verify.suite_rng(0, 0)
        if accepted:
            assert verify.random_frame_minimal_sum(rng, dims, lengths, 1) == "drawn"
        else:
            with pytest.raises(ValueError, match="MAX_MINIMAL_SUM_ENTRIES = 4194304"):
                verify.random_frame_minimal_sum(rng, dims, lengths, 1)

    def test_frame_draw_consumes_rng_as_retry_loop(self):
        # the up-front checks draw nothing: a valid input gives the draw and
        # the rng state of the plain retry loop
        def retry_loop(rng, dims, lengths, r):
            while True:
                groups = [[verify.random_vector_sequence(rng, m, n) for _ in range(r)]
                          for m, n in zip(dims, lengths)]
                try:
                    ms = build_minimal_sum(groups)
                except DependentGroup:
                    continue
                if classify(materialize(ms)).is_frame:
                    return ms

        def branch3_loop(rng, m1=3, n=4):
            while True:
                g10 = verify.random_vector_sequence(rng, m1, n)
                g11 = verify.random_vector_sequence(rng, m1, n)
                coeff0 = verify._cnormal(rng, n)
                coeff1 = verify._cnormal(rng, n)
                g20 = VectorSequence(np.outer(coeff0, [1.0, 0.0]))
                g21 = VectorSequence(np.outer(coeff1, [0.0, 1.0]))
                try:
                    ms = build_minimal_sum([[g10, g11], [g20, g21]])
                except DependentGroup:
                    continue
                if classify(materialize(ms)).is_frame:
                    return ms

        def branch1_loop(rng, m1=2, m2=2, n=3, eps=1e-2):
            while True:
                groups = [
                    [verify.random_vector_sequence(rng, m, n), VectorSequence(eps * verify._cnormal(rng, n, m))]
                    for m in (m1, m2)
                ]
                try:
                    ms = build_minimal_sum(groups)
                except DependentGroup:
                    continue
                pure = build_minimal_sum([[g[0]] for g in ms.groups])
                if classify(materialize(ms)).is_frame and classify(materialize(pure)).is_frame:
                    return ms

        def assert_same_draw(draw, oracle, check, key):
            # the returned report is the check's report on the returned sum
            rng, oracle_rng = suite_rng(41, key), suite_rng(41, key)
            for _ in range(5):
                (ms, report), want = draw(rng), oracle(oracle_rng)
                assert report == check(ms)
                for group, want_group in zip(ms.groups, want.groups, strict=True):
                    for seq, want_seq in zip(group, want_group, strict=True):
                        assert np.array_equal(seq.vectors, want_seq.vectors)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

        for dims, lengths, r in (([2, 2], [3, 3], 2), ([3], [3], 1), ([2, 3], [2, 3], 3)):
            assert_same_draw(
                lambda rng: verify.random_frame_minimal_sum(rng, dims, lengths, r),
                lambda rng: retry_loop(rng, dims, lengths, r),
                sequences.verify_main_theorem,
                0,
            )
        for key in range(3):
            assert_same_draw(verify.branch3_minimal_sum, branch3_loop, sequences.two_term_disjunction_check, key)
            assert_same_draw(verify.branch1_minimal_sum, branch1_loop, sequences.two_term_disjunction_check, key)

    def test_frame_draw_retries_after_a_dependent_group(self, monkeypatch):
        calls = []

        def dependent_once(groups):
            calls.append(groups)
            if len(calls) == 1:
                raise DependentGroup(0)
            return build_minimal_sum(groups)

        monkeypatch.setattr(verify, "build_minimal_sum", dependent_once)
        ms, report = verify.random_frame_minimal_sum(suite_rng(0, 0), [2, 2], [3, 3], 1)
        assert len(calls) == 2 and ms.groups == tuple(map(tuple, calls[1])) and report["full"]["is_frame"]

    def test_frame_draw_fails_after_50_draws_without_a_frame(self, monkeypatch):
        checked = []
        not_a_frame = {"full": {"is_frame": False}}
        monkeypatch.setattr(sequences, "verify_main_theorem", lambda ms: checked.append(ms) or not_a_frame)
        message = r"^no frame minimal sum found in 50 draws with dims \[2, 2\], lengths \[3, 3\] and rank 1; "
        with pytest.raises(DrawFailed, match=message):
            verify.random_frame_minimal_sum(suite_rng(0, 0), [2, 2], [3, 3], 1)
        assert len(checked) == 50

    @pytest.mark.parametrize("dims, lengths, r, error, match", [
        ([2], [3, 3], 1, DimensionMismatch, "need one length per dim"),
        ([2, 2], [3], 1, DimensionMismatch, "need one length per dim"),
        ([2, 2], [3, 3], 0, ConditionViolated, "a minimal sum needs rank >= 1, got 0"),
        ([-2, -2], [-3, -3], 1, DimensionMismatch, r"dims and lengths must be >= 1, got dims \[-2, -2\]"),
        ([0, 0], [1, 1], 1, DimensionMismatch, r"dims and lengths must be >= 1, got dims \[0, 0\]"),
        ([2, 2], [3, 0], 1, DimensionMismatch, r"dims and lengths must be >= 1, .* lengths \[3, 0\]"),
    ])
    def test_frame_draw_rejects_bad_args_before_drawing(self, dims, lengths, r, error, match):
        # zip would silently drop the extra dims or lengths; r = 0 has no groups;
        # numpy would reject a negative size without naming it, and a zero one looks like an impossible frame
        rng = suite_rng(0, 0)
        state = rng.bit_generator.state
        with pytest.raises(error, match=match):
            verify.random_frame_minimal_sum(rng, dims, lengths, r)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("dims, r", [((1, 1, 1, 1), 2), ((1, 1, 1, 1), -1), ((2, 3, 2, 3), 5)])
    def test_fsr_draw_of_impossible_rank_fails_fast(self, dims, r):
        # no operator of the shape has Schmidt rank r, so a retry loop never ends
        code = (
            "from frameforge.errors import DrawFailed\n"
            "from frameforge.schmidt import BipartiteShape\n"
            "from frameforge.verify import random_fsr_operator, suite_rng\n"
            "try:\n"
            f"    random_fsr_operator(suite_rng(0, 0), BipartiteShape(*{dims}), {r})\n"
            "except DrawFailed:\n"
            "    print('DrawFailed')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
        assert (proc.returncode, proc.stdout) == (0, "DrawFailed\n"), proc.stderr

    @pytest.mark.parametrize("r", [0, 4])
    def test_fsr_draw_of_extreme_rank(self, r):
        # 0 and min(k1*h1, k2*h2) = 4 are the extreme ranks on this shape
        shape = BipartiteShape(2, 3, 2, 3)
        f = random_fsr_operator(suite_rng(0, 0), shape, r)[0]
        assert schmidt.reshuffle_rank(f.materialize(), shape).rank_bound == r


class TestGaborCommands:
    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["gabor", "sweep", "--N", "12", "--window", "gaussian",
                         "--output", str(out)])
        assert code == 0
        assert len(read_sweep_rows(out)) == 36

    def test_sweep_delta_window_file(self, tmp_path, capsys):
        g = np.zeros(4, dtype=complex)
        g[0] = 1.0
        wpath = tmp_path / "w.json"
        io.save_json(wpath, io.window_to_dict(gabor.ZNWindow(g)))
        out = tmp_path / "sweep.csv"
        code = cli.main(["gabor", "sweep", "--N", "4", "--window", f"file:{wpath}",
                         "--output", str(out)])
        assert code == 0
        row = next(r for r in read_sweep_rows(out) if (r["a"], r["b"]) == ("1", "4"))
        assert row["is_riesz"] == "True"

    def test_sweep_n240_stays_fast(self, tmp_path, capsys):
        # the dense route builds every atom and takes tens of seconds here
        out = tmp_path / "sweep.csv"
        t0 = time.perf_counter()
        code = cli.main(["gabor", "sweep", "--N", "240", "--window", "gaussian",
                         "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert len(read_sweep_rows(out)) == 20**2  # 240 has 20 divisors
        assert elapsed < 15.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", [
        ["sweep", "--N", "8"],
        ["perturb", "--N", "8", "--a", "2", "--b", "2", "--alpha", "4", "--beta", "4"],
    ])
    def test_non_finite_window_file(self, tmp_path, capsys, command, bad):
        payload = io.window_to_dict(gabor.sample_window("gaussian", 8))
        payload["entries"][3] = [bad, 0.0]
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(payload))
        assert cli.main(["gabor", *command, "--window", f"file:{wpath}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err

    @pytest.mark.parametrize("value", [1e308, 1e200, 1e-200, 5e-324])
    @pytest.mark.parametrize("command", [
        ["sweep", "--N", "12"],
        ["perturb", "--N", "12", "--a", "2", "--b", "2", "--alpha", "6", "--beta", "6"],
    ], ids=["sweep", "perturb"])
    def test_delta_window_beyond_float_range_exits_2(self, tmp_path, command, value):
        # B = (N/b) value**2: 1e308 warned of overflow in matmul, 1e200 failed to
        # converge, 1e-200 and 5e-324 reported A = B = 0 on every lattice with exit 0
        g = np.zeros(12, dtype=complex)
        g[0] = value
        wpath = tmp_path / "w.json"
        io.save_json(wpath, io.window_to_dict(gabor.ZNWindow(g)))
        code, out, err, caught = run_main_capturing(["gabor", *command, "--window", f"file:{wpath}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_sweep_oversize(self):
        assert cli.main(["gabor", "sweep", "--N", "8193"]) == 2

    def test_perturb(self, capsys):
        code = cli.main(["gabor", "perturb", "--N", "8", "--a", "2", "--b", "2",
                         "--alpha", "4", "--beta", "4", "--c-phase", "0.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_ratio"] < 1e-8

    @pytest.mark.parametrize("flags", [("--alpha",), ("--beta",), ("--alpha", "--beta")])
    @pytest.mark.parametrize("shift", [4 + 8 * 10**19, 4 + 8 * 10**12, -4])
    def test_perturb_huge_and_negative_shifts_are_exact(self, capsys, flags, shift):
        # shifts congruent to 4 mod 8 give the alpha = beta = 4 non-frame
        argv = ["gabor", "perturb", "--N", "8", "--a", "2", "--b", "2", "--alpha", "4", "--beta", "4"]
        assert cli.main(argv) == 0
        want = json.loads(capsys.readouterr().out)
        for flag in flags:
            argv[argv.index(flag) + 1] = str(shift)
        assert cli.main(argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert want["is_frame"] is False and want["A"] <= sequences.FRAME_TOL * want["B"]
        assert (got["A"], got["B"]) == (want["A"], want["B"])

    @pytest.mark.parametrize("c_phase", ["nan", "inf", "-inf"])
    def test_perturb_non_finite_phase_exits_2(self, capsys, c_phase):
        # NaN exited 2 with a float-range message that did not name c_phase
        code = cli.main(["gabor", "perturb", "--N", "8", "--a", "2", "--b", "2",
                         "--alpha", "4", "--beta", "4", f"--c-phase={c_phase}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "c_phase" in captured.err

    @pytest.mark.parametrize("c_phase", ["-1e17", "-2.5e-3", "-0.25"])
    def test_perturb_negative_phase_as_its_own_argument(self, capsys, c_phase):
        # -1e17 and -2.5e-3 exited 2 with argparse's "expected one argument"; -1e17 is the c = 1 non-frame
        argv = ["gabor", "perturb", "--N", "8", "--a", "2", "--b", "2", "--alpha", "4", "--beta", "4"]
        assert cli.main([*argv, f"--c-phase={c_phase}"]) == 0
        want = json.loads(capsys.readouterr().out)
        assert cli.main([*argv, "--c-phase", c_phase]) == 0
        assert json.loads(capsys.readouterr().out) == want
        assert want["c_phase"] == float(c_phase)
        if c_phase == "-1e17":
            assert cli.main(argv) == 0
            assert want == {**json.loads(capsys.readouterr().out), "c_phase": -1e17}
            assert not want["is_frame"]

    def test_perturb_minus_inf_phase_as_its_own_argument_exits_2(self, capsys):
        code = cli.main(["gabor", "perturb", "--N", "8", "--a", "2", "--b", "2",
                         "--alpha", "4", "--beta", "4", "--c-phase", "-inf"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: c_phase must be finite, got -inf\n"

    @pytest.mark.parametrize("n_field", [12, "abc"])
    def test_window_file_n_must_match_dim(self, tmp_path, capsys, n_field):
        # the N field was never read: both files swept as N = 8 with exit 0
        payload = io.window_to_dict(gabor.sample_window("gaussian", 8))
        payload["N"] = n_field
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(payload))
        assert cli.main(["gabor", "sweep", "--N", "8", "--window", f"file:{wpath}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "'N'" in captured.err

    def test_window_file_of_another_n_exits_2(self, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        io.save_json(wpath, io.window_to_dict(gabor.sample_window("gaussian", 4)))
        assert cli.main(["gabor", "sweep", "--N", "8", "--window", f"file:{wpath}"]) == 2
        assert capsys.readouterr().err == "error: window file has N=4, expected 8\n"

    @pytest.mark.parametrize("generator", [{"x": 1}, ["gaussian"], 3, True])
    def test_window_file_generator_must_be_a_string_or_null(self, tmp_path, capsys, generator):
        # any JSON value loaded, swept and was written back as the window's label
        payload = io.window_to_dict(gabor.sample_window("gaussian", 4))
        payload["generator"] = generator
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(payload))
        assert cli.main(["gabor", "sweep", "--N", "4", "--window", f"file:{wpath}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: window field 'generator' ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("generator", ["random", None, "absent"])
    def test_window_file_generator_string_null_or_absent_loads(self, tmp_path, generator):
        payload = io.window_to_dict(gabor.ZNWindow(np.ones(4, dtype=complex), generator))
        if generator == "absent":
            del payload["generator"]
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(payload))
        assert io.window_from_dict(io.load_json(wpath)).generator == (None if generator == "absent" else generator)

    def test_perturb_bad_conditions(self, capsys):
        assert cli.main(["gabor", "perturb", "--N", "8", "--a", "2", "--b", "2",
                         "--alpha", "1", "--beta", "0"]) == 2


class TestVerifyCommand:
    def test_small_run(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli.main(["verify", "all", "--seed", "3", "--trials", "5",
                         "--report", str(report_path)])
        assert code == 0
        report = io.load_json(report_path)
        assert len(report["suites"]) >= 6
        assert report["all_passed"]

    def test_zero_trials(self):
        assert cli.main(["verify", "all", "--seed", "3", "--trials", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--seed", "-5", "--trials", "1"],
        ["frames", "verify-main", "--seed", "-5", "--dims", "2", "--lens", "2", "--trials", "1"],
    ], ids=["verify-all", "verify-main"])
    def test_negative_seed_is_named_in_its_error(self, capsys, argv):
        # numpy's "expected non-negative integer" named neither the seed nor its value
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -5\n"

    def test_run_all_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            verify.run_all(-1, 1)

    def test_seed_beyond_64_bits_is_written_to_the_report(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert cli.main(["verify", "all", "--seed", str(2**64), "--trials", "1", "--report", str(path)]) == 0
        seed = io.load_json(path)["seed"]
        assert type(seed) is int and seed == 2**64

    def test_seed_7_makes_at_most_500_eigvalsh_calls(self, tmp_path, monkeypatch, capsys):
        # the solves no draw's retry depends on go to the stacked eigen core in batches
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        assert cli.main(["verify", "all", "--seed", "7", "--trials", "50", "--report", str(tmp_path / "r.json")]) == 0
        assert len(calls) <= 500

    def test_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            assert cli.main(["verify", "all", "--seed", "11", "--trials", "5",
                             "--report", str(p)]) == 0
        r1, r2 = (io.load_json(p) for p in paths)
        r1.pop("timestamp"), r2.pop("timestamp")
        assert r1 == r2
