"""Write what the program prints and writes on a fixed set of runs into OUT_DIR.

Run ``python scripts/check_outputs.py OUT_DIR`` in two checkouts, then
``diff -r`` the two trees: an empty diff means both versions give the same
bytes on every run below.  Each command goes through ``cli.main`` in this
process, as a user runs it; the demos run as scripts.  For each run the tree
holds a ``.out`` file (exit code, stdout, stderr) and the files the command
writes.  ``verify all`` reports are stored without their ``timestamp``, the
one field that differs between runs.  The inputs are seeded and written here
as plain JSON, so both versions read the same bytes.

The runs: ``verify all --trials 50`` at seeds 0-3 and 7 and at the six op
seeds of the ``verify_suites`` benchmark at seed 1; ``gabor sweep`` at
N in {12, 120, 840, 1024} for every sampled window; ``schmidt decompose`` of
256x256 operators of planted Schmidt rank 8, 32 and 128 with both methods, and with both methods of a
real-valued operator (every imaginary part 0) and of one with integer entries, both of planted rank 8,
and of the 256x256 zero operator;
``frames verify-main`` at four shapes, one of them a single factor;
``gabor perturb`` on the 12 instances of ``verify.PERTURB_INSTANCES``;
``frames classify`` of a seeded sequence; and the four demos.  The ``errors``
group runs commands on deliberate bad inputs whose messages name no file path:
``verify all`` and ``frames verify-main`` at seed -1, ``gabor sweep`` of a
window file whose ``generator`` is an object, ``schmidt decompose`` with both
methods of the planted rank-8 operator under ``--shape 16,16,16,15``, whose
240 rows fall 16 short of the operator's 256, ``schmidt decompose`` with both
methods, and ``--output``, of the two finite operators of
``NEAR_LIMIT_OPERATORS``, whose deflation residual outgrows the float max, and,
as a control, ``frames classify`` of a sequence file with a boolean entry.  Three library
checks with no command of their own are called directly and their reports
written as JSON: ``sequences.two_term_disjunction_check`` on seeded
``verify.branch1_minimal_sum`` and ``verify.branch3_minimal_sum`` draws,
``gabor.verify_rank_r_frame_implication`` on the fixed lattice-aligned d = 2
specs of ``RANK_R_SPECS``, and ``gabor.oversample_checks`` in full on one
seeded, shuffled list of cases at N in ``OVERSAMPLE_NS``, in one call.
``library/invariants.json`` records the exception class and message, or
"accepted", of ``sequences.MinimalSumSequence`` and
``sequences.build_minimal_sum`` on each group list of ``INVALID_GROUPS``, and
of ``gabor.ZNWindow`` on each label of ``WINDOW_LABELS``.
``library/shape_errors.json`` records the same for each call of
``SHAPE_ERROR_CALLS``: an inverse, and factors, whose shapes do not fit;
``library/fsr_stacks.json`` records the same for ``schmidt.FSROperator`` on
each pair of factor stacks of ``FSR_STACKS``, each of which does not fit its
shape.  ``library/tolerances.json`` records the rank, or the exception class
and message, of both Schmidt routes on ``eye(4)``, on the 4x4 zero operator and
on ``ones((4, 4))`` (the ``ones4`` rows) at each ``tol`` of ``TOLERANCES``, up to
1e308, with numpy's warnings raised as errors.  ``library/objects.json`` records,
for two separately built equal twins of each class of ``OBJECT_TWINS``, the value,
or the exception class and message, of ``x == twin``, ``hash(x) == hash(x)`` and
``x in {x}``; and, for the array an object holds of its complex source, the
outcome of writing into it and whether a later write into the source shows in it.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from frameforge import cli, gabor, schmidt, sequences, verify  # noqa: E402

VERIFY_SEEDS = (0, 1, 2, 3, 7, 755165, 511819, 950461, 473186, 144159, 34852)
SWEEP_NS = (12, 120, 840, 1024)
SCHMIDT_RANKS, SCHMIDT_DIMS = (8, 32, 128), (16, 16, 16, 16)  # h1, h2, k1, k2
VERIFY_MAIN_SHAPES = (("2,2", "3,3", 2), ("2,3", "4,5", 1), ("2,2,2", "3,3,3", 3), ("4", "6", 2))
DISJUNCTION_DRAWS = 4  # per draw kind
OVERSAMPLE_NS, OVERSAMPLE_DRAWS = (8, 12), 12  # the N of the refinement cases, and the cases drawn per window
# (window generators, lattices (N, a, b), alphas[j][k], betas[j][k]): shifts are multiples of (a_j, b_j)
RANK_R_SPECS = (
    (("gaussian", "sech"), ((6, 2, 2), (4, 2, 1)), ((0,), (2,)), ((2,), (0,))),
    (("twoexp", "gaussian"), ((4, 4, 2), (4, 2, 2)), ((0,), (2,)), ((2,), (2,))),  # 8 atoms in C^16: no claim
    (("gaussian", "twoexp"), ((6, 2, 1), (4, 1, 2)), ((0, 2), (0, 1)), ((0, 1), (0, 2))),
    (("sech", "rational"), ((8, 2, 2), (6, 3, 2)), ((0, 2), (0, 3)), ((0, 2), (0, 2))),
    (("gaussian", "twoexp"), ((6, 2, 2), (4, 2, 2)), ((0, 2), (0, 2)), ((0, 2), (0, 2))),  # not a frame
)

_E1, _E2 = sequences.VectorSequence(np.eye(2)), sequences.VectorSequence(np.eye(2)[::-1])
INVALID_GROUPS = {  # name: a group list that makes no minimal sum
    "no_groups": [],
    "empty_group": [[_E1, _E2], []],
    "wrong_count": [[_E1, _E2], [_E1]],
    "two_shapes": [[_E1, _E2], [_E1, sequences.VectorSequence(np.eye(3, 2))]],
    "dependent_group": [[_E1, _E2], [_E2, sequences.VectorSequence(2 * np.eye(2)[::-1])]],
}
WINDOW_LABELS = ({"x": 1}, [1], 7, True, "random", None)
_I2, _I3, _U = np.eye(2), np.eye(3), np.array([1.0, 0.0])
_S2, _S3 = schmidt.BipartiteShape(2, 2, 2, 2), schmidt.BipartiteShape(3, 3, 3, 3)
SHAPE_ERROR_CALLS = {  # name: a call, built when it is made, each of whose arrays has a shape that does not fit
    "inverse_factors_3x3_inverse": lambda: schmidt.inverse_factors(
        schmidt.FSROperator(_S2, [_I2], [_I2]), _I3, "left", _U, _U, _U, _U),
    "spans_equal_two_shapes": lambda: schmidt.spans_equal(
        schmidt.FSROperator(_S2, [_I2], [_I2]), schmidt.FSROperator(_S3, [_I3], [_I3]), 1),
    "fsr_operator_two_factor_shapes": lambda: schmidt.FSROperator(_S2, [_I2, _I3], [_I2, _I3]),
}
FSR_STACKS = {  # name: (A stack, B stack) on the 2,2,2,2 shape, none of which fits it
    "ragged_list": ([_I2, _I3], [_I2, _I2]),
    "2d_stacks": (_I2, _I2),
    "mismatched_r": ([_I2, _I2], [_I2]),
    "wrong_factor_shape": ([np.eye(2, 3)], [_I2]),
    "bare_empty_list": ([], []),
}
TOLERANCES = (float("nan"), float("inf"), -1.0, 0.0, 0.5, 1.0, 1e308)
# name: (a call that builds a new object of a class that holds arrays from a 2x2 complex source, and the array of
# the object that holds the source's entries); two calls on equal sources build equal twins
OBJECT_TWINS = {
    "VectorSequence": (sequences.VectorSequence, lambda x: x.vectors),
    "MinimalSumSequence": (lambda s: sequences.MinimalSumSequence(((sequences.VectorSequence(s),),)),
                           lambda x: x.groups[0][0].vectors),
    "FSROperator": (lambda s: schmidt.FSROperator(_S2, s[None], s[None]), lambda x: x.a),
    "ZNWindow": (lambda s: gabor.ZNWindow(s[0]), lambda x: x.g),
    "RankRWindowSpec": (lambda s: gabor.RankRWindowSpec((gabor.ZNWindow(s[0]),), ((0,),), ((0,),)),
                        lambda x: x.windows[0].g),
}
_RNG3 = np.random.default_rng(3)
NEAR_LIMIT_OPERATORS = {  # name: (a finite operator whose deflation residual outgrows the float max, its --shape)
    "rows_of_1.5e308": (np.array([[1.5e308, -1.5e308, 1.5e308, 1.5e308], [1.5e308, 1e308, 1.5e308, 1.5e308],
                                  [1.5e308, 1.5e308, 1.5e308, -1.5e308], [1.5e308] * 4]), "2,2,2,2"),
    "uniform_times_1.5e308": ((_RNG3.uniform(-1, 1, (16, 16)) + 1j * _RNG3.uniform(-1, 1, (16, 16))) * 1.5e308,
                              "4,4,4,4"),
}


def outcome(build, *args) -> str:
    """The class and message of what ``build(*args)`` raises, or "accepted"."""
    try:
        build(*args)
    except Exception as exc:  # what is raised is the record
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def value_or_error(call):
    """What ``call()`` returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # what is raised is the record
        return f"{type(exc).__name__}: {exc}"


def rank_or_error(decompose, f, tol):
    """``value_or_error`` of the ``rank_bound`` of ``decompose(f, _S2, tol)``, with numpy's warnings raised
    as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return value_or_error(lambda: decompose(f, _S2, tol).rank_bound)


def shows_through(build, held) -> bool:
    """Whether a write into the source an object was built from shows in the array the object holds."""
    source = np.eye(2, dtype=complex)
    array = held(build(source))
    source[:] = 7
    return bool((array == 7).all())


def entries(z) -> list:
    """The [[re, im], ...] layout of a complex array in C order."""
    z = np.asarray(z, dtype=complex).ravel()
    return np.stack([z.real, z.imag], axis=-1).tolist()


def run(out: pathlib.Path, name: str, argv: list[str]) -> None:
    """``cli.main(argv)``, with its exit code, stdout and stderr written to ``out/name.out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    (out / f"{name}.out").write_text(f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")


def main(out: pathlib.Path) -> None:
    dirs = {d: out / d for d in ("inputs", "verify", "sweep", "schmidt", "verify_main", "perturb", "classify", "demos",
                                 "library", "errors")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)

    for seed in VERIFY_SEEDS:
        report = dirs["verify"] / f"seed{seed}.json"
        run(dirs["verify"], f"seed{seed}", ["verify", "all", "--seed", str(seed), "--trials", "50", "--report", str(report)])
        payload = json.loads(report.read_text())
        del payload["timestamp"]
        report.write_text(json.dumps(payload, indent=2) + "\n")

    for n in SWEEP_NS:
        for gen in gabor.WINDOW_GENERATORS:
            csv_path = dirs["sweep"] / f"N{n}_{gen}.csv"
            run(dirs["sweep"], f"N{n}_{gen}", ["gabor", "sweep", "--N", str(n), "--window", gen, "--output", str(csv_path)])

    h1, h2, k1, k2 = SCHMIDT_DIMS

    def decompose(stem: str, op_entries: list) -> None:
        op_path = dirs["inputs"] / f"op_{stem}.json"
        op_path.write_text(json.dumps({"rows": k1 * k2, "cols": h1 * h2, "entries": op_entries}))
        for method in ("deflate", "svd"):
            name = f"{stem}_{method}"
            run(dirs["schmidt"], name, ["schmidt", "decompose", "--input", str(op_path), "--shape",
                                        ",".join(map(str, SCHMIDT_DIMS)), "--method", method,
                                        "--output", str(dirs["schmidt"] / f"{name}.json")])

    def planted(rng, r, draw):
        """sum_k A_k (x) B_k as a (k1 k2) x (h1 h2) matrix, of Schmidt rank r, factors drawn by ``draw``."""
        a, b = draw(rng, (r, k1, h1)), draw(rng, (r, k2, h2))
        return np.einsum("kac,kbd->abcd", a, b).reshape(k1 * k2, h1 * h2)

    rng = np.random.default_rng(1)
    for r in SCHMIDT_RANKS:
        decompose(f"rank{r}", entries(planted(rng, r, lambda g, s: g.standard_normal(s) + 1j * g.standard_normal(s))))
    rng = np.random.default_rng(4)
    decompose("real_rank8", entries(planted(rng, 8, lambda g, s: g.standard_normal(s))))
    ints = planted(rng, 8, lambda g, s: g.integers(-3, 4, size=s))
    decompose("int_rank8", [[int(x), 0] for x in ints.ravel()])  # JSON integers, as a user may write them
    decompose("zero", entries(np.zeros((k1 * k2, h1 * h2))))

    for dims, lens, rank in VERIFY_MAIN_SHAPES:
        run(dirs["verify_main"], f"dims{dims}_lens{lens}_rank{rank}",
            ["frames", "verify-main", "--dims", dims, "--lens", lens, "--rank", str(rank), "--seed", "1", "--trials", "5"])

    generators = gabor.WINDOW_GENERATORS
    for idx, (n, a, b, alpha, beta, c_phase) in enumerate(verify.PERTURB_INSTANCES):
        run(dirs["perturb"], f"{idx:02d}", ["gabor", "perturb", "--N", str(n), "--a", str(a), "--b", str(b),
                                            "--alpha", str(alpha), "--beta", str(beta), "--c-phase", str(c_phase),
                                            "--window", generators[idx % len(generators)]])

    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    seq_path = dirs["inputs"] / "sequence.json"
    seq_path.write_text(json.dumps({"space_dim": 4, "vectors": [{"dim": 4, "entries": entries(v)} for v in vectors]}))
    run(dirs["classify"], "sequence", ["frames", "classify", "--input", str(seq_path)])

    run(dirs["errors"], "verify_all_seed-1", ["verify", "all", "--seed", "-1", "--trials", "1"])
    run(dirs["errors"], "verify_main_seed-1",
        ["frames", "verify-main", "--seed", "-1", "--dims", "2", "--lens", "2", "--trials", "1"])
    window_path = dirs["inputs"] / "window_object_generator.json"
    g = gabor.sample_window("gaussian", 4).g
    window_path.write_text(json.dumps({"dim": 4, "entries": entries(g), "N": 4, "generator": {"x": 1}}))
    run(dirs["errors"], "sweep_object_generator", ["gabor", "sweep", "--N", "4", "--window", f"file:{window_path}"])
    short_shape = ["--input", str(dirs["inputs"] / "op_rank8.json"), "--shape", f"{h1},{h2},{k1},{k2 - 1}"]
    for method in ("deflate", "svd"):
        run(dirs["errors"], f"schmidt_shape_{method}", ["schmidt", "decompose", *short_shape, "--method", method])
    for name, (f, shape) in NEAR_LIMIT_OPERATORS.items():
        op_path = dirs["inputs"] / f"op_{name}.json"
        op_path.write_text(json.dumps({"rows": len(f), "cols": len(f), "entries": entries(f)}))
        for method in ("deflate", "svd"):
            run(dirs["errors"], f"schmidt_{name}_{method}", ["schmidt", "decompose", "--input", str(op_path), "--shape",
                                                             shape, "--method", method, "--output",
                                                             str(dirs["errors"] / f"schmidt_{name}_{method}.json")])
    bool_path = dirs["inputs"] / "sequence_bool_entries.json"
    bool_path.write_text(json.dumps({"space_dim": 1, "vectors": [{"dim": 1, "entries": [[0.5, True]]}]}))
    run(dirs["errors"], "classify_bool_entries", ["frames", "classify", "--input", str(bool_path)])

    rng = verify.suite_rng(3, 0)
    for i in range(DISJUNCTION_DRAWS):
        for kind, draw in (("branch1", verify.branch1_minimal_sum), ("branch3", verify.branch3_minimal_sum)):
            ms, _ = draw(rng)
            report = sequences.two_term_disjunction_check(ms)
            (dirs["library"] / f"disjunction_{kind}_{i}.json").write_text(json.dumps(report, indent=2) + "\n")

    for i, (gens, lats, alphas, betas) in enumerate(RANK_R_SPECS):
        lattices = [gabor.ZNLattice(*lat) for lat in lats]
        windows = tuple(gabor.sample_window(gen, lat.N) for gen, lat in zip(gens, lattices))
        report = gabor.verify_rank_r_frame_implication(gabor.RankRWindowSpec(windows, alphas, betas), lattices)
        (dirs["library"] / f"rank_r_{i}.json").write_text(json.dumps(report, indent=2) + "\n")

    rng = np.random.default_rng(5)
    cases = []
    for n in OVERSAMPLE_NS:
        windows = [gabor.sample_window(gen, n) for gen in gabor.WINDOW_GENERATORS]
        windows.append(gabor.ZNWindow(rng.standard_normal(n) + 1j * rng.standard_normal(n), "random"))
        lattices = [gabor.ZNLattice(n, a, b) for a in gabor.divisors(n) for b in gabor.divisors(n)]
        for w in windows:
            for i in rng.integers(len(lattices), size=OVERSAMPLE_DRAWS):
                lat = lattices[i]
                cases.append((w, lat, int(rng.choice(gabor.divisors(lat.a))), int(rng.choice(gabor.divisors(lat.b)))))
    cases = [cases[i] for i in rng.permutation(len(cases))]  # windows of both N interleaved
    reports = gabor.oversample_checks(cases)
    payload = [{"N": lat.N, "a": lat.a, "b": lat.b, "window": w.generator, **report}
               for (w, lat, _, _), report in zip(cases, reports)]
    (dirs["library"] / "oversample.json").write_text(json.dumps(payload, indent=2) + "\n")

    invariants = {
        "groups": {name: {build.__name__: outcome(build, groups)
                          for build in (sequences.MinimalSumSequence, sequences.build_minimal_sum)}
                   for name, groups in INVALID_GROUPS.items()},
        "window_labels": {repr(label): outcome(gabor.ZNWindow, np.ones(4, complex), label) for label in WINDOW_LABELS},
    }
    (dirs["library"] / "invariants.json").write_text(json.dumps(invariants, indent=2) + "\n")
    shape_errors = {name: outcome(call) for name, call in SHAPE_ERROR_CALLS.items()}
    (dirs["library"] / "shape_errors.json").write_text(json.dumps(shape_errors, indent=2) + "\n")
    fsr_stacks = {name: outcome(schmidt.FSROperator, _S2, a, b) for name, (a, b) in FSR_STACKS.items()}
    (dirs["library"] / "fsr_stacks.json").write_text(json.dumps(fsr_stacks, indent=2) + "\n")
    tolerances = {f"{decompose.__name__}_{name}": {str(tol): rank_or_error(decompose, f, tol) for tol in TOLERANCES}
                  for decompose in (schmidt.schmidt_decompose_deflation, schmidt.reshuffle_rank)
                  for name, f in (("eye4", np.eye(4)), ("zero4", np.zeros((4, 4))), ("ones4", np.ones((4, 4))))}
    (dirs["library"] / "tolerances.json").write_text(json.dumps(tolerances, indent=2) + "\n")
    objects = {}
    for name, (build, held) in OBJECT_TWINS.items():
        x, twin = build(np.eye(2, dtype=complex)), build(np.eye(2, dtype=complex))
        objects[name] = {"x == twin": value_or_error(lambda: x == twin),
                         "hash(x) == hash(x)": value_or_error(lambda: hash(x) == hash(x)),
                         "x in {x}": value_or_error(lambda: x in {x}),
                         "write into the held array": outcome(lambda a: a.__setitem__((0,) * a.ndim, 7), held(x)),
                         "a source write shows through": value_or_error(lambda: shows_through(build, held))}
    (dirs["library"] / "objects.json").write_text(json.dumps(objects, indent=2) + "\n")

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT)
        (dirs["demos"] / f"{demo.stem}.out").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
    print(f"wrote the outputs to {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the program's outputs on fixed runs to OUT_DIR.")
    parser.add_argument("out_dir", type=pathlib.Path, metavar="OUT_DIR")
    main(parser.parse_args().out_dir)
