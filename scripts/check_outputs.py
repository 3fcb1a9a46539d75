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
real-valued operator (every imaginary part 0) and of one with integer entries, both of planted rank 8;
``frames verify-main`` at four shapes, one of them a single factor;
``gabor perturb`` on the 12 instances of ``verify.PERTURB_INSTANCES``;
``frames classify`` of a seeded sequence; and the four demos.  The ``errors``
group runs commands on deliberate bad inputs whose messages name no file path:
``verify all`` and ``frames verify-main`` at seed -1, ``gabor sweep`` of a
window file whose ``generator`` is an object, and, as a control, ``frames
classify`` of a sequence file with a boolean entry.  Three library
checks with no command of their own are called directly and their reports
written as JSON: ``sequences.two_term_disjunction_check`` on seeded
``verify.branch1_minimal_sum`` and ``verify.branch3_minimal_sum`` draws,
``gabor.verify_rank_r_frame_implication`` on the fixed lattice-aligned d = 2
specs of ``RANK_R_SPECS``, and ``gabor.oversample_checks`` in full on one
seeded, shuffled list of cases at N in ``OVERSAMPLE_NS``, in one call.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from frameforge import cli, gabor, sequences, verify  # noqa: E402

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
