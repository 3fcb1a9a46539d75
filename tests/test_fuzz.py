"""Seeded fuzzing of the command line: data files at the ends of the float
range, and the draw arguments of ``frames verify-main`` and ``verify all`` at
their edges.

Every case runs ``cli.main`` in this process with warnings as errors.  Each
must return 0, 1 or 2 without raising, print no ``NaN`` or ``Infinity``, end
an exit 2 with one ``error:`` line on stderr, and finish within
CASE_SECONDS.  The cases come from fixed seeds, so a failure names a case
that reproduces; the whole module takes about 1.5 s on 2 vCPUs.
"""

import contextlib
import io
import itertools
import json
import time
import warnings

import numpy as np
import pytest

from frameforge import cli, gabor

CASE_SECONDS = 1.0  # wall-time bound of one case
# The parts of a fuzzed entry, mixed within one file: ±1e±300, two subnormals and ±1e307, and three
# parts whose squares stay in range, so that some files have frame bounds inside the float range.
PARTS = np.array([1e300, -1e300, 1e-300, -1e-300, 1e-310, 5e-324, 1e307, -1e307, 1e150, -1e-150, 1.0])
FILES_PER_KIND = 300
WINDOW_NS = (4, 6, 8, 12)


def run_case(argv, case: str) -> int:
    """``cli.main(argv)`` held to the rules of the module docstring; ``case`` names the inputs in a failure."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except Exception as exc:  # any escape from the error boundary is the failure to report
            pytest.fail(f"{case}: {argv} raised {exc!r}")
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (case, argv, code)
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), (case, argv, out.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (case, argv, err.getvalue())
    assert elapsed < CASE_SECONDS, (case, argv, elapsed)
    return code


def parts(rng, count: int) -> list:
    """``count`` [re, im] entries whose parts are drawn from a random nonempty subset of PARTS: one scale or several."""
    pool = rng.choice(PARTS, size=rng.integers(1, len(PARTS) + 1), replace=False)
    return rng.choice(pool, size=(count, 2)).tolist()


def test_data_files_at_the_ends_of_the_float_range(tmp_path):
    rng = np.random.default_rng(20261020)
    path = tmp_path / "in.json"
    for i in range(FILES_PER_KIND):
        count, dim = (int(x) for x in rng.integers(1, [5, 4]))
        payload = {"space_dim": dim, "vectors": [{"dim": dim, "entries": parts(rng, dim)} for _ in range(count)]}
        path.write_text(text := json.dumps(payload))
        run_case(["frames", "classify", "--input", str(path)], f"sequence {i}: {text}")

        h1, h2, k1, k2 = (int(x) for x in rng.integers(1, 3, size=4))
        path.write_text(text := json.dumps({"rows": k1 * k2, "cols": h1 * h2, "entries": parts(rng, k1 * k2 * h1 * h2)}))
        for method in ("deflate", "svd"):
            run_case(["schmidt", "decompose", "--input", str(path), "--shape", f"{h1},{h2},{k1},{k2}",
                      "--method", method], f"operator {i}: {text}")

        n = int(rng.choice(WINDOW_NS))
        path.write_text(text := json.dumps({"dim": n, "N": n, "generator": None, "entries": parts(rng, n)}))
        window = f"file:{path}"
        run_case(["gabor", "sweep", "--N", str(n), "--window", window], f"window {i}: {text}")
        a, b = (int(rng.choice(gabor.divisors(n))) for _ in range(2))
        alpha, beta = (int(x) for x in rng.integers(0, n, size=2))
        run_case(["gabor", "perturb", "--N", str(n), "--a", str(a), "--b", str(b), "--alpha", str(alpha),
                  "--beta", str(beta), f"--c-phase={rng.random():.3f}", "--window", window], f"window {i}: {text}")


# Edge values of each draw argument: zero, negative, malformed, mismatched in length, and oversized.
DIMS = ["0", "-1", "", "2,,2", "2", "2,2", "1,3", "64", "4096,4096", str(10**30)]
LENS = ["0", "-2", "3", "3,3", "2", "4096", "4096,4096", str(10**30)]
RANKS = ["0", "-1", "1", "2", "3", str(10**30)]
TRIALS = ["-1", "0", "1", "2"]
SEEDS = ["-1", "0", "7", str(2**64), str(2**200)]
VERIFY_MAIN_DRAWS = 200
HUGE_TRIALS = str(10**12)  # only beside an argument that must be refused before the first trial
REFUSED_BEFORE_ANY_TRIAL = [
    ["frames", "verify-main", "--dims=2", "--lens=3", "--seed=-1"],
    ["frames", "verify-main", "--dims=0", "--lens=3"],
    ["frames", "verify-main", "--dims=2,2", "--lens=3"],
    ["frames", "verify-main", "--dims=2", "--lens=3", "--rank=0"],
    ["frames", "verify-main", "--dims=2", "--lens=3", f"--rank={10**30}"],
    ["frames", "verify-main", "--dims=4096,4096", "--lens=4096,4096"],
    ["verify", "all", "--seed=-1"],
]


def test_draw_arguments_at_their_edges():
    rng = np.random.default_rng(34)
    for i in range(VERIFY_MAIN_DRAWS):
        dims, lens, rank, trials, seed = (str(rng.choice(vals)) for vals in (DIMS, LENS, RANKS, TRIALS, SEEDS))
        run_case(["frames", "verify-main", f"--dims={dims}", f"--lens={lens}", f"--rank={rank}",
                  f"--trials={trials}", f"--seed={seed}"], f"verify-main draw {i}")
    for seed, trials in itertools.product(SEEDS, TRIALS):
        run_case(["verify", "all", f"--seed={seed}", f"--trials={trials}"], "verify all")
    for argv in REFUSED_BEFORE_ANY_TRIAL:
        assert run_case([*argv, f"--trials={HUGE_TRIALS}"], "huge trials") == 2
