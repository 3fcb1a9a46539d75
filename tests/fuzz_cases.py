"""The seeded fuzz cases of ``test_fuzz.py`` and the rules each one must meet.

``python tests/fuzz_cases.py KIND FILE`` runs every case of one kind in this
process, with ``src`` on ``PYTHONPATH``: ``sequence``, ``operator`` and
``window`` are data files, written to FILE, whose parts mix the ends of the
float range; ``arguments`` are the draw arguments of ``frames verify-main``
and ``verify all`` at their edges.  It prints each case on its own line before
starting it, so whoever runs it can name the case that hung or crashed.

Every case runs ``cli.main`` with warnings as errors.  Each must return 0, 1
or 2 without raising, print no ``NaN`` or ``Infinity``, end an exit 2 with one
``error:`` line on stderr, and finish within CASE_SECONDS.  The cases come
from fixed seeds, so a failure names a case that reproduces.
"""

import contextlib
import io
import itertools
import json
import pathlib
import sys
import time
import warnings

import numpy as np

from frameforge import cli, gabor

CASE_SECONDS = 1.0  # wall-time bound of one case
# The parts of a fuzzed entry, mixed within one file: ±1e±300, two subnormals and ±1e307, and three
# parts whose squares stay in range, so that some files have frame bounds inside the float range.
PARTS = np.array([1e300, -1e300, 1e-300, -1e-300, 1e-310, 5e-324, 1e307, -1e307, 1e150, -1e-150, 1.0])
FILES_PER_KIND = 300
WINDOW_NS = (4, 6, 8, 12)

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


def run_case(argv, case: str) -> int:
    """``cli.main(argv)`` held to the rules of the module docstring; ``case`` names the inputs in a failure."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except Exception as exc:  # any escape from the error boundary is the failure to report
            raise AssertionError(f"{case}: {argv} raised {exc!r}") from exc
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


def data_file_cases(path):
    """``(kind, case, argv, text, exit)`` of each data-file case in seeded order; ``text`` must be in ``path``
    when ``argv`` runs, and ``exit`` is None: any of 0, 1 and 2 will do."""
    rng = np.random.default_rng(20261020)
    for i in range(FILES_PER_KIND):
        count, dim = (int(x) for x in rng.integers(1, [5, 4]))
        payload = {"space_dim": dim, "vectors": [{"dim": dim, "entries": parts(rng, dim)} for _ in range(count)]}
        text = json.dumps(payload)
        yield "sequence", f"sequence {i}: {text}", ["frames", "classify", "--input", str(path)], text, None

        h1, h2, k1, k2 = (int(x) for x in rng.integers(1, 3, size=4))
        text = json.dumps({"rows": k1 * k2, "cols": h1 * h2, "entries": parts(rng, k1 * k2 * h1 * h2)})
        for method in ("deflate", "svd"):
            argv = ["schmidt", "decompose", "--input", str(path), "--shape", f"{h1},{h2},{k1},{k2}", "--method", method]
            yield "operator", f"operator {i}: {text}", argv, text, None

        n = int(rng.choice(WINDOW_NS))
        text = json.dumps({"dim": n, "N": n, "generator": None, "entries": parts(rng, n)})
        window = f"file:{path}"
        yield "window", f"window {i}: {text}", ["gabor", "sweep", "--N", str(n), "--window", window], text, None
        a, b = (int(rng.choice(gabor.divisors(n))) for _ in range(2))
        alpha, beta = (int(x) for x in rng.integers(0, n, size=2))
        argv = ["gabor", "perturb", "--N", str(n), "--a", str(a), "--b", str(b), "--alpha", str(alpha),
                "--beta", str(beta), f"--c-phase={rng.random():.3f}", "--window", window]
        yield "window", f"window {i}: {text}", argv, text, None


def argument_cases():
    """``(kind, case, argv, text, exit)`` of each draw-argument case in seeded order: no data file, and an
    ``exit`` of 2 where the arguments must be refused, else None."""
    rng = np.random.default_rng(34)
    for i in range(VERIFY_MAIN_DRAWS):
        dims, lens, rank, trials, seed = (str(rng.choice(vals)) for vals in (DIMS, LENS, RANKS, TRIALS, SEEDS))
        argv = ["frames", "verify-main", f"--dims={dims}", f"--lens={lens}", f"--rank={rank}", f"--trials={trials}",
                f"--seed={seed}"]
        yield "arguments", f"verify-main draw {i}", argv, None, None
    for seed, trials in itertools.product(SEEDS, TRIALS):
        yield "arguments", "verify all", ["verify", "all", f"--seed={seed}", f"--trials={trials}"], None, None
    for argv in REFUSED_BEFORE_ANY_TRIAL:
        yield "arguments", "huge trials", [*argv, f"--trials={HUGE_TRIALS}"], None, 2


def main(kind: str, path: pathlib.Path) -> None:
    ran = 0
    for case_kind, case, argv, text, want in itertools.chain(data_file_cases(path), argument_cases()):
        if case_kind != kind:
            continue
        print(f"{case}: {argv}", flush=True)
        if text is not None:
            path.write_text(text)
        code = run_case(argv, case)
        assert want is None or code == want, (case, argv, code)
        ran += 1
    assert ran, f"no fuzz case has kind {kind!r}"


if __name__ == "__main__":
    main(sys.argv[1], pathlib.Path(sys.argv[2]))
