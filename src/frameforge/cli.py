"""Command-line front end.

Exit codes: 0 on success, 1 when a checked assertion fails (bad
reconstruction, failed suite, density violation), 2 on usage, I/O or data
errors.  ``main`` holds the only error boundary: an ``OSError``,
``ValueError``, ``MemoryError`` or ``FrameForgeError`` raised by any
command becomes one ``error:`` line on stderr and exit 2.  The only
tolerance set here is ``schmidt decompose --tol``, a float in (0, 1).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import gabor, io, linalg, schmidt, sequences, verify
from .errors import FrameForgeError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def tolerance(text: str) -> float:
    """argparse type of ``--tol``; at 0 or below every rank is full, at 1 or above every rank is 0."""
    tol = float(text)
    if not 0 < tol < 1:
        raise argparse.ArgumentTypeError(f"must be a float in (0, 1), got {text!r}")
    return tol


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated integers, got {text!r}") from None


def cmd_schmidt_decompose(args) -> int:
    dims = _parse_ints(args.shape, "--shape")
    if len(dims) != 4:
        raise ValueError("--shape needs h1,h2,k1,k2")
    f = io.operator_from_dict(io.load_json(args.input))
    shape = schmidt.BipartiteShape(*dims)
    decompose = schmidt.schmidt_decompose_deflation if args.method == "deflate" else schmidt.reshuffle_rank
    dec = decompose(f, shape, args.tol)
    e = linalg.max_exponent(f)  # one exact power of two, applied before the sum, keeps both norms finite and nonzero
    f_s = linalg.times_power_of_two(f, -e)
    rec_s = schmidt.FSROperator(shape, linalg.times_power_of_two(dec.a, -e), dec.b).materialize()
    recon = np.linalg.norm(f_s - rec_s) / np.linalg.norm(f_s) if f_s.any() else 0.0
    if args.output:
        io.save_json(args.output, io.fsr_to_dict(dec))
    print(f"rank: {dec.rank_bound}")
    print(f"reconstruction_error: {recon:.3e}")
    return EXIT_OK if recon <= max(args.tol, 1e-8) else EXIT_FAIL


def cmd_frames_classify(args) -> int:
    seq = io.sequence_from_dict(io.load_json(args.input))
    report = sequences.classify(seq).to_dict()
    print(json.dumps(report, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_frames_verify_main(args) -> int:
    dims, lens = _parse_ints(args.dims, "--dims"), _parse_ints(args.lens, "--lens")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    rng = verify.suite_rng(args.seed, 1000)
    all_ok = True
    reports = []
    for _ in range(args.trials):
        _, report = verify.random_frame_minimal_sum(rng, dims, lens, args.rank)
        reports.append(report)
        all_ok = all_ok and report.get("all_groups_frames", True)
    out = {"trials": args.trials, "all_groups_frames": all_ok, "reports": reports}
    print(json.dumps(out, indent=2, allow_nan=False))
    rank_one_ok = args.rank > 1 or all(rep["rank_one_check"]["bounds_multiply"] for rep in reports)
    return EXIT_OK if all_ok and rank_one_ok else EXIT_FAIL


def _load_window(spec: str, n: int) -> gabor.ZNWindow:
    if spec.startswith("file:"):
        w = io.window_from_dict(io.load_json(spec[5:]))
        if w.N != n:
            raise ValueError(f"window file has N={w.N}, expected {n}")
        return w
    return gabor.sample_window(spec, n)


def cmd_gabor_sweep(args) -> int:
    if args.N > gabor.MAX_SWEEP_N or args.N < 1:
        raise ValueError(f"N={args.N} out of the supported range 1..{gabor.MAX_SWEEP_N}")
    w = _load_window(args.window, args.N)
    table = gabor.density_sweep(w)
    if args.output:
        io.write_sweep_csv(args.output, table)
    violations = table["density_ok"].count(False)
    print(f"rows: {len(table['density_ok'])}")
    print(f"density_violations: {violations}")
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_gabor_perturb(args) -> int:
    lat = gabor.ZNLattice(args.N, args.a, args.b)
    w = _load_window(args.window, args.N)
    report = gabor.perturb_window(w, lat, args.alpha, args.beta, args.c_phase)
    print(json.dumps(report, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_verify_all(args) -> int:
    report = verify.run_all(args.seed, args.trials)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.report:
        io.save_json(args.report, report)
    for name, res in report["suites"].items():
        print(f"{'PASS' if res['passed'] else 'FAIL'}  {name}")
    return EXIT_OK if report["all_passed"] else EXIT_FAIL


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="frameforge")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("schmidt", help="Schmidt decomposition of bipartite operators")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    dec = ssub.add_parser("decompose")
    dec.add_argument("--input", required=True)
    dec.add_argument("--shape", required=True, help="h1,h2,k1,k2")
    dec.add_argument("--method", choices=["deflate", "svd"], default="deflate")
    dec.add_argument("--tol", type=tolerance, default=linalg.DEFAULT_RTOL, help="float in (0, 1)")
    dec.add_argument("--output")
    dec.set_defaults(fn=cmd_schmidt_decompose)

    pf = sub.add_parser("frames", help="sequence classification and theorems")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    cls = fsub.add_parser("classify")
    cls.add_argument("--input", required=True)
    cls.set_defaults(fn=cmd_frames_classify)
    vm = fsub.add_parser("verify-main")
    vm.add_argument("--dims", required=True, help="m1,m2,...")
    vm.add_argument("--lens", required=True, help="N1,N2,...")
    vm.add_argument("--rank", type=int, default=2)
    vm.add_argument("--seed", type=int, default=0)
    vm.add_argument("--trials", type=int, default=10)
    vm.set_defaults(fn=cmd_frames_verify_main)

    pg = sub.add_parser("gabor", help="discrete Gabor experiments")
    gsub = pg.add_subparsers(dest="subcommand", required=True)
    sw = gsub.add_parser("sweep")
    sw.add_argument("--N", type=int, required=True)
    sw.add_argument("--window", default="gaussian", help="|".join((*gabor.WINDOW_GENERATORS, "file:PATH")))
    sw.add_argument("--output")
    sw.set_defaults(fn=cmd_gabor_sweep)
    pt = gsub.add_parser("perturb")
    pt.add_argument("--N", type=int, required=True)
    pt.add_argument("--a", type=int, required=True)
    pt.add_argument("--b", type=int, required=True)
    pt.add_argument("--alpha", type=int, required=True)
    pt.add_argument("--beta", type=int, required=True)
    pt.add_argument("--c-phase", type=float, default=0.0, dest="c_phase")
    pt.add_argument("--window", default="gaussian")
    # --c-phase -1e17 and -inf are values: argparse's own negative-number pattern knows only -1 and -0.5
    pt._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    pt.set_defaults(fn=cmd_gabor_perturb)

    pv = sub.add_parser("verify", help="run the randomized verification suites")
    vsub = pv.add_subparsers(dest="subcommand", required=True)
    va = vsub.add_parser("all")
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--trials", type=int, default=50)
    va.add_argument("--report")
    va.set_defaults(fn=cmd_verify_all)
    return p


def main(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        collecting = gc.isenabled()
        gc.disable()  # a command builds no reference cycles, so passes over its many new containers free nothing
        try:
            return args.fn(args)
        finally:
            if collecting:
                gc.enable()
    except (OSError, ValueError, MemoryError, FrameForgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
