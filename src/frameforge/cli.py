"""Command-line front end.

Exit codes: 0 on success, 1 when a checked assertion fails (bad
reconstruction, failed suite, density violation), 2 on usage, I/O or data
errors.  ``main`` holds the only error boundary: an ``OSError``,
``ValueError``, ``MemoryError`` or ``FrameForgeError`` raised by any
command becomes one ``error:`` line on stderr and exit 2.  The
FRAMEFORGE_TOL environment variable overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import gabor, io, schmidt, sequences, verify
from .errors import BadTolerance, FrameForgeError
from .linalg import DEFAULT_RTOL

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def default_tol() -> float:
    env = os.environ.get("FRAMEFORGE_TOL")
    if not env:
        return DEFAULT_RTOL
    try:
        tol = float(env)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise BadTolerance(f"FRAMEFORGE_TOL must be a positive finite float, got {env!r}")
    return tol


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def cmd_schmidt_decompose(args) -> int:
    f = io.operator_from_dict(io.load_json(args.input))
    dims = _parse_ints(args.shape)
    if len(dims) != 4:
        raise ValueError("--shape needs h1,h2,k1,k2")
    shape = schmidt.BipartiteShape(*dims)
    tol = args.tol
    if args.method == "deflate":
        dec = schmidt.schmidt_decompose_deflation(f, shape, tol)
    else:
        _, dec = schmidt.reshuffle_rank(f, shape, tol)
    norm_f = np.linalg.norm(f)
    recon = np.linalg.norm(f - dec.materialize()) / norm_f if norm_f > 0 else 0.0
    if args.output:
        io.save_json(args.output, io.fsr_to_dict(dec))
    print(f"rank: {dec.rank_bound}")
    print(f"reconstruction_error: {recon:.3e}")
    return EXIT_OK if recon <= max(tol, 1e-8) else EXIT_FAIL


def cmd_frames_classify(args) -> int:
    seq = io.sequence_from_dict(io.load_json(args.input))
    report = sequences.classify(seq).to_dict()
    print(json.dumps(report, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_frames_verify_main(args) -> int:
    dims, lens = _parse_ints(args.dims), _parse_ints(args.lens)
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
    return EXIT_OK if all_ok else EXIT_FAIL


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
    rows = gabor.density_sweep(w)
    if args.output:
        io.write_sweep_csv(args.output, rows)
    violations = [r for r in rows if not r["density_ok"]]
    print(f"rows: {len(rows)}")
    print(f"density_violations: {len(violations)}")
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="frameforge")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("schmidt", help="Schmidt decomposition of bipartite operators")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    dec = ssub.add_parser("decompose")
    dec.add_argument("--input", required=True)
    dec.add_argument("--shape", required=True, help="h1,h2,k1,k2")
    dec.add_argument("--method", choices=["deflate", "svd"], default="deflate")
    dec.add_argument("--tol", type=float, default=default_tol())
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
    sw.add_argument("--window", default="gaussian", help="gaussian|twoexp|sech|rational|file:PATH")
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
        return args.fn(args)
    except (OSError, ValueError, MemoryError, FrameForgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
