"""frameforge benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload verify_suites --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each op is a ``frameforge`` command run in-process through
``frameforge.cli.main(argv)`` with its output captured and checked.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced cycles of the same inputs and reports the
per-layer metrics.  The last line of stdout is one JSON object; a fuller
record, with the per-op samples, goes to ``perfbench/out/``.  See
``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()  # setup_s counts the imports from here on

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100  # the p90 needs at least ten samples beyond it

# (name, unit) of the bounded end-to-end metrics, all measured untraced.
# op_p50_s, op_p90_s and fail_ratio are printed and recorded but not bounded:
# per-op times switch between CPU-speed regimes on a shared machine, which
# moves a run's median far more than its mean (ops_per_s), and fail_ratio
# is 0 on a correct program.
END_TO_END = (("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def load_cli():
    """Import frameforge from this checkout's ``src/``, never an installed copy."""
    package = ROOT / "src" / "frameforge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no frameforge sources at {package}")
    sys.path.insert(0, str(package.parent))
    import frameforge.cli

    if Path(frameforge.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {frameforge.cli.__file__}, not the sources at {package}")
    return frameforge.cli


def run_op(cli, op):
    """Run one op in-process; return its wall time and why it is wrong, or None."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)
    except Exception as exc:  # a traceback from the program is a failed op
        return time.perf_counter() - t0, f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    try:
        why = op.check(code, out.getvalue())
    except Exception as exc:  # missing or malformed output is a failed op
        why = f"check raised {exc!r}"
    return seconds, why


def set_up(cli, wl):
    """Write the inputs and run the checked warm-up op, SETUP_REPEATS times."""
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        op = wl.warmup()
        seconds, why = run_op(cli, op)
        times.append(time.perf_counter() - t0)
        samples.append({"op": f"warm-up {op.label}", "traced": False, "seconds": seconds, "failure": why})
    return statistics.median(times), samples


def timed_loop(cli, wl, seconds, tracer=None):
    """Whole input cycles until ``seconds`` have passed.

    With a tracer, every cycle runs once untraced and then once traced, so
    both halves see the same inputs and the traced counts per op are exact.
    """
    samples = []
    cycles = 0
    t0 = time.perf_counter()
    while cycles == 0 or time.perf_counter() - t0 < seconds:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                for op in wl.cycle():
                    if traced:
                        tracer.op += 1
                    dt, why = run_op(cli, op)
                    samples.append({"op": op.label, "traced": traced, "seconds": dt, "failure": why})
            finally:
                if traced:
                    tracer.uninstall()
        cycles += 1
    return samples, cycles


def _blas_threads():
    """OpenBLAS's own thread count, asked of the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def measure(cli, wl, seconds, tracer=None, import_s=0.0):
    """Set up, run the timed loop and compute the metrics of one workload."""
    setup_s, warmups = set_up(cli, wl)
    samples, cycles = timed_loop(cli, wl, seconds, tracer)
    checked = warmups + samples
    failures = [f"{s['op']}: {s['failure']}" for s in checked if s["failure"]]
    untraced = [s["seconds"] for s in samples if not s["traced"]]
    traced = [s["seconds"] for s in samples if s["traced"]]
    ok_ops = sum(1 for s in samples if not s["traced"] and not s["failure"])
    measured = {
        "ops_per_s": ok_ops / sum(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_s + setup_s,
    }
    units = dict(END_TO_END)
    if tracer:
        measured.update(tracer.metrics(len(traced)))
        measured["trace.untraced_op_p50_s"] = statistics.median(untraced)
        measured["trace.traced_op_p50_s"] = statistics.median(traced)
        measured["trace.overhead_ratio"] = measured["trace.traced_op_p50_s"] / measured["trace.untraced_op_p50_s"]
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {
        "cycles": cycles,
        "ops_per_cycle": len(wl.cycle()),
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "op_p50_s": statistics.median(untraced),
        "op_p90_s": statistics.quantiles(untraced, n=10)[8] if len(untraced) >= P90_MIN_SAMPLES else None,
        "fail_ratio": len(failures) / len(checked),
        "failures": failures,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
        "samples": checked,
    }


def run_workload(args):
    cli = load_cli()
    import_s = time.perf_counter() - T_START
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    tracer = spans.Tracer() if args.trace else None
    try:
        rec = measure(cli, WORKLOADS[args.workload](args.seed, workdir), args.seconds, tracer, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    n, failures, p90 = rec["untraced_ops"], rec["failures"], rec["op_p90_s"]
    print(f"frameforge benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"closed loop, 1 client: {rec['cycles']} cycle(s) of {rec['ops_per_cycle']} op(s), "
        f"{n} untraced and {rec['traced_ops']} traced op(s) timed"
    )
    for name, m in rec["metrics"].items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    print(f"  {'op_p50_s':<38} {rec['op_p50_s']:.6g} s ({n} untraced samples)")
    print(f"  {'op_p90_s':<38} " + (f"{p90:.6g} s ({n} samples)" if p90 else f"omitted ({n} samples, needs {P90_MIN_SAMPLES})"))
    print(f"  {'fail_ratio':<38} {rec['fail_ratio']:.6g} ({len(failures)} of {len(rec['samples'])} checked ops, warm-ups included)")
    for f in failures:
        print(f"FAILED {f}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "environment": env, **rec}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    result = {"correct": not failures, "attempted": len(rec["samples"]), "failed": len(failures), "metrics": rec["metrics"]}
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args):
    """Each workload in its own fresh process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit(f"error: workload {name} exited {child.returncode} without a result")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
