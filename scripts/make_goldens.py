"""Regenerate the goldens, as committed under tests/golden/.

Each perturbation instance records a window, lattice, shift pair and phase
satisfying the divisibility conditions, together with the oracle-computed
spectral extremes of the perturbed system.  Instances are kept only when the
oracle confirms the loss of the lower frame bound.  ``verify_all_seed7.json``
is the report of ``verify all --seed 7 --trials 50`` without its
``timestamp``, and ``sweep_N120_<generator>.csv`` the CSV of
``gabor sweep --N 120 --window <generator>`` for each sampled window.
Run as ``python scripts/make_goldens.py OUT_DIR``.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from frameforge import cli, gabor, io, verify  # noqa: E402
from frameforge.verify import PERTURB_INSTANCES  # noqa: E402

# The seed and trial count of the pinned report, as acceptance criterion 10 runs it.
VERIFY_SEED, VERIFY_TRIALS = 7, 50
# The N of the pinned sweep CSVs, the size the gabor_sweep benchmark runs.
SWEEP_N = 120


def main(out: pathlib.Path):
    out.mkdir(parents=True, exist_ok=True)
    generators = gabor.WINDOW_GENERATORS
    kept = 0
    for idx, (n, a, b, alpha, beta, c_phase) in enumerate(PERTURB_INSTANCES):
        w = gabor.sample_window(generators[idx % len(generators)], n)
        rep = gabor.perturb_window(w, gabor.ZNLattice(n, a, b), alpha, beta, c_phase)
        if rep["spectral_ratio"] >= 1e-8:
            print(f"skipping instance {idx}: ratio {rep['spectral_ratio']:.2e}")
            continue
        payload = {
            "window": io.window_to_dict(w),
            "N": n,
            "a": a,
            "b": b,
            "alpha": alpha,
            "beta": beta,
            "c_phase": c_phase,
            "lambda_min": rep["lambda_min"],
            "lambda_max": rep["lambda_max"],
            "spectral_ratio": rep["spectral_ratio"],
        }
        # the committed layout: indented, one trailing newline
        (out / f"perturb_{kept:02d}.json").write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        kept += 1
    print(f"wrote {kept} golden instances to {out}")
    # run_all's report is cmd_verify_all's without the timestamp
    report = verify.run_all(VERIFY_SEED, VERIFY_TRIALS)
    (out / f"verify_all_seed{VERIFY_SEED}.json").write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    print(f"wrote the verify all --seed {VERIFY_SEED} --trials {VERIFY_TRIALS} report to {out}")
    for gen in gabor.WINDOW_GENERATORS:
        csv_path = out / f"sweep_N{SWEEP_N}_{gen}.csv"
        if cli.main(["gabor", "sweep", "--N", str(SWEEP_N), "--window", gen, "--output", str(csv_path)]) != cli.EXIT_OK:
            raise SystemExit(f"gabor sweep --N {SWEEP_N} --window {gen} failed")
    print(f"wrote the gabor sweep --N {SWEEP_N} CSVs to {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the golden perturbation instances to OUT_DIR.")
    parser.add_argument("out_dir", type=pathlib.Path, metavar="OUT_DIR")
    main(parser.parse_args().out_dir)
