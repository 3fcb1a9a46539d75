"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench

They check that the traced counts are exact, that the tracer wraps and then
restores every binding, that the per-layer arithmetic is right, and that a
wrong answer from the program is counted as a failed op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import GaborSweep, SchmidtCli, VerifySuites

cli = run.load_cli()
from frameforge import gabor, linalg, schmidt, sequences, verify  # noqa: E402

HERE = Path(__file__).resolve().parent


def traced_cycle(wl):
    """One untraced and one traced cycle of ``wl``; the tracer and the samples."""
    wl.prepare()
    tracer = spans.Tracer()
    samples, cycles = run.timed_loop(cli, wl, 0, tracer)
    assert cycles == 1
    assert [s["failure"] for s in samples] == [None] * len(samples)
    return tracer, samples


def test_gabor_sweep_counts_are_exact(tmp_path):
    wl = GaborSweep(seed=0, workdir=tmp_path, n=12)
    tracer, _ = traced_cycle(wl)
    m = tracer.metrics(n_ops=len(wl.cycle()))
    # d(12) = 6 divisors give 36 lattices; sigma(12) = 28 gives 28^2 atoms
    assert m["sequences.classify_calls"] == 36
    assert m["gabor.atoms"] == 28**2
    assert m["gabor.system_mb"] == pytest.approx(28**2 * 12 * 16 / 1e6)
    assert m["sequences.frame_op_gflop"] == pytest.approx(8 * 28**2 * 12**2 / 1e9)
    assert m["sequences.eig_work"] == 36 * 12**3
    assert m["sequences.materialize_rows"] == m["schmidt.deflation_steps"] == 0
    assert m["gabor.system_s"] > 0 and m["schmidt.deflation_s"] == 0


@pytest.mark.parametrize("rank", [1, 4, 9])
def test_deflation_steps_equal_the_planted_rank(tmp_path, rank):
    wl = SchmidtCli(seed=rank, workdir=tmp_path, ranks=(rank,), dims=(4, 4, 4, 4))
    tracer, _ = traced_cycle(wl)
    # the cycle is one deflate op and one svd op on the same operator
    assert tracer.counts["schmidt.deflation_steps"] == rank
    assert tracer.counts["io.bytes_read"] == 2 * (tmp_path / f"op_{rank}.json").stat().st_size


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    counts = []
    for i in range(2):
        wl = VerifySuites(seed=5, workdir=tmp_path, trials=2, n_seeds=2)
        tracer, _ = traced_cycle(wl)
        counts.append({k: v for k, v in tracer.counts.items() if k != "io.bytes_written"})
    assert counts[0] == counts[1]
    assert counts[0]["sequences.materialize_rows"] > 0 and counts[0]["linalg.svd_calls"] > 0


def test_tracer_wraps_and_restores_every_binding():
    modules = [m for n, m in sys.modules.items() if n == "frameforge" or n.startswith("frameforge.")]
    before = {(m, k): v for m in modules for k, v in vars(m).items()}
    suites = list(verify.SUITES)
    materialize = schmidt.FSROperator.materialize
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gabor.classify is verify.classify is sequences.classify
        assert sequences.classify is not before[(sequences, "classify")]
        assert linalg.matrix_rank is not before[(linalg, "matrix_rank")]
        assert all(new[1] is not old[1] for new, old in zip(verify.SUITES, suites))
        assert schmidt.FSROperator.materialize is not materialize
        assert gabor.gabor_atom is before[(gabor, "gabor_atom")]  # untraced helper
    finally:
        tracer.uninstall()
    assert all(vars(m)[k] is v for (m, k), v in before.items())
    assert verify.SUITES == suites
    assert schmidt.FSROperator.materialize is materialize


def test_self_time_and_nested_spans():
    tracer = spans.Tracer()
    # (op, name, parent, t0, t1, returned), times in ns
    tracer.spans = [
        (0, "cli.main", -1, 0, 1000, True),
        (0, "sequences.classify", 0, 100, 600, True),
        (0, "sequences.frame_operator", 1, 200, 500, True),
        (0, "io.fsr_to_dict", 0, 700, 900, True),
        (0, "io.operator_to_dict", 3, 750, 800, True),
    ]
    m = tracer.metrics(n_ops=1)
    assert m["sequences.classify_s"] == pytest.approx(200e-9)  # self time only
    assert m["sequences.frame_op_s"] == pytest.approx(300e-9)
    assert m["io.encode_s"] == pytest.approx(200e-9)  # nested encode counted once
    assert m["cli.self_s"] == pytest.approx(300e-9)


def test_draw_accept_ratio_counts_retries():
    tracer = spans.Tracer()
    tracer.spans = [
        (0, "verify.random_frame_minimal_sum", -1, 0, 10, True),
        (0, "sequences.build_minimal_sum", 0, 1, 2, False),
        (0, "sequences.build_minimal_sum", 0, 3, 4, True),
        (0, "sequences.build_minimal_sum", 0, 5, 6, True),
        (0, "verify.branch1_minimal_sum", -1, 20, 30, True),
        (0, "verify.random_vector_sequence", 4, 21, 22, True),
        (0, "verify.random_vector_sequence", 4, 23, 24, True),
    ]
    # 2 draws returned from 3 + 1 candidates
    assert tracer.metrics(n_ops=1)["verify.draw_accept_ratio"] == pytest.approx(2 / 4)


def test_a_wrong_answer_is_a_failed_op(tmp_path, monkeypatch):
    real = sequences.classify

    def wrong_b(seq, tol=sequences.FRAME_TOL):
        rep = real(seq, tol)
        return sequences.FrameReport(rep.lower_bound, rep.bessel_bound * (1 + 1e-6), rep.is_frame, rep.is_riesz)

    for mod in (sequences, gabor, verify):
        monkeypatch.setattr(mod, "classify", wrong_b)
    rec = run.measure(cli, GaborSweep(seed=0, workdir=tmp_path, n=12), seconds=0)
    assert rec["fail_ratio"] == 1.0
    assert all("a=b=1 row" in f for f in rec["failures"])
    assert rec["metrics"]["ops_per_s"]["value"] == 0


def test_a_changed_report_is_a_failed_op(tmp_path):
    wl = VerifySuites(seed=3, workdir=tmp_path, trials=1, n_seeds=1)
    op = wl.warmup()
    assert run.run_op(cli, op)[1] is None
    key = next(iter(wl.first_report))
    wl.first_report[key] = wl.first_report[key].replace("true", "false", 1)
    assert "differs" in run.run_op(cli, op)[1]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "schmidt_cli", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
