import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from frameforge import cli, gabor, io, schmidt
from frameforge.schmidt import BipartiteShape, FSROperator
from frameforge.sequences import VectorSequence
from frameforge.verify import random_fsr_operator, suite_rng


SRC = Path(__file__).resolve().parents[1] / "src"


def crandom(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def run_cli(args, timeout=30):
    """Run the CLI in a child process, so a hang fails the test instead of stalling it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "frameforge.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
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
        fsr = random_fsr_operator(suite_rng(3, 0), BipartiteShape(2, 3, 2, 3), 2)
        back = io.fsr_from_dict(io.fsr_to_dict(fsr))
        np.testing.assert_allclose(back.materialize(), fsr.materialize(), atol=1e-15)

    def test_window(self):
        w = gabor.sample_window("sech", 8)
        back = io.window_from_dict(io.window_to_dict(w))
        np.testing.assert_allclose(back.g, w.g, atol=1e-15)
        assert back.generator == "sech"

    def test_sweep_csv(self, tmp_path):
        rows = gabor.density_sweep(gabor.sample_window("gaussian", 6))
        path = tmp_path / "sweep.csv"
        io.write_sweep_csv(path, rows)
        back = io.read_sweep_csv(path)
        assert len(back) == len(rows)
        for r1, r2 in zip(rows, back):
            assert (r1["N"], r1["a"], r1["b"], r1["count"]) == (r2["N"], r2["a"], r2["b"], r2["count"])
            assert r1["A"] == pytest.approx(r2["A"])
            assert r1["is_frame"] == r2["is_frame"]


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
        dec = io.fsr_from_dict(io.load_json(out))
        assert dec.rank_bound == 1

    def test_deflate_and_svd_agree(self, tmp_path, capsys):
        f = random_fsr_operator(suite_rng(5, 0), BipartiteShape(2, 3, 2, 3), 3).materialize()
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
        io.save_json(path, payload)
        proc = run_cli(["schmidt", "decompose", "--input", str(path),
                        "--shape", "2,2,2,2", "--method", method])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_verify_main_bad_args(self):
        assert cli.main(
            ["frames", "verify-main", "--dims", "2,2", "--lens", "3", "--trials", "2"]
        ) == 2

    def test_classify_non_finite_sequence(self, tmp_path, capsys):
        payload = io.sequence_to_dict(VectorSequence(np.eye(3, dtype=complex)))
        payload["vectors"][1]["entries"][0] = [float("nan"), 0.0]
        path = tmp_path / "seq.json"
        io.save_json(path, payload)
        assert cli.main(["frames", "classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "non-finite" in captured.err

    def test_verify_main_impossible_draw(self, capsys):
        # Two vectors can never span C^3, so no draw is a frame.
        assert cli.main(
            ["frames", "verify-main", "--dims", "3", "--lens", "2", "--trials", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestGaborCommands:
    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["gabor", "sweep", "--N", "12", "--window", "gaussian",
                         "--output", str(out)])
        assert code == 0
        rows = io.read_sweep_csv(out)
        assert len(rows) == 36

    def test_sweep_delta_window_file(self, tmp_path, capsys):
        g = np.zeros(4, dtype=complex)
        g[0] = 1.0
        wpath = tmp_path / "w.json"
        io.save_json(wpath, io.window_to_dict(gabor.ZNWindow(g)))
        out = tmp_path / "sweep.csv"
        code = cli.main(["gabor", "sweep", "--N", "4", "--window", f"file:{wpath}",
                         "--output", str(out)])
        assert code == 0
        rows = io.read_sweep_csv(out)
        row = next(r for r in rows if (r["a"], r["b"]) == (1, 4))
        assert row["is_riesz"]

    def test_sweep_n240_stays_fast(self, tmp_path, capsys):
        # the dense route builds every atom and takes tens of seconds here
        out = tmp_path / "sweep.csv"
        t0 = time.perf_counter()
        code = cli.main(["gabor", "sweep", "--N", "240", "--window", "gaussian",
                         "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert len(io.read_sweep_csv(out)) == 20**2  # 240 has 20 divisors
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
        io.save_json(wpath, payload)
        assert cli.main(["gabor", *command, "--window", f"file:{wpath}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err

    def test_sweep_oversize(self):
        assert cli.main(["gabor", "sweep", "--N", "300"]) == 2

    def test_perturb(self, capsys):
        code = cli.main(["gabor", "perturb", "--N", "8", "--a", "2", "--b", "2",
                         "--alpha", "4", "--beta", "4", "--c-phase", "0.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_ratio"] < 1e-8

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

    @pytest.mark.parametrize("value", ["abc", "-1e-9", "0", "inf", "nan"])
    def test_bad_tolerance_env(self, monkeypatch, capsys, value):
        monkeypatch.setenv("FRAMEFORGE_TOL", value)
        assert cli.main(["verify", "all", "--trials", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: FRAMEFORGE_TOL ")

    def test_tolerance_env_override(self, monkeypatch):
        monkeypatch.setenv("FRAMEFORGE_TOL", "1e-7")
        args = cli.build_parser().parse_args(["schmidt", "decompose", "--input", "F.json",
                                              "--shape", "2,2,2,2"])
        assert args.tol == 1e-7

    def test_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            assert cli.main(["verify", "all", "--seed", "11", "--trials", "5",
                             "--report", str(p)]) == 0
        r1, r2 = (io.load_json(p) for p in paths)
        r1.pop("timestamp"), r2.pop("timestamp")
        assert r1 == r2
