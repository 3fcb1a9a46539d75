"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its measured runtime.  Criteria 1-8 run the seeded suites of
``frameforge.verify`` at their own seeds and trial counts."""

import pathlib
import time

import pytest

from frameforge import cli, gabor, io, verify
from frameforge.verify import suite_rng

GOLDEN = pathlib.Path(__file__).parent / "golden"


class Criterion:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit_s = limit_s
        self.t0 = time.monotonic()

    def finish(self, passed):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if passed and elapsed < self.limit_s else "FAIL"
        print(f"[acceptance {self.number}] {status}  {self.label}  ({elapsed:.2f}s / limit {self.limit_s}s)")
        assert passed, f"criterion {self.number} failed: {self.label}"
        assert elapsed < self.limit_s, f"criterion {self.number} exceeded {self.limit_s}s"


def test_criterion_1_deflation_rank_law():
    c = Criterion(1, "deflation rank law on 100 random FSR operators", 10.0)
    c.finish(verify.suite_deflation_rank_law(suite_rng(1001, 0), 100)["passed"])


def test_criterion_2_prop_identities():
    c = Criterion(2, "contraction norm identities, P/D inequalities, rank-one fixed point", 5.0)
    rng = suite_rng(1002, 0)
    c.finish(
        verify.suite_prop22_identities(rng, 100)["passed"]
        and verify.suite_rank_one_fixed_point(rng, 100)["passed"]
    )


def test_criterion_3_inverse_factors():
    c = Criterion(3, "inverse factor identities on 50 invertible rank-2 operators", 5.0)
    c.finish(verify.suite_inverse_factors(suite_rng(1003, 0), 50)["passed"])


def test_criterion_4_span_uniqueness():
    c = Criterion(4, "span uniqueness of deflation vs reshuffle decompositions", 5.0)
    c.finish(verify.suite_span_uniqueness(suite_rng(1004, 0), 50)["passed"])


def test_criterion_5_tensor_and_minimal_sum():
    c = Criterion(5, "tensor bounds multiply; frame minimal sums concatenate to frames", 20.0)
    rng = suite_rng(1005, 0)
    c.finish(
        verify.suite_tensor_bounds_multiply(rng, 50)["passed"]
        and verify.suite_minimal_sum_frames(rng, 100)["passed"]
    )


def test_criterion_6_two_term_disjunction():
    c = Criterion(6, "two-term disjunction on 50 constructed frame instances", 10.0)
    c.finish(verify.suite_two_term_disjunction(suite_rng(1006, 0), 50)["passed"])


# The last two suites run fixed case lists and ignore their trial count.


def test_criterion_7_discrete_density():
    c = Criterion(7, "discrete Gabor density law and full-lattice tightness", 30.0)
    c.finish(verify.suite_gabor_density(suite_rng(1007, 0), 1)["passed"])


def test_criterion_8_oversampling():
    c = Criterion(8, "oversampling bound scaling on 372 refinement cases", 10.0)
    result = verify.suite_oversampling(suite_rng(1008, 0), 1)
    c.finish(result["passed"] and result["trials"] == 372)


def test_criterion_9_perturbation_goldens():
    c = Criterion(9, "golden perturbation instances lose the lower frame bound", 5.0)
    files = sorted(GOLDEN.glob("perturb_*.json"))
    assert len(files) >= 10, "golden instance set missing"
    ok = True
    for path in files:
        data = io.load_json(path)
        w = io.window_from_dict(data["window"])
        lat = gabor.ZNLattice(data["N"], data["a"], data["b"])
        rep = gabor.perturb_window(w, lat, data["alpha"], data["beta"], data["c_phase"])
        ok = ok and rep["spectral_ratio"] < 1e-8
        ok = ok and rep["lambda_max"] == pytest.approx(data["lambda_max"], rel=1e-9)
        ok = ok and abs(rep["lambda_min"] - data["lambda_min"]) <= 1e-9 * data["lambda_max"]
    c.finish(ok)


def test_criterion_10_determinism(tmp_path):
    c = Criterion(10, "verify all --seed 7 --trials 50 is deterministic and passes", 120.0)
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code = cli.main(["verify", "all", "--seed", "7", "--trials", "50", "--report", str(path)])
        assert code == 0
        rep = io.load_json(path)
        rep.pop("timestamp")
        reports.append(rep)
    c.finish(reports[0] == reports[1] and reports[0]["all_passed"])
