"""The benchmark's workloads: seeded inputs, the ops of one input cycle, and
the check applied to every op's result.

An op is one ``frameforge`` command, run in-process through
``frameforge.cli.main(argv)``.  A workload's ops form a fixed cycle and the
benchmark always runs whole cycles, so every run weighs each input equally.
Inputs come only from the workload seed; the program sees nothing else.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Op:
    label: str
    argv: list[str]
    # (exit code, captured stdout) -> why the result is wrong, or None
    check: Callable[[int, str], "str | None"]


def _cnormal(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _entries(z) -> list:
    """The package's JSON layout of a complex array: [[re, im], ...] in C order."""
    z = np.asarray(z).ravel()
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


class VerifySuites:
    """``verify all`` over a list of per-op seeds drawn from the workload seed.

    Each seed runs once per cycle; from the second cycle on, its report is
    compared with the first one, so determinism is checked on every seed.
    """

    name = "verify_suites"

    def __init__(self, seed: int, workdir: Path, trials: int = 50, n_seeds: int = 6):
        rng = np.random.default_rng(seed)
        self.op_seeds = [int(s) for s in rng.choice(1_000_000, size=n_seeds, replace=False)]
        self.trials = trials
        self.report = workdir / "report.json"
        self.first_report: dict[tuple[int, int], str] = {}

    def prepare(self) -> None:
        """The inputs are the seeds themselves; there is nothing to write."""

    def warmup(self) -> Op:
        return self._op(self.op_seeds[0], 1)

    def cycle(self) -> list[Op]:
        return [self._op(s, self.trials) for s in self.op_seeds]

    def _op(self, seed: int, trials: int) -> Op:
        argv = ["verify", "all", "--seed", str(seed), "--trials", str(trials), "--report", str(self.report)]

        def check(code: int, out: str):
            if code != 0:
                return f"exit code {code}"
            report = json.loads(self.report.read_text())
            if report.get("all_passed") is not True:
                return "all_passed is not true"
            report.pop("timestamp", None)
            text = json.dumps(report, sort_keys=True)
            if self.first_report.setdefault((seed, trials), text) != text:
                return "report differs from the first report of this seed"
            return None

        return Op(f"seed={seed}", argv, check)


class GaborSweep:
    """``gabor sweep`` at one N over the four sampled windows and a seeded
    random complex window read from a file; the seed rotates their order."""

    name = "gabor_sweep"
    generators = ("gaussian", "twoexp", "sech", "rational")

    def __init__(self, seed: int, workdir: Path, n: int = 120):
        self.seed = seed
        self.n = n
        self.window_file = workdir / "window.json"
        self.csv = workdir / "sweep.csv"
        self.norm2: dict[str, float] = {}

    def prepare(self) -> None:
        g = _cnormal(np.random.default_rng(self.seed), self.n)
        payload = {"dim": self.n, "entries": _entries(g), "N": self.n, "generator": "random"}
        self.window_file.write_text(json.dumps(payload))
        # sampled windows are normalised to unit norm; the file window is not
        self.norm2 = {w: 1.0 for w in self.generators}
        self.norm2[f"file:{self.window_file}"] = float(np.vdot(g, g).real)

    def warmup(self) -> Op:
        return self._op("gaussian", 12)

    def cycle(self) -> list[Op]:
        specs = list(self.norm2)  # the four generators, then the file window
        k = self.seed % len(specs)
        return [self._op(spec, self.n) for spec in specs[k:] + specs[:k]]

    def _op(self, spec: str, n: int) -> Op:
        argv = ["gabor", "sweep", "--N", str(n), "--window", spec, "--output", str(self.csv)]
        tight = n * self.norm2[spec]

        def check(code: int, out: str):
            if code != 0:
                return f"exit code {code}"
            with open(self.csv, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != _divisor_count(n) ** 2:
                return f"{len(rows)} CSV rows, expected d(N)^2 = {_divisor_count(n) ** 2}"
            full = [r for r in rows if r["a"] == "1" and r["b"] == "1"]
            if len(full) != 1:
                return "no single a=b=1 row"
            a, b = float(full[0]["A"]), float(full[0]["B"])
            if abs(a - tight) > 1e-9 * tight or abs(b - tight) > 1e-9 * tight:
                return f"a=b=1 row has A={a!r}, B={b!r}; expected N*|g|^2 = {tight!r}"
            return None

        label = "file" if spec.startswith("file:") else spec
        return Op(f"window={label} N={n}", argv, check)


class SchmidtCli:
    """``schmidt decompose`` of operators with planted Schmidt rank, read from
    JSON, with the method alternating between ``deflate`` and ``svd``."""

    name = "schmidt_cli"
    methods = ("deflate", "svd")

    def __init__(self, seed: int, workdir: Path, ranks=(8, 32, 128), dims=(16, 16, 16, 16)):
        self.seed = seed
        self.ranks = tuple(ranks)
        self.dims = tuple(dims)
        self.workdir = workdir
        self.output = workdir / "decomposition.json"

    def _input(self, r: int) -> Path:
        return self.workdir / f"op_{r}.json"

    def prepare(self) -> None:
        """F = sum_k A_k (x) B_k with r random complex factor pairs: Schmidt rank r."""
        h1, h2, k1, k2 = self.dims
        rng = np.random.default_rng(self.seed)
        for r in self.ranks:
            a = _cnormal(rng, r, k1, h1)
            b = _cnormal(rng, r, k2, h2)
            f = np.einsum("kac,kbd->abcd", a, b).reshape(k1 * k2, h1 * h2)
            payload = {"rows": k1 * k2, "cols": h1 * h2, "entries": _entries(f)}
            self._input(r).write_text(json.dumps(payload))

    def warmup(self) -> Op:
        return self._op(self.ranks[0], "deflate")

    def cycle(self) -> list[Op]:
        n = len(self.ranks) * len(self.methods)
        return [self._op(self.ranks[i % len(self.ranks)], self.methods[i % len(self.methods)]) for i in range(n)]

    def _op(self, r: int, method: str) -> Op:
        argv = [
            "schmidt", "decompose", "--input", str(self._input(r)),
            "--shape", ",".join(map(str, self.dims)), "--method", method,
            "--output", str(self.output),
        ]

        def check(code: int, out: str):
            if code != 0:
                return f"exit code {code}"
            fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
            if int(fields["rank"]) != r:
                return f"rank {fields['rank']}, planted {r}"
            if not float(fields["reconstruction_error"]) <= 1e-8:
                return f"reconstruction_error {fields['reconstruction_error']} > 1e-8"
            return None

        return Op(f"r={r} method={method}", argv, check)


WORKLOADS = {w.name: w for w in (VerifySuites, GaborSweep, SchmidtCli)}
