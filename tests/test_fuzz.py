"""Seeded fuzzing of the command line: data files at the ends of the float
range, and the draw arguments of ``frames verify-main`` and ``verify all`` at
their edges.

The cases and their rules live in ``fuzz_cases.py``.  Each test runs them in
child processes, one per case kind and all at once, so a case that hangs or
crashes the interpreter fails its test, naming the last case the child
started, instead of taking down the test run.  Each child holds its cases to
the same rules: return 0, 1 or 2 without raising, print no ``NaN`` or
``Infinity``, end an exit 2 with one ``error:`` line on stderr, and finish
within ``fuzz_cases.CASE_SECONDS``.  The module takes about 2.5 s on 2 vCPUs.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

FUZZ_CASES = Path(__file__).with_name("fuzz_cases.py")
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_SECONDS = 30.0  # wall-time bound of one test's children together; they take about 2 s


def run_children(children: dict, tmp_path, seconds: float = CHILD_SECONDS) -> None:
    """Start each child ``name: argv`` at once, its output in files under ``tmp_path``, and fail, naming the
    last line the child printed, when one runs past ``seconds``, is killed by a signal or exits non-zero."""
    procs = {}
    for name, argv in children.items():
        with open(tmp_path / f"{name}.out", "w") as out, open(tmp_path / f"{name}.err", "w") as err:
            procs[name] = subprocess.Popen(argv, stdout=out, stderr=err, env={**os.environ, "PYTHONPATH": str(SRC)})
    deadline = time.monotonic() + seconds
    failures = []
    for name, proc in procs.items():
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        if code != 0:
            lines = (tmp_path / f"{name}.out").read_text().splitlines()
            what = f"ran past {seconds} s" if code is None else (
                f"was killed by signal {-code}" if code < 0 else f"exited {code}")
            last = f"after starting {lines[-1]}" if lines else "before its first case"
            failures.append(f"{name} {what} {last}\n{(tmp_path / f'{name}.err').read_text()}")
    if failures:
        pytest.fail("\n".join(failures))


def run_kinds(kinds, tmp_path) -> None:
    """The cases of each kind in ``fuzz_cases.py``, one child per kind, each with its own data file."""
    run_children({kind: [sys.executable, str(FUZZ_CASES), kind, str(tmp_path / f"{kind}.json")] for kind in kinds},
                 tmp_path)


def test_data_files_at_the_ends_of_the_float_range(tmp_path):
    run_kinds(("sequence", "operator", "window"), tmp_path)


def test_draw_arguments_at_their_edges(tmp_path):
    run_kinds(("arguments",), tmp_path)


@pytest.mark.parametrize("ending, what", [
    ("time.sleep(60)", "ran past 0.5 s"),
    ("os.kill(os.getpid(), signal.SIGKILL)", f"was killed by signal {int(signal.SIGKILL)}"),
    ("sys.exit(3)", "exited 3"),
], ids=["hang", "signal", "exit"])
def test_a_failed_child_names_its_last_case(tmp_path, ending, what):
    code = f"import os, signal, sys, time\nprint('draw 1', flush=True)\nprint('draw 2', flush=True)\n{ending}\n"
    with pytest.raises(pytest.fail.Exception, match=f"^child {what} after starting draw 2\n"):
        run_children({"child": [sys.executable, "-c", code]}, tmp_path, seconds=0.5)
