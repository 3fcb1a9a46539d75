"""Every line of the package fits in 120 characters.  With the width capped,
a smaller line count cannot come from joining lines."""

from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frameforge"
MODULES = sorted(PACKAGE.glob("*.py"))
WIDTH = 120


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"gabor", "linalg", "schmidt", "sequences", "verify"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_line_fits_the_width(path):
    lines = path.read_text().splitlines()
    assert [(n, len(line)) for n, line in enumerate(lines, start=1) if len(line) > WIDTH] == []
