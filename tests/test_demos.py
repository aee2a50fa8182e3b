"""Golden demo outputs: each script in ``demos/`` must print
byte-identical text across versions.

Every demo draws from fixed seeds, so its stdout pins values, flip counts
and cost figures at once.  Each runs as a subprocess; it must exit 0,
write nothing to stderr, and print exactly ``golden/demo_<name>.txt``.
The files were captured by running this module as a script
(``PYTHONPATH=src python tests/test_demos.py``) in a checkout of the
code whose output they pin; rewriting them is a deliberate change of the
demos' output.
"""

import sys
from pathlib import Path

import pytest

from conftest import run_checkout

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


def run_demo(path):
    return run_checkout([sys.executable, str(path)])


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_golden(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"demo_{path.stem}.txt").read_bytes()


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 5
    assert ({p.stem for p in DEMOS}
            == {p.stem[len("demo_"):] for p in GOLDEN.glob("demo_*.txt")})


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in DEMOS:
        proc = run_demo(path)
        assert proc.returncode == 0, (path.name, proc.stderr)
        (GOLDEN / f"demo_{path.stem}.txt").write_bytes(proc.stdout)
