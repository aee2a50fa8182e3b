"""Golden CLI outputs: fixed-seed runs must print byte-identical text
across versions, not just across two runs of one build.

Each case runs ``python -m fastdice`` as a subprocess.  A case that exits
0 has its stdout in ``golden/<name>.txt`` and must write nothing to
stderr; a case that exits 2 has its stderr there and must write nothing
to stdout.  ``golden_mismatch`` holds that rule once; CI also runs it
on the installed ``fastdice`` script.  Every run goes through
``conftest.run_checkout``, so it imports this checkout's ``src``.  The
files were captured by running this module as a script
(``PYTHONPATH=src python tests/test_golden.py``) in a checkout of the
code whose output they pin; rewriting them is a deliberate change of the
CLI's output.
"""

import sys
from pathlib import Path

import pytest

from conftest import run_checkout

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

CASES = {
    "uniform_plain": (["uniform", "--n", "6", "--count", "25", "--seed", "7"], 0),
    "uniform_wide": (["uniform", "--n", str(3 ** 39), "--count", "10",
                      "--seed", "11"], 0),
    "uniform_batch3": (["uniform", "--n", "5", "--count", "12", "--batch", "3",
                        "--seed", "2"], 0),
    "uniform_batch_auto_csv": (["uniform", "--n", "3", "--count", "78",
                                "--batch", "auto", "--seed", "1",
                                "--format", "csv"], 0),
    "perm_fy": (["perm", "--n", "12", "--count", "5", "--seed", "2"], 0),
    "perm_unrank": (["perm", "--n", "20", "--count", "4", "--method", "unrank",
                     "--seed", "3"], 0),
    "perm_lehmer": (["perm", "--n", "9", "--count", "4", "--method", "lehmer",
                     "--seed", "4"], 0),
    "bernoulli_small": (["bernoulli", "--num", "2", "--den", "5",
                         "--count", "40", "--seed", "5"], 0),
    "bernoulli_wide": (["bernoulli", "--num", str((2 ** 62 - 1) // 3),
                        "--den", str(2 ** 62 - 1), "--count", "40",
                        "--seed", "6"], 0),
    "cost_batch2": (["cost", "--n-min", "2", "--n-max", "40", "--batch", "2"], 0),
    "cost_asymptotic3": (["cost", "--n-min", "1000", "--n-max", "1030",
                          "--asymptotic", "3"], 0),
    "bench": (["bench", "--n", "5", "--count", "3000", "--seed", "1"], 0),
    "error_batch_count": (["uniform", "--n", "3", "--count", "5",
                           "--batch", "2"], 2),
    "error_improper": (["bernoulli", "--num", "3", "--den", "2"], 2),
    "error_unrank_cap": (["perm", "--n", "21", "--method", "unrank"], 2),
    "error_cost_n_min": (["cost", "--n-min", "1", "--n-max", "5"], 2),
    "error_cost_batch_overflow": (["cost", "--n-min", "2", "--n-max", "100",
                                   "--batch", "10"], 2),
    "error_cost_asymptotic_uncertified": (
        ["cost", "--n-min", "2", "--n-max", "3", "--asymptotic", "601"], 2),
    "error_uniform_range_count0": (["uniform", "--n", str(2 ** 62 + 1),
                                    "--count", "0"], 2),
    "error_bernoulli_den_count0": (["bernoulli", "--num", "1",
                                    "--den", str(2 ** 62 + 1),
                                    "--count", "0"], 2),
    "error_perm_range_count0": (["perm", "--n", str(2 ** 62 + 1),
                                 "--count", "0"], 2),
    "error_perm_range_huge": (["perm", "--n", str(10 ** 23)], 2),
    "error_uniform_batch_auto_range": (["uniform", "--n", str(2 ** 62 + 1),
                                        "--batch", "auto", "--count", "0"], 2),
    "error_uniform_batch_huge": (["uniform", "--n", "7", "--count", "0",
                                  "--batch", "100000000"], 2),
}


MODULE = [sys.executable, "-m", "fastdice"]


def run_case(name, command=MODULE):
    return run_checkout([*command, *CASES[name][0]])


def golden_mismatch(name, command):
    """Run case `name` through `command` (``python -m fastdice``, or the
    installed ``fastdice`` script) and return what breaks the golden
    rule, or None when the run keeps it."""
    status = CASES[name][1]
    proc = run_case(name, command)
    if proc.returncode != status:
        return f"exit status {proc.returncode}, expected {status}"
    shown, silent = ((proc.stdout, proc.stderr) if status == 0
                     else (proc.stderr, proc.stdout))
    if silent:
        return f"wrote to the stream that must stay empty: {silent!r}"
    if shown != (GOLDEN / f"{name}.txt").read_bytes():
        return f"output differs from golden/{name}.txt"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert golden_mismatch(name, MODULE) is None


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, status) in CASES.items():
        proc = run_case(name)
        assert proc.returncode == status, (name, proc.returncode, proc.stderr)
        (GOLDEN / f"{name}.txt").write_bytes(
            proc.stdout if status == 0 else proc.stderr)
