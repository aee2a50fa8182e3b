import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from fastdice import (BufferedWordSource, auto_batch_size, batch_cost,
                      cli, fdr_uniform)
from fastdice.cli import main
from fastdice.core import _fdr

from conftest import run_checkout

FOOTER = re.compile(r"^# bits=(\d+) calls=(\d+)$")


def run_cli(*argv):
    """``python -m fastdice`` on this checkout, its output decoded."""
    proc = run_checkout([sys.executable, "-m", "fastdice", *argv])
    proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
    return proc


def parse_footer(out):
    m = FOOTER.match(out.strip().splitlines()[-1])
    assert m, f"missing stats footer in {out!r}"
    return int(m.group(1)), int(m.group(2))


# -------------------------------------------------------------- uniform


def test_uniform_dyadic_example(capsys):
    assert main(["uniform", "--n", "4", "--count", "8", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    values = [int(x) for x in lines[:-1]]
    assert len(values) == 8
    assert all(0 <= v < 4 for v in values)
    assert parse_footer(out) == (16, 8)  # exactly 2 bits per value


def test_uniform_singleton(capsys):
    assert main(["uniform", "--n", "1", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[:-1] == ["0"] * 5
    assert parse_footer(out) == (0, 5)


def test_uniform_empty(capsys):
    assert main(["uniform", "--n", "3", "--count", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines() == ["# bits=0 calls=0"]


def test_uniform_csv_header(capsys):
    assert main(["uniform", "--n", "3", "--count", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "value"


def test_uniform_matches_library(capsys):
    assert main(["uniform", "--n", "5", "--count", "7", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    src = BufferedWordSource(9)
    expected = [fdr_uniform(src, 5).value for _ in range(7)]
    assert [int(x) for x in lines[:-1]] == expected
    assert parse_footer(out) == (src.bits_consumed(), 7)


def test_uniform_writes_its_draws_in_blocks(monkeypatch):
    # 8,193 draws span three blocks: one write each, in the draws' order.
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {
        "write": staticmethod(writes.append)})())
    assert main(["uniform", "--n", "6", "--count", "8193", "--seed", "3"]) == 0
    src = BufferedWordSource(3)
    expected = "".join(f"{fdr_uniform(src, 6).value}\n" for _ in range(8193))
    assert [w.count("\n") for w in writes[:3]] == [4096, 4096, 1]
    assert "".join(writes[:3]) == expected
    assert "".join(writes[3:]) == f"# bits={src.bits_consumed()} calls=8193\n"


def test_uniform_batch(capsys):
    assert main(["uniform", "--n", "3", "--count", "6", "--batch", "3",
                 "--seed", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(0 <= int(x) < 3 for x in lines[:-1])
    _, calls = parse_footer(out)
    assert calls == 2  # two master draws of 3 values each


def test_uniform_batch_auto(capsys):
    # auto picks j=39 for n=3, so count must be a multiple of 39
    assert main(["uniform", "--n", "3", "--count", "78", "--batch", "auto",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    _, calls = parse_footer(out)
    assert calls == 2


def test_uniform_batch_divisibility_error():
    r = run_cli("uniform", "--n", "3", "--count", "5", "--batch", "3")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_uniform_usage_error():
    r = run_cli("uniform", "--n", "0")
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [["uniform", "--n", "abc"],
                                  ["uniform", "--n", "6", "--batch", "abc"]])
def test_non_integer_names_no_private_function(argv):
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stderr.endswith(": not an integer: 'abc'\n")
    assert not re.search(r"(^|\W)_\w", r.stderr)


@pytest.mark.parametrize("argv", [
    ["perm", "--n", "3", "--format", "csv"],
    ["cost", "--n-min", "2", "--n-max", "3", "--format", "text"],
    ["bench", "--n", "3", "--count", "3", "--format", "csv"]])
def test_format_only_where_it_formats(argv):
    # perm always prints text and cost and bench always csv, so they
    # refuse --format instead of ignoring it
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments: --format" in r.stderr


# ----------------------------------------------------------------- perm


def test_perm_basic(capsys):
    assert main(["perm", "--n", "3", "--count", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines[:-1]:
        assert sorted(int(x) for x in line.split()) == [1, 2, 3]
    _, calls = parse_footer(out)
    assert calls == 2


def test_perm_singleton(capsys):
    assert main(["perm", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines() == ["1", "# bits=0 calls=1"]


@pytest.mark.parametrize("method", ["fy", "unrank", "lehmer"])
def test_perm_methods_valid(capsys, method):
    assert main(["perm", "--n", "5", "--count", "3", "--method", method,
                 "--seed", "4"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines()[:-1]:
        assert sorted(int(x) for x in line.split()) == [1, 2, 3, 4, 5]


def test_perm_factorial_cap():
    r = run_cli("perm", "--n", "21", "--method", "unrank")
    assert r.returncode == 2
    assert "error" in r.stderr
    r = run_cli("perm", "--n", "21", "--method", "lehmer")
    assert r.returncode == 2


def test_out_of_memory_exits_2(monkeypatch, capsys):
    # fy builds a list of n values, which for an in-range n can exceed
    # memory; the route is replaced so that no real allocation is tried
    def exhausted(source, n):
        raise MemoryError
    monkeypatch.setitem(cli._PERM_ROUTES, "fy", (exhausted, cli.check_range))
    assert main(["perm", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fastdice: error: out of memory\n"


def test_perm_fy_has_no_cap(capsys):
    assert main(["perm", "--n", "21", "--method", "fy", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    line = out.strip().splitlines()[0]
    assert sorted(int(x) for x in line.split()) == list(range(1, 22))


# ------------------------------------------------------------ bernoulli


def test_bernoulli_basic(capsys):
    assert main(["bernoulli", "--num", "1", "--den", "2", "--count", "4",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert all(x in ("0", "1") for x in lines[:-1])
    assert len(lines[:-1]) == 4
    _, calls = parse_footer(out)
    assert calls == 4


def test_bernoulli_csv_header(capsys):
    assert main(["bernoulli", "--num", "1", "--den", "3", "--count", "2",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "bit"


def test_bernoulli_improper_error():
    r = run_cli("bernoulli", "--num", "5", "--den", "4")
    assert r.returncode == 2
    assert "error" in r.stderr


# ----------------------------------------------------------------- cost


def test_cost_schema_and_values(capsys):
    assert main(["cost", "--n-min", "2", "--n-max", "16"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,u_exact,log2n,toll,u_asymptotic"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert len(rows) == 15
    assert rows[3][1] == "2.66666667"  # 8/3 at 9 significant digits
    for n in (2, 4, 8, 16):
        assert rows[n][3] == "0"  # toll exactly zero at powers of two


def test_cost_batch_column(capsys):
    assert main(["cost", "--n-min", "3", "--n-max", "3", "--batch", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,u_exact,log2n,toll,u_asymptotic,u_batch"
    assert lines[1].split(",")[5] == "2.33333333"  # u_9 / 2 = 7/3


def test_cost_toll_bounds_in_output(capsys):
    assert main(["cost", "--n-min", "2", "--n-max", "1024"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines()[1:]:
        t = float(line.split(",")[3])
        assert 0.0 <= t <= 2.0


def test_cost_range_error():
    r = run_cli("cost", "--n-min", "5", "--n-max", "2")
    assert r.returncode == 2


# ---------------------------------------------------------------- bench


def test_bench_dyadic_exact(capsys):
    assert main(["bench", "--n", "8", "--count", "1000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == ("n,count,total_bits,mean_bits_per_variate,"
                        "u_theory,abs_deviation,chi_square,df")
    fields = lines[1].split(",")
    assert fields[0] == "8"
    assert fields[2] == "3000"  # 3 bits per draw, no rejection ever
    assert fields[3] == "3"
    assert fields[5] == "0"
    assert fields[7] == "7"


def test_bench_batch_theory_column(capsys):
    assert main(["bench", "--n", "3", "--count", "600", "--batch", "6",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    fields = out.strip().splitlines()[1].split(",")
    assert fields[4] == f"{batch_cost(3, 6):.9g}"


def test_chi_square_adds_the_expectation_of_each_unseen_cell():
    # Cell 3 holds both draws of 2; each of the 3 cells never drawn adds
    # its expectation 0.5, and cell 3 adds (2 - 0.5)**2 / 0.5 = 4.5.
    assert cli._chi_square({3: 2}, 4, 2) == 6.0
    # No draws: every cell expects 0.0, so the statistic is 0.0.
    assert cli._chi_square({}, 4, 0) == 0.0


def test_bench_chi_square_with_unseen_cells(capsys):
    # Ten draws on 1000 cells leave at least 990 cells unseen; the
    # statistic is worked out exactly from the draws bench makes.
    assert main(["bench", "--n", "1000", "--count", "10", "--seed", "8"]) == 0
    fields = capsys.readouterr().out.strip().splitlines()[1].split(",")
    source = BufferedWordSource(8)
    counts = Counter(_fdr(source, 1000)[0] for _ in range(10))
    expected = Fraction(10, 1000)
    stat = sum((counts[v] - expected) ** 2 / expected for v in range(1000))
    assert fields[6] == f"{float(stat):.9g}"


def test_bench_divisibility_error():
    r = run_cli("bench", "--n", "3", "--count", "601", "--batch", "6")
    assert r.returncode == 2


def test_bench_batch_auto_is_auto_batch_size(capsys):
    for n in (3, 10, 1000):
        j = auto_batch_size(n)
        argv = ["bench", "--n", str(n), "--count", str(4 * j), "--seed", "6",
                "--batch"]
        assert main(argv + ["auto"]) == 0
        auto = capsys.readouterr().out
        assert main(argv + [str(j)]) == 0
        assert capsys.readouterr().out == auto


# ------------------------------------------------------- reproducibility


def test_bench_byte_identical():
    a = run_cli("bench", "--n", "5", "--count", "20000", "--seed", "42")
    b = run_cli("bench", "--n", "5", "--count", "20000", "--seed", "42")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cost_byte_identical():
    a = run_cli("cost", "--n-min", "2", "--n-max", "64")
    b = run_cli("cost", "--n-min", "2", "--n-max", "64")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_hex_seed_equals_decimal(capsys):
    assert main(["uniform", "--n", "100", "--count", "5", "--seed", "0xff"]) == 0
    hex_out = capsys.readouterr().out
    assert main(["uniform", "--n", "100", "--count", "5", "--seed", "255"]) == 0
    assert capsys.readouterr().out == hex_out


def test_random_seed_varies():
    a = run_cli("uniform", "--n", "1000000", "--count", "10",
                "--seed", "random")
    b = run_cli("uniform", "--n", "1000000", "--count", "10",
                "--seed", "random")
    assert a.returncode == b.returncode == 0
    assert a.stdout != b.stdout


def test_bad_seed_rejected():
    r = run_cli("uniform", "--n", "3", "--seed", "bogus")
    assert r.returncode == 2
    r = run_cli("uniform", "--n", "3", "--seed", str(1 << 64))
    assert r.returncode == 2
