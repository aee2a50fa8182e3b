"""Command-line interface.

Subcommands: uniform, perm, bernoulli, cost, bench.  Every run with the
same flags and seed prints byte-identical output; the default seed is 0,
and randomized runs need an explicit ``--seed random``.  Usage and domain
errors exit with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from collections.abc import Iterator
from itertools import islice

from .batch import auto_batch_size, batch_uniform, plan_batch
from .bernoulli import Rational, bernoulli_rational, check_denominator
from .bitsource import BufferedWordSource
from .core import _fdr, check_range
from .errors import FastdiceError
from .permutation import (check_unrank_size, fisher_yates,
                          lehmer_to_permutation_selection, random_lehmer_code,
                          random_permutation_unranked)

# perm --method: (route, the check its n must pass).  fy draws the code
# digit by digit, its first digit on n values; unrank and lehmer draw it
# as one rank below n!.  fy and unrank map it by the Fisher-Yates swaps,
# lehmer by the selection construction.
_PERM_ROUTES = {
    "fy": (fisher_yates, check_range),
    "unrank": (random_permutation_unranked, check_unrank_size),
    "lehmer": (lambda source, n: lehmer_to_permutation_selection(
        random_lehmer_code(source, n)), check_unrank_size),
}


def _real(x: float) -> str:
    """Fixed CSV convention: 9 significant digits, no locale."""
    return f"{x:.9g}"


def _parse_seed(text: str) -> int:
    if text == "random":
        return int.from_bytes(os.urandom(8), "big")
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be decimal, 0x-hex, or 'random': {text!r}")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _int_at_least(lo: int):
    """An argparse type: an integer >= lo, or the error "must be >= lo".

    A non-integer fails with a message of its own: on a plain ValueError
    argparse would print the type function's name."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}")
        return value
    return parse


def _batch_size(text: str) -> int | str:
    return text if text == "auto" else _int_at_least(1)(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastdice",
        description="Entropy-optimal sampling from coin flips.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_parse_seed, default=0,
                        help="decimal or 0x-hex 64-bit seed, or 'random' "
                             "(default 0, fully deterministic)")
    # cost and bench always print csv and perm always text, so only the
    # other two take --format
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=("text", "csv"),
                           default="text", help="csv adds a header line")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("uniform", parents=[formatted],
                       help="draw uniform integers on [0, n)")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--count", type=_int_at_least(0), default=1)
    p.add_argument("--batch", type=_batch_size, default=None, metavar="J|auto",
                   help="draw J values per master draw (count must divide)")
    p.set_defaults(func=cmd_uniform)

    p = sub.add_parser("perm", parents=[common],
                       help="draw uniform random permutations of {1..n}")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--count", type=_int_at_least(0), default=1)
    p.add_argument("--method", choices=tuple(_PERM_ROUTES),
                   default="fy",
                   help="fy: randomized Fisher-Yates; unrank: one uniform "
                        "rank unranked through Fisher-Yates; lehmer: one "
                        "uniform rank through the selection construction")
    p.set_defaults(func=cmd_perm)

    p = sub.add_parser("bernoulli", parents=[formatted],
                       help="draw exact Bernoulli(num/den) bits")
    p.add_argument("--num", type=_int_at_least(0), required=True)
    p.add_argument("--den", type=_int_at_least(1), required=True)
    p.add_argument("--count", type=_int_at_least(0), default=1)
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("cost", parents=[common],
                       help="CSV table of exact, toll, and asymptotic costs")
    p.add_argument("--n-min", type=_int_at_least(1), required=True)
    p.add_argument("--n-max", type=_int_at_least(1), required=True)
    p.add_argument("--asymptotic", type=_int_at_least(1), default=12,
                   metavar="K",
                   help="Fourier terms in the fluctuation (default 12)")
    p.add_argument("--batch", type=_int_at_least(1), default=None, metavar="J",
                   help="append a u_batch column with batch_cost(n, J)")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("bench", parents=[common],
                       help="measure bits per variate against theory")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--batch", type=_batch_size, default=None, metavar="J|auto",
                   help="draw J values per master draw (count must divide)")
    p.set_defaults(func=cmd_bench)
    return parser


def _uniform_draws(args: argparse.Namespace
                   ) -> tuple[BufferedWordSource, int | None, Iterator[int]]:
    """Validate --n/--count/--batch, then return (source, j, values).

    j is None for single draws.  values lazily yields the count draws
    (j base-n digits per master draw when batched), so a caller that
    only tallies them holds none in memory.
    """
    source = BufferedWordSource(args.seed)
    if args.batch is None:
        check_range(args.n)
        return source, None, (
            _fdr(source, args.n)[0] for _ in range(args.count))
    j = auto_batch_size(args.n) if args.batch == "auto" else args.batch
    if args.count % j != 0:
        raise FastdiceError(
            f"--count {args.count} is not a multiple of batch size {j}")
    plan = plan_batch(args.n, j)
    return source, j, (v for _ in range(args.count // j)
                       for v in batch_uniform(source, plan))


_BLOCK_LINES = 4096


def _print_draws(args: argparse.Namespace, column: str | None,
                 lines: Iterator[object], source: BufferedWordSource,
                 calls: int) -> int:
    """Print the CSV header (if there is a column name), one line per
    draw, then the footer.

    Callers validate every input before the first flip, so no error can
    cut the output short.  The draws are made lazily and written in
    blocks of ``_BLOCK_LINES`` lines, one ``write`` per block, so memory
    stays bounded for any count.
    """
    if column is not None and args.format == "csv":
        print(column)
    text = (f"{line}\n" for line in lines)
    write = sys.stdout.write
    while block := "".join(islice(text, _BLOCK_LINES)):
        write(block)
    print(f"# bits={source.bits_consumed()} calls={calls}")
    return 0


def cmd_uniform(args: argparse.Namespace) -> int:
    source, j, draws = _uniform_draws(args)
    return _print_draws(args, "value", draws, source, args.count // (j or 1))


def cmd_perm(args: argparse.Namespace) -> int:
    route, check = _PERM_ROUTES[args.method]
    check(args.n or 1)  # n = 0, the empty permutation, is valid everywhere
    source = BufferedWordSource(args.seed)
    perms = (" ".join(str(v) for v in route(source, args.n))
             for _ in range(args.count))
    return _print_draws(args, None, perms, source, args.count)


def cmd_bernoulli(args: argparse.Namespace) -> int:
    p = Rational(args.num, args.den)
    check_denominator(p.den)
    source = BufferedWordSource(args.seed)
    bits = (bernoulli_rational(source, p) for _ in range(args.count))
    return _print_draws(args, "bit", bits, source, args.count)


def cmd_cost(args: argparse.Namespace) -> int:
    from .cost import asymptotic_cost, batch_cost, cost_breakdown
    if args.n_min < 2:
        raise FastdiceError("--n-min must be >= 2")
    if args.n_min > args.n_max:
        raise FastdiceError("--n-min must not exceed --n-max")
    if args.batch is not None:
        plan_batch(args.n_max, args.batch)  # the largest n**J, before any row
    # the K coefficients, before any row
    asymptotic_cost(args.n_min, args.asymptotic)
    header = "n,u_exact,log2n,toll,u_asymptotic"
    if args.batch is not None:
        header += ",u_batch"
    print(header)
    for n in range(args.n_min, args.n_max + 1):
        row = cost_breakdown(n, args.asymptotic)
        cells = [str(n), _real(row.exact_cost), _real(row.log2n),
                 _real(row.toll), _real(row.asymptotic)]
        if args.batch is not None:
            cells.append(_real(batch_cost(n, args.batch)))
        print(",".join(cells))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .cost import batch_cost, exact_cost
    source, j, draws = _uniform_draws(args)
    counts = Counter(draws)
    theory = exact_cost(args.n) if j is None else batch_cost(args.n, j)
    total_bits = source.bits_consumed()
    mean = total_bits / args.count
    print("n,count,total_bits,mean_bits_per_variate,u_theory,"
          "abs_deviation,chi_square,df")
    print(",".join([str(args.n), str(args.count), str(total_bits),
                    _real(mean), _real(theory), _real(abs(mean - theory)),
                    _real(_chi_square(counts, args.n, args.count)),
                    str(args.n - 1)]))
    return 0


def _chi_square(counts: dict[int, int], n: int, total: int) -> float:
    """Goodness-of-fit statistic against uniform on n cells.

    Unseen cells contribute their expectation; summing sparsely keeps
    memory independent of n.
    """
    expected = total / n
    stat = (n - len(counts)) * expected
    for v in sorted(counts):
        o = counts[v]
        stat += (o - expected) ** 2 / expected
    return stat


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FastdiceError, ValueError) as exc:
        message = str(exc)
    except MemoryError:  # e.g. fy's list of n values for a huge n
        message = "out of memory"
    print(f"fastdice: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
