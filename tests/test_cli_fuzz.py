"""Fuzz of the CLI: seeded random argvs over all five subcommands.

Each option takes the edge values of the range guards (1, 20/21 for
unranking, 2**62/2**62+1 for the doubling guard, 10**23 beyond every
64-bit type) mixed with malformed text, or is left out.  Every run must
end in exit status 0 or 2, or argparse's SystemExit(2): never another
exception, and never a hang, which a per-argv deadline turns into a
failure.  Counts stay at most 3 and --n-max within 2 of --n-min, so that
each valid run is small work; fy's n stays out of [10**6, 2**62], which
is in range but whose list would not fit in memory.
"""

import contextlib
import io
import random

from fastdice.cli import main

from conftest import deadline

EDGES = ["0", "1", "2", "20", "21", str(2 ** 62), str(2 ** 62 + 1),
         str(10 ** 23), "-1", "abc", "0x10", "auto"]
COUNTS = ["0", "1", "2", "3", "-1", "abc", "0x10", "auto"]
ARGVS = 1200
SECONDS = 5


def pick(rng: random.Random, values: list[str]) -> str | None:
    """One of values, or None (the option left out) one time in five."""
    return None if rng.random() < 0.2 else rng.choice(values)


def fuzz_argv(rng: random.Random) -> list[str]:
    sub = rng.choice(["uniform", "perm", "bernoulli", "cost", "bench"])
    opts = {"--seed": pick(rng, EDGES),
            "--format": pick(rng, ["text", "csv", "xml"])}
    if sub in ("uniform", "bench"):
        opts.update({"--n": pick(rng, EDGES), "--count": pick(rng, COUNTS),
                     "--batch": pick(rng, EDGES)})
    elif sub == "perm":
        method = pick(rng, ["fy", "unrank", "lehmer", "shuffle"])
        fy = method in ("fy", None)  # fy is the default method
        opts.update({"--n": pick(rng, [e for e in EDGES
                                       if not (fy and e == str(2 ** 62))]),
                     "--count": pick(rng, COUNTS), "--method": method})
    elif sub == "bernoulli":
        opts.update({"--num": pick(rng, EDGES), "--den": pick(rng, EDGES),
                     "--count": pick(rng, COUNTS)})
    else:
        n_min = pick(rng, EDGES)
        n_max = (str(int(n_min) + rng.randint(0, 2))
                 if n_min is not None and n_min.isdigit()
                 else pick(rng, EDGES))
        opts.update({"--n-min": n_min, "--n-max": n_max,
                     "--asymptotic": pick(rng, EDGES),
                     "--batch": pick(rng, EDGES)})
    argv = [sub]
    for flag, value in opts.items():
        if value is not None:
            argv += [flag, value]
    return argv


def run(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def test_every_argv_exits_0_or_2():
    rng = random.Random(6)
    for _ in range(ARGVS):
        argv = fuzz_argv(rng)
        try:
            with deadline(SECONDS):
                status = run(argv)
        except Exception as exc:  # a Hang, or an error main let through
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        assert status in (0, 2), argv
