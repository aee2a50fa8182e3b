"""Fuzz of the CLI: seeded random argvs over all five subcommands.

Each option takes the edge values of the range guards (1, 20/21 for
unranking, 2**62/2**62+1 for the doubling guard, 10**23 beyond every
64-bit type) mixed with malformed text, or is left out.  Every run must
end in exit status 0 or 2, or argparse's SystemExit(2): never another
exception, and never a hang, which a per-argv deadline turns into a
failure.  ``--format`` goes to perm, cost and bench only now and then,
and there must end in status 2; so does ``--seed`` to cost, which draws
nothing and refuses it.  Half the time an option instead takes
a value from a small pool its guards accept, so that runs also get past
argparse and the range checks: each subcommand must exit 0 at least
``PASSES`` times.  Counts stay at most 3 and --n-max within 2 of
--n-min, so that each valid run is small work; fy's n stays out of
[10**6, 2**62], which is in range but whose list would not fit in
memory.
"""

import contextlib
import io
import random
from collections import Counter

from fastdice.cli import main

from conftest import deadline

SUBCOMMANDS = ["uniform", "perm", "bernoulli", "cost", "bench"]
EDGES = ["0", "1", "2", "20", "21", str(2 ** 62), str(2 ** 62 + 1),
         str(10 ** 23), "-1", "abc", "0x10", "auto"]
COUNTS = ["0", "1", "2", "3", "-1", "abc", "0x10", "auto"]
SMALL = ("1", "2", "3")  # counts and batch sizes every guard accepts
ARGVS = 1200
IN_RANGE = 0.5  # how often an option takes a value its guards accept
REFUSED = {"--format": ("perm", "cost", "bench"), "--seed": ("cost",)}
REFUSED_RATE = 0.05  # how often a subcommand gets a flag it refuses
SECONDS = 5
PASSES = 15  # status-0 runs each subcommand must reach


def pick(rng: random.Random, values: list[str],
         good: tuple[str, ...] = ()) -> str | None:
    """One of good IN_RANGE of the time, if there are any; otherwise one
    of values, or None (the option left out) one time in five."""
    if good and rng.random() < IN_RANGE:
        return rng.choice(good)
    return None if rng.random() < 0.2 else rng.choice(values)


def fuzz_argv(rng: random.Random) -> list[str]:
    sub = rng.choice(SUBCOMMANDS)
    opts = {}
    # A subcommand that refuses a flag stops at argparse when given it,
    # so it gets that flag rarely: cost draws nothing and takes no
    # --seed, and only uniform and bernoulli take --format.
    if sub not in REFUSED["--seed"] or rng.random() < REFUSED_RATE:
        opts["--seed"] = pick(rng, EDGES, ("1", "0x10"))
    if sub not in REFUSED["--format"] or rng.random() < REFUSED_RATE:
        opts["--format"] = pick(rng, ["text", "csv", "xml"], ("text", "csv"))
    if sub in ("uniform", "bench"):
        opts.update({"--n": pick(rng, EDGES, ("2", "3", "6")),
                     "--count": pick(rng, COUNTS, SMALL),
                     "--batch": pick(rng, EDGES, SMALL)})
    elif sub == "perm":
        method = pick(rng, ["fy", "unrank", "lehmer", "shuffle"])
        fy = method in ("fy", None)  # fy is the default method
        opts.update({"--n": pick(rng, [e for e in EDGES
                                       if not (fy and e == str(2 ** 62))],
                                 ("0", "3", "9")),
                     "--count": pick(rng, COUNTS, SMALL), "--method": method})
    elif sub == "bernoulli":
        # a num from its pool is at most any den from its pool
        opts.update({"--num": pick(rng, EDGES, ("0", "1", "2")),
                     "--den": pick(rng, EDGES, ("2", "5", "7")),
                     "--count": pick(rng, COUNTS, SMALL)})
    else:
        n_min = pick(rng, EDGES, ("2", "3", "100"))
        n_max = (str(int(n_min) + rng.randint(0, 2))
                 if n_min is not None and n_min.isdigit()
                 else pick(rng, EDGES))
        opts.update({"--n-min": n_min, "--n-max": n_max,
                     "--asymptotic": pick(rng, EDGES, ("1", "3", "12")),
                     "--batch": pick(rng, EDGES, SMALL)})
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
    refused = Counter()
    passed = Counter()
    for _ in range(ARGVS):
        argv = fuzz_argv(rng)
        try:
            with deadline(SECONDS):
                status = run(argv)
        except Exception as exc:  # a Hang, or an error main let through
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        assert status in (0, 2), argv
        passed[argv[0]] += status == 0
        flags = [flag for flag, subs in REFUSED.items()
                 if argv[0] in subs and flag in argv]
        if flags:
            assert status == 2, argv
            refused.update(flags)
    assert min(refused[flag] for flag in REFUSED) > 0, refused
    assert min(passed[sub] for sub in SUBCOMMANDS) >= PASSES, passed
