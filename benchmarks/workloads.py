"""The four workloads: their seeded inputs, one pass of ops, and the
oracle's expectation for that pass.

Every pass of a workload runs the same op list against a fresh
``BufferedWordSource`` built from the same stream seed, so every pass
must give the same outputs and spend the same flips.  The first pass is
checked op by op against the oracle; later passes are compared with the
first.  This keeps the flip and word counts exact at a fixed seed however
many passes fit in the run.
"""

from __future__ import annotations

import importlib
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle
from spans import TimingWordGenerator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh_import():
    """Import the package anew, as a new process would."""
    for name in [m for m in sys.modules if m.split(".")[0] == "fastdice"]:
        del sys.modules[name]
    return importlib.import_module("fastdice")


def short_ns(rng: random.Random, count: int) -> list[int]:
    """`count` n in 2..20000, one from each of `count` equal strata."""
    width = 19999 / count
    return [2 + int(i * width + rng.random() * width) for i in range(count)]


def long_period(x: int) -> bool:
    """Whether the odd part m > 1 of x has a period of 2 above 2**16, the
    length past which the library stops looking for the period.

    Baby steps 2**b and giant steps 2**(256a) meet exactly when
    2**(256a - b) = 1 mod m for some 256a - b in 1..2**16.
    """
    m = x >> ((x & -x).bit_length() - 1)
    if m == 1:
        return False
    baby = {pow(2, b, m) for b in range(256)}
    step = pow(2, 256, m)
    giant = 1
    for _ in range(256):
        giant = giant * step % m
        if giant in baby:
            return False
    return True


def wide_n(rng: random.Random) -> int:
    """A wide n whose odd part has a period of 2 above 2**16."""
    while True:
        n = rng.randint(1 << 40, 1 << 62)
        if long_period(n):
            return n


def batch_pair(rng: random.Random) -> tuple[int, int]:
    """(n, j) with n <= 1000, j in {2, 3} and n**j of long period."""
    while True:
        n, j = rng.randint(3, 1000), rng.randint(2, 3)
        if long_period(n ** j):
            return n, j


def draw_n(rng: random.Random, cls: str) -> int:
    """An n of the given class: an exact power of two, or a non-power
    whose bit length is uniform over the class's range."""
    if cls == "pow2":
        return 1 << rng.randint(1, 62)
    lo, hi = {"small": (2, 16), "mid": (17, 40), "wide": (41, 62)}[cls]
    b = rng.randint(lo, hi)
    return rng.randint((1 << (b - 1)) + 1, (1 << b) - 1)


def draw_class(n: int) -> str:
    if n & (n - 1) == 0:
        return "pow2"
    b = n.bit_length()
    return "small" if b <= 16 else "mid" if b <= 40 else "wide"


def rational(rng: random.Random, big: bool) -> tuple[int, int]:
    """A bias num/den strictly inside (0, 1), den small or near 2**62."""
    den = rng.randint((1 << 62) - (1 << 40), 1 << 62) if big else rng.randint(2, 64)
    return rng.randint(1, den - 1), den


class Workload:
    """One pass of ops.

    Subclasses build ``ops``, (family, input) per op, and ``calls``,
    (span name, function, input) per op, and say how a pass is checked:
    ``expected`` replays the pass with the oracle, and ``failures`` counts
    the ops whose result disagrees with it, by layer.
    """

    name = ""
    tail_pct = 99.0
    # Ops between two calibration blocks: a few milliseconds of work.
    chunk = 1

    def __init__(self, fd, seed: int, quick: bool):
        self.fd = fd
        self.rng = random.Random(f"{self.name}-{seed}")
        self.stream_seed = self.rng.getrandbits(64)
        self.ops: list = []
        self.calls: list = []

    def family(self, op) -> str:
        return op[0]

    def time_shares(self, lat) -> dict[str, float]:
        """Share of one pass's time taken by each family of ops."""
        ns = Counter()
        for op, t in zip(self.ops, lat):
            ns[self.family(op)] += t
        total = sum(ns.values())
        return {k: ns[k] / total for k in sorted(ns)}

    def warm_up(self) -> None:
        raise NotImplementedError

    def source(self, rec=None):
        """The bit source a pass draws from; None for flip-free ops."""
        return None

    def run_pass(self, lat: list, tick, rec=None):
        """Run every op, fn(src, arg), once on a fresh source, calling
        tick() before the first op and after every chunk.  Returns the
        outputs, the flips consumed after each op, and the words fetched."""
        src = self.source(rec)
        count = int if src is None else src.bits_consumed
        clock = time.perf_counter_ns
        chunk, last = self.chunk, len(self.calls)
        outs, flips = [], []
        tick()
        for i, (name, fn, arg) in enumerate(self.calls, 1):
            if rec is not None:
                rec.begin(name)
            t0 = clock()
            try:
                out = fn(src, arg)
            except Exception as exc:  # a raising op is a failed op
                out = exc
            t1 = clock()
            if rec is not None:
                rec.end(t0, t1)
            lat.append(t1 - t0)
            outs.append(out)
            flips.append(count())
            if i % chunk == 0 or i == last:
                tick()
        return outs, flips, 0 if src is None else src.words_fetched

    def expected(self):
        raise NotImplementedError

    def failures(self, result, expected) -> Counter:
        raise NotImplementedError

    def flips_and_words(self, result) -> tuple[int, int]:
        """Flips and words the library spent in one pass."""
        return result[1][-1], result[2]


class SamplerWorkload(Workload):
    """Ops that draw from one shared bit source per pass."""

    layer = {}                   # family -> layer name

    def source(self, rec=None):
        if rec is None:
            return self.fd.BufferedWordSource(self.stream_seed)
        return self.fd.BufferedWordSource(
            TimingWordGenerator(self.fd.SplitMix64Words(self.stream_seed), rec))

    def warm_up(self) -> None:
        src = self.source()
        for _, fn, arg in self.calls[:256]:
            fn(src, arg)

    def expected(self):
        bits = oracle.Bits(self.stream_seed)
        outs, flips = [], []
        for family, arg in self.ops:
            outs.append(self.oracle_call(bits, family, arg))
            flips.append(bits.flips)
        return outs, flips, bits.words

    def failures(self, result, expected) -> Counter:
        bad = Counter()
        outs, flips, words = result
        for (family, _), out, f, want, want_f in zip(
                self.ops, outs, flips, expected[0], expected[1]):
            if out != want or f != want_f:
                bad[self.layer[family]] += 1
        if words != expected[2]:
            bad["bitsource"] += 1
        return bad



class Draw(SamplerWorkload):
    """One op is one ``fdr_uniform(src, n)``; n has a bit length uniform
    on 2..62, and a tenth of the ops draw on an exact power of two."""

    name = "draw"
    tail_pct = 99.9
    chunk = 512
    layer = {"draw": "core"}

    def __init__(self, fd, seed, quick):
        super().__init__(fd, seed, quick)
        count = 1024 if quick else 16384
        pow2 = count // 10
        ns = [draw_n(self.rng, "pow2") for _ in range(pow2)]
        ns += [draw_n(self.rng, self.rng.choice(("small", "mid", "wide")))
               for _ in range(count - pow2)]
        self.rng.shuffle(ns)
        self.ops = [("draw", n) for n in ns]
        self.calls = [("core.fdr_uniform", fd.fdr_uniform, n) for _, n in self.ops]

    def oracle_call(self, bits, family, n):
        return oracle.uniform(bits, n)     # (value, bits used), as FdrOutcome

    def family(self, op) -> str:
        return draw_class(op[1])


class Consumers(SamplerWorkload):
    """Fisher-Yates on 52, unranking on 20, auto-sized batches for a few
    small n, and Bernoulli with small and near-2**62 denominators, mixed so
    that no family takes more than a third of the time."""

    name = "consumers"
    tail_pct = 99.9
    chunk = 1024
    layer = {"fisher_yates": "permutation", "unranked": "permutation",
             "batch": "batch", "bernoulli": "bernoulli"}
    # Ops of each family per unit of the mix; at today's speeds each
    # family then takes between a seventh and a third of the time.
    MIX = {"fisher_yates": 1, "unranked": 3, "batch": 5, "bernoulli": 60}

    def __init__(self, fd, seed, quick):
        super().__init__(fd, seed, quick)
        batch_ns = self.rng.sample(range(3, 1001), 6)
        self.plans = {n: fd.plan_batch(n, fd.auto_batch_size(n)) for n in batch_ns}
        ops = []
        for _ in range(40 if quick else 400):
            ops += [("fisher_yates", 52)] * self.MIX["fisher_yates"]
            ops += [("unranked", 20)] * self.MIX["unranked"]
            ops += [("batch", self.rng.choice(batch_ns))
                    for _ in range(self.MIX["batch"])]
            ops += [("bernoulli", rational(self.rng, big=i % 2 == 1))
                    for i in range(self.MIX["bernoulli"])]
        self.rng.shuffle(ops)
        self.ops = ops
        self.calls = [self.call(family, arg) for family, arg in self.ops]

    def call(self, family, arg):
        fd = self.fd
        if family == "fisher_yates":
            return "permutation.fisher_yates", fd.fisher_yates, arg
        if family == "unranked":
            return "permutation.random_permutation_unranked", fd.random_permutation_unranked, arg
        if family == "batch":
            return "batch.batch_uniform", fd.batch_uniform, self.plans[arg]
        return "bernoulli.bernoulli_rational", fd.bernoulli_rational, fd.Rational(*arg)

    def oracle_call(self, bits, family, arg):
        if family == "fisher_yates":
            return oracle.fisher_yates(bits, arg)[0]
        if family == "unranked":
            return oracle.unranked(bits, arg)[0]
        if family == "batch":
            return oracle.batch(bits, arg, oracle.auto_batch(arg))[0]
        return oracle.bernoulli(bits, *arg)[0]


class Cost(Workload):
    """One op is one cost-table row: ``cost_breakdown(n)`` for short n <=
    20000 and for wide n whose period of 2 is above 2**16, or
    ``batch_cost(n, j)`` for n <= 1000, j in {2, 3} and n**j of long
    period.  The long-period ops are one op in seventy and about a
    quarter of the time, so the tail falls among them; the many short
    ones keep the median steady from seed to seed."""

    name = "cost"
    tail_pct = 99.0
    chunk = 16

    def __init__(self, fd, seed, quick):
        super().__init__(fd, seed, quick)
        scale = 8 if quick else 1
        ops = [("short", n) for n in short_ns(self.rng, 6000 // scale)]
        ops += [("wide", wide_n(self.rng)) for _ in range(40 // scale)]
        ops += [("batch", batch_pair(self.rng)) for _ in range(48 // scale)]
        self.rng.shuffle(ops)
        self.ops = ops
        self.calls = [("cost.batch_cost", lambda _, nj: fd.batch_cost(*nj), arg)
                      if family == "batch" else
                      ("cost.cost_breakdown", lambda _, n: fd.cost_breakdown(n), arg)
                      for family, arg in self.ops]

    def warm_up(self) -> None:
        self.fd.cost_breakdown(3)     # computes the zeta coefficients
        for family, arg in self.ops[:16]:
            if family == "short":
                self.fd.cost_breakdown(arg)

    def expected(self):
        cache = {}
        want = []
        for family, arg in self.ops:
            if arg not in cache:
                cache[arg] = (oracle.batch_cost(*arg) if family == "batch"
                              else oracle.cost_row(arg))
            want.append(cache[arg])
        return want

    def failures(self, result, expected) -> Counter:
        bad = Counter()
        for (family, arg), out, want in zip(self.ops, result[0], expected):
            if isinstance(out, Exception):
                ok = False
            elif family == "batch":
                ok = out == want
            else:
                ok = (out.n == arg
                      and (out.exact_cost, out.log2n, out.toll) == want[:3]
                      and abs(out.asymptotic - want[3]) <= 1e-9)
            if not ok:
                bad["cost"] += 1
        return bad



# ---------------------------------------------------------------------------
# CLI

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(args: list[str], env: dict) -> tuple[int, bytes, bytes]:
    proc = subprocess.run([sys.executable, "-m", "fastdice", *args], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _real(x: float) -> str:
    return f"{x:.9g}"


def render(args: list[str]) -> str:
    """The oracle's stdout for a successful command."""
    opt = dict(zip(args[1::2], args[2::2]))
    sub = args[0]
    bits = oracle.Bits(int(opt.get("--seed", "0")))
    count = int(opt.get("--count", "1"))
    lines = []
    if sub == "uniform":
        n = int(opt["--n"])
        if "--batch" in opt:
            j = oracle.auto_batch(n) if opt["--batch"] == "auto" else int(opt["--batch"])
            calls = count // j
            for _ in range(calls):
                lines += map(str, oracle.batch(bits, n, j)[0])
        else:
            calls = count
            lines += [str(oracle.uniform(bits, n)[0]) for _ in range(count)]
        if opt.get("--format") == "csv":
            lines.insert(0, "value")
        lines.append(f"# bits={bits.flips} calls={calls}")
    elif sub == "perm":
        n = int(opt["--n"])
        draw = {"fy": oracle.fisher_yates, "unrank": oracle.unranked,
                "lehmer": oracle.lehmer_selection}[opt.get("--method", "fy")]
        lines += [" ".join(map(str, draw(bits, n)[0])) for _ in range(count)]
        lines.append(f"# bits={bits.flips} calls={count}")
    elif sub == "bernoulli":
        num, den = int(opt["--num"]), int(opt["--den"])
        lines += [str(oracle.bernoulli(bits, num, den)[0]) for _ in range(count)]
        if opt.get("--format") == "csv":
            lines.insert(0, "bit")
        lines.append(f"# bits={bits.flips} calls={count}")
    elif sub == "cost":
        j = int(opt["--batch"]) if "--batch" in opt else None
        lines.append("n,u_exact,log2n,toll,u_asymptotic" + (",u_batch" if j else ""))
        for n in range(int(opt["--n-min"]), int(opt["--n-max"]) + 1):
            row = [str(n), *map(_real, oracle.cost_row(n))]
            if j:
                row.append(_real(oracle.batch_cost(n, j)))
            lines.append(",".join(row))
    elif sub == "bench":
        n = int(opt["--n"])
        j = int(opt.get("--batch", "0"))
        counts = Counter()
        if j:
            for _ in range(count // j):
                counts.update(oracle.batch(bits, n, j)[0])
            theory = oracle.batch_cost(n, j)
        else:
            counts.update(oracle.uniform(bits, n)[0] for _ in range(count))
            theory = oracle.exact_cost(n)
        mean = bits.flips / count
        lines.append("n,count,total_bits,mean_bits_per_variate,u_theory,"
                     "abs_deviation,chi_square,df")
        lines.append(",".join([str(n), str(count), str(bits.flips), _real(mean),
                               _real(theory), _real(abs(mean - theory)),
                               _real(oracle.chi_square(counts, n, count)),
                               str(n - 1)]))
    return "\n".join(lines) + "\n"


def same_stdout(args: list[str], got: bytes, want: str) -> bool:
    """Byte equality, except that cost's u_asymptotic column (computed by
    an independent zeta) may differ by rounding in its ninth digit."""
    got_text = got.decode()
    if args[0] != "cost":
        return got_text == want
    got_rows, want_rows = got_text.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return False
    for g, w in zip(got_rows[1:], want_rows[1:]):
        g, w = g.split(","), w.split(",")
        if len(g) != len(w) or g[:4] + g[5:] != w[:4] + w[5:]:
            return False
        if not math.isclose(float(g[4]), float(w[4]), rel_tol=1e-8, abs_tol=1e-8):
            return False
    return True


def cli_commands(rng: random.Random) -> list[tuple[str, list[str]]]:
    """(family, argv) for one pass: every subcommand and method, then
    three bad inputs that must exit 2."""
    def seed():
        return ["--seed", str(rng.getrandbits(64))]
    n_auto = rng.randint(3, 1000)
    j = oracle.auto_batch(n_auto)
    num, den = rational(rng, big=True)
    lo = rng.randint(2, 500)
    bad_den = rng.randint(2, 64)
    return [
        ("uniform", ["uniform", "--n", str(rng.randint(2, 1 << 40)), "--count", "200", *seed()]),
        ("uniform", ["uniform", "--n", str(n_auto), "--count", str(3 * j),
                     "--batch", "auto", "--format", "csv", *seed()]),
        ("perm", ["perm", "--n", "52", "--count", "3", "--method", "fy", *seed()]),
        ("perm", ["perm", "--n", "20", "--count", "5", "--method", "unrank", *seed()]),
        ("perm", ["perm", "--n", str(rng.randint(5, 20)), "--count", "5",
                  "--method", "lehmer", *seed()]),
        ("bernoulli", ["bernoulli", "--num", str(num), "--den", str(den),
                       "--count", "200", "--format", "csv", *seed()]),
        ("cost", ["cost", "--n-min", str(lo), "--n-max", str(lo + 7), "--batch", "2"]),
        ("bench", ["bench", "--n", str(rng.randint(2, 100)), "--count", "3000", *seed()]),
        ("error", ["perm", "--n", str(rng.randint(21, 40)), "--method", "unrank"]),
        ("error", ["bernoulli", "--num", str(bad_den + rng.randint(1, 9)),
                   "--den", str(bad_den)]),
        ("error", ["uniform", "--n", "6", "--count", str(2 * rng.randint(1, 50) + 1),
                   "--batch", "2"]),
    ]


def cli_expected(args: list[str], family: str):
    return None if family == "error" else render(args)


def cli_ok(args, family, got, want) -> bool:
    code, out, err = got
    if family == "error":
        return (code == 2 and out == b"" and err.startswith(b"fastdice: error:")
                and b"Traceback" not in err)
    return code == 0 and err == b"" and same_stdout(args, out, want)


class Cli(Workload):
    """One op is one ``python -m fastdice ...`` subprocess, run one at a
    time from the checkout with ``PYTHONPATH`` pointing at ``src``."""

    name = "cli"
    tail_pct = 75.0

    def __init__(self, fd, seed, quick):
        super().__init__(fd, seed, quick)
        # Four rounds, so that the tail has ten commands beyond it.
        self.ops = [op for _ in range(1 if quick else 4)
                    for op in cli_commands(self.rng)]
        self.env = cli_env()
        self.calls = [(f"cli.{family}", lambda _, args: run_cli(args, self.env), args)
                      for family, args in self.ops]

    def warm_up(self) -> None:
        run_cli(["uniform", "--n", "6"], self.env)

    def expected(self):
        return [cli_expected(args, family) for family, args in self.ops]

    def failures(self, result, expected) -> Counter:
        bad = Counter()
        for (family, args), got, want in zip(self.ops, result[0], expected):
            if not cli_ok(args, family, got, want):
                bad["cli"] += 1
        return bad

    def flips_and_words(self, result) -> tuple[int, int]:
        """Flips from each command's ``# bits=`` trailer or bench's
        total_bits; words as a fresh source spends them, ceil(bits/32)."""
        flips = words = 0
        for (family, _), (_, out, _) in zip(self.ops, result[0]):
            lines = out.decode().splitlines()
            if family == "bench":
                bits = int(lines[1].split(",")[2])
            elif family in ("uniform", "perm", "bernoulli"):
                bits = int(lines[-1].split()[1].removeprefix("bits="))
            else:
                bits = 0
            flips += bits
            words += -(-bits // 32)
        return flips, words


WORKLOADS = {w.name: w for w in (Draw, Consumers, Cost, Cli)}
