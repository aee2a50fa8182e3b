"""Per-layer probes of the traced run.

Each probe times one public call of one layer in an isolated block.  The
blocks of all probes run round by round, so a drift in the host's speed
falls on every probe alike, and each time is the median over rounds.
Every block starts from a fresh source with the same seed, so a probe's
flip count repeats exactly; its first block is checked against the
oracle and every later block against the first.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter

import oracle
from calibration import without_gc
from workloads import (cli_commands, cli_env, cli_expected, cli_ok, draw_n,
                       fresh_import, rational, run_cli, short_ns, wide_n)

CLASSES = ("small", "mid", "wide", "pow2")
CLI_SUBCOMMANDS = ("uniform", "perm", "bernoulli", "cost", "bench")


class CountingRandom(random.Random):
    """``random.Random`` that tallies the bits its ``getrandbits`` serves,
    which is all ``randrange`` draws from."""

    flips = 0

    def getrandbits(self, k: int) -> int:
        self.flips += k
        return super().getrandbits(k)


class Probe:
    """A timed block and what its first block must produce.

    ``block()`` returns (elapsed ns, outputs, flips).  The time metric is
    elapsed / units * scale; the flips metric, if named, is flips / units.
    """

    def __init__(self, metric, unit, scale, layer, units, block, want,
                 flips_metric=None, same=None):
        self.metric, self.unit, self.scale, self.layer = metric, unit, scale, layer
        self.units, self.block, self.want = units, block, want
        self.flips_metric = flips_metric
        self.same = same or (lambda got, want: got == want)
        self.times: list[float] = []
        self.first = None
        self.flips = 0
        self.failed = 0
        self.blocks = 0

    def run(self, cal) -> None:
        cal.tick()
        elapsed, out, flips = self.block()
        cal.tick()
        elapsed *= cal.scale(-2, -1)
        self.times.append(elapsed / self.units * self.scale)
        self.blocks += 1
        if self.first is None:
            self.first, self.flips = out, flips
        elif out != self.first:
            self.failed += mismatches(out, self.first)

    def check(self) -> None:
        if self.want is None:
            return
        want = self.want()
        bad = sum(not self.same(g, w) for g, w in zip(self.first, want))
        bad += abs(len(self.first) - len(want))
        # Blocks equal to the first fail where the first fails.
        self.failed += bad * self.blocks


def mismatches(got: list, want: list) -> int:
    return sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))


def sampler(fd, seed, fn, args):
    """A block that applies fn(src, arg) over args from a fresh source."""
    def block():
        src = fd.BufferedWordSource(seed)
        clock = time.perf_counter_ns
        t0 = clock()
        out = [fn(src, a) for a in args]
        t1 = clock()
        return t1 - t0, out, src.bits_consumed()
    return block


def plain(fn, args, star=False):
    """A block that applies a flip-free function over args."""
    def block():
        clock = time.perf_counter_ns
        t0 = clock()
        out = [fn(*a) for a in args] if star else [fn(a) for a in args]
        t1 = clock()
        return t1 - t0, out, 0
    return block


def replay(seed, fn, args):
    """Oracle outputs for args drawn in order from one fresh stream."""
    def want():
        bits = oracle.Bits(seed)
        return [fn(bits, a)[0] for a in args]
    return want


def build(fd, seed: int, quick: bool) -> list[Probe]:
    rng = random.Random(f"probes-{seed}")
    s = rng.getrandbits(64)
    k = 8 if quick else 1
    probes = []

    def words_block():
        next_word = fd.SplitMix64Words(s).next_word
        t0 = time.perf_counter_ns()
        out = [next_word() for _ in range(4096 // k)]
        return time.perf_counter_ns() - t0, out, 0

    def bits_block():
        next_bit = fd.BufferedWordSource(s).next_bit
        t0 = time.perf_counter_ns()
        out = [next_bit() for _ in range(8192 // k)]
        return time.perf_counter_ns() - t0, out, len(out)

    def oracle_bits():
        bits = oracle.Bits(s)
        return [bits.bit() for _ in range(8192 // k)]

    probes.append(Probe("bitsource.next_word_ns", "ns", 1, "bitsource", 4096 // k,
                        words_block, lambda: oracle.words(s, 4096 // k)))
    probes.append(Probe("bitsource.next_bit_ns", "ns", 1, "bitsource", 8192 // k,
                        bits_block, oracle_bits))

    for cls in CLASSES:
        ns = [draw_n(rng, cls) for _ in range(256 // k)]
        probes.append(Probe(
            f"core.draw_ns.{cls}", "ns", 1, "core", len(ns),
            sampler(fd, s, fd.fdr_uniform, ns),
            replay(s, lambda b, n: (oracle.uniform(b, n),), ns),
            flips_metric=f"core.flips_per_draw.{cls}"))
        probes.append(randrange_probe(cls, s, ns))

    plans = [fd.plan_batch(n, fd.auto_batch_size(n))
             for n in rng.sample(range(3, 1001), 6)] * (8 // k or 1)
    values = sum(p.j for p in plans)
    probes.append(Probe(
        "batch.ns_per_value", "ns", 1, "batch", values,
        sampler(fd, s, fd.batch_uniform, plans),
        replay(s, lambda b, p: oracle.batch(b, p.n, oracle.auto_batch(p.n)), plans),
        flips_metric="batch.flips_per_value"))

    fy = [52] * (8 // k or 1)
    probes.append(Probe(
        "permutation.fy_us", "us", 1e-3, "permutation", len(fy),
        sampler(fd, s, fd.fisher_yates, fy), replay(s, oracle.fisher_yates, fy),
        flips_metric="permutation.flips_per_perm.fy"))
    un = [20] * (32 // k)
    probes.append(Probe(
        "permutation.unrank_us", "us", 1e-3, "permutation", len(un),
        sampler(fd, s, fd.random_permutation_unranked, un),
        replay(s, oracle.unranked, un),
        flips_metric="permutation.flips_per_perm.unrank"))

    biases = [rational(rng, big=i % 2 == 1) for i in range(1024 // k)]
    probes.append(Probe(
        "bernoulli.ns_per_draw", "ns", 1, "bernoulli", len(biases),
        sampler(fd, s, fd.bernoulli_rational, [fd.Rational(*b) for b in biases]),
        replay(s, lambda b, r: oracle.bernoulli(b, *r), biases),
        flips_metric="bernoulli.flips_per_draw"))

    short = short_ns(rng, 20 // k or 2)
    wide = [wide_n(rng) for _ in range(2 // k or 1)]
    pairs = [(rng.randint(3, 1000), rng.randint(2, 3)) for _ in range(3 // k or 1)]
    asym = short + wide + [draw_n(rng, "wide") for _ in range(100 // k)]
    probes.append(Probe("cost.exact_us.short", "us", 1e-3, "cost", len(short),
                        plain(fd.exact_cost, short),
                        lambda: [oracle.exact_cost(n) for n in short]))
    probes.append(Probe("cost.exact_us.long", "us", 1e-3, "cost", len(wide),
                        plain(fd.exact_cost, wide),
                        lambda: [oracle.exact_cost(n) for n in wide]))
    probes.append(Probe("cost.batch_us", "us", 1e-3, "cost", len(pairs),
                        plain(fd.batch_cost, pairs, star=True),
                        lambda: [oracle.batch_cost(*p) for p in pairs]))
    probes.append(Probe("cost.asymptotic_us", "us", 1e-3, "cost", len(asym),
                        plain(fd.asymptotic_cost, asym),
                        lambda: [oracle.asymptotic_cost(n) for n in asym],
                        same=lambda g, w: abs(g - w) <= 1e-9))
    return probes


def randrange_probe(cls: str, s: int, ns: list[int]) -> Probe:
    """``random.randrange`` on the same n: rejection of whole
    bit_length-sized chunks.  Timed on a plain ``random.Random``; its
    flips are counted on a ``CountingRandom`` with the same seed."""
    def block():
        randrange = random.Random(s).randrange
        t0 = time.perf_counter_ns()
        out = [randrange(n) for n in ns]
        return time.perf_counter_ns() - t0, out, counted_flips(s, ns)
    return Probe(f"baseline.randrange_ns.{cls}", "ns", 1, "baseline", len(ns),
                 block, None,
                 flips_metric=f"baseline.randrange_flips_per_draw.{cls}")


def counted_flips(s: int, ns: list[int]) -> int:
    r = CountingRandom(s)
    for n in ns:
        r.randrange(n)
    return r.flips


def zeta_cold_ms(rounds: int, cal) -> float:
    """First ``asymptotic_cost`` call of a freshly imported package, which
    computes the zeta coefficients; median over fresh imports."""
    times = []
    for _ in range(rounds):
        fd = fresh_import()
        times.append(cal.between(lambda: fd.asymptotic_cost(3))[0] / 1e6)
    return statistics.median(times)


def cli_probes(seed: int, rounds: int, cal):
    """Startup and one command per subcommand, `rounds` times each,
    interleaved.  Returns (metrics, failed ops, attempted ops)."""
    env = cli_env()
    rng = random.Random(f"probes-cli-{seed}")
    commands = {}
    for family, args in cli_commands(rng):
        commands.setdefault(family, args)
    startup = ["uniform", "--n", "1", "--count", "0"]
    times = {name: [] for name in ("startup",) + CLI_SUBCOMMANDS}
    failed = attempted = 0
    stdout_bytes = {}
    for _ in range(rounds):
        for name in times:
            args = startup if name == "startup" else commands[name]
            ns, got = cal.between(lambda: run_cli(args, env))
            times[name].append(ns / 1e6)
            failed += not cli_ok(args, name, got, cli_expected(args, name))
            attempted += 1
            stdout_bytes[name] = len(got[1])
    metrics = {"cli.startup_ms": (statistics.median(times["startup"]), "ms")}
    for name in CLI_SUBCOMMANDS:
        metrics[f"cli.wall_ms.{name}"] = (statistics.median(times[name]), "ms")
    metrics["cli.stdout_bytes"] = (
        sum(stdout_bytes[name] for name in CLI_SUBCOMMANDS), "bytes")
    return metrics, failed, attempted


def run(fd, seed: int, budget_s: float, quick: bool, cal):
    """All probes within about budget_s seconds, each block timed between
    two calibration blocks of `cal`.

    Returns (metrics name -> (value, unit), failed ops per layer,
    attempted ops).
    """
    start = time.perf_counter()
    failed = Counter()
    metrics, failed["cli"], attempted = cli_probes(seed, 1 if quick else 3, cal)
    metrics["cost.zeta_cold_ms"] = (zeta_cold_ms(1 if quick else 5, cal), "ms")
    probes = build(fd, seed, quick)
    rounds = 0
    while rounds < 3 or time.perf_counter() - start < budget_s:
        for probe in probes:
            without_gc(probe.run, cal)
        rounds += 1
        if quick:
            break
    for probe in probes:
        probe.check()
        failed[probe.layer] += probe.failed
        attempted += probe.units * probe.blocks
        metrics[probe.metric] = (statistics.median(probe.times), probe.unit)
        if probe.flips_metric:
            metrics[probe.flips_metric] = (probe.flips / probe.units, "flips")
    return metrics, failed, attempted
