#!/usr/bin/env python3
"""Layered benchmark for fastdice.

    python3 benchmarks/run.py --workload draw --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload cli --seed 1 --seconds 2 --trace 1 --quick
    python3 benchmarks/run.py --self-test

Run from the root of a checkout; the package is imported from ``src``.
One process, one thread, a closed loop with one client.  With ``--trace
0`` it times the workload and prints the end-to-end metrics; with
``--trace 1`` it runs the workload with spans, then the per-layer probes,
and prints the per-layer metrics.  Every output is checked against
``oracle.py``; a mismatch is a failed op.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import probes
from calibration import Calibration, without_gc
from spans import Recorder
from workloads import WORKLOADS, fresh_import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LAYERS = ("bitsource", "core", "batch", "permutation", "bernoulli", "cost", "cli")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_REPEATS = 7


def percentile_index(count: int, pct: float) -> int:
    """Nearest-rank index (0-based, ascending) of the pct-th percentile."""
    return max(0, math.ceil(pct / 100 * count) - 1)


def tail(lat, pct: float) -> tuple[float, float, int]:
    """Latency at the workload's tail percentile, stepping down the ladder
    while fewer than 10 samples lie beyond it: (percentile, ns, beyond)."""
    ordered = sorted(lat)
    count = len(ordered)
    for p in (x for x in TAIL_LADDER if x <= pct):
        i = percentile_index(count, p)
        if count - 1 - i >= 10:
            break
    return p, ordered[i], count - 1 - i


def per_op_medians(passes: list) -> list[float]:
    """Each op's median latency over the passes."""
    return [statistics.median(col) for col in zip(*passes)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def setup(name: str, seed: int, quick: bool, cal: Calibration):
    """Import, input generation and warm-up, repeated; returns the last
    workload and the median time of one set-up, in reference seconds."""
    def make():
        wl = WORKLOADS[name](fresh_import(), seed, quick)
        wl.warm_up()
        return wl
    times = []
    for _ in range(1 if quick else SETUP_REPEATS):
        ns, wl = cal.between(make)
        times.append(ns / 1e9)
    return wl, statistics.median(times)


def check(wl, first, others: list, passes: int) -> Counter:
    """Failed ops per layer over all passes: the first pass against the
    oracle, any pass that differs from it on its own."""
    want = wl.expected()
    bad = wl.failures(first, want)
    failed = Counter({k: v * (passes - len(others)) for k, v in bad.items()})
    for result in others:
        failed += wl.failures(result, want)
    return failed


def timed(wl, seconds: float, cal: Calibration):
    """Whole passes until `seconds` have passed.  Returns metrics, extra
    metrics, notes, attempted ops and failed ops per layer.

    Latencies are in reference ns (see calibration.py), and each op's
    latency is its median over the passes.
    """
    norm, others = [], []
    first, rss = None, 0.0
    start = time.perf_counter()
    while True:
        lat = []
        mark = len(cal.blocks)
        result = without_gc(wl.run_pass, lat, cal.tick)
        norm.append(array("d", cal.normalise(lat, mark, wl.chunk)))
        if first is None:
            first = result
            # After set-up and one pass, before the harness keeps the
            # latencies of many passes.
            rss = peak_rss_mb(children=wl.name == "cli")
        elif result != first:
            others.append(result)
        if time.perf_counter() - start >= seconds:
            break
    passes = len(norm)
    failed = check(wl, first, others, passes)
    ops = len(wl.ops)
    per_op = per_op_medians(norm)
    pct, tail_ns, beyond = tail(per_op, wl.tail_pct)
    flips, words = wl.flips_and_words(first)
    metrics = {
        "ops_per_s": (ops * 1e9 / sum(per_op), "1/s"),
        "op_p50_us": (statistics.median(per_op) / 1e3, "us"),
        "op_tail_us": (tail_ns / 1e3, "us"),
        "peak_rss_mb": (rss, "MB"),
    }
    each = f"each op's median of {passes} passes"
    notes = {
        "ops_per_s": f"{ops} ops in a pass, {each}",
        "op_p50_us": each,
        "op_tail_us": f"p{pct:g} of {ops} ops, {beyond} beyond it; {each}",
        "peak_rss_mb": "after set-up and the first pass"
                       + (", largest child" if wl.name == "cli" else ""),
    }
    extra = {
        "flips_per_op": (flips / ops, "flips"),
        "words_per_op": (words / ops, "words"),
        "fail_ratio": (sum(failed.values()) / (passes * ops), "ratio"),
    }
    shares = wl.time_shares(per_op)
    if len(shares) > 1:
        notes["ops_per_s"] += "; time " + ", ".join(
            f"{k} {v:.0%}" for k, v in shares.items())
    return metrics, extra, notes, passes * ops, failed


def traced(wl, seed: int, seconds: float, quick: bool, cal: Calibration):
    """Half the time on the workload, untraced and traced passes taking
    turns, then half on the per-layer probes."""
    budget = seconds / 2
    per_op = {False: [], True: []}
    ops = op_ns = child_ns = self_ns = 0
    first, others, kept = None, [], None
    start = time.perf_counter()
    tracing = False
    while True:
        rec = Recorder() if tracing else None
        lat = []
        mark = len(cal.blocks)
        result = without_gc(wl.run_pass, lat, cal.tick, rec)
        scaled = sum(cal.normalise(lat, mark, wl.chunk))
        per_op[tracing].append(scaled / len(lat))
        if rec is not None:
            n, o, c = rec.totals()
            ops, op_ns, child_ns = ops + n, op_ns + o, child_ns + c
            self_ns += (o - c) * scaled / sum(lat)
            kept = kept or rec
        if first is None:
            first = result
        elif result != first:
            others.append(result)
        tracing = not tracing
        if not tracing and (quick or time.perf_counter() - start >= budget):
            break
    passes = len(per_op[False]) + len(per_op[True])
    failed = check(wl, first, others, passes)
    attempted = passes * len(wl.ops)
    metrics = {
        "bitsource.word_share": (child_ns / op_ns, "ratio"),
        "trace.self_us_per_op": (self_ns / ops / 1e3, "us"),
        "trace.overhead": (statistics.median(per_op[True])
                           / statistics.median(per_op[False]) - 1, "ratio"),
    }
    probe_metrics, probe_failed, probe_attempted = probes.run(
        wl.fd, seed, seconds - (time.perf_counter() - start), quick, cal)
    metrics.update(probe_metrics)
    failed += probe_failed
    attempted += probe_attempted
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (failed[layer], "ops")
    kept.write(OUT / f"trace-{wl.name}-{seed}.jsonl")
    return metrics, attempted, failed


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False):
    """One benchmark run; returns (report lines, result object)."""
    cal = Calibration()
    wl, setup_s = setup(name, seed, quick, cal)
    if trace:
        metrics, attempted, failed = traced(wl, seed, seconds, quick, cal)
        extra, notes = {}, {}
    else:
        metrics, extra, notes, attempted, failed = timed(wl, seconds, cal)
        metrics["setup_s"] = (setup_s, "s")
        notes["setup_s"] = f"median of {1 if quick else SETUP_REPEATS} set-ups"
    lines = [f"workload={name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}{' quick' if quick else ''}", cal.summary()]
    for key, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"{key:36} {value:<12.6g} {unit:6} {notes.get(key, '')}".rstrip())
    total_failed = sum(failed.values())
    if total_failed:
        lines.append("failed ops by layer: " + ", ".join(
            f"{k}={v}" for k, v in sorted(failed.items()) if v))
    result = {"correct": total_failed == 0, "attempted": attempted,
              "failed": total_failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small passes and a single set-up, for smoke tests")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "fastdice" / "__init__.py").is_file():
        print(f"run.py: no fastdice package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.quick)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
