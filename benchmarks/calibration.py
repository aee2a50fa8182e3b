"""Steady timing: host-speed calibration, and runs without the cyclic
garbage collector.

The host's speed swings by up to a factor of two, within a second and
between runs, as other tenants come and go; the interpreter's CPU time
swings with it.  So every timed piece of work runs between two
calibration blocks, a fixed piece of interpreter work (the oracle's
bit-at-a-time draws on a fixed list of n), and its time is divided by
the mean of the two.  Blocks a few milliseconds apart see the same host,
so the ratio keeps the code's speed and drops the neighbours'.  Ratios
are turned back into times at ``REFERENCE_NS`` per block, about the
block's time on an idle 2-CPU x86-64 host under Python 3.11.
"""

from __future__ import annotations

import gc
import time

import oracle


def without_gc(fn, *args):
    """fn(*args) with the cyclic collector off, as timeit runs it, so that
    its pauses, which depend on what the harness keeps alive, stay out of
    the times.  It collects before instead."""
    gc.collect()
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


class Calibration:
    NS = [(i * 2654435761) % (1 << 40) + 3 for i in range(100)]
    REFERENCE_NS = 1e6

    def __init__(self):
        self.blocks: list[int] = []
        # The interpreter specialises the block's code over its first
        # runs; those runs would read as a slow host.
        for _ in range(3):
            self.tick()
        self.blocks.clear()

    def tick(self) -> None:
        bits = oracle.Bits(0)
        t0 = time.perf_counter_ns()
        for n in self.NS:
            oracle.uniform(bits, n)
        self.blocks.append(time.perf_counter_ns() - t0)

    def scale(self, before: int, after: int) -> float:
        """Factor from measured ns to reference ns for work run between
        blocks `before` and `after` (indices into ``blocks``)."""
        return 2 * self.REFERENCE_NS / (self.blocks[before] + self.blocks[after])

    def between(self, fn):
        """fn() between two blocks: (reference ns it took, its result)."""
        self.tick()
        t0 = time.perf_counter_ns()
        result = fn()
        elapsed = time.perf_counter_ns() - t0
        self.tick()
        return elapsed * self.scale(-2, -1), result

    def normalise(self, lat, first: int, chunk: int) -> list[float]:
        """Per-op latencies of a pass run chunk by chunk, the pass's first
        block at index `first`, in reference ns."""
        out = []
        for c, lo in enumerate(range(0, len(lat), chunk)):
            k = self.scale(first + c, first + c + 1)
            out += [x * k for x in lat[lo:lo + chunk]]
        return out

    def summary(self) -> str:
        b = sorted(self.blocks)
        return (f"calibration: {len(b)} blocks, fastest {b[0] / 1e6:.3f} ms, "
                f"median {b[len(b) // 2] / 1e6:.3f} ms, slowest {b[-1] / 1e6:.3f} ms; "
                f"times are in reference ns at {self.REFERENCE_NS / 1e6:g} ms per block")
