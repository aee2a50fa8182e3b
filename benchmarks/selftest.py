"""The benchmark's own self-test: ``python3 benchmarks/run.py --self-test``.

1. Every workload, in quick mode, on two seeds, untraced and traced: no
   op fails, so the oracle agrees with the library, and the result holds
   exactly the metrics BENCHMARK.json names, each with its unit and each
   printed on its own report line.
2. Each workload against a deliberately wrong oracle (every word of its
   bit stream with the low bit flipped, every cost a hair too high): the
   fail ratio must be above 0.
"""

from __future__ import annotations

import contextlib
import json

import oracle
import run

SEEDS = (1, 2)
SECONDS = 0.5


def declared() -> dict[bool, dict[str, str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def problems_with(lines: list[str], result: dict, names: dict[str, str]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} failed ops")
    got = result["metrics"]
    if set(got) != set(names):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(names))}")
    for name, unit in names.items():
        if name in got and got[name]["unit"] != unit:
            problems.append(f"{name} has unit {got[name]['unit']}, not {unit}")
        if not any(line.split()[:1] == [name] and f" {unit} " in f"{line} "
                   for line in lines):
            problems.append(f"{name} not printed with its unit")
    return problems


@contextlib.contextmanager
def wrong_oracle():
    splitmix64, exact_cost = oracle.splitmix64, oracle.exact_cost

    def flipped(state):
        state, word = splitmix64(state)
        return state, word ^ 1

    oracle.splitmix64 = flipped
    oracle.exact_cost = lambda n: exact_cost(n) + 2 ** -40
    try:
        yield
    finally:
        oracle.splitmix64, oracle.exact_cost = splitmix64, exact_cost


def main() -> int:
    names = declared()
    failures = 0
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            for trace in (False, True):
                lines, result = run.run(workload, seed, SECONDS, trace, quick=True)
                problems = problems_with(lines, result, names[trace])
                failures += bool(problems)
                print(f"{'FAIL' if problems else 'ok  '} {workload} seed={seed} "
                      f"trace={int(trace)} {'; '.join(problems)}".rstrip())
        with wrong_oracle():
            _, result = run.run(workload, SEEDS[0], SECONDS, False, quick=True)
        ratio = result["failed"] / result["attempted"]
        failures += ratio == 0
        print(f"{'ok  ' if ratio > 0 else 'FAIL'} {workload} wrong oracle: "
              f"fail_ratio {ratio:.3g}")
    print("self-test", "passed" if failures == 0 else f"failed ({failures})")
    return 1 if failures else 0
