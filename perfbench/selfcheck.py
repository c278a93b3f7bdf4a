#!/usr/bin/env python3
"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py

For every workload: two separate runner processes with seed 1 must
report byte-identical simulated statistics (sim metrics, counter deltas,
crossings, allocator and scheduler deltas), and seed 90210, never used
while the workloads were tuned, must also run clean. Exits non-zero on
any difference or failure.
"""

import json
import sys

import run

SEED = 1
FRESH_SEED = 90210


def sim_view(episodes):
    return json.dumps(episodes[0]["sim"], sort_keys=True)


def main():
    runner = run.build()
    bad = 0
    for w in run.WORKLOADS:
        a, _ = run.run_runner(runner, w, SEED, 0, 0)
        b, _ = run.run_runner(runner, w, SEED, 0, 0)
        same = sim_view(a) == sim_view(b)
        fresh, _ = run.run_runner(runner, w, FRESH_SEED, 0, 0)
        fresh_problems = run.check(fresh)
        problems = run.check(a) + run.check(b) + fresh_problems
        bad += not same or bool(problems)
        print(f"{w}: same-seed runs {'identical' if same else 'DIFFER'}; "
              f"seed {FRESH_SEED} "
              f"{'FAILED' if fresh_problems else 'clean'}"
              + "".join(f"\n  {p}" for p in problems), flush=True)
    print("determinism self-check", "passed" if not bad else "FAILED")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
