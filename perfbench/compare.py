#!/usr/bin/env python3
"""Collect sets of benchmark results and compare them.

    # run every workload on seeds 1..10, appending records to a file
    python3 perfbench/compare.py collect --out parent.jsonl --seeds 1-10

    # per workload and metric: median, quartiles, spread vs its bound
    python3 perfbench/compare.py spread parent.jsonl

    # two sets side by side: medians, quartiles, change, regressions,
    # and every simulated statistic that differs for the same seed
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

Records come from `run.py --record FILE`. A simulator-only change must
leave every simulated statistic identical: diff lists each (workload,
seed) whose sim metrics or counter deltas moved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def grouped(records, trace=0):
    """{workload: {metric: [values]}} for one trace mode."""
    out = {}
    for r in records:
        if r["trace"] != trace:
            continue
        per = out.setdefault(r["workload"], {})
        for k, v in r["metrics"].items():
            per.setdefault(k, []).append(v)
    return out


def collect(args):
    failures = 0
    for w in run.WORKLOADS:
        for seed in seeds_arg(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", w, "--seed", str(seed), "--seconds",
                   str(run.SPEC["run_seconds"]), "--trace", "0",
                   "--record", os.path.abspath(args.out)]
            proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                                  text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{w} seed {seed}: exit {proc.returncode} {last[0][:100]}",
                  flush=True)
            failures += proc.returncode != 0
    return 1 if failures else 0


def spread(args):
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    worst = 0
    for w, metrics in grouped(load(args.results)).items():
        print(f"== {w}")
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            s = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if s > bound:
                    flag, worst = "  OVER BOUND", 2
                elif s > bound / 3:
                    flag, worst = "  above bound/3", max(worst, 1)
            print(f"  {name:18} n={len(values):2} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={s:.4f}"
                  f" bound={bound}{flag}")
    return 1 if worst == 2 else 0


def diff(args):
    cfg = run.SPEC
    better = {m["name"]: m["better"] for m in cfg["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    a, b = load(args.a), load(args.b)
    ga, gb = grouped(a), grouped(b)
    regressions = 0
    for w in sorted(set(ga) | set(gb)):
        print(f"== {w}")
        print(f"  {'metric':18} {'A median [q1, q3]':36} "
              f"{'B median [q1, q3]':36} change")
        for name in sorted(set(ga.get(w, {})) | set(gb.get(w, {}))):
            qa = quartiles(ga.get(w, {}).get(name, []))
            qb = quartiles(gb.get(w, {}).get(name, []))
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = -change if better.get(name) == "higher" else change
            flag = ""
            if name in bounds and worse > bounds[name]:
                flag = "  REGRESSION"
                regressions += 1
            print(f"  {name:18} {qa[1]:<12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"{'':4} {qb[1]:<12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"{'':4} {change:+.2%}{flag}")

    # Simulated statistics must repeat exactly for the same seed.
    index = {(r["workload"], r["seed"], r["trace"]): r for r in a}
    moved = 0
    for r in b:
        other = index.get((r["workload"], r["seed"], r["trace"]))
        if not other:
            continue
        keys = sorted(k for k in set(r["sim"]) | set(other["sim"])
                      if r["sim"].get(k) != other["sim"].get(k))
        sim_metrics = sorted(k for k in r["metrics"]
                             if k.startswith("sim_") and
                             r["metrics"][k] != other["metrics"].get(k))
        if keys or sim_metrics:
            moved += 1
            detail = []
            for k in keys:
                va, vb = other["sim"].get(k), r["sim"].get(k)
                if isinstance(va, dict) and isinstance(vb, dict):
                    sub = sorted(s for s in set(va) | set(vb)
                                 if va.get(s) != vb.get(s))
                    detail.append(f"{k}[{', '.join(sub[:8])}]")
                else:
                    detail.append(k)
            print(f"SIM DIFFERS {r['workload']} seed {r['seed']}: "
                  f"{', '.join(sim_metrics + detail)}")
    if not moved:
        print("simulated statistics identical for every shared "
              "(workload, seed)")
    print(f"{regressions} regression(s) beyond bound; {moved} run(s) with "
          "moved simulated statistics")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run every workload x seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    s = sub.add_parser("spread", help="quartile spread per metric")
    s.add_argument("results")
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args()
    return {"collect": collect, "spread": spread, "diff": diff}[args.cmd](
        args)


if __name__ == "__main__":
    sys.exit(main())
