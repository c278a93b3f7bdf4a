#!/usr/bin/env python3
"""The repository benchmark: build the workload runner, run one workload,
check its outputs, print every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--record results.jsonl]

Run it from the repository root. It builds perfbench/ (which compiles
flexos from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs episodes of the workload for --seconds
of host time. A report goes to stdout; its last line is one JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. --record
appends the run's full record (metrics plus every simulated statistic)
to a JSON-lines file that compare.py reads. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spec():
    """BENCHMARK.json: the workloads, and each metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


SPEC = spec()
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# end-to-end metric -> (clock, definition)
END_TO_END = {
    "sim_ops_per_s": ("sim", "completed ops per simulated second"),
    "sim_p50_vcycles": ("sim", "median per-op latency"),
    "sim_p999_vcycles": ("sim", "p99.9 per-op latency"),
    "host_ns_per_op": ("host", "host time of the measured phase per op"),
    "sweep_s": ("host", "host time of one measured pass"),
    "setup_s": ("host", "workload start to the first measured op"),
    "peak_rss_mb": ("host", "peak RSS of the runner process"),
}

# per-layer metric -> the end-to-end metric it should move
PER_LAYER = {
    "machine.vcycles_per_op": "sim_ops_per_s, sim_p50",
    "machine.idle_frac": "sim_ops_per_s",
    "machine.stall_cycles_per_op": "sim_p50",
    "machine.mmu_violations": "error_rate",
    "core.crossings_per_op": "sim_ops_per_s, host_ns_per_op",
    **{f"core.crossings_per_op.c{a}-c{b}": "sim_ops_per_s"
       for a in range(3) for b in range(3) if a != b},
    "core.batch_fill": "sim_ops_per_s",
    "core.cross_core_per_op": "sim_p50",
    "core.dss_allocs_per_op": "sim_p50",
    "core.validate_per_op": "sim_p50",
    "core.image_build_ms": "setup_s, sweep_s",
    "backends.mpk_gates_per_op": "sim_p50, sim_p999",
    "backends.ept_rpcs_per_op": "sim_p50, sim_p999",
    "backends.ept_ring_depth_max": "sim_p999",
    "backends.ept_coalesced": "sim_p50",
    "backends.ept_elastic_spawns": "sim_p999",
    "uksched.switches_per_op": "host_ns_per_op, sim_ops_per_s",
    "uksched.ipis_per_op": "sim_p50",
    "uksched.steals_per_op": "sim_ops_per_s",
    "uksched.dispatch_imbalance": "sim_ops_per_s",
    "uksched.host_ns_per_op.first_decile": "host_ns_per_op",
    "uksched.host_ns_per_op.last_decile": "host_ns_per_op",
    "net.segments_out_per_op": "sim_ops_per_s, host_ns_per_op",
    "net.nic_rx_per_op": "sim_ops_per_s, host_ns_per_op",
    "net.frames_per_rx_burst": "sim_ops_per_s",
    "net.retransmits": "sim_p999, error_rate",
    "net.nic_dropped": "sim_p999, error_rate",
    "net.backlog_drops": "sim_p999, error_rate",
    **{f"ukalloc.allocs_per_op.{c}": "sim_p50"
       for c in ("c0", "c1", "c2", "shared")},
    **{f"ukalloc.steps_per_alloc.{c}": "sim_p50"
       for c in ("c0", "c1", "c2", "shared")},
    "ukalloc.failed": "error_rate",
    "vfs.ops_per_op": "sim_p50",
    "vfs.ramfs_ops_per_op": "sim_p50",
    "apps.redis.commands_served": "error_rate",
    "apps.exec_host_ns.p50": "host_ns_per_op",
    "apps.exec_host_ns.p99": "host_ns_per_op",
    "apps.latency_samples": "sim_p999",
    "apps.beyond_p999": "sim_p999",
    "explore.configs_evaluated": "sweep_s",
    "explore.pruned_frac": "sweep_s",
    "explore.starred": "-",
    "explore.build_ms": "sweep_s, setup_s",
    "explore.serve_ms": "sweep_s",
    "explore.teardown_ms": "sweep_s",
    "analysis.audit_ms_per_config": "sweep_s",
    "trace.overhead_frac": "-",
    "trace.spans": "-",
}

# Each episode's host times are scaled to the machine speed at which
# calibrate() in runner.cc, run just before the episode, takes this long
# (about its median on the shared 4-core 2.0 GHz VM the benchmark was
# tuned on). A shared machine's speed drifts by up to 1.5x within
# minutes; the kernel drifts with it, while a change to flexos moves
# only the workload.
CALIBRATION_REF_NS = 35e6

# Paper figures the repository already reproduces (informational only).
PAPER = {
    "fig10_ept2_s_per_5000": 0.173,
    "fig8_starred": 5,
    "fig6_min_req_per_s": 292e3,
    "fig6_max_req_per_s": 1199e3,
}


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build the runner; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "perfbench_runner")


def run_runner(runner, workload, seed, seconds, trace, trace_out=None):
    """Run the runner binary; returns (episodes, end record)."""
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=170, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("runner timed out")
    if proc.returncode != 0:
        raise BenchError(f"runner exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
    episodes = [d for d in lines if d["kind"] == "episode"]
    end = [d for d in lines if d["kind"] == "end"]
    if not episodes or len(end) != 1:
        raise BenchError("runner output incomplete")
    return episodes, end[0]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def check(episodes):
    """Correctness and in-run determinism; returns a list of problems."""
    problems = []
    first = json.dumps(episodes[0]["sim"], sort_keys=True)
    for ep in episodes:
        if ep["sim"]["failed"] or ep["errors"]:
            problems.append(f"episode {ep['index']}: "
                            f"{ep['sim']['failed']} failed: "
                            + "; ".join(ep["errors"][:5]))
        if json.dumps(ep["sim"], sort_keys=True) != first:
            diff = sorted(k for k in ep["sim"]
                          if ep["sim"][k] != episodes[0]["sim"].get(k))
            problems.append(f"episode {ep['index']}: simulated statistics "
                            f"differ from episode 0 in {diff}")
    return problems


def host_of(episodes, traced):
    """Host records of one kind; episode 0 is warm-up when others exist."""
    eps = [ep for ep in episodes if ep["traced"] == traced]
    if len(eps) > 1 and eps[0]["index"] == 0:
        eps = eps[1:]
    return [ep["host"] for ep in eps]


def speed_scale(host):
    """Factor taking one episode's host times to the reference speed."""
    return CALIBRATION_REF_NS / host["calibration_ns"]


def host_median(hosts, fn):
    """Median over episodes of fn(host record), at the reference speed."""
    return median([speed_scale(h) * fn(h) for h in hosts])


def end_to_end(episodes, end):
    sim = episodes[0]["sim"]
    ops = sim["attempted"]
    sim_s = sim["sim_cycles"] / (sim["cpu_ghz"] * 1e9)
    host = host_of(episodes, False)
    m = {
        "sim_ops_per_s": ratio(ops - sim["failed"], sim_s),
        "sim_p50_vcycles": float(sim["lat_p50_cycles"]),
        "sim_p999_vcycles": float(sim["lat_p999_cycles"]),
        "host_ns_per_op": host_median(
            host, lambda h: h["measured_s"] * 1e9 / ops),
        "sweep_s": host_median(host, lambda h: h["measured_s"]),
        "setup_s": host_median(host, lambda h: h["setup_s"]),
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
    }
    return {x["name"]: m[x["name"]] for x in SPEC["end_to_end"]}


def per_layer(episodes, end):
    sim = episodes[0]["sim"]
    ops = sim["attempted"]
    c = sim["counters"]
    facts = sim["facts"]
    traced = host_of(episodes, True)
    untraced = host_of(episodes, False)

    def per_op(key):
        return ratio(c.get(key, 0), ops)

    dispatches = sim["dispatches"]
    m = {
        "machine.vcycles_per_op": ratio(sim["busy_cycles"], ops),
        "machine.idle_frac": ratio(c.get("machine.idleCycles", 0),
                                   sim["core_wall_cycles"]),
        "machine.stall_cycles_per_op": per_op("machine.stallCycles"),
        "machine.mmu_violations": c.get("mmu.violations", 0),
        "core.crossings_per_op": ratio(sum(sim["crossings"].values()), ops),
        "core.batch_fill": ratio(c.get("gate.batchedCalls", 0),
                                 c.get("gate.batched", 0)),
        "core.cross_core_per_op": per_op("gate.crossCore"),
        "core.dss_allocs_per_op": per_op("dss.stackAllocs"),
        "core.validate_per_op": per_op("gate.validate"),
        "core.image_build_ms": host_median(
            traced, lambda h: ratio(h["image_build_ms"], h["configs"])),
        "backends.mpk_gates_per_op": ratio(
            c.get("gate.mpk.light", 0) + c.get("gate.mpk.dss", 0), ops),
        "backends.ept_rpcs_per_op": per_op("gate.ept"),
        "backends.ept_ring_depth_max": sim["ring_depth_max"],
        "backends.ept_coalesced": c.get("gate.coalesced", 0),
        "backends.ept_elastic_spawns": c.get("gate.ept.elasticSpawns", 0),
        "uksched.switches_per_op": ratio(sim["switches"], ops),
        "uksched.ipis_per_op": per_op("sched.ipis"),
        "uksched.steals_per_op": per_op("sched.steals"),
        "uksched.dispatch_imbalance": ratio(max(dispatches),
                                            max(min(dispatches), 1)),
        "uksched.host_ns_per_op.first_decile": host_median(
            traced, lambda h: ratio(h["decile_ns"][0], h["decile_ops"][0])),
        "uksched.host_ns_per_op.last_decile": host_median(
            traced, lambda h: ratio(h["decile_ns"][9], h["decile_ops"][9])),
        "net.segments_out_per_op": per_op("tcp.segmentsOut"),
        "net.nic_rx_per_op": per_op("nic.rx"),
        "net.frames_per_rx_burst": ratio(c.get("nic.rx", 0),
                                         c.get("gate.batched", 0)),
        "net.retransmits": c.get("tcp.retransmits", 0),
        "net.nic_dropped": c.get("nic.dropped", 0),
        "net.backlog_drops": c.get("tcp.backlogDrops", 0),
        "ukalloc.failed": sim["alloc_failed"],
        "vfs.ops_per_op": per_op("vfs.ops"),
        "vfs.ramfs_ops_per_op": per_op("ramfs.ops"),
        "apps.redis.commands_served": sim["commands_served"],
        "apps.exec_host_ns.p50": host_median(
            traced, lambda h: h["op_host_ns_p50"]),
        "apps.exec_host_ns.p99": host_median(
            traced, lambda h: h["op_host_ns_p99"]),
        "apps.latency_samples": sim["samples"],
        "apps.beyond_p999": sim["beyond_p999"],
        "explore.configs_evaluated": facts.get("evaluated", 0),
        "explore.pruned_frac": ratio(facts.get("pruned", 0),
                                     facts.get("evaluated", 0)
                                     + facts.get("pruned", 0)),
        "explore.starred": facts.get("starred", 0),
        "explore.build_ms": host_median(
            traced, lambda h: ratio(h["build_ms"], h["configs"])),
        "explore.serve_ms": host_median(
            traced, lambda h: ratio(h["serve_ms"], h["configs"])),
        "explore.teardown_ms": host_median(
            traced, lambda h: ratio(h["teardown_ms"], h["configs"])),
        "analysis.audit_ms_per_config": host_median(
            traced, lambda h: ratio(h["audit_ms"], h["audits"])),
        "trace.overhead_frac": ratio(
            host_median(traced, lambda h: h["measured_s"]),
            host_median(untraced, lambda h: h["measured_s"])) - 1.0,
        "trace.spans": end["trace_spans"],
    }
    for a in range(3):
        for b in range(3):
            if a != b:
                key = f"c{a}-c{b}"
                m[f"core.crossings_per_op.{key}"] = ratio(
                    sim["crossings"].get(key, 0), ops)
    for comp in ("c0", "c1", "c2", "shared"):
        allocs = sim["allocs"].get(comp, 0)
        m[f"ukalloc.allocs_per_op.{comp}"] = ratio(allocs, ops)
        m[f"ukalloc.steps_per_alloc.{comp}"] = ratio(
            sim["alloc_steps"].get(comp, 0), allocs)
    return {x["name"]: float(m[x["name"]]) for x in SPEC["per_layer"]}


def report(workload, episodes, metrics, trace, scale):
    """Human-readable lines; the JSON result follows them."""
    sim = episodes[0]["sim"]
    ghz = sim["cpu_ghz"]
    facts = sim["facts"]
    print(f"== {workload}: {len(episodes)} episodes "
          f"({sum(ep['traced'] for ep in episodes)} traced)")
    print(f"  host times scaled per episode to a "
          f"{CALIBRATION_REF_NS / 1e6:.0f} ms calibration kernel; median "
          f"factor {scale:.4f} (kernel {CALIBRATION_REF_NS / scale / 1e6:.2f}"
          f" ms this run), so raw ~ value / {scale:.4f}")
    print(f"  error_rate = {ratio(sim['failed'], sim['attempted']):.6g} "
          f"(failed / attempted = {sim['failed']} / {sim['attempted']})")
    if not trace:
        for name, value in metrics.items():
            unit = UNITS[name]
            clock, what = END_TO_END[name]
            extra = ""
            if unit == "vcycles":
                extra = f"  = {value / ghz / 1e3:.4f} us at {ghz} GHz"
            if name == "sim_p999_vcycles":
                extra += (f"  (n = {sim['samples']}, {sim['beyond_p999']} "
                          f"ranked beyond p99.9)")
            print(f"  [{clock:4}] {name} = {value:.6g} {unit}{extra}"
                  f"  -- {what}")
    else:
        print(f"  {'metric':42} {'value':>14} {'unit':8} should move")
        for name, value in metrics.items():
            unit, moves = UNITS[name], PER_LAYER[name]
            print(f"  {name:42} {value:14.6g} {unit:8} {moves}")
        edges_ms = host_median([ep["host"] for ep in episodes[1:]],
                               lambda h: h["poset_edges_ms"])
        print(f"  explore.poset_edges_ms = {edges_ms:.4g} ms "
              "(host; explore set-up only)")
    # Paper reference: informational, never gated.
    if "sim_s_per_5000" in facts:
        ours = facts["sim_s_per_5000"]
        ref = PAPER["fig10_ept2_s_per_5000"]
        print(f"  paper (fig10 EPT2, 5000 INSERTs): {ref} s; model "
              f"{ours:.4f} s sim, scaled from this run "
              f"({100 * (ours - ref) / ref:+.0f}%; bench/fig10_sqlite "
              "measures 0.039 s for 5000 INSERTs into an empty table)")
    if "starred" in facts:
        print(f"  paper (fig8): {PAPER['fig8_starred']} starred; model "
              f"{facts['starred']:.0f} starred of {facts['evaluated']:.0f} "
              f"evaluated, {facts['pruned']:.0f} pruned")
        print(f"  paper (fig6): {PAPER['fig6_min_req_per_s'] / 1e3:.0f}k.."
              f"{PAPER['fig6_max_req_per_s'] / 1e3:.0f}k req/s; model "
              f"{facts['min_req_per_s'] / 1e3:.0f}k.."
              f"{facts['max_req_per_s'] / 1e3:.0f}k req/s over the "
              "evaluated points (a 4-connection closed loop)")
    if "sim_s_per_5000" in facts or "starred" in facts:
        print("  (the model is otherwise unvalidated against hardware)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full run record here")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")

    try:
        runner = build()
        trace_out = None
        if args.trace:
            os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
            trace_out = os.path.join(build_dir(), "traces",
                                     f"{args.workload}-seed{args.seed}.json")
        episodes, end = run_runner(runner, args.workload, args.seed,
                                   args.seconds, args.trace, trace_out)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    problems = check(episodes)
    scale = median([speed_scale(ep["host"]) for ep in episodes[1:]])
    metrics = (per_layer if args.trace else end_to_end)(episodes, end)
    report(args.workload, episodes, metrics, args.trace, scale)
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    if trace_out:
        print(f"  trace: {os.path.relpath(trace_out, ROOT)} "
              f"({end['trace_spans']} spans, Chrome trace-event JSON)")
    sim = episodes[0]["sim"]
    correct = not problems
    result = {
        "correct": correct,
        "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "correct": correct,
                  "host_scale": scale, "metrics": metrics, "sim": sim}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
