/**
 * @file
 * Figure 11b reproduction (google-benchmark): raw gate latencies —
 * plain function call, MPK light gate, MPK DSS gate, EPT RPC gate,
 * and Linux system calls with/without KPTI.
 *
 * The `vcycles` counter is virtual cycles per gate round trip; paper
 * values: function 2, MPK-light 62, MPK-dss 108, EPT 462, syscall 470,
 * syscall-nokpti 146. The time column is the simulator's host cost of
 * one crossing.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "apps/deploy.hh"

using namespace flexos;

namespace {

std::string
twoComp(const char *mech, const char *gateFlavor = nullptr,
        const char *extraRule = nullptr)
{
    std::string text = std::string(R"(
compartments:
- c1:
    mechanism: )") + mech + R"(
    default: True
- c2:
    mechanism: )" + mech + R"(
libraries:
- libredis: c1
- lwip: c2
)";
    if (gateFlavor || extraRule)
        text += "boundaries:\n";
    if (gateFlavor)
        text += std::string("- '*' -> '*': {gate: ") + gateFlavor +
                "}\n";
    if (extraRule)
        text += std::string("- ") + extraRule + "\n";
    return text;
}

/**
 * One benchmark row. A fiber in libredis's compartment first drives
 * `iters` logical calls through `cross` (each invocation carries
 * `callsPerCross` of them) on a fresh deployment and reports their
 * average virtual cycles as the `vcycles` counter. It then runs the
 * same crossing inside the timed loop, so the time column is host ns
 * per crossing (per vectored chunk on the batched rows).
 */
template <typename Cross>
void
runRow(benchmark::State &state, const std::string &cfgText, bool noKpti,
       std::size_t callsPerCross, Cross cross)
{
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    if (noKpti) {
        // Reboot with KPTI disabled: syscalls get the cheap path.
        opts.timing.syscallKpti = opts.timing.syscallNoKpti;
    }
    Deployment dep(cfgText, opts);
    Image &img = dep.image();

    constexpr std::uint64_t iters = 2000;
    static_assert(iters % 8 == 0 && iters % 4 == 0,
                  "iters must divide evenly into batch widths");
    Cycles measured = 0;
    bool done = false;
    img.spawnIn("libredis", "gate-bench", [&] {
        Machine &m = dep.machine();
        Cycles before = m.cycles();
        for (std::uint64_t i = 0; i < iters; i += callsPerCross)
            cross(img);
        measured = m.cycles() - before;
        for (auto _ : state)
            cross(img);
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    state.counters["vcycles"] =
        static_cast<double>(measured) / static_cast<double>(iters);
}

/** Virtual cycles and host ns of one gate round trip. */
void
gateBench(benchmark::State &state, const std::string &cfg,
          bool sameComp, bool noKpti)
{
    const std::string callee = sameComp ? "libredis" : "lwip";
    const char *entry = sameComp ? "redis_main" : "recv";
    runRow(state, cfg, noKpti, 1,
           [&](Image &img) { img.gate(callee, entry, [] {}); });
}

/**
 * Virtual cycles per LOGICAL call when calls ride vectored crossings
 * of the given width — the amortization the `batch:` knob buys: one
 * backend transition (one EPT doorbell) per chunk plus a per-slot
 * dispatch cost, instead of a full round trip per call. width 1 is
 * the identity case and must match gateBench exactly.
 */
void
batchedGateBench(benchmark::State &state, const std::string &cfg,
                 std::size_t width)
{
    std::vector<std::function<void()>> bodies(width, [] {});
    runRow(state, cfg, false, width, [&](Image &img) {
        img.gateBatch("lwip", "recv", bodies);
    });
}

/** Fastest repetition: preemption and a busy neighbour only ever add
 *  time within a run, so the minimum is the least inflated repetition.
 *  It does not cancel the host's speed drift between runs. */
double
minOf(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

} // namespace

/**
 * Every row runs a fixed 9 repetitions and reports only their
 * aggregates, the minimum among them. One run's host time moves
 * 15-30 % between back-to-back invocations; the median and the minimum
 * of 9 each move 10-60 % depending on the row. `vcycles` is the same
 * in every repetition.
 */
#define GATE_ROW(...)                                                     \
    BENCHMARK_CAPTURE(__VA_ARGS__)                                        \
        ->Repetitions(9)                                                  \
        ->ReportAggregatesOnly(true)                                      \
        ->ComputeStatistics("min", minOf)

GATE_ROW(gateBench, function_call, twoComp("intel-mpk"), true, false);
GATE_ROW(gateBench, mpk_light, twoComp("intel-mpk", "light"), false, false);
GATE_ROW(gateBench, mpk_dss, twoComp("intel-mpk", "dss"), false, false);
GATE_ROW(gateBench, ept, twoComp("vm-ept"), false, false);
GATE_ROW(gateBench, syscall, twoComp("linux-pt"), false, false);
GATE_ROW(gateBench, syscall_nokpti, twoComp("linux-pt"), false, true);
GATE_ROW(gateBench, sel4_ipc, twoComp("sel4-ipc"), false, false);
GATE_ROW(gateBench, cubicle_pkey_mprotect,
         twoComp("cubicle-mpk"), false, false);
GATE_ROW(gateBench, cheri_sketch, twoComp("cheri"), false, false);

// --- Vectored crossings: the `batch:` / `coalesce:` / `elide:` knobs.
// batch: 1 is regression-pinned to the sequential gate (vcycle-
// identical by construction); batch: 8 amortizes the transition —
// one EPT doorbell per eight calls — and the EPT step-change is the
// headline number. The elide rows show repeated same-boundary
// crossings shedding the entry-validate / return-scrub charges.
GATE_ROW(batchedGateBench, ept_batch1,
         twoComp("vm-ept", nullptr, "'*' -> '*': {batch: 1}"), 1);
GATE_ROW(batchedGateBench, ept_batch4,
         twoComp("vm-ept", nullptr, "'*' -> '*': {batch: 4}"), 4);
GATE_ROW(batchedGateBench, ept_batch8,
         twoComp("vm-ept", nullptr, "'*' -> '*': {batch: 8}"), 8);
GATE_ROW(batchedGateBench, ept_batch8_coalesce,
         twoComp("vm-ept", nullptr,
                 "'*' -> '*': {batch: 8, coalesce: 2000}"),
         8);
GATE_ROW(batchedGateBench, mpk_dss_batch8,
         twoComp("intel-mpk", "dss", "'*' -> '*': {batch: 8}"), 8);
GATE_ROW(batchedGateBench, cheri_batch8,
         twoComp("cheri", nullptr, "'*' -> '*': {batch: 8}"), 8);
GATE_ROW(gateBench, mpk_dss_validate,
         twoComp("intel-mpk", "dss", "'*' -> '*': {validate: true}"),
         false, false);
GATE_ROW(gateBench, mpk_dss_elide_both,
         twoComp("intel-mpk", "dss",
                 "'*' -> '*': {validate: true, elide: both}"),
         false, false);
GATE_ROW(gateBench, ept_elide_scrub,
         twoComp("vm-ept", nullptr, "'*' -> '*': {elide: scrub}"),
         false, false);

BENCHMARK_MAIN();
