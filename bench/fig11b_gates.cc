/**
 * @file
 * Figure 11b reproduction: raw gate latencies — plain function call,
 * MPK light gate, MPK DSS gate, EPT RPC gate, and Linux system calls
 * with/without KPTI — plus the other baselines and a validation row.
 *
 * `vcycles` is virtual cycles per logical call, printed beside the
 * paper's value for the six rows the paper measures. It is
 * deterministic; `--json [path]` writes it, with the paper's value, to
 * a snapshot (default BENCH_fig11b.json) instead of the table. The
 * host columns are the simulator's own ns per crossing, min and median
 * of fixed timed episodes; they move with the host, so compare builds
 * alternately.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "apps/deploy.hh"
#include "snapshot.hh"

using namespace flexos;

namespace {

/** Calls whose average virtual cycles make a row's vcycles. */
constexpr std::uint64_t iters = 2000;
/** Timed episodes per row, and crossings per episode. */
constexpr std::size_t episodes = 9;
constexpr unsigned crossingsPerEpisode = 20'000;

/** libredis and lwip in two compartments under one mechanism. */
std::string
twoComp(const char *mech, const char *gateFlavor = nullptr,
        const char *rule = nullptr)
{
    std::string text = std::string("\ncompartments:\n- c1:\n    mechanism: ") +
                       mech + "\n    default: True\n- c2:\n    mechanism: " +
                       mech + "\nlibraries:\n- libredis: c1\n- lwip: c2\n";
    if (gateFlavor || rule)
        text += "boundaries:\n";
    if (gateFlavor)
        text += std::string("- '*' -> '*': {gate: ") + gateFlavor + "}\n";
    if (rule)
        text += std::string("- '*' -> '*': ") + rule + "\n";
    return text;
}

/**
 * A call from libredis into `callee`/`entry` under `cfg`, and the
 * paper's cycles for it (Figure 11b) where it has one. `noKpti` boots
 * with KPTI off, so syscalls take the cheap path.
 */
struct Row
{
    const char *name;
    std::optional<double> paper;
    std::string cfg;
    bool noKpti = false;
    const char *callee = "lwip";
    const char *entry = "recv";
};

/** vcycles, then host ns per crossing of each episode, ascending. */
struct Result
{
    double vcycles = 0;
    std::array<double, episodes> hostNs{};
};

/**
 * A fiber in libredis's compartment drives `iters` calls through
 * `Image::gate` on a fresh deployment, then the timed episodes. The
 * gate site is resolved once, outside both loops.
 */
Result
measure(const Row &row)
{
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    if (row.noKpti)
        opts.timing.syscallKpti = opts.timing.syscallNoKpti;
    Deployment dep(row.cfg, opts);
    Image &img = dep.image();
    const GateSite site = img.site(row.callee, row.entry);

    Result res;
    bool done = false;
    img.spawnIn("libredis", "gate-bench", [&] {
        Machine &m = dep.machine();
        Cycles before = m.cycles();
        for (std::uint64_t i = 0; i < iters; ++i)
            img.gate(site, [] {});
        res.vcycles = static_cast<double>(m.cycles() - before) / iters;
        for (std::size_t e = 0; e < episodes; ++e) {
            auto t0 = std::chrono::steady_clock::now();
            for (unsigned i = 0; i < crossingsPerEpisode; ++i)
                img.gate(site, [] {});
            std::chrono::duration<double, std::nano> dt =
                std::chrono::steady_clock::now() - t0;
            res.hostNs[e] = dt.count() / crossingsPerEpisode;
        }
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    std::sort(res.hostNs.begin(), res.hostNs.end());
    return res;
}

/** The paper's rows, then the `validate:` knob. */
const std::vector<Row> rows = {
    {"function_call", 2, twoComp("intel-mpk"), false, "libredis",
     "redis_main"},
    {"mpk_light", 62, twoComp("intel-mpk", "light")},
    {"mpk_dss", 108, twoComp("intel-mpk", "dss")},
    {"ept", 462, twoComp("vm-ept")},
    {"syscall", 470, twoComp("linux-pt")},
    {"syscall_nokpti", 146, twoComp("linux-pt"), true},
    {"sel4_ipc", {}, twoComp("sel4-ipc")},
    {"cubicle_pkey_mprotect", {}, twoComp("cubicle-mpk")},
    {"cheri_sketch", {}, twoComp("cheri")},
    {"mpk_dss_validate", {}, twoComp("intel-mpk", "dss", "{validate: true}")},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && argc <= 3 && std::strcmp(argv[1], "--json") == 0) {
        // vcycles only: the host columns move with the host.
        bench::Snapshot snap("fig11b");
        for (const Row &row : rows)
            snap.number(row.name, "vcycles", measure(row).vcycles,
                        "vcycles", row.paper);
        snap.write(argc == 3 ? argv[2] : "BENCH_fig11b.json");
        return 0;
    }
    if (argc > 1) {
        std::fprintf(stderr, "usage: fig11b_gates [--json [path]]\n");
        return 2;
    }

    std::printf("=== Figure 11b: gate latency ===\n%-24s %10s %6s %12s "
                "%12s\n",
                "row", "vcycles", "paper", "host ns min", "host ns med");
    for (const Row &row : rows) {
        Result r = measure(row);
        std::string paper =
            row.paper ? std::to_string(std::lround(*row.paper)) : "-";
        std::printf("%-24s %10.10g %6s %12.1f %12.1f\n", row.name,
                    r.vcycles, paper.c_str(), r.hostNs.front(),
                    r.hostNs[episodes / 2]);
    }
    std::printf("\nhost ns per crossing: min and median of %zu episodes x "
                "%u crossings\n", episodes, crossingsPerEpisode);
    return 0;
}
