/**
 * @file
 * Figure 9 reproduction: iPerf network-stack throughput against the
 * receive buffer size (16 B .. 16 KiB) for: vanilla Unikraft, FlexOS
 * with no isolation, FlexOS MPK with shared call stacks (-light),
 * FlexOS MPK with protected stacks + DSS (-dss), and FlexOS EPT with
 * two compartments.
 *
 * Expected shape (paper 6.3): FlexOS NONE == Unikraft ("you only pay
 * for what you get"); MPK converges to baseline from ~128 B buffers;
 * EPT needs ~256 B to reach ~90% of baseline.
 *
 * A second, multi-flow mode (`--flows [N...]`, also run by default)
 * drives N parallel connections through one listener and reports the
 * aggregate goodput, exercising the accept backlog, the flow table and
 * per-connection reassembly under concurrent traffic. With `--cores
 * [M...]` the server machine simulates M cores: RSS steers each
 * connection to one core's RX queue, the per-queue pollers and flow
 * workers are pinned there, and aggregate goodput is expected to scale
 * with cores (wall time is the furthest-ahead core's clock). On one
 * core it holds steady (not multiplying) as flows are added; the
 * interesting signals are fairness and the absence of collapse. The
 * run exits 1 if a row with flows >= cores > 1 reaches less than
 * minCoreScaling x the 1-core aggregate of the same flow count (when
 * the sweep includes 1 core), so CI can hold the SMP shape.
 *
 * `--json [path]` writes the flows x cores matrix to a snapshot
 * (default BENCH_fig09.json) for regression tracking instead of the
 * table. The scaling check runs first: on a collapse the run exits 1
 * and writes no file.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/audit.hh"
#include "apps/deploy.hh"
#include "apps/iperf.hh"
#include "snapshot.hh"

using namespace flexos;

namespace {

const char *noneCfg = R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libiperf: all
- newlib: all
- uksched: all
- lwip: all
)";

std::string
mpk2Cfg(const char *flavor)
{
    return std::string(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libiperf: comp1
- newlib: comp2
- uksched: comp2
- lwip: comp2
boundaries:
- '*' -> '*': {gate: )") + flavor + "}\n";
}

const char *ept2Cfg = R"(
compartments:
- comp1:
    mechanism: vm-ept
    default: True
- comp2:
    mechanism: vm-ept
libraries:
- libiperf: comp1
- newlib: comp2
- uksched: comp2
- lwip: comp2
)";

double
run(const std::string &cfgText, std::size_t bufSize,
    StackSharing sharing = StackSharing::Dss)
{
    SafetyConfig cfg = SafetyConfig::parse(cfgText);
    cfg.stackSharing = sharing;
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(cfg, opts);
    dep.start();
    IperfResult res = runIperf(dep.image(), dep.libc(),
                               dep.clientStack(), 512 * 1024, bufSize);
    dep.stop();
    return res.gbitPerSec;
}

constexpr std::size_t multiBufSize = 16 * 1024;
constexpr std::uint64_t multiBytesPerFlow = 256 * 1024;

/**
 * Least aggregate-goodput gain of M > 1 cores over 1 core at the same
 * flow count N >= M. RSS spreads the flows over every core, so the
 * model gives about M x (lowest: 1.98x, 2 flows on 2 cores); under
 * 1.5x, connections no longer spread.
 */
constexpr double minCoreScaling = 1.5;

IperfResult
runMulti(const std::string &cfgText, unsigned flows, std::size_t bufSize,
         std::uint64_t bytesPerFlow, unsigned cores = 1)
{
    SafetyConfig cfg = SafetyConfig::parse(cfgText);
    cfg.stackSharing = StackSharing::Dss;
    cfg.cores = cores ? cores : 1;
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(cfg, opts);
    dep.start();
    IperfResult res = runIperf(dep.image(), dep.libc(), dep.clientStack(),
                               bytesPerFlow, bufSize, flows);
    dep.stop();
    return res;
}

/** One cell of the flows x cores goodput matrix. */
struct Cell
{
    unsigned flows;
    unsigned cores;
    IperfResult res;
};

std::vector<Cell>
sweep(const std::vector<unsigned> &flowCounts,
      const std::vector<unsigned> &coreCounts)
{
    std::vector<Cell> cells;
    for (unsigned flows : flowCounts)
        for (unsigned cores : coreCounts)
            cells.push_back({flows, cores,
                             runMulti(noneCfg, flows, multiBufSize,
                                      multiBytesPerFlow, cores)});
    return cells;
}

/** Print the flows x cores goodput table. */
void
multiFlowTable(const std::vector<Cell> &cells, bool oneCoreOnly)
{
    std::printf("\n=== Multi-flow iPerf: aggregate goodput (Gb/s) vs "
                "concurrent connections (FlexOS-NONE, %zu B buffer) "
                "===\n",
                multiBufSize);
    std::printf("%-8s %-8s %-12s %-14s %-12s\n", "flows", "cores",
                "aggregate", "per-flow avg", "vs first");

    const double single = cells.front().res.gbitPerSec;
    for (const Cell &c : cells) {
        const double gbps = c.res.gbitPerSec;
        char ratio[32];
        std::snprintf(ratio, sizeof(ratio), "%.2fx",
                      single > 0 ? gbps / single : 0);
        std::printf("%-8u %-8u %-12.3f %-14.3f %-12s\n", c.flows,
                    c.cores, gbps, gbps / c.flows, ratio);
    }
    if (oneCoreOnly)
        std::printf("\nexpected shape: aggregate holds (single "
                    "simulated core); no collapse as flows scale\n");
    else
        std::printf("\nexpected shape: aggregate scales with cores "
                    "while flows >= cores (RSS spreads connections); "
                    "holds steady per core count as flows grow\n");
}

/**
 * Whether every row with flows >= cores > 1 reaches minCoreScaling x
 * the 1-core aggregate of its flow count (rows whose flow count has
 * no 1-core cell are not checked). Each failing row is named on
 * stderr.
 */
bool
scalesWithCores(const std::vector<Cell> &cells)
{
    std::map<unsigned, double> oneCore; // flows -> 1-core aggregate
    for (const Cell &c : cells)
        if (c.cores == 1)
            oneCore[c.flows] = c.res.gbitPerSec;
    bool ok = true;
    for (const Cell &c : cells) {
        auto base = oneCore.find(c.flows);
        if (c.cores == 1 || c.flows < c.cores || base == oneCore.end() ||
            c.res.gbitPerSec >= minCoreScaling * base->second)
            continue;
        std::fprintf(stderr,
                     "fig09_iperf: %u flows on %u cores reach %.3f Gb/s, "
                     "under %.1fx the 1-core %.3f Gb/s\n",
                     c.flows, c.cores, c.res.gbitPerSec, minCoreScaling,
                     base->second);
        ok = false;
    }
    return ok;
}

/**
 * The flows x cores goodput matrix as a snapshot (BENCH_fig09.json):
 * the regression-tracked artefact for the SMP machine model.
 */
void
writeSnapshot(const char *path, const std::vector<Cell> &cells)
{
    bench::Snapshot snap("fig09");
    // The swept configuration's static boundary-audit hazard score
    // (lower = cleaner boundaries). No escape scan, as for the sweeps'
    // scores.
    analysis::AuditOptions audit;
    audit.escape = false;
    snap.number("flexos-none", "audit_score",
                analysis::runAudit(SafetyConfig::parse(noneCfg),
                                   LibraryRegistry::standard(), audit)
                    .score(),
                "score");
    snap.number("flexos-none", "buf_bytes", multiBufSize, "B");
    snap.number("flexos-none", "bytes_per_flow", multiBytesPerFlow, "B");
    for (const Cell &c : cells) {
        std::string row = "flows=" + std::to_string(c.flows) +
                          " cores=" + std::to_string(c.cores);
        snap.number(row, "gbps", c.res.gbitPerSec, "Gb/s");
        snap.number(row, "seconds", c.res.seconds, "s");
        snap.number(row, "bytes", c.res.bytes, "B");
    }
    snap.write(path);
}

} // namespace

int
main(int argc, char **argv)
{
    // `--flows [N...]` runs only the multi-flow table, optionally with
    // an explicit list of connection counts. `--cores [M...]` adds
    // simulated core counts as a second sweep dimension, and
    // `--json [path]` writes the matrix to a snapshot file.
    std::vector<unsigned> flowCounts;
    std::vector<unsigned> coreCounts;
    bool flowsMode = false;
    bool jsonMode = false;
    const char *jsonPath = "BENCH_fig09.json";
    std::vector<unsigned> *sink = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--flows") == 0) {
            flowsMode = true;
            sink = &flowCounts;
            continue;
        }
        if (std::strcmp(argv[i], "--cores") == 0) {
            flowsMode = true;
            sink = &coreCounts;
            continue;
        }
        if (std::strcmp(argv[i], "--json") == 0) {
            flowsMode = true;
            jsonMode = true;
            if (i + 1 < argc && argv[i + 1][0] != '-' &&
                (argv[i + 1][0] < '0' || argv[i + 1][0] > '9'))
                jsonPath = argv[++i];
            sink = nullptr;
            continue;
        }
        char *end = nullptr;
        unsigned long v = std::strtoul(argv[i], &end, 10);
        if (!sink || end == argv[i] || *end != '\0' || v == 0 ||
            v > 1024) {
            std::fprintf(stderr,
                         "fig09_iperf: invalid argument '%s' (usage: "
                         "[--flows N...] [--cores M...] "
                         "[--json [path]])\n",
                         argv[i]);
            return 2;
        }
        sink->push_back(static_cast<unsigned>(v));
    }
    if (flowsMode) {
        if (flowCounts.empty())
            flowCounts = {1, 2, 4, 8, 16, 32};
        if (coreCounts.empty())
            coreCounts = {1};
        std::vector<Cell> cells = sweep(flowCounts, coreCounts);
        if (!jsonMode)
            multiFlowTable(cells, coreCounts.size() == 1 &&
                                      coreCounts[0] == 1);
        if (!scalesWithCores(cells))
            return 1;
        if (jsonMode)
            writeSnapshot(jsonPath, cells);
        return 0;
    }

    std::printf("=== Figure 9: iPerf throughput (Gb/s) vs receive "
                "buffer size ===\n");
    std::printf("%-8s %-10s %-12s %-12s %-12s %-10s\n", "bufsize",
                "Unikraft", "FlexOS-NONE", "MPK2-light", "MPK2-dss",
                "EPT2");

    for (unsigned shift = 4; shift <= 14; ++shift) {
        std::size_t buf = std::size_t(1) << shift;
        // Vanilla Unikraft is the same code with the flexibility layer
        // compiled out; in FlexOS terms, the NONE backend, so one run
        // fills both columns.
        double none = run(noneCfg, buf);
        double light = run(mpk2Cfg("light"), buf,
                           StackSharing::SharedStack);
        double dss = run(mpk2Cfg("dss"), buf, StackSharing::Dss);
        double ept = run(ept2Cfg, buf);
        std::printf("%-8zu %-10.3f %-12.3f %-12.3f %-12.3f %-10.3f\n",
                    buf, none, none, light, dss, ept);
    }

    std::printf("\nexpected shape: NONE==Unikraft; light >= dss >= ept "
                "at small buffers; all converge as the buffer grows\n");

    multiFlowTable(sweep({1, 2, 4, 8, 16, 32}, {1}), true);
    return 0;
}
