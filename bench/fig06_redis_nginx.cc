/**
 * @file
 * Figure 6 reproduction: Redis (top) and Nginx (bottom) throughput for
 * the 80 MPK+DSS configurations each — 5 compartmentalization
 * strategies over {app, newlib, uksched, lwip} x 2^4 per-component
 * hardening bundles (stack protector + UBSan + KASan).
 *
 * Prints each panel as the paper does: configurations sorted by
 * throughput, with per-component hardening dots and the compartment
 * assignment.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "explore/wayfinder.hh"
#include "snapshot.hh"

using namespace flexos;

namespace {

struct Row
{
    ConfigPoint point;
    double reqPerSec;
};

void
runPanel(const char *app, const char *appLib,
         double (*measure)(const ConfigPoint &, std::uint64_t),
         std::uint64_t requests)
{
    std::vector<Row> rows;
    for (const ConfigPoint &p : wayfinder::fig6Space())
        rows.push_back({p, measure(p, requests)});
    // Equal rates break ties on the label, so tied rows print in a
    // fixed order.
    std::sort(rows.begin(), rows.end(), [appLib](const Row &a, const Row &b) {
        if (a.reqPerSec != b.reqPerSec)
            return a.reqPerSec < b.reqPerSec;
        return wayfinder::pointLabel(a.point, appLib) <
               wayfinder::pointLabel(b.point, appLib);
    });

    std::printf("\n=== Figure 6 (%s): %zu configurations, "
                "MPK + DSS ===\n",
                app, rows.size());
    std::printf("%-4s %-52s %12s\n", "#", "configuration [harden: app "
                                          "newlib sched lwip]",
                "req/s");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("%-4zu %-52s %11.1fk\n", i + 1,
                    wayfinder::pointLabel(rows[i].point, appLib).c_str(),
                    rows[i].reqPerSec / 1000.0);
    }

    double lo = rows.front().reqPerSec;
    double hi = rows.back().reqPerSec;
    std::printf("--> span: %.1fk .. %.1fk req/s (%.1fx; paper: "
                "292k .. 1199k, 4.1x)\n",
                lo / 1000, hi / 1000, hi / lo);

    // The paper's headline single-split observations.
    auto perfOf = [&](std::vector<int> part) {
        for (const Row &r : rows) {
            bool anyHard = false;
            for (unsigned h : r.point.hardening)
                anyHard |= h != 0;
            if (!anyHard && r.point.partition == part)
                return r.reqPerSec;
        }
        return 0.0;
    };
    double base = perfOf({0, 0, 0, 0});
    double lwipSplit = perfOf({0, 0, 0, 1});
    double schedSplit = perfOf({0, 0, 1, 0});
    std::printf("--> isolating lwip alone:  %5.1f%% slowdown\n",
                100.0 * (1 - lwipSplit / base));
    std::printf("--> isolating sched alone: %5.1f%% slowdown\n",
                100.0 * (1 - schedSplit / base));
}

/** One sample of the multi-core sweep. */
struct Sample
{
    const char *app;
    std::string partition;
    unsigned cores;
    double reqPerSec;
    /** Static boundary-audit hazard score (lower = cleaner). */
    int audit;
};

/**
 * The `cores:` dimension: RSS steers each connection to one core's RX
 * queue, so throughput is expected to scale while gate overhead does
 * not amortize away.
 */
std::vector<Sample>
coresSweep()
{
    static const struct
    {
        const char *name;
        std::vector<int> part;
    } picks[] = {
        {"A app+newlib+sched+lwip", {0, 0, 0, 0}},
        {"C lwip split", {0, 0, 0, 1}},
        {"E three-way split", {0, 0, 1, 2}},
    };

    std::vector<Sample> out;
    for (const auto &pick : picks) {
        for (unsigned cores : {1u, 2u, 4u}) {
            ConfigPoint p;
            p.partition = pick.part;
            p.hardening.assign(4, 0);
            p.mechanismRank = 1; // MPK
            p.sharingRank = 1;   // DSS
            p.cores = static_cast<int>(cores);
            out.push_back({"redis", pick.name, cores,
                           wayfinder::measureRedis(p, 300),
                           wayfinder::auditScore(p, "libredis")});
            out.push_back({"nginx", pick.name, cores,
                           wayfinder::measureNginx(p, 200),
                           wayfinder::auditScore(p, "libnginx")});
        }
    }
    return out;
}

void
coresTable(const std::vector<Sample> &samples)
{
    std::printf("\n=== Multi-core sweep: req/s vs cores (RSS) ===\n");
    std::printf("%-7s %-26s %-7s %12s %7s\n", "app", "partition",
                "cores", "req/s", "audit");
    for (const Sample &s : samples)
        std::printf("%-7s %-26s %-7u %11.1fk %7d\n", s.app,
                    s.partition.c_str(), s.cores, s.reqPerSec / 1000.0,
                    s.audit);
}

} // namespace

int
main(int argc, char **argv)
{
    // `--cores` runs only the multi-core sweep; `--json
    // [path]` writes it to a snapshot file (default BENCH_fig06.json)
    // instead of printing the table.
    bool coresOnly = false;
    bool jsonMode = false;
    const char *jsonPath = "BENCH_fig06.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cores") == 0) {
            coresOnly = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            coresOnly = true;
            jsonMode = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                jsonPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "fig06_redis_nginx: invalid argument '%s' "
                         "(usage: [--cores] [--json [path]])\n",
                         argv[i]);
            return 2;
        }
    }

    if (!coresOnly) {
        runPanel("Redis GET", "libredis", &wayfinder::measureRedis, 400);
        runPanel("Nginx HTTP", "libnginx", &wayfinder::measureNginx,
                 250);
    }
    std::vector<Sample> samples = coresSweep();
    if (!jsonMode) {
        coresTable(samples);
        return 0;
    }
    bench::Snapshot snap("fig06");
    for (const Sample &s : samples) {
        std::string row = std::string(s.app) + " " + s.partition +
                          " cores=" + std::to_string(s.cores);
        snap.number(row, "req_per_sec", s.reqPerSec, "req/s");
        snap.number(row, "audit_score", s.audit, "score");
    }
    snap.write(jsonPath);
    return 0;
}
