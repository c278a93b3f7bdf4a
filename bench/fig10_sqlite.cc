/**
 * @file
 * Figure 10 reproduction: time to perform 5000 SQLite INSERT queries
 * (each in its own transaction) on nine system configurations:
 *
 *   Unikraft  NONE (KVM)        — the baseline LibOS
 *   Unikraft  NONE (linuxu)     — same, in ring 3 over Linux syscalls
 *   FlexOS    NONE              — flexibility enabled, no isolation
 *   FlexOS    MPK3              — fs / time / rest, MPK gates
 *   FlexOS    EPT2              — fs isolated in its own VM
 *   Linux     PT2 (process)     — syscall-based kernel isolation
 *   seL4/Genode PT3             — microkernel IPC
 *   CubicleOS NONE (linuxu)     — Lea allocator, no isolation
 *   CubicleOS MPK3              — pkey_mprotect gates + trap-and-map
 *
 * Paper values (seconds): .052 .702 .054 .106 .173 .177 .333 .657 1.557
 *
 * Every number is simulated time, so the table is deterministic;
 * `--json [path]` writes each row's seconds and the paper's value to a
 * snapshot (default BENCH_fig10.json) instead of the table.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/deploy.hh"
#include "apps/minisql.hh"
#include "snapshot.hh"

using namespace flexos;

namespace {

constexpr int insertCount = 5000;

std::string
cfgFor(const char *mech, int comps)
{
    std::string m = mech;
    std::string text = "compartments:\n";
    text += "- c1:\n    mechanism: " + m + "\n    default: True\n";
    if (comps >= 2)
        text += "- c2:\n    mechanism: " + m + "\n";
    if (comps >= 3)
        text += "- c3:\n    mechanism: " + m + "\n";
    text += "libraries:\n";
    text += "- libsqlite: c1\n- newlib: c1\n- uksched: c1\n";
    // PT2/EPT2: filesystem isolated from the application.
    // PT3/MPK3: filesystem / time subsystem / rest (paper 6.4).
    text += std::string("- vfscore: ") + (comps >= 2 ? "c2" : "c1") + "\n";
    text += std::string("- uktime: ") + (comps >= 3 ? "c3" : "c1") + "\n";
    return text;
}

double
run(const std::string &cfg, DeployOptions opts)
{
    opts.withNet = false;
    Deployment dep(cfg, opts);
    double seconds = -1;
    bool done = false;
    dep.image().spawnIn("libsqlite", "sqlite-bench", [&] {
        minisql::Database db(dep.libc(), "/bench.db");
        db.open();
        db.exec("CREATE TABLE t (id INTEGER, payload TEXT)");
        Cycles start = dep.machine().cycles();
        for (int i = 0; i < insertCount; ++i) {
            auto r = db.exec("INSERT INTO t VALUES (" +
                             std::to_string(i) + ", 'payload-" +
                             std::to_string(i) + "')");
            if (!r.ok)
                panic("INSERT failed: ", r.error);
        }
        seconds = static_cast<double>(dep.machine().cycles() - start) /
                  (dep.machine().timing.cpuGhz * 1e9);
        db.close();
        done = true;
    });
    bool ok = dep.scheduler().runUntil([&] { return done; },
                                       500'000'000);
    panic_if(!ok, "sqlite bench stalled");
    return seconds;
}

/**
 * The linuxu penalty: the unikernel runs in ring 3, so every
 * privileged operation (I/O submission, page-table work, clock reads,
 * context switches) traps into Linux — several syscalls per VFS
 * operation once block-layer and mmap traffic are included.
 */
TimingModel
linuxuTiming()
{
    TimingModel tm;
    tm.vfsOpBase += 5 * tm.syscallNoKpti;
    tm.ramfsOpBase += 2 * tm.syscallNoKpti;
    tm.contextSwitch += 2 * tm.syscallNoKpti;
    return tm;
}

/** One bar of the figure: a system, its isolation profile, the
 *  configuration it runs and the paper's time in seconds. A null
 *  `mech` reuses the first row's run. */
struct Row
{
    const char *system;
    const char *profile;
    const char *mech;
    int comps;
    DeployOptions opts;
    double paper;
};

std::vector<Row>
figureRows()
{
    DeployOptions plain;
    DeployOptions linuxu;
    linuxu.timing = linuxuTiming();
    DeployOptions cubicle = linuxu;
    cubicle.fsAllocator = DeployOptions::FsAllocator::Lea;
    return {
        {"Unikraft", "NONE", "none", 1, plain, 0.052},
        {"Unikraft", "linuxu", "none", 1, linuxu, 0.702},
        // Vanilla Unikraft is the same code with the flexibility layer
        // compiled out; in FlexOS terms, the NONE backend, so one run
        // fills both NONE rows.
        {"FlexOS", "NONE", nullptr, 1, plain, 0.054},
        {"FlexOS", "MPK3", "intel-mpk", 3, plain, 0.106},
        {"FlexOS", "EPT2", "vm-ept", 2, plain, 0.173},
        {"Linux", "PT2", "linux-pt", 2, plain, 0.177},
        {"seL4/Genode", "PT3", "sel4-ipc", 3, plain, 0.333},
        {"CubicleOS", "NONE", "none", 1, cubicle, 0.657},
        {"CubicleOS", "MPK3", "cubicle-mpk", 3, cubicle, 1.557},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bool jsonMode = argc >= 2 && argc <= 3 &&
                    std::strcmp(argv[1], "--json") == 0;
    if (argc > 1 && !jsonMode) {
        std::fprintf(stderr, "usage: fig10_sqlite [--json [path]]\n");
        return 2;
    }
    const std::vector<Row> rows = figureRows();
    std::vector<double> seconds;
    for (const Row &r : rows)
        seconds.push_back(r.mech ? run(cfgFor(r.mech, r.comps), r.opts)
                                 : seconds.front());

    if (jsonMode) {
        bench::Snapshot snap("fig10");
        for (std::size_t i = 0; i < rows.size(); ++i)
            snap.number(std::string(rows[i].system) + " " + rows[i].profile,
                        "seconds", seconds[i], "s", rows[i].paper);
        snap.write(argc == 3 ? argv[2] : "BENCH_fig10.json");
        return 0;
    }

    std::printf("=== Figure 10: SQLite, %d INSERTs, one transaction "
                "each ===\n\n",
                insertCount);
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::printf("%-14s %-8s %8.3f s   (paper: %5.3f s)\n",
                    rows[i].system, rows[i].profile, seconds[i],
                    rows[i].paper);

    std::printf("\nexpected shape: FlexOS NONE == Unikraft; MPK3 ~2x "
                "NONE; EPT2 ~= Linux; seL4 ~3x MPK3; CubicleOS MPK3 "
                "an order of magnitude above FlexOS MPK3\n");
    return 0;
}
