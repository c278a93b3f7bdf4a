/**
 * @file
 * sqlite-insert-ept2: fig10's EPT2 image (vfscore alone in a vm-ept
 * VM) running seeded INSERTs through minisql::Database::exec, each in
 * its own transaction, then reading them back to check them.
 */

#include <stdexcept>

#include "apps/minisql.hh"
#include "bench.hh"

namespace perfbench {

using namespace flexos;

namespace {

constexpr int insertCount = 12'000;
/** WHERE id = k read-backs after the measured phase. */
constexpr int sampledReads = 16;
/**
 * The table starts with a seeded number of rows, loaded in one set-up
 * transaction: the measured INSERTs meet a seeded tree and file size.
 */
constexpr int maxPreRows = 63;

const char *const ept2Config = R"cfg(compartments:
- c1:
    mechanism: vm-ept
    default: True
- c2:
    mechanism: vm-ept
libraries:
- libsqlite: c1
- newlib: c1
- uksched: c1
- vfscore: c2
- uktime: c1
)cfg";

class SqliteWorkload : public Workload
{
  public:
    explicit SqliteWorkload(std::uint64_t seed)
        : cfg(SafetyConfig::parse(ept2Config))
    {
        opts.withNet = false;
        // vfscore's ramfs keeps the database file and its journal in
        // vfscore's compartment heap. The default 4 MB runs out near
        // row 8 500; 8 MB holds every row of the workload.
        opts.heapBytes = 8 * 1024 * 1024;
        Rng rng(seed);
        // 8-88 byte payloads keep every record under Btree::maxRecord.
        for (int i = 0; i < insertCount; ++i)
            payloads.push_back(randomText(rng, 8, 88));
        for (int i = 0; i < sampledReads; ++i)
            samples.push_back(static_cast<int>(rng.below(insertCount)));
        preRows = static_cast<int>(rng.below(maxPreRows + 1));
    }

    Episode
    run(Trace *trace) override
    {
        Episode ep;
        ep.configs = 1;
        ep.attempted = insertCount;
        std::int64_t t0 = hostNs();
        std::unique_ptr<Deployment> dep;
        {
            HostSpan span(trace, "Deployment");
            dep = std::make_unique<Deployment>(cfg, opts);
        }
        ep.imageBuildMs = millis(hostNs() - t0);
        ep.buildMs = ep.imageBuildMs;
        std::int64_t built = hostNs();
        Machine &mach = dep->machine();
        const double cyclesPerUs = mach.timing.cpuGhz * 1e3;

        std::int64_t firstOp = 0, hostEnd = 0;
        Cycles startCycles = 0, endCycles = 0;
        int inserted = 0;
        bool ready = false, finished = false;
        std::unique_ptr<LayerProbe> probe;
        dep->image().spawnIn("libsqlite", "bench-sqlite", [&] {
            try {
                minisql::Database db(dep->libc(), "/bench.db");
                db.open();
                auto r = db.exec("CREATE TABLE t (id INTEGER, payload TEXT)");
                if (!r.ok)
                    throw std::runtime_error("CREATE TABLE: " + r.error);
                db.exec("BEGIN");
                for (int i = 0; i < preRows; ++i)
                    if (!db.exec("INSERT INTO t VALUES (" +
                                 std::to_string(insertCount + i) + ", '" +
                                 payloads[std::size_t(i)] + "')")
                             .ok)
                        throw std::runtime_error("pre-population failed");
                db.exec("COMMIT");

                probe = std::make_unique<LayerProbe>(*dep);
                startCycles = mach.cycles();
                firstOp = hostNs();
                ready = true;
                for (int i = 0; i < insertCount; ++i) {
                    std::int64_t h0 = hostNs();
                    Cycles c0 = mach.cycles();
                    auto res = db.exec("INSERT INTO t VALUES (" +
                                       std::to_string(i) + ", '" +
                                       payloads[std::size_t(i)] + "')");
                    Cycles lat = mach.cycles() - c0;
                    std::int64_t h1 = hostNs();
                    ep.latencies.push_back(lat);
                    ep.opHostNs.push_back(h1 - h0);
                    if (trace) {
                        trace->hostSpan("exec", h0, h1);
                        trace->simSpan("INSERT", 2, 0, c0 / cyclesPerUs,
                                       lat / cyclesPerUs, std::uint64_t(i));
                    }
                    if (!res.ok)
                        ep.fail("INSERT: " + res.error);
                    ++inserted;
                }
                endCycles = mach.cycles();
                hostEnd = hostNs();
                ep.stats.add(probe->delta());

                db.close();

                // Read back through a fresh connection, so every row
                // comes from the VFS and not from the page cache.
                minisql::Database check(dep->libc(), "/bench.db");
                check.open();
                auto count = check.exec("SELECT COUNT(*) FROM t");
                if (!count.ok || count.rows.size() != 1 ||
                    count.rows[0].size() != 1 ||
                    count.rows[0][0] != minisql::Value{std::int64_t(
                                            insertCount + preRows)})
                    ep.fail("SELECT COUNT(*) does not match the inserts");
                for (int k : samples) {
                    auto row = check.exec("SELECT * FROM t WHERE id = " +
                                          std::to_string(k));
                    minisql::Row want{std::int64_t(k),
                                      payloads[std::size_t(k)]};
                    if (!row.ok || row.rows.size() != 1 ||
                        row.rows[0] != want)
                        ep.fail("row " + std::to_string(k) +
                                " does not read back");
                }
                check.close();
            } catch (const std::exception &e) {
                ep.fail(std::string("sqlite fiber: ") + e.what(), 0);
            }
            finished = true;
        });

        Scheduler &sched = dep->scheduler();
        bool ok = sched.runUntil([&] { return ready || finished; },
                                 10'000'000);
        for (int d = 0; ok && ready && d < 10; ++d) {
            int target = insertCount * (d + 1) / 10;
            int before = inserted;
            std::int64_t h0 = hostNs();
            ok = sched.runUntil(
                [&] { return inserted >= target || finished; },
                50'000ull * std::uint64_t(target - before) + 1'000'000);
            std::int64_t h1 = hostNs();
            ep.decileNs[std::size_t(d)] += h1 - h0;
            ep.decileOps[std::size_t(d)] += std::uint64_t(inserted - before);
            if (trace)
                trace->hostSpan("runUntil tenth " + std::to_string(d + 1),
                                h0, h1);
        }
        ok = ok && sched.runUntil([&] { return finished; }, 50'000'000);
        if (!ok || inserted < insertCount)
            ep.fail("runUntil stalled", std::uint64_t(insertCount - inserted));
        std::int64_t served = hostNs();
        ep.serveMs = millis(served - built);
        {
            HostSpan span(trace, "teardown");
            dep.reset();
        }
        ep.teardownMs = millis(hostNs() - served);
        ep.setupS = static_cast<double>((ready ? firstOp : served) - t0) / 1e9;
        ep.measuredS =
            hostEnd ? static_cast<double>(hostEnd - firstOp) / 1e9 : 0;
        ep.simCycles = endCycles - startCycles;
        // Paper reference: fig10 EPT2 is the time for 5000 INSERTs.
        ep.facts["sim_s_per_5000"] =
            static_cast<double>(ep.simCycles) / (cyclesPerUs * 1e6) *
            5000.0 / insertCount;

        std::int64_t a0 = hostNs();
        {
            HostSpan span(trace, "audit");
            ep.facts["audit_score"] = auditConfig(cfg);
        }
        ep.audits = 1;
        ep.auditMs = millis(hostNs() - a0);
        return ep;
    }

  private:
    SafetyConfig cfg;
    DeployOptions opts;
    std::vector<std::string> payloads;
    std::vector<int> samples;
    int preRows = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSqliteWorkload(std::uint64_t seed)
{
    return std::make_unique<SqliteWorkload>(seed);
}

} // namespace perfbench
