/**
 * @file
 * Shared pieces of the perfbench workload runner: the host clock, the
 * in-memory span recorder (written out as Chrome trace-event JSON), the
 * per-layer counter probe read through flexos' public stats APIs, and
 * the record one measured episode produces.
 *
 * Two clocks appear throughout. *sim* values are virtual cycles of the
 * simulated machine (deterministic for a seed); *host* values are
 * steady_clock nanoseconds the simulator spent producing them.
 */

#ifndef FLEXOS_PERFBENCH_BENCH_HH
#define FLEXOS_PERFBENCH_BENCH_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/deploy.hh"
#include "base/rng.hh"

namespace perfbench {

using flexos::Cycles;

/** Host steady-clock nanoseconds since the runner started. */
std::int64_t hostNs();

inline double
millis(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** A seeded [a-z0-9] string of lo..hi characters. */
std::string randomText(flexos::Rng &rng, std::uint64_t lo, std::uint64_t hi);

/**
 * Span recorder. Host spans time the public calls the benchmark makes
 * (pid 1, host microseconds); sim spans time each Redis request or
 * SQLite statement on the simulated clock (one pid per deployment,
 * virtual microseconds), one thread row per connection.
 */
class Trace
{
  public:
    void hostSpan(const std::string &name, std::int64_t startNs,
                  std::int64_t endNs);
    void simSpan(const std::string &name, int pid, int tid, double startUs,
                 double durUs, std::uint64_t op);
    /** Label a sim pid (one deployment) in the trace viewer. */
    void nameProcess(int pid, const std::string &name);

    std::size_t spans() const { return count; }
    void clear();
    /** Write {"traceEvents": [...]}; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    std::string events;
    std::size_t count = 0;
};

/** RAII host span; a no-op without a trace. */
class HostSpan
{
  public:
    HostSpan(Trace *t, std::string name)
        : trace(t), label(std::move(name)), start(hostNs())
    {
    }
    ~HostSpan()
    {
        if (trace)
            trace->hostSpan(label, start, hostNs());
    }
    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    Trace *trace;
    std::string label;
    std::int64_t start;
};

/**
 * Counter deltas of one measured phase, every one of them on the sim
 * clock. Explore sums them over all evaluated deployments.
 */
struct LayerStats
{
    /** Image::statsDelta of the machine counters. */
    std::map<std::string, std::uint64_t> counters;
    /** Image::gateCrossings delta keyed "c<from>-c<to>". */
    std::map<std::string, std::uint64_t> crossings;
    /** Allocator::stats deltas keyed "c<compartment>". */
    std::map<std::string, std::uint64_t> allocs, allocSteps;
    std::uint64_t allocFailed = 0;
    /** Scheduler::dispatchesOn delta per core. */
    std::vector<std::uint64_t> dispatches;
    std::uint64_t switches = 0;
    /** Σ per-core cycles minus machine.idleCycles. */
    std::uint64_t busyCycles = 0;
    /** cores × wall cycles of the phase (idle_frac's base). */
    std::uint64_t coreWallCycles = 0;
    /** gate.ept.ringDepth high-water mark (a ratchet, not a delta). */
    std::uint64_t ringDepthMax = 0;

    void add(const LayerStats &o);
};

/** Snapshot of a deployment's stats; delta() differences against it. */
class LayerProbe
{
  public:
    explicit LayerProbe(flexos::Deployment &dep);
    LayerStats delta() const;

  private:
    flexos::Deployment &dep;
    flexos::Image::StatsSnapshot counters;
    std::map<std::pair<int, int>, std::uint64_t> crossings;
    std::vector<flexos::AllocStats> allocs;
    std::vector<std::uint64_t> dispatches;
    std::vector<Cycles> coreCycles;
    std::uint64_t switches;
    Cycles wall;
};

/** What one episode (one full set-up → measure → teardown) yields. */
struct Episode
{
    /** @name Host clock. @{ */
    double setupS = 0;    ///< workload start to first measured op
    double measuredS = 0; ///< the measured phase (explore: whole sweep)
    double buildMs = 0;   ///< Deployment construction + start()
    double serveMs = 0;   ///< server start, preload and load
    double teardownMs = 0;
    double imageBuildMs = 0; ///< Deployment construction alone
    double auditMs = 0;      ///< analysis::runAudit of the config(s)
    double posetEdgesMs = 0;
    unsigned configs = 0; ///< deployments built (explore: per config)
    unsigned audits = 0;  ///< configs audited
    std::array<std::int64_t, 10> decileNs{};
    std::array<std::uint64_t, 10> decileOps{};
    std::vector<std::int64_t> opHostNs;
    /** calibrate() run just before this episode. */
    std::int64_t calibrationNs = 0;
    /** @} */

    /** @name Sim clock. @{ */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t commandsServed = 0;
    Cycles simCycles = 0; ///< measured-phase cycles, summed
    std::vector<Cycles> latencies;
    LayerStats stats;
    /** Workload facts that must repeat exactly (explore results...). */
    std::map<std::string, double> facts;
    /** @} */

    std::vector<std::string> errors;

    void
    fail(const std::string &why, std::uint64_t ops = 1)
    {
        failed += ops;
        if (errors.size() < 20)
            errors.push_back(why);
    }
};

/** A named workload: inputs fixed at construction from the seed. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** One episode; trace is null on untraced episodes. */
    virtual Episode run(Trace *trace) = 0;
};

std::unique_ptr<Workload> makeRedisWorkload(const std::string &name,
                                            std::uint64_t seed);
std::unique_ptr<Workload> makeSqliteWorkload(std::uint64_t seed);
std::unique_ptr<Workload> makeExploreWorkload(std::uint64_t seed);

/** Static audit of a config (timed by the caller); returns its score. */
int auditConfig(const flexos::SafetyConfig &cfg);

/**
 * Host time of a fixed kernel shaped like the simulator's host work
 * (fiber switches, std::function calls, a large string-keyed map,
 * frame buffers). run.py scales host metrics by it, cancelling most of
 * the drift of a shared machine's speed.
 */
std::int64_t calibrate();

} // namespace perfbench

#endif // FLEXOS_PERFBENCH_BENCH_HH
