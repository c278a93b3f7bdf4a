/**
 * @file
 * perfbench_runner: runs one named workload as repeated episodes (a
 * fresh deployment each, same seeded inputs each) until the time
 * budget is spent, and prints one JSON line per episode plus a final
 * summary line. run.py turns those lines into the benchmark's metrics.
 *
 *   perfbench_runner --workload <name> --seed <n> --seconds <s>
 *                    [--trace 0|1] [--trace-out <file>]
 *
 * At least three episodes run (the first is warm-up for run.py's host
 * medians). With --trace 1 every second episode is traced: spans are recorded
 * in memory and the last traced episode's spans are written to
 * --trace-out as Chrome trace-event JSON.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <sstream>

#include "analysis/audit.hh"
#include "bench.hh"

namespace perfbench {

using namespace flexos;

// ----------------------------------------------------------- host clock

std::string
randomText(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    static const char alphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::string s(rng.range(lo, hi), ' ');
    for (char &c : s)
        c = alphabet[rng.below(sizeof(alphabet) - 1)];
    return s;
}

std::int64_t
hostNs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

// ---------------------------------------------------------------- json

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Builds one JSON object, members in insertion order. */
class Obj
{
  public:
    Obj &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "" : ",") + quoted(key) + ":" + json;
        return *this;
    }
    Obj &
    add(const std::string &key, double v)
    {
        return raw(key, num(v));
    }
    Obj &
    add(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Obj &
    add(const std::string &key, const std::string &v)
    {
        return raw(key, quoted(v));
    }
    template <typename Map>
    Obj &
    map(const std::string &key, const Map &m)
    {
        Obj o;
        for (const auto &[k, v] : m)
            o.add(k, v);
        return raw(key, o.str());
    }
    template <typename Seq>
    Obj &
    list(const std::string &key, const Seq &seq)
    {
        std::string out = "[";
        for (const auto &v : seq)
            out += (out.size() > 1 ? "," : "") +
                   num(static_cast<double>(v));
        return raw(key, out + "]");
    }
    std::string str() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/** Nearest-rank percentile of a sorted sample. */
template <typename T>
T
percentile(const std::vector<T> &sorted, double p)
{
    if (sorted.empty())
        return T{};
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::string
episodeJson(std::size_t index, bool traced, Episode &ep, double ghz)
{
    std::sort(ep.latencies.begin(), ep.latencies.end());
    std::sort(ep.opHostNs.begin(), ep.opHostNs.end());
    Cycles p999 = percentile(ep.latencies, 0.999);
    // Samples ranked beyond the p99.9 rank, and those strictly above
    // its value (fewer when the tail ties).
    auto n = static_cast<double>(ep.latencies.size());
    auto beyond = static_cast<std::uint64_t>(n - std::ceil(0.999 * n));
    auto above = static_cast<std::uint64_t>(
        ep.latencies.end() -
        std::upper_bound(ep.latencies.begin(), ep.latencies.end(), p999));

    Obj host;
    host.add("setup_s", ep.setupS)
        .add("measured_s", ep.measuredS)
        .add("build_ms", ep.buildMs)
        .add("serve_ms", ep.serveMs)
        .add("teardown_ms", ep.teardownMs)
        .add("image_build_ms", ep.imageBuildMs)
        .add("audit_ms", ep.auditMs)
        .add("poset_edges_ms", ep.posetEdgesMs)
        .add("configs", std::uint64_t(ep.configs))
        .add("audits", std::uint64_t(ep.audits))
        .add("calibration_ns", static_cast<double>(ep.calibrationNs))
        .list("decile_ns", ep.decileNs)
        .list("decile_ops", ep.decileOps)
        .add("op_host_ns_p50",
             static_cast<double>(percentile(ep.opHostNs, 0.50)))
        .add("op_host_ns_p99",
             static_cast<double>(percentile(ep.opHostNs, 0.99)));

    const LayerStats &s = ep.stats;
    Obj sim;
    sim.add("attempted", ep.attempted)
        .add("failed", ep.failed)
        .add("commands_served", ep.commandsServed)
        .add("sim_cycles", std::uint64_t(ep.simCycles))
        .add("cpu_ghz", ghz)
        .add("samples", std::uint64_t(ep.latencies.size()))
        .add("lat_p50_cycles", std::uint64_t(percentile(ep.latencies, 0.5)))
        .add("lat_p99_cycles",
             std::uint64_t(percentile(ep.latencies, 0.99)))
        .add("lat_p999_cycles", std::uint64_t(p999))
        .add("beyond_p999", beyond)
        .add("above_p999_value", above)
        .map("facts", ep.facts)
        .map("counters", s.counters)
        .map("crossings", s.crossings)
        .map("allocs", s.allocs)
        .map("alloc_steps", s.allocSteps)
        .add("alloc_failed", s.allocFailed)
        .list("dispatches", s.dispatches)
        .add("switches", s.switches)
        .add("busy_cycles", s.busyCycles)
        .add("core_wall_cycles", s.coreWallCycles)
        .add("ring_depth_max", s.ringDepthMax);

    std::string errors = "[";
    for (const std::string &e : ep.errors)
        errors += (errors.size() > 1 ? "," : "") + quoted(e);

    Obj line;
    line.add("kind", std::string("episode"))
        .add("index", std::uint64_t(index))
        .raw("traced", traced ? "true" : "false")
        .raw("host", host.str())
        .raw("sim", sim.str())
        .raw("errors", errors + "]");
    return line.str();
}

std::string
compartmentKey(int c)
{
    return "c" + std::to_string(c);
}

} // namespace

// --------------------------------------------------------------- trace

void
Trace::hostSpan(const std::string &name, std::int64_t startNs,
                std::int64_t endNs)
{
    events += (events.empty() ? "" : ",\n") +
              std::string("{\"name\":") + quoted(name) +
              ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
              num(static_cast<double>(startNs) / 1e3) +
              ",\"dur\":" + num(static_cast<double>(endNs - startNs) / 1e3) +
              "}";
    ++count;
}

void
Trace::simSpan(const std::string &name, int pid, int tid, double startUs,
               double durUs, std::uint64_t op)
{
    events += (events.empty() ? "" : ",\n") +
              std::string("{\"name\":") + quoted(name) +
              ",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
              ",\"tid\":" + std::to_string(tid) + ",\"ts\":" +
              num(startUs) + ",\"dur\":" + num(durUs) +
              ",\"args\":{\"op\":" + std::to_string(op) + "}}";
    ++count;
}

void
Trace::nameProcess(int pid, const std::string &name)
{
    events += (events.empty() ? "" : ",\n") +
              std::string("{\"name\":\"process_name\",\"ph\":\"M\",") +
              "\"pid\":" + std::to_string(pid) +
              ",\"args\":{\"name\":" + quoted(name) + "}}";
}

void
Trace::clear()
{
    events.clear();
    count = 0;
    nameProcess(1, "host clock (benchmark calls)");
    nameProcess(2, "sim clock (requests)");
}

bool
Trace::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
        << events << "\n]}\n";
    return static_cast<bool>(out);
}

// -------------------------------------------------------------- probes

void
LayerStats::add(const LayerStats &o)
{
    for (const auto &[k, v] : o.counters)
        counters[k] += v;
    for (const auto &[k, v] : o.crossings)
        crossings[k] += v;
    for (const auto &[k, v] : o.allocs)
        allocs[k] += v;
    for (const auto &[k, v] : o.allocSteps)
        allocSteps[k] += v;
    allocFailed += o.allocFailed;
    if (dispatches.size() < o.dispatches.size())
        dispatches.resize(o.dispatches.size());
    for (std::size_t c = 0; c < o.dispatches.size(); ++c)
        dispatches[c] += o.dispatches[c];
    switches += o.switches;
    busyCycles += o.busyCycles;
    coreWallCycles += o.coreWallCycles;
    ringDepthMax = std::max(ringDepthMax, o.ringDepthMax);
}

namespace {

std::vector<AllocStats>
allocStatsOf(Image &img)
{
    std::vector<AllocStats> out;
    for (std::size_t c = 0; c < img.compartmentCount(); ++c) {
        Allocator *heap = img.compartmentAt(c).heap;
        out.push_back(heap ? heap->stats() : AllocStats{});
    }
    out.push_back(img.sharedHeap().stats());
    return out;
}

} // namespace

LayerProbe::LayerProbe(Deployment &d)
    : dep(d), counters(d.image().snapshotStats()),
      crossings(d.image().gateCrossings()),
      allocs(allocStatsOf(d.image())), switches(d.scheduler().switches()),
      wall(d.machine().wallCycles())
{
    Machine &m = dep.machine();
    for (unsigned c = 0; c < m.coreCount(); ++c) {
        dispatches.push_back(dep.scheduler().dispatchesOn(int(c)));
        coreCycles.push_back(m.coreCycles(int(c)));
    }
}

LayerStats
LayerProbe::delta() const
{
    Image &img = dep.image();
    Machine &m = dep.machine();
    LayerStats s;
    s.counters = Image::statsDelta(counters, img.snapshotStats());
    for (const auto &[edge, n] : img.gateCrossings()) {
        auto it = crossings.find(edge);
        std::uint64_t d = n - (it == crossings.end() ? 0 : it->second);
        if (d)
            s.crossings[compartmentKey(edge.first) + "-" +
                        compartmentKey(edge.second)] = d;
    }
    std::vector<AllocStats> now = allocStatsOf(img);
    for (std::size_t c = 0; c < now.size(); ++c) {
        std::string key = c + 1 == now.size() ? "shared"
                                               : compartmentKey(int(c));
        s.allocs[key] = now[c].allocs - allocs[c].allocs;
        s.allocSteps[key] = now[c].steps - allocs[c].steps;
        s.allocFailed += now[c].failed - allocs[c].failed;
    }
    Cycles cyclesSum = 0;
    for (unsigned c = 0; c < m.coreCount(); ++c) {
        s.dispatches.push_back(dep.scheduler().dispatchesOn(int(c)) -
                               dispatches[c]);
        cyclesSum += m.coreCycles(int(c)) - coreCycles[c];
    }
    auto idle = s.counters.find("machine.idleCycles");
    s.busyCycles =
        cyclesSum - (idle == s.counters.end() ? 0 : idle->second);
    s.coreWallCycles = m.coreCount() * (m.wallCycles() - wall);
    s.switches = dep.scheduler().switches() - switches;
    s.ringDepthMax = m.counter("gate.ept.ringDepth");
    return s;
}

int
auditConfig(const SafetyConfig &cfg)
{
    static const LibraryRegistry reg = LibraryRegistry::standard();
    analysis::AuditOptions opts;
    opts.escape = false;
    return analysis::runAudit(cfg, reg, opts).score();
}

namespace {

/**
 * The calibration kernel's state: a fiber, a string-keyed map and a
 * queue of frame buffers, like a small simulated server. It persists
 * across calls, so after the first call the map and queue stay full.
 */
struct CalibrationState
{
    static constexpr std::size_t keys = 8192;
    static constexpr std::size_t frames = 256;
    static constexpr int rounds = 20'000;

    ucontext_t host{}, fiber{};
    std::vector<char> stack = std::vector<char>(256 * 1024);
    std::map<std::string, std::string> table;
    std::deque<std::vector<char>> queue;
    std::uint64_t lcg = 1;
    bool done = false;
};

CalibrationState calib;

void
calibrationFiber()
{
    CalibrationState &c = calib;
    for (int r = 0; r < CalibrationState::rounds; ++r) {
        c.lcg = c.lcg * 6364136223846793005ull + 1442695040888963407ull;
        std::string key =
            "key:" + std::to_string((c.lcg >> 33) % CalibrationState::keys);
        std::function<void()> handler = [&c, &key] {
            std::string &value = c.table[key];
            value.assign(16 + (c.lcg >> 50) % 200, 'v');
            std::vector<char> frame(1500);
            std::memcpy(frame.data(), value.data(), value.size());
            c.queue.push_back(std::move(frame));
            if (c.queue.size() > CalibrationState::frames)
                c.queue.pop_front();
        };
        handler();
        swapcontext(&c.fiber, &c.host);
    }
    c.done = true;
    swapcontext(&c.fiber, &c.host);
}

} // namespace

std::int64_t
calibrate()
{
    // Its own code only (no flexos call), so a change to the simulator
    // never moves it; it shares the simulator's host profile: a fiber
    // switch per step (swapcontext, with its sigprocmask syscall), a
    // std::function call, a string-keyed map, 1500-byte frame buffers
    // allocated, copied and freed.
    std::int64_t t0 = hostNs();
    CalibrationState &c = calib;
    c.done = false;
    getcontext(&c.fiber);
    c.fiber.uc_stack.ss_sp = c.stack.data();
    c.fiber.uc_stack.ss_size = c.stack.size();
    c.fiber.uc_link = nullptr;
    makecontext(&c.fiber, calibrationFiber, 0);
    while (!c.done)
        swapcontext(&c.host, &c.fiber);
    return hostNs() - t0;
}

} // namespace perfbench

// ---------------------------------------------------------------- main

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner --workload "
                 "<name> --seed <n> --seconds <s> [--trace 0|1] "
                 "[--trace-out <file>]\n",
                 why);
    return 2;
}

bool
parseUint(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // Keep freed heap memory for reuse instead of unmapping/trimming
    // it: every episode after the first then builds its deployment on
    // warm pages, and host set-up time stops depending on where
    // glibc's dynamic mmap threshold happens to sit.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    std::string workload, traceOut;
    std::uint64_t seed = 0, seconds = 0, trace = 0;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--trace-out")
            traceOut = val;
        else if (arg == "--seed" && parseUint(val, seed))
            haveSeed = true;
        else if (arg == "--seconds" && parseUint(val, seconds))
            haveSeconds = true;
        else if (arg == "--trace" && parseUint(val, trace) && trace <= 1)
            ;
        else
            return usage(("bad argument " + arg + " " + val).c_str());
    }
    if (!haveSeed || !haveSeconds)
        return usage("--seed and --seconds are required");

    std::unique_ptr<Workload> w;
    if (workload == "sqlite-insert-ept2")
        w = makeSqliteWorkload(seed);
    else if (workload == "explore-redis-budget")
        w = makeExploreWorkload(seed);
    else
        w = makeRedisWorkload(workload, seed);
    if (!w)
        return usage(("unknown workload '" + workload + "'").c_str());

    const double ghz = flexos::TimingModel{}.cpuGhz;
    Trace spans;
    std::size_t tracedSpans = 0;
    const auto budgetNs = static_cast<std::int64_t>(seconds) * 1'000'000'000;
    const std::int64_t start = hostNs();
    for (std::size_t i = 0;; ++i) {
        // Traced and untraced episodes alternate so the two medians
        // see the same host conditions (the tracing overhead).
        bool traced = trace && i % 2 == 1;
        if (traced)
            spans.clear();
        std::int64_t calNs = calibrate();
        Episode ep = w->run(traced ? &spans : nullptr);
        ep.calibrationNs = calNs;
        if (ep.stats.allocFailed)
            ep.fail(std::to_string(ep.stats.allocFailed) +
                    " compartment-heap allocations failed in the measured "
                    "phase");
        if (traced)
            tracedSpans = spans.spans();
        std::printf("%s\n", episodeJson(i, traced, ep, ghz).c_str());
        std::fflush(stdout);
        if (i >= 2 && hostNs() - start >= budgetNs)
            break;
    }
    if (trace && !traceOut.empty() && !spans.write(traceOut)) {
        std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                     traceOut.c_str());
        return 1;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"kind\":\"end\",\"peak_rss_kb\":%ld,"
                "\"trace_spans\":%zu}\n",
                ru.ru_maxrss, tracedSpans);
    return 0;
}
