#include "redis_load.hh"

#include <charconv>
#include <stdexcept>

#include "apps/redis.hh"
#include "base/rng.hh"
#include "explore/wayfinder.hh"

namespace perfbench {

using namespace flexos;

namespace {

constexpr std::uint16_t redisPort = 6379;
/** Preload SETs in flight before draining their replies. */
constexpr std::size_t preloadChunk = 64;

std::string
keyName(std::uint64_t k)
{
    return "key:" + std::to_string(k);
}

/**
 * Length of the complete RESP reply starting at buf[from], 0 while it
 * is incomplete, std::string::npos when the bytes are not RESP.
 */
std::size_t
replyLength(const std::string &buf, std::size_t from)
{
    std::size_t eol = buf.find("\r\n", from);
    if (eol == std::string::npos)
        return 0;
    char type = buf[from];
    if (type == '+' || type == '-' || type == ':')
        return eol + 2 - from;
    if (type != '$')
        return std::string::npos;
    long len = 0;
    auto [end, ec] =
        std::from_chars(buf.data() + from + 1, buf.data() + eol, len);
    if (ec != std::errc() || end != buf.data() + eol)
        return std::string::npos;
    if (len < 0)
        return eol + 2 - from;
    std::size_t total = eol + 2 + static_cast<std::size_t>(len) + 2 - from;
    return buf.size() - from >= total ? total : 0;
}

/** One client connection's progress through its request stream. */
struct Conn
{
    std::vector<Cycles> sentAt;
    std::vector<std::int64_t> sentHostNs;
    std::string error;
};

/** Server start, preload, measured closed loop, close (see serveConfig). */
double
serveRedis(Deployment &dep, const RedisLoad &load, Episode &ep,
           Trace *trace, int simPid, std::int64_t *firstOpNs)
{
    Scheduler &sched = dep.scheduler();
    Machine &mach = dep.machine();
    NetStack &client = dep.clientStack();
    const std::uint32_t ip = dep.serverStack().ip();
    const double cyclesPerUs = mach.timing.cpuGhz * 1e3;
    const std::uint64_t total = load.total();
    ep.attempted += total;

    RedisServer server(dep.libc(), redisPort);
    server.start();

    // ---- preload (set-up): chunked SETs, every reply must be +OK.
    bool loaded = false;
    std::string loadError;
    {
        HostSpan span(trace, "preload");
        Thread *loader = sched.spawn("bench-preload", [&] {
            try {
                TcpSocket *s = client.connect(ip, redisPort);
                if (!s)
                    throw std::runtime_error("connect failed");
                const std::string ok = RespParser::simpleString("OK");
                char buf[8192];
                for (std::size_t i = 0; i < load.preload.size();
                     i += preloadChunk) {
                    std::size_t end =
                        std::min(load.preload.size(), i + preloadChunk);
                    for (std::size_t j = i; j < end; ++j) {
                        const std::string &cmd = load.preload[j];
                        if (s->send(cmd.data(), cmd.size()) !=
                            static_cast<long>(cmd.size()))
                            throw std::runtime_error("send failed");
                    }
                    std::string rx;
                    std::size_t want = (end - i) * ok.size();
                    while (rx.size() < want) {
                        long n = s->recv(buf, sizeof(buf));
                        if (n <= 0)
                            throw std::runtime_error("connection closed");
                        rx.append(buf, static_cast<std::size_t>(n));
                    }
                    for (std::size_t at = 0; at < want; at += ok.size())
                        if (rx.size() != want ||
                            rx.compare(at, ok.size(), ok) != 0)
                            throw std::runtime_error("SET not +OK");
                }
                s->close();
            } catch (const std::exception &e) {
                loadError = e.what();
            }
            loaded = true;
        });
        loader->freeRunning = true;
        bool ok = sched.runUntil([&] { return loaded; }, 200'000'000);
        if (!ok || !loadError.empty()) {
            ep.fail("preload: " + (ok ? loadError : "runUntil stalled"),
                    total);
            server.stop();
            *firstOpNs = hostNs();
            return 0;
        }
    }

    // ---- measured closed loop.
    *firstOpNs = hostNs();
    LayerProbe probe(dep);
    const std::uint64_t servedBefore = server.commandsServed();
    const Cycles startWall = mach.wallCycles();
    const std::int64_t hostStart = hostNs();
    std::uint64_t completed = 0;
    unsigned finished = 0;
    const auto nConns = static_cast<unsigned>(load.ops.size());
    std::vector<Conn> conns(nConns);

    for (unsigned c = 0; c < nConns; ++c) {
        Thread *w = sched.spawn("bench-client-" + std::to_string(c), [&,
                                                                      c] {
            const std::vector<RedisOp> &ops = load.ops[c];
            Conn &st = conns[c];
            st.sentAt.resize(ops.size());
            st.sentHostNs.resize(ops.size());
            Cycles opened = mach.wallCycles();
            try {
                TcpSocket *s = client.connect(ip, redisPort);
                if (!s)
                    throw std::runtime_error("connect failed");
                std::size_t sent = 0, got = 0, at = 0;
                std::string rx;
                char buf[8192];
                while (got < ops.size()) {
                    while (sent < ops.size() && sent - got < load.pipeline) {
                        const std::string &req = ops[sent].request;
                        st.sentAt[sent] = mach.wallCycles();
                        st.sentHostNs[sent] = hostNs();
                        if (s->send(req.data(), req.size()) !=
                            static_cast<long>(req.size()))
                            throw std::runtime_error("send failed");
                        ++sent;
                    }
                    long n = s->recv(buf, sizeof(buf));
                    if (n <= 0)
                        throw std::runtime_error("connection closed");
                    rx.append(buf, static_cast<std::size_t>(n));
                    std::size_t len;
                    while (got < sent &&
                           (len = replyLength(rx, at)) != 0) {
                        if (len == std::string::npos)
                            throw std::runtime_error("malformed reply");
                        Cycles now = mach.wallCycles();
                        const RedisOp &op = ops[got];
                        if (rx.compare(at, len, op.expect) != 0)
                            ep.fail(std::string(op.isSet ? "SET" : "GET") +
                                    " reply differs from the model");
                        Cycles lat = now - st.sentAt[got];
                        ep.latencies.push_back(lat);
                        ep.opHostNs.push_back(hostNs() -
                                              st.sentHostNs[got]);
                        if (trace)
                            trace->simSpan(op.isSet ? "SET" : "GET", simPid,
                                           static_cast<int>(c),
                                           st.sentAt[got] / cyclesPerUs,
                                           lat / cyclesPerUs, got);
                        at += len;
                        ++got;
                        ++completed;
                    }
                    if (at > 4096) {
                        rx.erase(0, at);
                        at = 0;
                    }
                }
                s->close();
            } catch (const std::exception &e) {
                st.error = e.what();
            }
            if (trace)
                trace->simSpan("conn " + std::to_string(c), simPid,
                               static_cast<int>(c), opened / cyclesPerUs,
                               (mach.wallCycles() - opened) / cyclesPerUs,
                               c);
            ++finished;
        });
        w->freeRunning = true; // client cores are not measured
    }

    // Drive the loop in tenths of the budget: the host cost of each
    // tenth shows whether per-op cost grows with run length.
    for (int d = 0; d < 10; ++d) {
        std::uint64_t target = total * static_cast<std::uint64_t>(d + 1) / 10;
        std::uint64_t before = completed;
        std::int64_t h0 = hostNs();
        bool ok = sched.runUntil(
            [&] { return completed >= target || finished == nConns; },
            50'000 * (target - before) + 1'000'000);
        std::int64_t h1 = hostNs();
        ep.decileNs[static_cast<std::size_t>(d)] += h1 - h0;
        ep.decileOps[static_cast<std::size_t>(d)] += completed - before;
        if (trace)
            trace->hostSpan("runUntil tenth " + std::to_string(d + 1), h0,
                            h1);
        if (!ok || completed < target)
            break;
    }
    const Cycles endWall = mach.wallCycles();
    ep.measuredS += static_cast<double>(hostNs() - hostStart) / 1e9;
    ep.simCycles += endWall - startWall;
    ep.stats.add(probe.delta());
    const std::uint64_t served = server.commandsServed() - servedBefore;
    ep.commandsServed += served;

    if (completed < total)
        ep.fail("runUntil stalled with replies missing", total - completed);
    if (served != completed)
        ep.fail("commandsServed " + std::to_string(served) +
                " != replies " + std::to_string(completed));
    for (const Conn &c : conns)
        if (!c.error.empty())
            ep.fail("client: " + c.error, 0);

    // Let the clients close, then the server fibers observe EOF.
    sched.runUntil([&] { return finished == nConns; }, 1'000'000);
    server.stop();
    sched.runUntil([] { return false; }, 20'000);

    double simSeconds =
        static_cast<double>(endWall - startWall) / (cyclesPerUs * 1e6);
    return simSeconds > 0 ? static_cast<double>(completed) / simSeconds : 0;
}

/** A fixed fig6 point served with a closed Redis loop. */
class RedisWorkload : public Workload
{
  public:
    RedisWorkload(ConfigPoint point, RedisLoad load)
        : cfg(wayfinder::toSafetyConfig(point, "libredis")),
          load(std::move(load))
    {
        opts.withFs = false;
    }

    Episode
    run(Trace *trace) override
    {
        Episode ep;
        std::int64_t t0 = hostNs();
        std::int64_t firstOp = t0;
        serveConfig(cfg, opts, load, ep, trace, 2, &firstOp);
        ep.setupS = static_cast<double>(firstOp - t0) / 1e9;

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
    RedisLoad load;
};

ConfigPoint
mpkDssPoint(std::vector<int> partition, int cores, int batch)
{
    ConfigPoint p;
    p.partition = std::move(partition);
    p.hardening.assign(4, 0);
    p.mechanismRank = 1; // MPK
    p.sharingRank = 1;   // DSS
    p.cores = cores;
    p.gateBatch = batch;
    return p;
}

} // namespace

std::uint64_t
RedisLoad::total() const
{
    std::uint64_t n = 0;
    for (const auto &c : ops)
        n += c.size();
    return n;
}

RedisLoad
makeRedisLoad(std::uint64_t seed, unsigned keys, unsigned connections,
              unsigned pipeline, std::uint64_t requests,
              unsigned setPercent)
{
    Rng rng(seed);
    RedisLoad load;
    load.pipeline = pipeline;
    std::vector<std::string> model(keys);
    for (unsigned k = 0; k < keys; ++k) {
        model[k] = randomText(rng, 16, 256);
        load.preload.push_back(
            RespParser::command({"SET", keyName(k), model[k]}));
    }
    load.ops.resize(connections);
    for (unsigned c = 0; c < connections; ++c) {
        // Per-connection stream so the split does not depend on
        // interleaving; writers own their key class (see header).
        Rng crng(seed ^ (0x5bd1e995ull * (c + 1)));
        std::uint64_t share =
            requests / connections + (c < requests % connections ? 1 : 0);
        unsigned owned = setPercent ? (keys - c + connections - 1) /
                                          connections
                                    : keys;
        for (std::uint64_t i = 0; i < share; ++i) {
            std::uint64_t k = crng.below(owned);
            if (setPercent)
                k = k * connections + c;
            RedisOp op;
            if (crng.below(100) < setPercent) {
                model[k] = randomText(crng, 16, 256);
                op.request =
                    RespParser::command({"SET", keyName(k), model[k]});
                op.expect = RespParser::simpleString("OK");
                op.isSet = true;
            } else {
                op.request = RespParser::command({"GET", keyName(k)});
                op.expect = RespParser::bulkString(model[k]);
            }
            load.ops[c].push_back(std::move(op));
        }
    }
    return load;
}

double
serveConfig(const SafetyConfig &cfg, const DeployOptions &opts,
            const RedisLoad &load, Episode &ep, Trace *trace, int simPid,
            std::int64_t *firstOpNs)
{
    std::int64_t t0 = hostNs();
    std::unique_ptr<Deployment> dep;
    {
        HostSpan span(trace, "Deployment");
        dep = std::make_unique<Deployment>(cfg, opts);
    }
    ep.imageBuildMs += millis(hostNs() - t0);
    {
        HostSpan span(trace, "start");
        dep->start();
    }
    std::int64_t built = hostNs();
    ep.buildMs += millis(built - t0);
    double perf = serveRedis(*dep, load, ep, trace, simPid, firstOpNs);
    std::int64_t served = hostNs();
    ep.serveMs += millis(served - built);
    {
        HostSpan span(trace, "stop");
        dep->stop();
    }
    {
        HostSpan span(trace, "teardown");
        dep.reset();
    }
    ep.teardownMs += millis(hostNs() - served);
    ++ep.configs;
    return perf;
}

std::unique_ptr<Workload>
makeRedisWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "redis-get-e3-2core")
        return std::make_unique<RedisWorkload>(
            mpkDssPoint({0, 0, 1, 2}, 2, 1),
            makeRedisLoad(seed, 1000, 4, 1, 40'000, 0));
    if (name == "redis-mixed-c-batch8")
        return std::make_unique<RedisWorkload>(
            mpkDssPoint({0, 0, 0, 1}, 1, 8),
            makeRedisLoad(seed, 10'000, 4, 8, 60'000, 30));
    return nullptr;
}

} // namespace perfbench
