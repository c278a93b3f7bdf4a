#include "apps/redis.hh"

#include <cstring>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace flexos {

// --------------------------------------------------------------- parser

void
RespParser::feed(const char *data, std::size_t n)
{
    buf.append(data, n);
    while (parseOne()) {
    }
}

bool
RespParser::parseOne()
{
    if (buf.empty() || hasError)
        return false;
    if (buf[0] != '*') {
        hasError = true;
        return false;
    }
    std::size_t pos = buf.find("\r\n");
    if (pos == std::string::npos)
        return false;
    long nArgs;
    if (!parseInt(buf.substr(1, pos - 1), nArgs) || nArgs < 0 ||
        nArgs > 1024) {
        hasError = true;
        return false;
    }

    RespCommand cmd;
    std::size_t at = pos + 2;
    for (long i = 0; i < nArgs; ++i) {
        if (at >= buf.size() || buf[at] != '$') {
            if (at >= buf.size())
                return false; // incomplete
            hasError = true;
            return false;
        }
        std::size_t lenEnd = buf.find("\r\n", at);
        if (lenEnd == std::string::npos)
            return false;
        long len;
        if (!parseInt(buf.substr(at + 1, lenEnd - at - 1), len) ||
            len < 0 || len > 512 * 1024) {
            hasError = true;
            return false;
        }
        std::size_t dataStart = lenEnd + 2;
        if (dataStart + static_cast<std::size_t>(len) + 2 > buf.size())
            return false; // incomplete
        cmd.push_back(buf.substr(dataStart, static_cast<std::size_t>(len)));
        at = dataStart + static_cast<std::size_t>(len) + 2;
    }

    buf.erase(0, at);
    ready.push_back(std::move(cmd));
    return true;
}

std::optional<RespCommand>
RespParser::next()
{
    if (ready.empty())
        return std::nullopt;
    RespCommand cmd = std::move(ready.front());
    ready.erase(ready.begin());
    return cmd;
}

std::string
RespParser::simpleString(const std::string &s)
{
    return "+" + s + "\r\n";
}

std::string
RespParser::error(const std::string &msg)
{
    return "-ERR " + msg + "\r\n";
}

std::string
RespParser::integer(long v)
{
    return ":" + std::to_string(v) + "\r\n";
}

std::string
RespParser::bulkString(const std::string &s)
{
    return "$" + std::to_string(s.size()) + "\r\n" + s + "\r\n";
}

std::string
RespParser::nil()
{
    return "$-1\r\n";
}

std::string
RespParser::command(const RespCommand &cmd)
{
    std::string out = "*" + std::to_string(cmd.size()) + "\r\n";
    for (const std::string &arg : cmd)
        out += bulkString(arg);
    return out;
}

// ----------------------------------------------------------------- dict

namespace {

/** Modelled dict operation cost (hash + probe + compare). */
constexpr Cycles dictOpCost = 60;

} // namespace

RedisDict::RedisDict(Machine &m, std::size_t initialBuckets)
    : mach(m), slots(initialBuckets)
{
}

std::uint64_t
RedisDict::hashKey(const std::string &key)
{
    // FNV-1a.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::size_t
RedisDict::probe(const std::string &key, bool forInsert) const
{
    std::size_t mask = slots.size() - 1;
    std::size_t i = hashKey(key) & mask;
    std::size_t firstTombstone = SIZE_MAX;
    for (std::size_t step = 0; step <= mask; ++step) {
        const Slot &s = slots[i];
        if (s.state == Slot::State::Empty)
            return (forInsert && firstTombstone != SIZE_MAX)
                       ? firstTombstone
                       : i;
        if (s.state == Slot::State::Tombstone) {
            if (firstTombstone == SIZE_MAX)
                firstTombstone = i;
        } else if (s.key == key) {
            return i;
        }
        i = (i + 1) & mask;
    }
    return forInsert ? firstTombstone : SIZE_MAX;
}

void
RedisDict::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    used = 0;
    for (Slot &s : old) {
        if (s.state == Slot::State::Used)
            set(std::move(s.key), std::move(s.value));
    }
}

void
RedisDict::set(const std::string &key, const std::string &value)
{
    if ((used + 1) * 4 >= slots.size() * 3) // load factor 0.75
        grow();
    mach.consume(dictOpCost);
    std::size_t i = probe(key, true);
    panic_if(i == SIZE_MAX, "dict probe failed");
    Slot &s = slots[i];
    if (s.state != Slot::State::Used)
        ++used;
    s.key = key;
    s.value = value;
    s.state = Slot::State::Used;
}

const std::string *
RedisDict::get(const std::string &key) const
{
    mach.consume(dictOpCost);
    std::size_t i = probe(key, false);
    if (i == SIZE_MAX || slots[i].state != Slot::State::Used)
        return nullptr;
    return &slots[i].value;
}

bool
RedisDict::del(const std::string &key)
{
    mach.consume(dictOpCost);
    std::size_t i = probe(key, false);
    if (i == SIZE_MAX || slots[i].state != Slot::State::Used)
        return false;
    slots[i].state = Slot::State::Tombstone;
    slots[i].key.clear();
    slots[i].value.clear();
    --used;
    return true;
}

void
RedisDict::clear()
{
    std::fill(slots.begin(), slots.end(), Slot{});
    used = 0;
}

// ---------------------------------------------------------------- server

namespace {

/** Modelled per-command parse/dispatch cost. */
constexpr Cycles commandCost = 120;

} // namespace

RedisServer::RedisServer(LibcApi &libcApi, std::uint16_t serverPort)
    : libc(libcApi), port(serverPort), db(libcApi.image().machine())
{
}

void
RedisServer::start()
{
    libc.image().spawnIn("libredis", "redis-accept",
                         [this] { acceptLoop(); });
}

void
RedisServer::acceptLoop()
{
    TcpSocket *listener = libc.listen(port);
    while (!stopping) {
        TcpSocket *conn = libc.accept(listener);
        if (!conn)
            break;
        // One cooperative worker per connection, as Unikraft threads.
        libc.image().spawnIn("libredis", "redis-conn",
                             [this, conn] { serveConnection(conn); });
    }
}

void
RedisServer::serveConnection(TcpSocket *conn)
{
    RespParser parser;
    char buf[4096];
    while (!stopping) {
        long n = libc.recv(conn, buf, sizeof(buf));
        if (n <= 0)
            break;
        parser.feed(buf, static_cast<std::size_t>(n));
        if (parser.errored()) {
            std::string err = RespParser::error("protocol error");
            libc.send(conn, err.data(), err.size());
            break;
        }
        std::string replies;
        while (auto cmd = parser.next()) {
            // Thread-per-connection: the shared dict is guarded by a
            // scheduler mutex — Redis' scheduler-heavy hot path (6.1).
            libc.lock();
            try {
                replies += execute(*cmd);
            } catch (const HardeningViolation &v) {
                // Hardening reports surface as protocol errors instead
                // of silently corrupting state.
                libc.unlock();
                replies += RespParser::error(v.what());
                continue;
            }
            libc.unlock();
        }
        if (!replies.empty())
            libc.send(conn, replies.data(), replies.size());
    }
    libc.closeSocket(conn);
}

std::string
RedisServer::execute(const RespCommand &cmd)
{
    libc.image().machine().consume(commandCost);
    ++served;
    if (cmd.empty())
        return RespParser::error("empty command");
    std::string op = toLower(cmd[0]);

    if (op == "ping")
        return RespParser::simpleString("PONG");
    if (op == "set" && cmd.size() == 3) {
        db.set(cmd[1], cmd[2]);
        return RespParser::simpleString("OK");
    }
    if (op == "get" && cmd.size() == 2) {
        const std::string *v = db.get(cmd[1]);
        return v ? RespParser::bulkString(*v) : RespParser::nil();
    }
    if (op == "del" && cmd.size() >= 2) {
        long removed = 0;
        for (std::size_t i = 1; i < cmd.size(); ++i)
            removed += db.del(cmd[i]) ? 1 : 0;
        return RespParser::integer(removed);
    }
    if (op == "exists" && cmd.size() == 2)
        return RespParser::integer(db.get(cmd[1]) ? 1 : 0);
    if (op == "incr" && cmd.size() == 2) {
        const std::string *v = db.get(cmd[1]);
        long cur = 0;
        if (v && !parseInt(*v, cur))
            return RespParser::error("value is not an integer");
        // Hardening instrumentation point: checked increment.
        long next =
            libc.hardening().add<long>(cur, 1);
        db.set(cmd[1], std::to_string(next));
        return RespParser::integer(next);
    }
    if (op == "flushall") {
        db.clear();
        return RespParser::simpleString("OK");
    }
    if (op == "dbsize")
        return RespParser::integer(static_cast<long>(db.size()));
    return RespParser::error("unknown command '" + cmd[0] + "'");
}

// ------------------------------------------------------------ benchmark

namespace {

/** One benchmark connection: pipelined GETs for its request share. */
void
redisGetWorker(NetStack &clientStack, std::uint32_t serverIp,
               std::uint16_t port, std::uint64_t requests,
               unsigned pipeline, unsigned keyCount,
               std::uint64_t &gotReplies, char &done)
{
    TcpSocket *s = clientStack.connect(serverIp, port);
    panic_if(!s, "redis-benchmark could not connect");

    char buf[8192];
    std::uint64_t sent = 0, replies = 0;
    std::string reply;
    while (replies < requests) {
        while (sent < requests && sent - replies < pipeline) {
            std::string cmd = RespParser::command(
                {"GET", "key:" + std::to_string(sent % keyCount)});
            s->send(cmd.data(), cmd.size());
            ++sent;
        }
        long n = s->recv(buf, sizeof(buf));
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
        // Count complete bulk-string replies.
        std::size_t at;
        while ((at = reply.find("\r\n")) != std::string::npos) {
            if (reply[0] != '$')
                break;
            long len;
            if (!parseInt(reply.substr(1, at - 1), len))
                break;
            std::size_t total =
                at + 2 +
                (len >= 0 ? static_cast<std::size_t>(len) + 2 : 0);
            if (reply.size() < total)
                break;
            reply.erase(0, total);
            ++replies;
            ++gotReplies;
        }
    }
    s->close();
    done = 1;
}

} // namespace

RedisBenchmarkResult
runRedisGetBenchmark(Image &img, LibcApi &serverLibc,
                     NetStack &clientStack, std::uint64_t requests,
                     unsigned pipeline, unsigned keyCount,
                     std::uint16_t port, unsigned connections)
{
    panic_if(connections == 0, "benchmark needs at least one connection");
    Scheduler &sched = img.scheduler();
    Machine &mach = img.machine();

    RedisServer server(serverLibc, port);
    server.start();

    std::uint64_t gotReplies = 0;
    Cycles startCycles = 0;
    bool preloaded = false;
    std::vector<char> workerDone(connections, 0);

    // Preload the keyspace over a dedicated connection, then fan the
    // measured GET load out over `connections` parallel connections.
    Thread *loader = sched.spawn("redis-preload", [&] {
        TcpSocket *s =
            clientStack.connect(serverLibc.netstack()->ip(), port);
        panic_if(!s, "redis-benchmark could not connect");
        for (unsigned k = 0; k < keyCount; ++k) {
            std::string cmd = RespParser::command(
                {"SET", "key:" + std::to_string(k),
                 "value-" + std::to_string(k)});
            s->send(cmd.data(), cmd.size());
        }
        // Drain the SET replies ("+OK\r\n" each).
        std::size_t expect = keyCount * 5;
        char buf[8192];
        std::size_t drained = 0;
        while (drained < expect) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                return;
            drained += static_cast<std::size_t>(n);
        }
        s->close();

        // Wall clock, not this core's clock: the workers spread
        // across cores and each advances its own (see iperf.cc).
        startCycles = mach.wallCycles();
        preloaded = true;
        std::uint32_t ip = serverLibc.netstack()->ip();
        for (unsigned c = 0; c < connections; ++c) {
            std::uint64_t share = requests / connections +
                                  (c < requests % connections ? 1 : 0);
            char &done = workerDone[c];
            Thread *w = sched.spawn(
                "redis-bench-" + std::to_string(c),
                [&, ip, share] {
                    redisGetWorker(clientStack, ip, port, share,
                                   pipeline, keyCount, gotReplies,
                                   done);
                });
            w->freeRunning = true; // client cores are not measured
        }
    });
    loader->freeRunning = true;

    auto allDone = [&] {
        if (!preloaded)
            return false;
        for (char d : workerDone)
            if (!d)
                return false;
        return true;
    };
    bool ok = sched.runUntil(allDone, 200'000'000);
    panic_if(!ok, "redis benchmark did not complete");
    Cycles endCycles = mach.wallCycles(); // before teardown work
    server.stop();
    // Drain: every client closed its connection, so a few more rounds
    // let the per-connection server fibers observe EOF and unwind
    // (reclaiming their parser state) instead of being abandoned
    // mid-recv.
    sched.runUntil([] { return false; }, 20'000);

    RedisBenchmarkResult res;
    res.requests = gotReplies;
    res.connections = connections;
    res.seconds = static_cast<double>(endCycles - startCycles) /
                  (mach.timing.cpuGhz * 1e9);
    res.requestsPerSec =
        res.seconds > 0 ? static_cast<double>(res.requests) / res.seconds
                        : 0;
    return res;
}

} // namespace flexos
