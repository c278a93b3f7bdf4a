/**
 * @file
 * libredis: a Redis-like key-value server speaking RESP2 over the TCP
 * stack, plus a redis-benchmark-style load generator.
 *
 * Implements the commands the paper's evaluation drives (GET/SET plus
 * the usual helpers) over an open-addressing hash table, with
 * per-command work charged to the virtual clock so configuration
 * effects (gates, hardening) dominate exactly as on real hardware.
 */

#ifndef FLEXOS_APPS_REDIS_HH
#define FLEXOS_APPS_REDIS_HH

#include <optional>
#include <string>
#include <vector>

#include "apps/libc.hh"

namespace flexos {

/** A parsed RESP request: command + arguments. */
using RespCommand = std::vector<std::string>;

/**
 * Incremental RESP2 protocol parser (arrays of bulk strings).
 */
class RespParser
{
  public:
    /** Feed bytes; complete commands accumulate in commands(). */
    void feed(const char *data, std::size_t n);

    /** Pop the next complete command, if any. */
    std::optional<RespCommand> next();

    /** Parse/feed errors (protocol violations). */
    bool errored() const { return hasError; }

    /** @name RESP serialization helpers. @{ */
    static std::string simpleString(const std::string &s);
    static std::string error(const std::string &msg);
    static std::string integer(long v);
    static std::string bulkString(const std::string &s);
    static std::string nil();
    static std::string command(const RespCommand &cmd);
    /** @} */

  private:
    bool parseOne();

    std::string buf;
    std::vector<RespCommand> ready;
    bool hasError = false;
};

/**
 * Open-addressing (linear probing) string hash table — the dict.
 */
class RedisDict
{
  public:
    /** A dict whose operations charge m's clock. */
    explicit RedisDict(Machine &m, std::size_t initialBuckets = 1024);

    void set(const std::string &key, const std::string &value);
    const std::string *get(const std::string &key) const;
    bool del(const std::string &key);
    std::size_t size() const { return used; }
    void clear();

  private:
    struct Slot
    {
        std::string key;
        std::string value;
        enum class State : std::uint8_t { Empty, Used, Tombstone } state =
            State::Empty;
    };

    std::size_t probe(const std::string &key, bool forInsert) const;
    void grow();
    static std::uint64_t hashKey(const std::string &key);

    Machine &mach;
    std::vector<Slot> slots;
    std::size_t used = 0;
};

/**
 * The Redis server: accepts connections, parses pipelined commands,
 * executes them against the dict, replies.
 */
class RedisServer
{
  public:
    RedisServer(LibcApi &libc, std::uint16_t port = 6379);

    /** Spawn the server (accept loop) in libredis' compartment. */
    void start();

    /** Ask the loops to wind down after the next command. */
    void stop() { stopping = true; }

    std::uint64_t commandsServed() const { return served; }
    RedisDict &dict() { return db; }

  private:
    void acceptLoop();
    void serveConnection(TcpSocket *conn);
    std::string execute(const RespCommand &cmd);

    LibcApi &libc;
    std::uint16_t port;
    RedisDict db;
    bool stopping = false;
    std::uint64_t served = 0;
};

/**
 * redis-benchmark-style client: pipelined GETs against a preloaded
 * keyspace, measuring requests per second of virtual time. Runs as
 * free-running threads (client cycles are not charged, as in the
 * paper's separate client cores). With connections > 1 the request
 * budget is split over that many parallel connections, each served by
 * its own thread-per-connection fiber on the server.
 */
struct RedisBenchmarkResult
{
    std::uint64_t requests = 0;
    double seconds = 0;
    double requestsPerSec = 0;
    unsigned connections = 1;
};

RedisBenchmarkResult runRedisGetBenchmark(Image &img, LibcApi &serverLibc,
                                          NetStack &clientStack,
                                          std::uint64_t requests,
                                          unsigned pipeline = 8,
                                          unsigned keyCount = 100,
                                          std::uint16_t port = 6379,
                                          unsigned connections = 1);

} // namespace flexos

#endif // FLEXOS_APPS_REDIS_HH
