/**
 * @file
 * The benchmark's own Redis load generator: a seeded keyspace model,
 * a preload over one connection, and a closed loop of GET/SET over N
 * client connections (free-running fibers, like redis-benchmark on
 * separate client cores) that checks every reply against the model.
 */

#ifndef FLEXOS_PERFBENCH_REDIS_LOAD_HH
#define FLEXOS_PERFBENCH_REDIS_LOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** One request with the exact reply bytes the model predicts. */
struct RedisOp
{
    std::string request;
    std::string expect;
    bool isSet = false;
};

/** A generated closed-loop load: everything the server will see. */
struct RedisLoad
{
    unsigned pipeline = 1;
    /** RESP SET commands that populate the keyspace. */
    std::vector<std::string> preload;
    /** Per-connection request streams. */
    std::vector<std::vector<RedisOp>> ops;

    std::uint64_t total() const;
};

/**
 * Generate a load. Keys are uniform over `keys` preloaded keys; values
 * are 16-256 random bytes. With setPercent > 0, connection c only
 * touches keys k with k % connections == c, so each key's writes come
 * from one ordered stream and every GET's reply is exactly predictable.
 */
RedisLoad makeRedisLoad(std::uint64_t seed, unsigned keys,
                        unsigned connections, unsigned pipeline,
                        std::uint64_t requests, unsigned setPercent);

/**
 * One configuration's whole life: build a Deployment of cfg, start it,
 * start a RedisServer, preload the keyspace, then run the measured
 * closed loop through Scheduler::runUntil in tenths of the request
 * budget; stop and destroy everything. Adds counts, latencies, counter
 * deltas and host timings into ep and stores the host time of the
 * first measured request in *firstOpNs.
 *
 * @return completed requests per simulated second.
 */
double serveConfig(const flexos::SafetyConfig &cfg,
                   const flexos::DeployOptions &opts, const RedisLoad &load,
                   Episode &ep, Trace *trace, int simPid,
                   std::int64_t *firstOpNs);

} // namespace perfbench

#endif // FLEXOS_PERFBENCH_REDIS_LOAD_HH
