/**
 * @file
 * libiperf: the iPerf-style network throughput benchmark (paper 6.3).
 *
 * The server recv()s into a configurable buffer; the client pumps bulk
 * data from a free-running thread. Smaller receive buffers mean more
 * gate crossings per byte — the batching effect Figure 9 plots.
 *
 * The multi-flow variant drives N parallel connections through one
 * listener (thread-per-connection on the server, one free-running
 * client fiber per flow), exercising the stack's accept backlog and
 * flow table the way a loaded deployment would.
 */

#ifndef FLEXOS_APPS_IPERF_HH
#define FLEXOS_APPS_IPERF_HH

#include "apps/libc.hh"

namespace flexos {

/** Result of one iPerf run (aggregate over all flows). */
struct IperfResult
{
    std::uint64_t bytes = 0;
    double seconds = 0;
    double gbitPerSec = 0;
    unsigned flows = 1;
};

/**
 * Run an iPerf transfer: `flows` parallel connections, each
 * transferring bytesPerFlow, with the given server-side receive
 * buffer size. The server runs in libiperf's compartment; the clients
 * are free-running on the peer stack. Aggregate goodput is measured
 * from the first byte of any flow to the completion of the last.
 */
IperfResult runIperf(Image &img, LibcApi &serverLibc,
                     NetStack &clientStack, std::uint64_t bytesPerFlow,
                     std::size_t recvBufSize, unsigned flows = 1,
                     std::uint16_t port = 5201);

} // namespace flexos

#endif // FLEXOS_APPS_IPERF_HH
