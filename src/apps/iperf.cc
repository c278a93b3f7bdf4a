#include "apps/iperf.hh"

#include <string>
#include <vector>

#include "base/logging.hh"

namespace flexos {

IperfResult
runIperf(Image &img, LibcApi &serverLibc, NetStack &clientStack,
         std::uint64_t bytesPerFlow, std::size_t recvBufSize,
         unsigned flows, std::uint16_t port)
{
    panic_if(flows == 0, "iperf needs at least one flow");
    Scheduler &sched = img.scheduler();
    Machine &mach = img.machine();

    std::uint64_t received = 0;
    unsigned flowsDone = 0;
    Cycles startCycles = 0;
    bool firstByte = true;

    // Server: accept loop + one worker fiber per connection, all in
    // libiperf's compartment. Each worker is pinned to the core whose
    // RSS queue carries its connection, so the flow's packet
    // processing and its application work stay core-local.
    img.spawnIn("libiperf", "iperf-accept", [&, flows] {
        TcpSocket *listener = serverLibc.listen(port);
        for (unsigned i = 0; i < flows; ++i) {
            TcpSocket *conn = serverLibc.accept(listener);
            Thread *worker = img.spawnIn(
                "libiperf", "iperf-server-" + std::to_string(i),
                [&, conn] {
                    std::vector<char> buf(recvBufSize);
                    long n;
                    while ((n = serverLibc.recv(conn, buf.data(),
                                                buf.size())) > 0) {
                        if (firstByte) {
                            startCycles = mach.wallCycles();
                            firstByte = false;
                        }
                        received += static_cast<std::uint64_t>(n);
                    }
                    serverLibc.closeSocket(conn);
                    ++flowsDone;
                });
            NetStack *srv = serverLibc.netstack();
            sched.pin(worker,
                      static_cast<int>(srv->rssQueueOf(*conn) %
                                       mach.coreCount()));
        }
    });

    // Clients: one free-running pump per flow (the paper's client
    // machines do not count towards server-side time).
    for (unsigned i = 0; i < flows; ++i) {
        Thread *client = sched.spawn(
            "iperf-client-" + std::to_string(i), [&, bytesPerFlow] {
                TcpSocket *s = clientStack.connect(
                    serverLibc.netstack()->ip(), port);
                panic_if(!s, "iperf client could not connect");
                std::vector<char> chunk(16 * 1024, 'D');
                std::uint64_t sent = 0;
                while (sent < bytesPerFlow) {
                    std::size_t n = std::min<std::uint64_t>(
                        chunk.size(), bytesPerFlow - sent);
                    if (s->send(chunk.data(), n) < 0)
                        break;
                    sent += n;
                }
                s->close();
            });
        client->freeRunning = true;
    }

    bool ok = sched.runUntil([&] { return flowsDone == flows; },
                             500'000'000);
    panic_if(!ok, "iperf did not complete");

    IperfResult res;
    res.bytes = received;
    res.flows = flows;
    // Wall clock (the furthest-ahead core), not one core's clock: on
    // an SMP machine the aggregate ran for the wall interval while
    // every core worked in parallel — that is what throughput divides
    // by. Identical to cycles() on a 1-core machine.
    res.seconds =
        static_cast<double>(mach.wallCycles() - startCycles) /
        (mach.timing.cpuGhz * 1e9);
    res.gbitPerSec =
        res.seconds > 0
            ? static_cast<double>(res.bytes) * 8.0 / res.seconds / 1e9
            : 0;
    return res;
}

} // namespace flexos
