#include "net/nic.hh"

#include <algorithm>

namespace flexos {

Link::Link(Machine &m) : a(m), b(m)
{
    a.peer = &b;
    b.peer = &a;
}

std::size_t
NicEndpoint::steerTo(const NetBuf &frame) const
{
    if (!steer || rxQueues.size() <= 1)
        return 0;
    return steer(frame) % rxQueues.size();
}

void
NicEndpoint::configureRss(std::size_t queues, SteerFn steerFn)
{
    if (queues == 0)
        queues = 1;
    steer = std::move(steerFn);
    std::vector<std::deque<NetBuf>> old = std::move(rxQueues);
    rxQueues.assign(queues, {});
    // Re-steer anything already queued so no frame is stranded in a
    // queue index that no longer exists (or now belongs to another
    // flow's poller).
    for (auto &q : old)
        for (auto &f : q)
            rxQueues[steerTo(f)].push_back(std::move(f));
}

void
NicEndpoint::transmit(NetBuf frame)
{
    mach.consume(mach.timing.nicFrame);
    mach.bump("nic.tx");
    if (peer->rxFilter && !peer->rxFilter(frame)) {
        mach.bump("nic.dropped");
        return;
    }
    std::size_t q = peer->steerTo(frame);
    if (q != 0)
        mach.bump("nic.steered");
    peer->rxQueues[q].push_back(std::move(frame));
    if (peer->onArrive)
        peer->onArrive(q);
}

std::size_t
NicEndpoint::pending() const
{
    std::size_t n = 0;
    for (const auto &q : rxQueues)
        n += q.size();
    return n;
}

std::optional<NetBuf>
NicEndpoint::receiveQueue(std::size_t q)
{
    auto &rx = rxQueues[q];
    if (rx.empty())
        return std::nullopt;
    mach.consume(mach.timing.nicFrame);
    mach.bump("nic.rx");
    NetBuf f = std::move(rx.front());
    rx.pop_front();
    return f;
}

std::optional<NetBuf>
NicEndpoint::receive()
{
    for (std::size_t q = 0; q < rxQueues.size(); ++q)
        if (!rxQueues[q].empty())
            return receiveQueue(q);
    return std::nullopt;
}

} // namespace flexos
