#include "net/nic.hh"

#include "net/proto.hh"

namespace flexos {

std::uint32_t
rssHash(std::uint32_t srcIp, std::uint16_t srcPort, std::uint32_t dstIp,
        std::uint16_t dstPort)
{
    // Multiplicative fold of the 4-tuple. The per-field multipliers
    // are odd, so consecutive ephemeral ports step the hash by an odd
    // constant and rotate through any power-of-two queue count without
    // clumping — the property admins tune Toeplitz keys for, here by
    // construction. Deterministic and trivially reproducible in tests.
    std::uint32_t v = srcPort * 0x9e3779b1u + dstPort * 0x85ebca77u +
                      srcIp * 0xc2b2ae3du + dstIp * 0x27d4eb2fu;
    return v;
}

namespace {

/** Hash an arriving frame's TCP 4-tuple (0 for non-TCP frames). */
std::size_t
steerFrame(const NetBuf &frame)
{
    // Raw header peek — no checksum work: the real NIC's RSS engine
    // hashes header fields straight off the wire before any protocol
    // validation happens.
    const std::uint8_t *p = frame.data();
    std::size_t n = frame.size();
    constexpr std::size_t need =
        EthHeader::wireSize + Ip4Header::wireSize + 4;
    if (n < need || getBe16(p + 12) != EthHeader::typeIp4)
        return 0;
    const std::uint8_t *ip = p + EthHeader::wireSize;
    if ((ip[0] >> 4) != 4 || ip[9] != Ip4Header::protoTcp)
        return 0;
    std::uint32_t src = getBe32(ip + 12);
    std::uint32_t dst = getBe32(ip + 16);
    const std::uint8_t *tcp = ip + Ip4Header::wireSize;
    return rssHash(src, getBe16(tcp), dst, getBe16(tcp + 2));
}

} // namespace

Link::Link(Machine &m) : a(m, pool), b(m, pool)
{
    a.peer = &b;
    b.peer = &a;
}

std::size_t
NicEndpoint::steerTo(const NetBuf &frame) const
{
    if (rxQueues.size() <= 1)
        return 0;
    return steerFrame(frame) % rxQueues.size();
}

void
NicEndpoint::configureRss(std::size_t queues)
{
    if (queues == 0)
        queues = 1;
    std::vector<Ring<NetBuf>> old = std::move(rxQueues);
    rxQueues = std::vector<Ring<NetBuf>>(queues);
    // Re-steer anything already queued so no frame is stranded in a
    // queue index that no longer exists (or now belongs to another
    // flow's poller).
    for (auto &q : old) {
        for (; !q.empty(); q.pop_front())
            rxQueues[steerTo(q.front())].push_back(std::move(q.front()));
    }
}

void
NicEndpoint::transmit(NetBuf frame)
{
    mach.consume(mach.timing.nicFrame);
    mach.bump(Counter::NicTx);
    if (peer->rxFilter && !peer->rxFilter(frame)) {
        mach.bump(Counter::NicDropped);
        pool.give(std::move(frame));
        return;
    }
    std::size_t q = peer->steerTo(frame);
    if (q != 0)
        mach.bump(Counter::NicSteered);
    peer->rxQueues[q].push_back(std::move(frame));
    if (peer->onArrive)
        peer->onArrive(q);
}

std::optional<NetBuf>
NicEndpoint::receiveQueue(std::size_t q)
{
    auto &rx = rxQueues[q];
    if (rx.empty())
        return std::nullopt;
    mach.consume(mach.timing.nicFrame);
    mach.bump(Counter::NicRx);
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
