/**
 * @file
 * Simulated point-to-point NIC link.
 *
 * Two endpoints, each with one or more RX queues; transmitting on one
 * endpoint enqueues at the peer, steered to a queue by the peer's
 * RSS hash of the TCP 4-tuple when multi-queue is configured (single
 * queue 0 otherwise).
 * A fault injector can drop, duplicate or reorder frames (used by the
 * TCP property tests). Frame handling charges the NIC descriptor cost
 * to the machine the link was built on.
 *
 * The link owns the frame pool both endpoints draw from: a frame is
 * taken in one stack's sendSegment and given back once the peer's
 * stack has handled it, or when the NIC drops it.
 */

#ifndef FLEXOS_NET_NIC_HH
#define FLEXOS_NET_NIC_HH

#include <functional>
#include <optional>
#include <vector>

#include "machine/machine.hh"
#include "net/netbuf.hh"
#include "net/ring.hh"

namespace flexos {

class Link;

/**
 * Toeplitz-style RSS hash of a flow 4-tuple (deterministic): the NIC
 * steers an arriving TCP frame to queue rssHash(...) % queues.
 */
std::uint32_t rssHash(std::uint32_t srcIp, std::uint16_t srcPort,
                      std::uint32_t dstIp, std::uint16_t dstPort);

/**
 * One end of a link.
 */
class NicEndpoint
{
  public:
    /**
     * A frame from the link's pool to fill and transmit: default
     * capacity and headroom, no data, uninitialised storage.
     */
    NetBuf frame() { return pool.take(); }

    /** Return a handled frame's storage to the link's pool. */
    void recycle(NetBuf &&f) { pool.give(std::move(f)); }

    /** Transmit a frame to the peer endpoint. */
    void transmit(NetBuf frame);

    /** Pop the next received frame from any queue (lowest first). */
    std::optional<NetBuf> receive();

    /** Pop the next received frame of one RX queue, if any. */
    std::optional<NetBuf> receiveQueue(std::size_t q);

    /** Frames waiting in one RX queue. */
    std::size_t
    pendingIn(std::size_t q) const
    {
        return rxQueues[q].size();
    }

    /** Number of RX queues (1 until configureRss). */
    std::size_t queueCount() const { return rxQueues.size(); }

    /**
     * Reconfigure this endpoint with `queues` RX queues (RSS): arriving
     * TCP frames steer by rssHash over their 4-tuple, everything else
     * to queue 0. Frames already queued are re-steered.
     */
    void configureRss(std::size_t queues);

    /**
     * Fault injector applied to frames *arriving* at this endpoint.
     * Return false to drop the frame. May stash frames to reorder.
     */
    std::function<bool(NetBuf &)> rxFilter;

    /**
     * Arrival notification (the interrupt line): invoked with the RX
     * queue index after a frame lands. Lets an event-driven poller
     * block instead of busy-spinning on an empty ring.
     */
    std::function<void(std::size_t)> onArrive;

  private:
    friend class Link;

    NicEndpoint(Machine &m, FramePool &p) : mach(m), pool(p), rxQueues(1)
    {
    }

    /** The queue an arriving frame steers to. */
    std::size_t steerTo(const NetBuf &frame) const;

    Machine &mach;
    FramePool &pool;
    NicEndpoint *peer = nullptr;
    std::vector<Ring<NetBuf>> rxQueues;
};

/**
 * A full-duplex link joining two endpoints.
 */
class Link
{
  public:
    /** @param m the machine both endpoints charge frame handling to */
    explicit Link(Machine &m);

    NicEndpoint &endA() { return a; }
    NicEndpoint &endB() { return b; }

  private:
    FramePool pool; ///< before the endpoints, which refer to it
    NicEndpoint a;
    NicEndpoint b;
};

} // namespace flexos

#endif // FLEXOS_NET_NIC_HH
