/**
 * @file
 * Simulated point-to-point NIC link.
 *
 * Two endpoints, each with one or more RX queues; transmitting on one
 * endpoint enqueues at the peer, steered to a queue by the peer's
 * RSS hash when multi-queue is configured (single queue 0 otherwise).
 * A fault injector can drop, duplicate or reorder frames (used by the
 * TCP property tests). Frame handling charges the NIC descriptor cost
 * to the machine the link was built on.
 */

#ifndef FLEXOS_NET_NIC_HH
#define FLEXOS_NET_NIC_HH

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "machine/machine.hh"
#include "net/netbuf.hh"

namespace flexos {

class Link;

/**
 * One end of a link.
 */
class NicEndpoint
{
  public:
    /** RSS indirection: maps an arriving frame to a queue index
     *  (taken modulo the queue count). */
    using SteerFn = std::function<std::size_t(const NetBuf &)>;

    /** Transmit a frame to the peer endpoint. */
    void transmit(NetBuf frame);

    /** Pop the next received frame from any queue (lowest first). */
    std::optional<NetBuf> receive();

    /** Pop the next received frame of one RX queue, if any. */
    std::optional<NetBuf> receiveQueue(std::size_t q);

    /** Frames waiting across all RX queues. */
    std::size_t pending() const;

    /** Frames waiting in one RX queue. */
    std::size_t
    pendingIn(std::size_t q) const
    {
        return rxQueues[q].size();
    }

    /** Number of RX queues (1 until configureRss). */
    std::size_t queueCount() const { return rxQueues.size(); }

    /**
     * Reconfigure this endpoint with `queues` RX queues steered by
     * `steerFn` (RSS). Frames already queued are re-steered. A null
     * steerFn sends everything to queue 0.
     */
    void configureRss(std::size_t queues, SteerFn steerFn);

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

    explicit NicEndpoint(Machine &m) : mach(m), rxQueues(1) {}

    /** The queue an arriving frame steers to. */
    std::size_t steerTo(const NetBuf &frame) const;

    Machine &mach;
    NicEndpoint *peer = nullptr;
    std::vector<std::deque<NetBuf>> rxQueues;
    SteerFn steer;
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
    NicEndpoint a;
    NicEndpoint b;
};

} // namespace flexos

#endif // FLEXOS_NET_NIC_HH
