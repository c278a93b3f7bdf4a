/**
 * @file
 * lwip-like TCP/IP stack: blocking sockets over the simulated NIC.
 *
 * Implements real TCP machinery — three-way handshake, cumulative ACKs,
 * flow control with advertised windows, out-of-order reassembly,
 * retransmission with exponential backoff, zero-window probing and
 * graceful FIN teardown — enough for the workloads the paper evaluates
 * (Redis, Nginx, iPerf) to run over realistic packet exchanges, and to
 * survive the loss/reorder property tests.
 */

#ifndef FLEXOS_NET_TCP_HH
#define FLEXOS_NET_TCP_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/nic.hh"
#include "net/proto.hh"
#include "net/ring.hh"
#include "uksched/scheduler.hh"
#include "uktime/clock.hh"

namespace flexos {

class NetStack;

/**
 * A TCP socket (also used as the listener object). All calls block the
 * calling fiber cooperatively; the stack's poller thread drives protocol
 * progress. The socket is its own retransmit timer slot: the stack's
 * TimerQueue hands a due socket back to NetStack::pollQueue.
 */
class TcpSocket : private TimerSlot
{
  public:
    enum class State
    {
        Closed,
        Listen,
        SynSent,
        SynRcvd,
        Established,
        FinWait1,
        FinWait2,
        CloseWait,
        LastAck,
    };

    /** Maximum segment payload. */
    static constexpr std::size_t mss = 1400;
    /** Send/receive buffer capacity. */
    static constexpr std::size_t bufMax = 64 * 1024;
    /** Default listener backlog (embryonic + accept-ready children). */
    static constexpr std::size_t defaultBacklog = 128;

    /**
     * Send n bytes; blocks while the send buffer is full.
     * @return n, or -1 if the connection failed.
     */
    long send(const void *buf, std::size_t n);

    /**
     * Receive up to n bytes; blocks until data, EOF or error.
     * @return bytes read; 0 on orderly EOF; -1 on error.
     */
    long recv(void *buf, std::size_t n);

    /** Accept one established connection (listener sockets only). */
    TcpSocket *accept();

    /** Flush outstanding data and send FIN. */
    void close();

    /** Hard reset without the FIN handshake (test hook). */
    void abort();

    State state() const { return st; }
    bool established() const { return st == State::Established; }
    bool hasError() const { return errored; }
    std::uint16_t localPort() const { return lPort; }
    std::uint16_t remotePort() const { return rPort; }
    std::uint32_t remoteIp() const { return rIp; }

    /** Bytes immediately available to recv(). */
    std::size_t available() const { return rcvBuf.size(); }

    /** Established connections waiting in accept() (listeners only). */
    std::size_t pendingAccepts() const { return acceptQueue.size(); }

    /** True once the peer sent FIN and the buffer may still drain. */
    bool peerHasClosed() const { return peerClosed; }

    /** Bytes currently parked in the out-of-order reassembly queue. */
    std::size_t oooQueuedBytes() const { return oooBytes; }

    /**
     * Cap on out-of-order reassembly memory. When exceeded, the
     * segments farthest from rcvNxt are evicted (the peer retransmits
     * them); tests shrink this to exercise eviction.
     */
    std::size_t oooLimit = bufMax;

  private:
    friend class NetStack;

    explicit TcpSocket(NetStack &stack);

    void handleSegment(const TcpHeader &h, NetBufView payload);
    void handleAck(const TcpHeader &h);
    void handleData(const TcpHeader &h, NetBufView payload);
    void deliverInOrder(NetBufView payload);
    void drainOutOfOrder();
    void stashOutOfOrder(std::uint32_t seq, NetBufView payload);
    void enforceOooBound();
    void handleFin(const TcpHeader &h, std::size_t payloadLen);
    void transmit();
    void sendControl(std::uint8_t flags);
    void sendDataSegment(std::uint32_t seq, std::size_t off,
                         std::size_t len);
    void armRetransmit();
    void cancelRetransmit();
    void onRetransmitTimeout();
    void enterEstablished();
    void enterClosed();
    void leaveSynBacklog();
    void failConnection();
    void maybeSendWindowUpdate();
    std::uint16_t advertisedWindow() const;
    std::size_t dataInFlight() const;

    NetStack &stack;

    State st = State::Closed;
    bool errored = false;

    std::uint16_t lPort = 0;
    std::uint16_t rPort = 0;
    std::uint32_t rIp = 0;

    // Send side.
    std::uint32_t iss = 0;
    std::uint32_t sndUna = 0;
    std::uint32_t sndNxt = 0;
    Ring<std::uint8_t> sndQueue; ///< in-flight + unsent bytes
    std::size_t flightData = 0;        ///< in-flight data bytes
    std::uint32_t peerWindow = bufMax;
    bool synInFlight = false;
    bool finQueued = false;
    bool finInFlight = false;
    bool finAcked = false;
    std::uint32_t finSeq = 0;

    // Receive side. The out-of-order queue holds pairwise-disjoint
    // segments keyed by sequence number, all beyond rcvNxt; oooBytes
    // tracks their total size against oooLimit. Ordering uses
    // wraparound-aware sequence comparison — a valid strict weak
    // ordering because all stashed segments lie within half the
    // sequence space of each other (bounded by window + oooLimit) —
    // so lower_bound/eviction stay correct across a 2^32 wrap.
    struct SeqOrder
    {
        bool
        operator()(std::uint32_t a, std::uint32_t b) const
        {
            return seqLt(a, b);
        }
    };
    std::uint32_t rcvNxt = 0;
    Ring<std::uint8_t> rcvBuf;
    std::map<std::uint32_t, std::vector<std::uint8_t>, SeqOrder>
        outOfOrder;
    std::size_t oooBytes = 0;
    bool peerClosed = false;
    std::uint16_t lastAdvWindow = 0xffff;

    // Retransmission.
    std::uint64_t rtoNs = 0;

    // Blocking support.
    WaitQueue readers;
    WaitQueue writers;
    WaitQueue connectWait;

    // Listener state. backlog bounds embryonic (SYN-received) plus
    // accept-ready children; SYNs beyond it are dropped and the client
    // retries.
    std::deque<TcpSocket *> acceptQueue;
    WaitQueue acceptWait;
    std::size_t backlog = defaultBacklog;
    std::size_t embryonic = 0;   ///< children still in SynRcvd
    bool inSynBacklog = false;   ///< this child occupies a backlog slot
    bool flowRegistered = false; ///< present in the stack's flow table
    TcpSocket *parent = nullptr; ///< listener that spawned us
};

/**
 * A host's network stack instance: demultiplexing, socket lifetime,
 * timers and the poller thread.
 */
class NetStack
{
  public:
    NetStack(Machine &m, Scheduler &s, NicEndpoint &nic,
             std::uint32_t ipAddr);
    ~NetStack();

    NetStack(const NetStack &) = delete;
    NetStack &operator=(const NetStack &) = delete;

    /**
     * Open a listening socket on a port. backlog bounds the number of
     * not-yet-accepted children (embryonic + accept-ready); excess SYNs
     * are dropped and recovered by the client's SYN retransmission.
     */
    TcpSocket *listen(std::uint16_t port,
                      std::size_t backlog = TcpSocket::defaultBacklog);

    /** Actively connect; blocks until established or failed. */
    TcpSocket *connect(std::uint32_t dstIp, std::uint16_t dstPort);

    /**
     * Drain one RX queue (and, on queue 0, the timer wheel): every
     * poller's one step. The per-core pollers of an RSS-enabled stack
     * each call this with their own queue so no two cores touch the
     * same ring; a single-queue stack polls queue 0.
     * @return work done
     */
    bool pollQueue(std::size_t q);

    /**
     * Configure RSS flow steering on the NIC: `queues` RX queues, one
     * per serving core, with arriving TCP frames hashed over their
     * 4-tuple so every connection's segments land on one queue (and
     * therefore one core) deterministically.
     */
    void enableRss(std::size_t queues);

    /** RX queues after enableRss (1 before). */
    std::size_t rxQueueCount() const { return rssQueues; }

    /** The RX queue this socket's inbound segments steer to. */
    std::size_t rssQueueOf(const TcpSocket &s) const;

    /**
     * Block the calling poller until its RX queue sees a frame, the
     * next timer deadline (queue 0 polls the timer wheel) or
     * pollHeartbeatNs elapses — the NAPI idiom: poll while there is
     * work, sleep on the interrupt line otherwise. Where the timeout
     * can have no effect — on queues other than 0, which own no
     * timers, and on queue 0 while its wheel is empty — the wait is a
     * Scheduler::heartbeatFor(), so an idle deployment dries up
     * instead of re-polling forever. Arming a timer promotes queue 0's
     * heartbeat to an ordinary timed wait.
     */
    void waitQueueActivity(std::size_t q);

    /**
     * Longest poller wait (virtual ns). Its expiries fire whenever
     * anything else in the run is alive, so on every queue, 0 or not,
     * it is part of the simulated SMP timeline.
     */
    static constexpr std::uint64_t pollHeartbeatNs = 1'000'000; // 1 ms

    /** Wake every poller blocked in waitQueueActivity (shutdown). */
    void wakePollers();

    std::uint32_t ip() const { return ipAddr; }
    Machine &machine() { return mach; }
    Scheduler &scheduler() { return sched; }

    /** Active entries in the flow table (established + handshaking). */
    std::size_t flowCount() const { return flows.size(); }

    /** Base retransmission timeout (virtual ns); tests shrink it. */
    std::uint64_t baseRtoNs = 200'000'000; // 200 ms

  private:
    friend class TcpSocket;

    struct FlowKey
    {
        std::uint16_t localPort;
        std::uint32_t remoteIp;
        std::uint16_t remotePort;

        bool
        operator==(const FlowKey &o) const
        {
            return localPort == o.localPort && remoteIp == o.remoteIp &&
                   remotePort == o.remotePort;
        }
    };

    struct FlowKeyHash
    {
        std::size_t
        operator()(const FlowKey &k) const
        {
            std::uint64_t v = (std::uint64_t(k.localPort) << 48) ^
                              (std::uint64_t(k.remotePort) << 32) ^
                              k.remoteIp;
            // 64-bit mix (splitmix64 finalizer).
            v ^= v >> 30;
            v *= 0xbf58476d1ce4e5b9ull;
            v ^= v >> 27;
            v *= 0x94d049bb133111ebull;
            v ^= v >> 31;
            return static_cast<std::size_t>(v);
        }
    };

    void handleFrame(NetBufView frame);
    /**
     * Build and transmit one segment in a frame from the NIC's pool.
     * Its payload is the len bytes at offset off of the socket's send
     * queue, gathered straight into the frame.
     */
    void sendSegment(TcpSocket &sock, std::uint8_t flags,
                     std::uint32_t seq, std::size_t off = 0,
                     std::size_t len = 0);
    TcpSocket *makeSocket();
    void registerFlow(TcpSocket *s);
    void unregisterFlow(TcpSocket *s);
    std::uint16_t ephemeralPort();
    std::uint32_t pickIss();

    Machine &mach;
    Scheduler &sched;
    NicEndpoint &nic;
    std::uint32_t ipAddr;
    TimerQueue timers;

    std::vector<std::unique_ptr<TcpSocket>> sockets;
    std::unordered_map<FlowKey, TcpSocket *, FlowKeyHash> flows;
    std::unordered_map<std::uint16_t, TcpSocket *> listeners;
    std::uint16_t nextEphemeral = 49152;
    std::uint32_t issCounter = 1000;
    std::size_t rssQueues = 1;
    /** One wait per RX queue; frames arriving wake the matching one. */
    std::vector<std::unique_ptr<WaitQueue>> queueWaits;
};

} // namespace flexos

#endif // FLEXOS_NET_TCP_HH
