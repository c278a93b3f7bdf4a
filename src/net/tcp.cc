#include "net/tcp.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace flexos {

TcpSocket::TcpSocket(NetStack &s)
    : stack(s), readers(s.sched), writers(s.sched), connectWait(s.sched),
      acceptWait(s.sched)
{
    rtoNs = s.baseRtoNs;
}

std::uint16_t
TcpSocket::advertisedWindow() const
{
    std::size_t used = rcvBuf.size();
    std::size_t free = used >= bufMax ? 0 : bufMax - used;
    return static_cast<std::uint16_t>(std::min<std::size_t>(free, 0xffff));
}

std::size_t
TcpSocket::dataInFlight() const
{
    return flightData;
}

long
TcpSocket::send(const void *buf, std::size_t n)
{
    panic_if(st == State::Listen, "send() on a listening socket");
    const auto *p = static_cast<const std::uint8_t *>(buf);
    std::size_t done = 0;
    while (done < n) {
        if (errored)
            return -1;
        if (st != State::Established && st != State::CloseWait)
            return done ? static_cast<long>(done) : -1;
        if (sndQueue.size() >= bufMax) {
            writers.wait();
            continue;
        }
        std::size_t room = bufMax - sndQueue.size();
        std::size_t chunk = std::min(room, n - done);
        sndQueue.insert(sndQueue.end(), p + done, p + done + chunk);
        stack.mach.consumePerByte(chunk, stack.mach.timing.copyPer16B);
        done += chunk;
        transmit();
    }
    return static_cast<long>(done);
}

long
TcpSocket::recv(void *buf, std::size_t n)
{
    panic_if(st == State::Listen, "recv() on a listening socket");
    while (rcvBuf.empty()) {
        if (errored)
            return -1;
        if (peerClosed || st == State::Closed)
            return 0; // orderly EOF
        readers.wait();
    }
    std::size_t got = std::min(n, rcvBuf.size());
    auto *out = static_cast<std::uint8_t *>(buf);
    std::copy(rcvBuf.begin(), rcvBuf.begin() + got, out);
    rcvBuf.erase(rcvBuf.begin(), rcvBuf.begin() + got);
    stack.mach.consumePerByte(got, stack.mach.timing.copyPer16B);
    maybeSendWindowUpdate();
    return static_cast<long>(got);
}

void
TcpSocket::maybeSendWindowUpdate()
{
    // If the window we last advertised was effectively closed and space
    // has reopened, tell the peer or it will stall on a zero window.
    if (lastAdvWindow < mss && advertisedWindow() >= mss &&
        st == State::Established)
        sendControl(tcpAck);
}

TcpSocket *
TcpSocket::accept()
{
    panic_if(st != State::Listen, "accept() on a non-listening socket");
    while (acceptQueue.empty())
        acceptWait.wait();
    TcpSocket *child = acceptQueue.front();
    acceptQueue.pop_front();
    return child;
}

void
TcpSocket::close()
{
    if (st == State::Listen || st == State::Closed)
        return;
    if (errored) {
        st = State::Closed;
        return;
    }
    finQueued = true;
    transmit();
}

void
TcpSocket::abort()
{
    sendControl(tcpRst);
    failConnection();
}

void
TcpSocket::failConnection()
{
    errored = true;
    st = State::Closed;
    leaveSynBacklog();
    stack.unregisterFlow(this);
    cancelRetransmit();
    readers.wakeAll();
    writers.wakeAll();
    connectWait.wakeAll();
}

void
TcpSocket::leaveSynBacklog()
{
    if (parent && inSynBacklog) {
        panic_if(parent->embryonic == 0, "listener backlog underflow");
        --parent->embryonic;
        inSynBacklog = false;
    }
}

void
TcpSocket::enterEstablished()
{
    st = State::Established;
    synInFlight = false;
    connectWait.wakeAll();
    leaveSynBacklog();
    if (parent) {
        parent->acceptQueue.push_back(this);
        parent->acceptWait.wakeOne();
    }
}

void
TcpSocket::enterClosed()
{
    st = State::Closed;
    stack.unregisterFlow(this);
    readers.wakeAll();
}

void
TcpSocket::handleSegment(const TcpHeader &h, NetBufView payload)
{
    stack.mach.consume(stack.mach.timing.packetProc);

    if (h.flags & tcpRst) {
        failConnection();
        return;
    }

    switch (st) {
      case State::SynSent:
        if ((h.flags & (tcpSyn | tcpAck)) == (tcpSyn | tcpAck) &&
            h.ack == iss + 1) {
            rcvNxt = h.seq + 1;
            sndUna = h.ack;
            peerWindow = h.window;
            enterEstablished();
            sendControl(tcpAck);
            cancelRetransmit();
        }
        return;

      case State::SynRcvd:
        if (h.flags & tcpAck && h.ack == iss + 1) {
            sndUna = h.ack;
            peerWindow = h.window;
            cancelRetransmit();
            enterEstablished();
            // Fall through to data processing: the ACK may carry data.
            if (!payload.empty())
                handleData(h, payload);
        }
        return;

      case State::Established:
      case State::FinWait1:
      case State::FinWait2:
      case State::CloseWait:
      case State::LastAck:
        if (h.flags & tcpAck)
            handleAck(h);
        if (!payload.empty())
            handleData(h, payload);
        if (h.flags & tcpFin)
            handleFin(h, payload.size());
        transmit();
        return;

      case State::Closed:
      case State::Listen:
        return;
    }
}

void
TcpSocket::handleAck(const TcpHeader &h)
{
    peerWindow = h.window;
    if (!seqLt(sndUna, h.ack) || !seqLe(h.ack, sndNxt))
        return; // duplicate or out-of-range ACK

    std::uint32_t acked = h.ack - sndUna;
    std::size_t dataAcked =
        std::min<std::size_t>(acked, dataInFlight());
    sndQueue.erase(sndQueue.begin(),
                   sndQueue.begin() + static_cast<long>(dataAcked));
    flightData -= dataAcked;
    sndUna = h.ack;
    if (finInFlight && seqLt(finSeq, h.ack)) {
        finAcked = true;
        finInFlight = false;
        if (st == State::FinWait1) {
            if (peerClosed)
                enterClosed();
            else
                st = State::FinWait2;
        } else if (st == State::LastAck) {
            enterClosed();
        }
    }
    writers.wakeAll();

    // Reset the retransmission clock on forward progress.
    cancelRetransmit();
    rtoNs = stack.baseRtoNs;
    if (dataInFlight() > 0 || finInFlight || synInFlight)
        armRetransmit();
}

void
TcpSocket::handleData(const TcpHeader &h, NetBufView payload)
{
    stack.mach.consumePerByte(payload.size(),
                              stack.mach.timing.csumPer16B);

    std::uint32_t seq = h.seq;
    std::uint32_t end = seq + static_cast<std::uint32_t>(payload.size());

    // Entirely before rcvNxt: a true duplicate, nothing new to keep.
    if (seqLe(end, rcvNxt)) {
        stack.mach.bump(Counter::TcpDuplicates);
        sendControl(tcpAck);
        return;
    }

    // Partial overlap with already-delivered data (e.g. a retransmit
    // that grew): trim the stale head and keep the new tail.
    if (seqLt(seq, rcvNxt)) {
        payload.pull(rcvNxt - seq);
        seq = rcvNxt;
        stack.mach.bump(Counter::TcpPartialOverlaps);
    }

    if (seq == rcvNxt) {
        deliverInOrder(payload);
        drainOutOfOrder();
        readers.wakeAll();
    } else {
        stashOutOfOrder(seq, payload);
    }
    sendControl(tcpAck);
}

void
TcpSocket::deliverInOrder(NetBufView payload)
{
    rcvBuf.insert(rcvBuf.end(), payload.begin(), payload.end());
    stack.mach.consumePerByte(payload.size(),
                              stack.mach.timing.copyPer16B);
    rcvNxt += static_cast<std::uint32_t>(payload.size());
}

void
TcpSocket::drainOutOfOrder()
{
    // Deliver any stashed segments that became contiguous. Segments may
    // still straddle rcvNxt when an in-order retransmit covered part of
    // a stashed range; trim those rather than re-delivering bytes.
    for (auto it = outOfOrder.begin(); it != outOfOrder.end();) {
        std::uint32_t segSeq = it->first;
        auto &seg = it->second;
        std::uint32_t segEnd =
            segSeq + static_cast<std::uint32_t>(seg.size());
        panic_if(oooBytes < seg.size(), "ooo byte accounting underflow");
        if (seqLe(segEnd, rcvNxt)) {
            oooBytes -= seg.size();
            it = outOfOrder.erase(it); // fully duplicate
            continue;
        }
        if (seqLe(segSeq, rcvNxt)) {
            std::size_t skip = rcvNxt - segSeq;
            rcvBuf.insert(rcvBuf.end(), seg.begin() + skip, seg.end());
            stack.mach.consumePerByte(seg.size() - skip,
                                      stack.mach.timing.copyPer16B);
            rcvNxt = segEnd;
            oooBytes -= seg.size();
            it = outOfOrder.erase(it);
            continue;
        }
        break; // still a gap
    }
}

void
TcpSocket::stashOutOfOrder(std::uint32_t seq, NetBufView payload)
{
    // Insert the segment keeping the queue's invariant: stored segments
    // are pairwise disjoint and all beyond rcvNxt. Where the new bytes
    // overlap stored ones, the stored copy wins (it is identical data);
    // only the uncovered gaps are copied in.
    std::size_t added = 0;

    // Clip against the nearest predecessor.
    auto it = outOfOrder.lower_bound(seq);
    if (it != outOfOrder.begin()) {
        auto prev = std::prev(it);
        std::uint32_t prevEnd =
            prev->first + static_cast<std::uint32_t>(prev->second.size());
        std::uint32_t end =
            seq + static_cast<std::uint32_t>(payload.size());
        if (seqLt(seq, prevEnd)) {
            if (seqLe(end, prevEnd)) {
                stack.mach.bump(Counter::TcpDuplicates);
                return; // fully inside an existing segment
            }
            payload.pull(prevEnd - seq);
            seq = prevEnd;
        }
    }

    // Walk the successors, filling only the gaps between them.
    while (!payload.empty()) {
        it = outOfOrder.lower_bound(seq);
        std::uint32_t end =
            seq + static_cast<std::uint32_t>(payload.size());
        if (it == outOfOrder.end() || seqLe(end, it->first)) {
            outOfOrder.emplace(
                seq,
                std::vector<std::uint8_t>(payload.begin(), payload.end()));
            added += payload.size();
            break;
        }
        if (seqLt(seq, it->first)) {
            std::size_t gap = it->first - seq;
            outOfOrder.emplace(seq,
                               std::vector<std::uint8_t>(
                                   payload.begin(), payload.begin() + gap));
            added += gap;
            payload.pull(gap);
            seq = it->first;
        }
        // Skip the bytes the existing segment already holds.
        std::size_t covered =
            std::min<std::size_t>(it->second.size(), payload.size());
        payload.pull(covered);
        seq += static_cast<std::uint32_t>(covered);
    }

    if (added) {
        oooBytes += added;
        stack.mach.consumePerByte(added, stack.mach.timing.copyPer16B);
        stack.mach.bump(Counter::TcpOutOfOrder);
        stack.mach.bump(Counter::TcpOooBytes, added);
        enforceOooBound();
    } else {
        stack.mach.bump(Counter::TcpDuplicates);
    }
}

void
TcpSocket::enforceOooBound()
{
    // Evict whole segments farthest from rcvNxt first: they are the
    // least likely to become deliverable soon, and the peer's
    // retransmission machinery restores them once the window advances.
    while (oooBytes > oooLimit && !outOfOrder.empty()) {
        auto last = std::prev(outOfOrder.end());
        std::size_t n = last->second.size();
        oooBytes -= n;
        outOfOrder.erase(last);
        stack.mach.bump(Counter::TcpOooEvicted, n);
    }
}

void
TcpSocket::handleFin(const TcpHeader &h, std::size_t payloadLen)
{
    std::uint32_t finPos = h.seq + static_cast<std::uint32_t>(payloadLen);
    if (finPos != rcvNxt)
        return; // FIN beyond a gap; wait for retransmission
    rcvNxt += 1;
    peerClosed = true;
    readers.wakeAll();
    sendControl(tcpAck);
    if (st == State::Established)
        st = State::CloseWait;
    else if (st == State::FinWait1 && finAcked)
        enterClosed();
    else if (st == State::FinWait2)
        enterClosed();
}

void
TcpSocket::transmit()
{
    if (st != State::Established && st != State::CloseWait &&
        st != State::FinWait1 && st != State::LastAck)
        return;

    while (true) {
        std::size_t unsent = sndQueue.size() - dataInFlight();
        if (unsent == 0)
            break;
        std::size_t inFlight = dataInFlight();
        std::size_t allowed =
            peerWindow > inFlight ? peerWindow - inFlight : 0;
        if (allowed == 0)
            break; // window closed; probe timer will take over
        std::size_t chunk = std::min({unsent, allowed, mss});

        // Gather the chunk from the deque (it is not contiguous).
        std::vector<std::uint8_t> seg(chunk);
        std::copy(sndQueue.begin() + static_cast<long>(inFlight),
                  sndQueue.begin() + static_cast<long>(inFlight + chunk),
                  seg.begin());
        sendDataSegment(sndNxt, seg.data(), chunk);
        sndNxt += static_cast<std::uint32_t>(chunk);
        flightData += chunk;
        armRetransmit();
    }

    // Emit the FIN once all queued data has been handed to the wire.
    if (finQueued && !finInFlight && !finAcked &&
        sndQueue.size() - dataInFlight() == 0 && dataInFlight() == 0) {
        finSeq = sndNxt;
        sendControl(tcpFin | tcpAck);
        sndNxt += 1;
        finInFlight = true;
        finQueued = false;
        st = (st == State::CloseWait) ? State::LastAck : State::FinWait1;
        armRetransmit();
    }
}

void
TcpSocket::sendControl(std::uint8_t flags)
{
    std::uint32_t seq = (flags & tcpSyn) ? iss : sndNxt;
    stack.sendSegment(*this, flags, seq, nullptr, 0);
    lastAdvWindow = advertisedWindow();
}

void
TcpSocket::sendDataSegment(std::uint32_t seq, const std::uint8_t *data,
                           std::size_t len)
{
    stack.sendSegment(*this, tcpAck | tcpPsh, seq, data, len);
    lastAdvWindow = advertisedWindow();
}

void
TcpSocket::armRetransmit()
{
    if (rtxTimer)
        return;
    rtxTimer = stack.timers.arm(rtoNs, [this] { onRetransmitTimeout(); });
    // Queue 0's poller drives the wheel: if it waits in a heartbeat,
    // that wait now has a timer to find and must keep the run alive.
    stack.sched.promoteHeartbeats(*stack.queueWaits[0]);
}

void
TcpSocket::cancelRetransmit()
{
    if (rtxTimer) {
        stack.timers.cancel(rtxTimer);
        rtxTimer = 0;
    }
}

void
TcpSocket::onRetransmitTimeout()
{
    rtxTimer = 0;
    if (st == State::Closed)
        return;

    stack.mach.bump(Counter::TcpRetransmits);
    if (synInFlight) {
        stack.sendSegment(*this, st == State::SynRcvd
                                     ? std::uint8_t(tcpSyn | tcpAck)
                                     : std::uint8_t(tcpSyn),
                          iss, nullptr, 0);
    } else if (dataInFlight() > 0) {
        std::size_t chunk = std::min(dataInFlight(), mss);
        std::vector<std::uint8_t> seg(sndQueue.begin(),
                                      sndQueue.begin() +
                                          static_cast<long>(chunk));
        sendDataSegment(sndUna, seg.data(), chunk);
    } else if (finInFlight) {
        stack.sendSegment(*this, tcpFin | tcpAck, finSeq, nullptr, 0);
    } else if (sndQueue.size() > 0 && peerWindow == 0) {
        sendControl(tcpAck); // zero-window probe
    } else {
        return; // nothing outstanding
    }

    rtoNs = std::min<std::uint64_t>(rtoNs * 2, 4'000'000'000ull);
    armRetransmit();
}

NetStack::NetStack(Machine &m, Scheduler &s, NicEndpoint &nicEnd,
                   std::uint32_t ip)
    : mach(m), sched(s), nic(nicEnd), ipAddr(ip), timers(m)
{
    // Size the flow table for hundreds of concurrent connections up
    // front so the hot demux path never rehashes mid-burst.
    flows.reserve(512);
    queueWaits.push_back(std::make_unique<WaitQueue>(sched));
    // The interrupt line: a frame landing in queue q wakes that
    // queue's blocked poller (no-op while pollers busy-poll).
    nic.onArrive = [this](std::size_t q) {
        queueWaits[q % queueWaits.size()]->wakeAll();
    };
}

NetStack::~NetStack()
{
    nic.onArrive = nullptr;
}

TcpSocket *
NetStack::makeSocket()
{
    sockets.push_back(std::unique_ptr<TcpSocket>(new TcpSocket(*this)));
    return sockets.back().get();
}

void
NetStack::registerFlow(TcpSocket *s)
{
    FlowKey key{s->lPort, s->rIp, s->rPort};
    panic_if(flows.count(key), "duplicate TCP flow");
    flows[key] = s;
    s->flowRegistered = true;
}

void
NetStack::unregisterFlow(TcpSocket *s)
{
    if (!s->flowRegistered)
        return;
    flows.erase(FlowKey{s->lPort, s->rIp, s->rPort});
    s->flowRegistered = false;
}

std::uint16_t
NetStack::ephemeralPort()
{
    // Stay in the IANA dynamic range even after 16-bit wraparound.
    if (nextEphemeral < 49152)
        nextEphemeral = 49152;
    return nextEphemeral++;
}

std::uint32_t
NetStack::pickIss()
{
    issCounter += 64000;
    return issCounter;
}

TcpSocket *
NetStack::listen(std::uint16_t port, std::size_t backlog)
{
    fatal_if(listeners.count(port), "port ", port, " already listening");
    TcpSocket *s = makeSocket();
    s->st = TcpSocket::State::Listen;
    s->lPort = port;
    s->backlog = backlog ? backlog : 1;
    listeners[port] = s;
    return s;
}

TcpSocket *
NetStack::connect(std::uint32_t dstIp, std::uint16_t dstPort)
{
    TcpSocket *s = makeSocket();
    // Pick an ephemeral port whose 4-tuple is not in use (long-lived
    // flows may still hold earlier ports after a wraparound).
    std::uint16_t port = ephemeralPort();
    for (unsigned tries = 0;
         flows.count(FlowKey{port, dstIp, dstPort}) && tries < 16384;
         ++tries)
        port = ephemeralPort();
    s->lPort = port;
    s->rIp = dstIp;
    s->rPort = dstPort;
    s->iss = pickIss();
    s->sndUna = s->iss;
    s->sndNxt = s->iss + 1;
    s->synInFlight = true;
    s->st = TcpSocket::State::SynSent;
    registerFlow(s);
    sendSegment(*s, tcpSyn, s->iss, nullptr, 0);
    s->armRetransmit();

    while (s->st == TcpSocket::State::SynSent)
        s->connectWait.wait();
    return s->established() ? s : nullptr;
}

void
NetStack::sendSegment(TcpSocket &sock, std::uint8_t flags,
                      std::uint32_t seq, const std::uint8_t *payload,
                      std::size_t len)
{
    mach.consume(mach.timing.packetProc);
    mach.consumePerByte(len, mach.timing.csumPer16B);
    mach.bump(Counter::TcpSegmentsOut);

    NetBuf frame;
    if (len)
        frame.append(payload, len);

    TcpHeader tcp;
    tcp.srcPort = sock.lPort;
    tcp.dstPort = sock.rPort;
    tcp.seq = seq;
    tcp.ack = sock.rcvNxt;
    tcp.flags = flags;
    tcp.window = sock.advertisedWindow();
    std::uint8_t *tcpAt = frame.push(TcpHeader::wireSize);
    tcp.serialize(tcpAt, ipAddr, sock.rIp, tcpAt + TcpHeader::wireSize,
                  len);

    Ip4Header ip;
    ip.totalLen = static_cast<std::uint16_t>(Ip4Header::wireSize +
                                             TcpHeader::wireSize + len);
    ip.protocol = Ip4Header::protoTcp;
    ip.src = ipAddr;
    ip.dst = sock.rIp;
    ip.serialize(frame.push(Ip4Header::wireSize));

    EthHeader eth{};
    eth.etherType = EthHeader::typeIp4;
    eth.serialize(frame.push(EthHeader::wireSize));

    nic.transmit(std::move(frame));
}

void
NetStack::handleFrame(NetBuf frame)
{
    EthHeader eth;
    if (frame.size() < EthHeader::wireSize)
        return;
    eth.parse(frame.data());
    if (eth.etherType != EthHeader::typeIp4)
        return;
    frame.pull(EthHeader::wireSize);

    Ip4Header ip;
    if (!ip.parse(frame.data(), frame.size())) {
        mach.bump(Counter::IpBadHeader);
        return;
    }
    if (ip.dst != ipAddr) {
        mach.bump(Counter::IpNotMine);
        return;
    }
    if (ip.protocol != Ip4Header::protoTcp)
        return;
    frame.pull(Ip4Header::wireSize);
    std::size_t segLen = ip.totalLen - Ip4Header::wireSize;
    if (segLen < TcpHeader::wireSize || segLen > frame.size()) {
        mach.bump(Counter::IpTruncated);
        return;
    }

    // From here on the frame is handed down as views; the NetBuf stays
    // alive (and unmoved) for the whole segment-processing call chain,
    // so no payload bytes are copied until they land in a socket buffer.
    NetBufView seg = frame.view(0, segLen);
    TcpHeader tcp;
    if (!tcp.parse(seg.data(), seg.size(), ip.src, ip.dst)) {
        mach.bump(Counter::TcpBadChecksum);
        return;
    }
    NetBufView payload = seg.sub(TcpHeader::wireSize);

    // Exact flow match first.
    auto it = flows.find(FlowKey{tcp.dstPort, ip.src, tcp.srcPort});
    if (it != flows.end()) {
        it->second->handleSegment(tcp, payload);
        return;
    }

    // New connection to a listener?
    auto lit = listeners.find(tcp.dstPort);
    if (lit != listeners.end() && (tcp.flags & tcpSyn) &&
        !(tcp.flags & tcpAck)) {
        TcpSocket *listener = lit->second;
        if (listener->acceptQueue.size() + listener->embryonic >=
            listener->backlog) {
            // Backlog full: drop the SYN; the client's retransmission
            // retries once the queue drains.
            mach.bump(Counter::TcpBacklogDrops);
            return;
        }
        TcpSocket *child = makeSocket();
        child->lPort = tcp.dstPort;
        child->rIp = ip.src;
        child->rPort = tcp.srcPort;
        child->parent = listener;
        child->inSynBacklog = true;
        ++listener->embryonic;
        child->iss = pickIss();
        child->sndUna = child->iss;
        child->sndNxt = child->iss + 1;
        child->rcvNxt = tcp.seq + 1;
        child->peerWindow = tcp.window;
        child->synInFlight = true;
        child->st = TcpSocket::State::SynRcvd;
        registerFlow(child);
        sendSegment(*child, tcpSyn | tcpAck, child->iss, nullptr, 0);
        child->armRetransmit();
        return;
    }

    mach.bump(Counter::TcpNoMatch);
}

bool
NetStack::pollQueue(std::size_t q)
{
    bool worked = false;
    mach.consume(mach.timing.pollDispatch);
    while (auto f = nic.receiveQueue(q)) {
        handleFrame(std::move(*f));
        worked = true;
    }
    // The timer wheel is stack-global (retransmits, probes): exactly
    // one poller — queue 0's — drives it, so timers never fire twice.
    if (q == 0 && timers.poll() > 0)
        worked = true;
    return worked;
}

std::uint32_t
NetStack::rssHash(std::uint32_t srcIp, std::uint16_t srcPort,
                  std::uint32_t dstIp, std::uint16_t dstPort)
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

std::size_t
NetStack::steerFrame(const NetBuf &frame)
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

void
NetStack::enableRss(std::size_t queues)
{
    rssQueues = queues ? queues : 1;
    while (queueWaits.size() < rssQueues)
        queueWaits.push_back(std::make_unique<WaitQueue>(sched));
    nic.configureRss(rssQueues,
                     [](const NetBuf &f) { return steerFrame(f); });
}

void
NetStack::waitQueueActivity(std::size_t q)
{
    if (nic.pendingIn(q % nic.queueCount()) > 0)
        return;
    WaitQueue &w = *queueWaits[q % queueWaits.size()];
    // Without a timer to drive (queue 0 owns the wheel; cancelled
    // entries count until polled) the timeout only re-polls: a
    // heartbeat. Frames and Deployment::stop() wake the poller through
    // the queue, so when nothing else is alive the run may dry up.
    if (q != 0 || timers.empty()) {
        sched.heartbeatFor(w, pollHeartbeatNs);
        return;
    }
    // Otherwise sleep until the next timer deadline, capped at the
    // heartbeat.
    std::uint64_t now = mach.nanoseconds();
    std::uint64_t due = timers.nextDeadlineNs();
    sched.blockFor(w, due > now ? std::min(pollHeartbeatNs, due - now) : 1);
}

void
NetStack::wakePollers()
{
    for (auto &w : queueWaits)
        w->wakeAll();
}

std::size_t
NetStack::rssQueueOf(const TcpSocket &s) const
{
    if (rssQueues <= 1)
        return 0;
    // Inbound orientation: frames arriving for this socket carry the
    // peer as source and us as destination.
    return rssHash(s.remoteIp(), s.remotePort(), ipAddr,
                   s.localPort()) %
           rssQueues;
}

} // namespace flexos
