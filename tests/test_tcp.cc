/**
 * @file
 * Tests for the TCP/IP stack: wire formats, checksums, handshake, data
 * transfer, flow control, teardown, and property tests under loss and
 * reordering injected at the NIC; plus the timer queue that drives its
 * retransmissions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "net/ring.hh"
#include "net/tcp.hh"
#include "uktime/clock.hh"

namespace flexos {
namespace {

TEST(Proto, InetChecksumKnownVector)
{
    // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2 (one's
    // complement folded), checksum = ~0xddf2 = 0x220d.
    const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                                 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(inetChecksum(data, sizeof(data)), 0x220d);
}

TEST(Proto, ChecksumOddLength)
{
    const std::uint8_t data[] = {0xab};
    // sum = 0xab00 -> checksum = ~0xab00 = 0x54ff
    EXPECT_EQ(inetChecksum(data, 1), 0x54ff);
}

/**
 * The byte-at-a-time RFC 1071 loop: the reference the word-wise
 * inetChecksum must match bit for bit, seed overflow included.
 */
std::uint16_t
byteLoopChecksum(const std::uint8_t *data, std::size_t len,
                 std::uint32_t seed)
{
    std::uint32_t sum = seed;
    std::size_t i = 0;
    for (; i + 1 < len; i += 2)
        sum += static_cast<std::uint32_t>(data[i] << 8 | data[i + 1]);
    if (i < len)
        sum += static_cast<std::uint32_t>(data[i] << 8);
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
}

TEST(Proto, ChecksumMatchesByteLoopReference)
{
    constexpr std::size_t maxLen = 1600;
    // Room for every start alignment 0-7 in front of the longest run.
    std::vector<std::uint8_t> buf(maxLen + 8);
    Rng rng(35);
    std::size_t cases = 0;
    for (int c = 0; c < 20000; ++c) {
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        std::size_t len = rng.below(maxLen + 1);
        std::size_t align = rng.below(8);
        // Small pseudo-header-sized seeds and full 32-bit ones.
        std::uint32_t seed =
            c % 2 ? static_cast<std::uint32_t>(rng.below(1 << 20))
                  : static_cast<std::uint32_t>(rng.next());
        const std::uint8_t *p = buf.data() + align;
        ASSERT_EQ(inetChecksum(p, len, seed), byteLoopChecksum(p, len, seed))
            << "len " << len << " align " << align << " seed " << seed;
        ++cases;
    }
    for (std::uint8_t fill : {std::uint8_t(0), std::uint8_t(0xff)}) {
        std::fill(buf.begin(), buf.end(), fill);
        for (std::size_t len = 0; len <= maxLen; ++len)
            for (std::size_t align = 0; align < 8; ++align) {
                const std::uint8_t *p = buf.data() + align;
                for (std::uint32_t seed : {0u, 0xffffu, 0xffffffffu}) {
                    ASSERT_EQ(inetChecksum(p, len, seed),
                              byteLoopChecksum(p, len, seed))
                        << "fill " << int(fill) << " len " << len
                        << " align " << align << " seed " << seed;
                    ++cases;
                }
            }
    }
    EXPECT_EQ(cases, 20000u + 2 * (maxLen + 1) * 8 * 3);
}

TEST(Proto, Ip4RoundTrip)
{
    std::uint8_t wire[Ip4Header::wireSize];
    Ip4Header h;
    h.totalLen = 40;
    h.id = 7;
    h.src = makeIp(10, 0, 0, 1);
    h.dst = makeIp(10, 0, 0, 2);
    h.serialize(wire);

    Ip4Header parsed;
    ASSERT_TRUE(parsed.parse(wire, sizeof(wire) + 20));
    EXPECT_EQ(parsed.totalLen, 40);
    EXPECT_EQ(parsed.src, h.src);
    EXPECT_EQ(parsed.dst, h.dst);
}

TEST(Proto, Ip4CorruptionDetected)
{
    std::uint8_t wire[Ip4Header::wireSize];
    Ip4Header h;
    h.totalLen = 40;
    h.src = makeIp(10, 0, 0, 1);
    h.dst = makeIp(10, 0, 0, 2);
    h.serialize(wire);
    wire[15] ^= 0x40; // flip a bit in the source address
    Ip4Header parsed;
    EXPECT_FALSE(parsed.parse(wire, sizeof(wire) + 20));
}

TEST(Proto, TcpChecksumCoversPayloadAndPseudoHeader)
{
    std::uint8_t seg[TcpHeader::wireSize + 5];
    std::uint8_t *payload = seg + TcpHeader::wireSize;
    std::memcpy(payload, "hello", 5);
    TcpHeader h;
    h.srcPort = 1234;
    h.dstPort = 80;
    h.seq = 42;
    h.ack = 7;
    h.flags = tcpAck | tcpPsh;
    h.window = 5000;
    std::uint32_t src = makeIp(1, 2, 3, 4), dst = makeIp(5, 6, 7, 8);
    h.serialize(seg, src, dst, payload, 5);

    TcpHeader parsed;
    ASSERT_TRUE(parsed.parse(seg, sizeof(seg), src, dst));
    EXPECT_EQ(parsed.seq, 42u);
    EXPECT_EQ(parsed.window, 5000);

    // Payload corruption must break the checksum.
    payload[2] ^= 1;
    EXPECT_FALSE(parsed.parse(seg, sizeof(seg), src, dst));
    payload[2] ^= 1;
    // Wrong pseudo-header (different src IP) must too.
    EXPECT_FALSE(parsed.parse(seg, sizeof(seg), src + 1, dst));
}

TEST(Proto, SeqArithmeticWraps)
{
    EXPECT_TRUE(seqLt(0xfffffff0u, 0x10u));
    EXPECT_FALSE(seqLt(0x10u, 0xfffffff0u));
    EXPECT_TRUE(seqLe(5u, 5u));
}

TEST(NetBuf, PushPullAppend)
{
    NetBuf b(256, 64);
    b.append("abc", 3);
    EXPECT_EQ(b.size(), 3u);
    std::uint8_t *hdr = b.push(2);
    hdr[0] = 'H';
    hdr[1] = 'I';
    EXPECT_EQ(b.size(), 5u);
    EXPECT_EQ(std::memcmp(b.data(), "HIabc", 5), 0);
    b.pull(2);
    EXPECT_EQ(std::memcmp(b.data(), "abc", 3), 0);
    EXPECT_THROW(b.pull(99), PanicError);
}

TEST(NetBuf, MoveResetsSource)
{
    NetBuf a(256, 64);
    a.append("abc", 3);
    NetBuf b = std::move(a);
    EXPECT_EQ(b.size(), 3u);
    EXPECT_EQ(std::memcmp(b.data(), "abc", 3), 0);

    // The moved-from buffer must not keep stale sizes over its emptied
    // storage (the corruption class behind the netbuf panic).
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.headroom(), 0u);
    EXPECT_EQ(a.capacity(), 0u);
    EXPECT_EQ(a.tailroom(), 0u);
    EXPECT_THROW(a.pull(1), PanicError);

    NetBuf c(128, 32);
    c.append("x", 1);
    c = std::move(b);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(std::memcmp(c.data(), "abc", 3), 0);
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.headroom(), 0u);
    EXPECT_EQ(b.capacity(), 0u);

    // reset() restores a sane empty state, clamped to the capacity.
    b.reset();
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.headroom(), 0u); // moved-from: no storage to reserve
    c.reset(16);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.headroom(), 16u);
    c.append("hello", 5);
    EXPECT_EQ(std::memcmp(c.data(), "hello", 5), 0);
}

TEST(NetBuf, ViewSliceAndTrim)
{
    NetBuf b(256, 64);
    b.append("abcdefgh", 8);

    NetBufView v = b.view();
    EXPECT_EQ(v.size(), 8u);
    EXPECT_EQ(v[0], 'a');
    EXPECT_EQ(std::memcmp(v.data(), "abcdefgh", 8), 0);

    NetBufView mid = v.sub(2, 4);
    EXPECT_EQ(mid.size(), 4u);
    EXPECT_EQ(std::memcmp(mid.data(), "cdef", 4), 0);

    // Open-ended slice clamps to the remainder.
    NetBufView tail = b.view(5);
    EXPECT_EQ(tail.size(), 3u);
    EXPECT_EQ(std::memcmp(tail.data(), "fgh", 3), 0);

    mid.pull(1);
    EXPECT_EQ(std::memcmp(mid.data(), "def", 3), 0);
    mid.trimBack(1);
    EXPECT_EQ(mid.size(), 2u);
    EXPECT_EQ(std::memcmp(mid.data(), "de", 2), 0);

    EXPECT_THROW(v.sub(9), PanicError);
    EXPECT_THROW(mid.pull(3), PanicError);
    EXPECT_THROW(mid.trimBack(3), PanicError);
}

TEST(NetBuf, CopyKeepsLayoutAndLiveBytes)
{
    NetBuf a(256, 64);
    a.append("payload", 7);
    std::memcpy(a.push(3), "hdr", 3);
    NetBuf b(a);
    EXPECT_EQ(b.capacity(), 256u);
    EXPECT_EQ(b.headroom(), 61u);
    EXPECT_EQ(b.size(), 10u);
    EXPECT_EQ(std::memcmp(b.data(), "hdrpayload", 10), 0);
    EXPECT_NE(b.data(), a.data());

    NetBuf moved = std::move(a);
    NetBuf empty(a); // a moved-from buffer copies as one
    EXPECT_EQ(empty.capacity(), 0u);
    EXPECT_EQ(empty.size(), 0u);
    b = moved;
    EXPECT_EQ(std::memcmp(b.data(), "hdrpayload", 10), 0);
}

TEST(FramePool, RecyclesDefaultSizedStorage)
{
    FramePool pool;
    NetBuf f = pool.take();
    EXPECT_EQ(f.capacity(), NetBuf::defaultCapacity);
    EXPECT_EQ(f.headroom(), NetBuf::defaultHeadroom);
    EXPECT_EQ(f.size(), 0u);
    f.append("abc", 3);
    const std::uint8_t *storage = f.data() - f.headroom();
    pool.give(std::move(f));
    EXPECT_EQ(f.capacity(), 0u);
    EXPECT_EQ(pool.idle(), 1u);

    // The same storage comes back, reset to an empty frame.
    NetBuf g = pool.take();
    EXPECT_EQ(g.data() - g.headroom(), storage);
    EXPECT_EQ(g.size(), 0u);
    EXPECT_EQ(g.headroom(), NetBuf::defaultHeadroom);
    EXPECT_EQ(pool.idle(), 0u);

    // Other capacities and moved-from frames are not kept.
    pool.give(NetBuf(256, 64));
    NetBuf gone = std::move(g);
    pool.give(std::move(g));
    EXPECT_EQ(pool.idle(), 0u);
    pool.give(std::move(gone));
    EXPECT_EQ(pool.idle(), 1u);
}

#ifdef FLEXOS_ASAN
TEST(FramePoolDeathTest, RecycledFrameIsPoisoned)
{
    FramePool pool;
    NetBuf f = pool.take();
    f.append("x", 1);
    const volatile std::uint8_t *stale = f.data();
    pool.give(std::move(f));
    EXPECT_DEATH((void)*stale, "use-after-poison");
}
#endif

TEST(Ring, BytesMatchADequeAcrossGrowthAndWraparound)
{
    Ring<std::uint8_t> ring;
    std::deque<std::uint8_t> ref;
    Rng rng(35);
    std::uint8_t next = 0;
    std::size_t peakCap = 0;
    for (int step = 0; step < 4000; ++step) {
        // Writes outpace discards for the first half, then trail them.
        std::size_t w = rng.below(step < 2000 ? 700 : 300);
        std::vector<std::uint8_t> in(w);
        for (auto &b : in)
            b = next++;
        ring.write(in.data(), w);
        ref.insert(ref.end(), in.begin(), in.end());

        std::size_t off = rng.below(ref.size() + 1);
        std::size_t n = rng.below(ref.size() - off + 1);
        std::vector<std::uint8_t> out(n);
        ring.read(off, out.data(), n);
        ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.begin() + off));

        std::size_t d = rng.below(std::min<std::size_t>(ref.size(), 600) + 1);
        ring.discard(d);
        ref.erase(ref.begin(), ref.begin() + static_cast<long>(d));
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_GE(ring.capacity(), peakCap); // never shrinks
        peakCap = ring.capacity();
        ASSERT_EQ(peakCap & (peakCap - 1), 0u);
    }
    std::vector<std::uint8_t> rest(ring.size());
    ring.read(0, rest.data(), rest.size());
    EXPECT_TRUE(std::equal(rest.begin(), rest.end(), ref.begin()));
    EXPECT_THROW(ring.read(0, rest.data(), ring.size() + 1), PanicError);
    EXPECT_THROW(ring.discard(ring.size() + 1), PanicError);
}

TEST(Ring, KeepsMoveOnlyElementsInOrder)
{
    Ring<NetBuf> ring;
    int pushed = 0, popped = 0;
    auto push = [&](int n) {
        for (int i = 0; i < n; ++i, ++pushed) {
            NetBuf f(64, 0);
            f.append(&pushed, sizeof(pushed));
            ring.push_back(std::move(f));
        }
    };
    auto pop = [&](int n) {
        for (int i = 0; i < n; ++i, ++popped) {
            int v;
            std::memcpy(&v, ring.front().data(), sizeof(v));
            ASSERT_EQ(v, popped);
            ring.pop_front();
        }
    };
    push(10);
    pop(7);
    push(30); // grows while the live range wraps
    pop(20);
    EXPECT_EQ(ring.size(), 13u);
    Ring<NetBuf> moved = std::move(ring);
    EXPECT_TRUE(ring.empty());
    ring = std::move(moved);
    pop(13);
    EXPECT_TRUE(ring.empty());
    push(5); // left for the destructor
    EXPECT_THROW(Ring<NetBuf>().pop_front(), PanicError);
}

TEST(Nic, LinkDeliversFramesInOrder)
{
    Machine m;
    Link link(m);
    // Built after the link's machine; must see none of its frames.
    Machine bystander;
    NetBuf f1, f2;
    f1.append("one", 3);
    f2.append("two", 3);
    link.endA().transmit(std::move(f1));
    link.endA().transmit(std::move(f2));
    auto r1 = link.endB().receive();
    auto r2 = link.endB().receive();
    ASSERT_TRUE(r1 && r2);
    EXPECT_EQ(std::memcmp(r1->data(), "one", 3), 0);
    EXPECT_EQ(std::memcmp(r2->data(), "two", 3), 0);
    EXPECT_FALSE(link.endB().receive());
    EXPECT_EQ(m.counter("nic.tx"), 2u);
    EXPECT_EQ(m.counter("nic.rx"), 2u);
    EXPECT_EQ(m.cycles(), 4 * m.timing.nicFrame);
    EXPECT_EQ(bystander.cycles(), 0u);
    EXPECT_TRUE(bystander.counters().empty());
}

/** Timer-queue harness: a bare machine whose clock the test moves. */
struct TimerFixture : ::testing::Test
{
    /** Jump the virtual clock forward to at least ns nanoseconds. */
    void
    advanceToNs(std::uint64_t ns)
    {
        mach.advanceCoreTo(0, static_cast<Cycles>(std::ceil(
                                  static_cast<double>(ns) *
                                  mach.timing.cpuGhz)));
        ASSERT_GE(mach.nanoseconds(), ns);
    }

    Machine mach;
    TimerQueue timers{mach};
};

TEST_F(TimerFixture, FiresInDeadlineOrder)
{
    TimerSlot s1, s2, s3;
    std::vector<int> order;
    auto record = [&](TimerSlot &s) {
        order.push_back(&s == &s1 ? 1 : &s == &s2 ? 2 : 3);
    };
    timers.arm(s3, 3000);
    timers.arm(s1, 1000);
    timers.arm(s2, 2000);
    EXPECT_TRUE(s1.armed && s2.armed && s3.armed);
    advanceToNs(1500);
    EXPECT_EQ(timers.poll(record), 1u);
    EXPECT_FALSE(s1.armed);
    advanceToNs(5000);
    EXPECT_EQ(timers.poll(record), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(s2.armed || s3.armed);
    EXPECT_TRUE(timers.empty());
    EXPECT_EQ(timers.poll(record), 0u);
}

TEST_F(TimerFixture, CancelledTimerNeverFires)
{
    TimerSlot a, b;
    int fired = 0;
    auto count = [&](TimerSlot &s) { fired += &s == &a ? 1 : 10; };
    timers.arm(a, 1000);
    timers.arm(b, 2000);
    timers.cancel(a);
    EXPECT_FALSE(a.armed);
    advanceToNs(3000);
    EXPECT_EQ(timers.poll(count), 1u);
    EXPECT_EQ(fired, 10);

    // Re-arming retires the earlier deadline: the slot fires once, at
    // its last deadline, not at the first entry the heap pops.
    timers.arm(a, 1000);
    timers.arm(a, 3000);
    advanceToNs(5000);
    EXPECT_EQ(timers.poll(count), 0u);
    EXPECT_TRUE(a.armed);
    advanceToNs(6000);
    EXPECT_EQ(timers.poll(count), 1u);
    EXPECT_EQ(fired, 11);
}

TEST_F(TimerFixture, CancelFromCallbackAndAfterFiringIsHarmless)
{
    TimerSlot first, later, last;
    int fired = 0;
    auto fire = [&](TimerSlot &s) {
        if (&s == &first) {
            ++fired;
            timers.cancel(later); // due in the same poll
        } else {
            fired += &s == &later ? 100 : &s == &last ? 10 : 1000;
        }
    };
    timers.arm(first, 1000);
    timers.arm(later, 1500);
    timers.arm(last, 1800);
    advanceToNs(2000);
    EXPECT_EQ(timers.poll(fire), 2u);
    EXPECT_EQ(fired, 11);

    // Cancelling fired or cancelled slots is a no-op and leaves a
    // later timer armed.
    TimerSlot next;
    timers.arm(next, 100);
    timers.cancel(first);
    timers.cancel(later);
    EXPECT_TRUE(next.armed);
    advanceToNs(2200);
    EXPECT_EQ(timers.poll(fire), 1u);
    EXPECT_EQ(fired, 1011);
}

TEST_F(TimerFixture, NextDeadlineCountsCancelledUntilPolledPast)
{
    // The network poller sleeps until nextDeadlineNs(): a cancelled
    // deadline still wakes it once, so the simulated timeline does not
    // depend on how cancellation is stored.
    TimerSlot a, b, c;
    auto ignore = [](TimerSlot &) {};
    EXPECT_TRUE(timers.empty());
    EXPECT_EQ(timers.nextDeadlineNs(), UINT64_MAX);
    timers.arm(a, 1000);
    timers.arm(b, 4000);
    timers.cancel(a);
    EXPECT_FALSE(timers.empty());
    EXPECT_EQ(timers.nextDeadlineNs(), 1000u);
    advanceToNs(500);
    EXPECT_EQ(timers.poll(ignore), 0u);
    EXPECT_EQ(timers.nextDeadlineNs(), 1000u);
    advanceToNs(1000);
    EXPECT_EQ(timers.poll(ignore), 0u);
    EXPECT_EQ(timers.nextDeadlineNs(), 4000u);

    timers.arm(c, 3000); // deadline 1000 + 3000
    timers.cancel(c);
    advanceToNs(4000);
    EXPECT_EQ(timers.poll(ignore), 1u);
    EXPECT_TRUE(timers.empty());
    EXPECT_EQ(timers.nextDeadlineNs(), UINT64_MAX);
}

/**
 * Full two-stack harness: server at 10.0.0.1 (endA), client at 10.0.0.2
 * (endB), both polled by fibers on one scheduler.
 */
struct TcpFixture : ::testing::Test
{
    TcpFixture()
        : sched(mach), link(mach),
          server(mach, sched, link.endA(), makeIp(10, 0, 0, 1)),
          client(mach, sched, link.endB(), makeIp(10, 0, 0, 2))
    {
        // Shrink timeouts so loss tests converge quickly.
        server.baseRtoNs = 2'000'000;
        client.baseRtoNs = 2'000'000;
        spawnPoller(server, "srv-poll");
        spawnPoller(client, "cli-poll");
    }

    /** A spinning poller fiber: poll + yield until the fixture ends. */
    void
    spawnPoller(NetStack &stack, const char *name)
    {
        sched.spawn(name, [this, &stack] {
            while (!stopping) {
                stack.pollQueue(0);
                sched.yield();
            }
        });
    }

    ~TcpFixture() override
    {
        stopping = true;
        sched.run();
        // Unwind fibers still blocked in recv/accept while the network
        // stacks (and their sockets) are alive.
        sched.cancelAll();
    }

    Machine mach;
    Scheduler sched;
    Link link;
    NetStack server;
    NetStack client;
    bool stopping = false;
};

TEST_F(TcpFixture, HandshakeEstablishesBothEnds)
{
    TcpSocket *accepted = nullptr;
    TcpSocket *conn = nullptr;
    server.listen(80);
    TcpSocket *listener = nullptr;
    // Re-listen via pointer: listen() already returned the socket.
    sched.spawn("srv", [&] {
        // accept on the existing listener
    });
    listener = server.listen(81);
    sched.spawn("srv-accept", [&] { accepted = listener->accept(); });
    sched.spawn("cli", [&] {
        conn = client.connect(makeIp(10, 0, 0, 1), 81);
    });
    ASSERT_TRUE(sched.runUntil([&] { return accepted && conn; }));
    EXPECT_TRUE(conn->established());
    EXPECT_TRUE(accepted->established());
    EXPECT_EQ(accepted->remotePort(), conn->localPort());
}

TEST_F(TcpFixture, ConnectToClosedPortFails)
{
    TcpSocket *conn = reinterpret_cast<TcpSocket *>(1);
    sched.spawn("cli", [&] {
        conn = client.connect(makeIp(10, 0, 0, 1), 9999);
    });
    // No listener: SYN is dropped; the connect retries until we give up
    // waiting. Run a bounded number of switches and verify it has not
    // (falsely) established.
    sched.runUntil([&] { return conn == nullptr; }, 20000);
    EXPECT_NE(conn, reinterpret_cast<TcpSocket *>(2)); // still pending ok
}

TEST_F(TcpFixture, SmallPayloadRoundTrip)
{
    std::string got;
    TcpSocket *listener = server.listen(80);
    sched.spawn("srv", [&] {
        TcpSocket *s = listener->accept();
        char buf[64];
        long n = s->recv(buf, sizeof(buf));
        got.assign(buf, static_cast<std::size_t>(n));
        s->send("pong", 4);
    });
    std::string reply;
    sched.spawn("cli", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        ASSERT_NE(s, nullptr);
        s->send("ping", 4);
        char buf[64];
        long n = s->recv(buf, sizeof(buf));
        reply.assign(buf, static_cast<std::size_t>(n));
    });
    ASSERT_TRUE(sched.runUntil([&] { return !reply.empty(); }));
    EXPECT_EQ(got, "ping");
    EXPECT_EQ(reply, "pong");
}

TEST_F(TcpFixture, BulkTransferLargerThanWindow)
{
    // 1 MiB >> the 64 KiB window: exercises flow control and window
    // updates from the reader.
    const std::size_t total = 1 << 20;
    std::vector<std::uint8_t> sent(total);
    Rng rng(3);
    for (auto &b : sent)
        b = static_cast<std::uint8_t>(rng.next());

    std::vector<std::uint8_t> received;
    received.reserve(total);

    TcpSocket *listener = server.listen(80);
    sched.spawn("srv", [&] {
        TcpSocket *s = listener->accept();
        std::uint8_t buf[8192];
        long n;
        while ((n = s->recv(buf, sizeof(buf))) > 0)
            received.insert(received.end(), buf, buf + n);
    });
    sched.spawn("cli", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        ASSERT_NE(s, nullptr);
        s->send(sent.data(), sent.size());
        s->close();
    });
    ASSERT_TRUE(
        sched.runUntil([&] { return received.size() == total; }));
    EXPECT_EQ(received, sent);
}

TEST_F(TcpFixture, GracefulCloseDeliversEof)
{
    TcpSocket *listener = server.listen(80);
    long eof = -2;
    sched.spawn("srv", [&] {
        TcpSocket *s = listener->accept();
        char buf[16];
        s->recv(buf, sizeof(buf)); // "bye"
        eof = s->recv(buf, sizeof(buf));
    });
    sched.spawn("cli", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        s->send("bye", 3);
        s->close();
    });
    ASSERT_TRUE(sched.runUntil([&] { return eof != -2; }));
    EXPECT_EQ(eof, 0);
}

TEST_F(TcpFixture, ManySequentialConnections)
{
    TcpSocket *listener = server.listen(80);
    int served = 0;
    sched.spawn("srv", [&] {
        for (int i = 0; i < 10; ++i) {
            TcpSocket *s = listener->accept();
            char buf[16];
            long n = s->recv(buf, sizeof(buf));
            s->send(buf, static_cast<std::size_t>(n)); // echo
            ++served;
        }
    });
    int ok = 0;
    sched.spawn("cli", [&] {
        for (int i = 0; i < 10; ++i) {
            TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
            ASSERT_NE(s, nullptr);
            std::string msg = "msg" + std::to_string(i);
            s->send(msg.data(), msg.size());
            char buf[16];
            long n = s->recv(buf, sizeof(buf));
            if (std::string(buf, static_cast<std::size_t>(n)) == msg)
                ++ok;
            s->close();
        }
    });
    ASSERT_TRUE(sched.runUntil([&] { return ok == 10; }));
    EXPECT_EQ(served, 10);
}

TEST_F(TcpFixture, SegmentsCarryRealChecksumsEndToEnd)
{
    // Corrupt one in-flight frame; the checksum must reject it and
    // retransmission must still deliver correct data.
    bool corrupted = false;
    link.endA().rxFilter = [&](NetBuf &f) {
        if (!corrupted && f.size() > 60) {
            f.data()[f.size() - 1] ^= 0xff;
            corrupted = true;
        }
        return true;
    };
    TcpSocket *listener = server.listen(80);
    std::string got;
    sched.spawn("srv", [&] {
        TcpSocket *s = listener->accept();
        char buf[128];
        long n;
        while ((n = s->recv(buf, sizeof(buf))) > 0)
            got.append(buf, static_cast<std::size_t>(n));
    });
    sched.spawn("cli", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        std::string payload(300, 'q');
        s->send(payload.data(), payload.size());
        s->close();
    });
    ASSERT_TRUE(sched.runUntil([&] { return got.size() == 300; }));
    EXPECT_TRUE(corrupted);
    EXPECT_GE(mach.counter("tcp.badChecksum"), 1u);
    EXPECT_GE(mach.counter("tcp.retransmits"), 1u);
}

/**
 * Craft a full Eth+IPv4+TCP frame with valid checksums, for injecting
 * hand-built segments (overlaps, far-future data) into a live flow.
 */
NetBuf
craftSegment(std::uint32_t srcIp, std::uint32_t dstIp,
             std::uint16_t srcPort, std::uint16_t dstPort,
             std::uint32_t seq, std::uint8_t flags,
             const std::vector<std::uint8_t> &payload,
             std::uint32_t ack = 0)
{
    NetBuf frame;
    if (!payload.empty())
        frame.append(payload.data(), payload.size());

    TcpHeader tcp;
    tcp.srcPort = srcPort;
    tcp.dstPort = dstPort;
    tcp.seq = seq;
    tcp.ack = ack;
    tcp.flags = flags;
    tcp.window = 0xffff;
    std::uint8_t *at = frame.push(TcpHeader::wireSize);
    tcp.serialize(at, srcIp, dstIp, at + TcpHeader::wireSize,
                  payload.size());

    Ip4Header ip;
    ip.totalLen = static_cast<std::uint16_t>(
        Ip4Header::wireSize + TcpHeader::wireSize + payload.size());
    ip.protocol = Ip4Header::protoTcp;
    ip.src = srcIp;
    ip.dst = dstIp;
    ip.serialize(frame.push(Ip4Header::wireSize));

    EthHeader eth{};
    eth.etherType = EthHeader::typeIp4;
    eth.serialize(frame.push(EthHeader::wireSize));
    return frame;
}

/** Deterministic payload byte for stream offset i. */
std::uint8_t
streamByte(std::size_t i)
{
    return static_cast<std::uint8_t>('A' + i % 23);
}

/**
 * A segment that partially overlaps delivered data must contribute its
 * new tail bytes — the seed stack miscounted it as a duplicate and
 * dropped them, forcing a full retransmit.
 */
TEST_F(TcpFixture, OverlappingRetransmitDeliversNewTail)
{
    TcpSocket *listener = server.listen(80);
    TcpSocket *accepted = nullptr;
    std::string got;
    sched.spawn("srv", [&] {
        accepted = listener->accept();
        char buf[64];
        long n;
        while ((n = accepted->recv(buf, sizeof(buf))) > 0)
            got.append(buf, static_cast<std::size_t>(n));
    });
    TcpSocket *conn = nullptr;
    sched.spawn("cli", [&] {
        conn = client.connect(makeIp(10, 0, 0, 1), 80);
        ASSERT_NE(conn, nullptr);
        conn->send("hello", 5);
    });
    ASSERT_TRUE(sched.runUntil([&] { return got == "hello"; }));

    // The client stack's deterministic ISS: issCounter starts at 1000
    // and pickIss() advances by 64000, so the first data byte of the
    // first connection is sequence 65001.
    const std::uint32_t firstData = 65001;

    // Retransmit "hello" grown by new data: seq overlaps the 5
    // delivered bytes, the tail is new. PSH only (no ACK) so the
    // server's ACK machinery is not involved.
    std::vector<std::uint8_t> overlap{'h', 'e', 'l', 'l', 'o',
                                      'W', 'O', 'R', 'L', 'D'};
    link.endB().transmit(craftSegment(
        makeIp(10, 0, 0, 2), makeIp(10, 0, 0, 1), conn->localPort(), 80,
        firstData, tcpPsh, overlap));

    ASSERT_TRUE(sched.runUntil([&] { return got.size() == 10; }));
    EXPECT_EQ(got, "helloWORLD");
    EXPECT_GE(mach.counter("tcp.partialOverlaps"), 1u);
}

/**
 * The out-of-order queue is bounded: segments farthest from rcvNxt are
 * evicted once oooLimit is exceeded, and delivery still completes
 * correctly from the in-order stream.
 */
TEST_F(TcpFixture, OutOfOrderQueueBoundedEviction)
{
    TcpSocket *listener = server.listen(80);
    TcpSocket *accepted = nullptr;
    std::vector<std::uint8_t> received;
    sched.spawn("srv", [&] {
        accepted = listener->accept();
        std::uint8_t buf[4096];
        long n;
        while ((n = accepted->recv(buf, sizeof(buf))) > 0)
            received.insert(received.end(), buf, buf + n);
    });
    TcpSocket *conn = nullptr;
    sched.spawn("cli", [&] {
        conn = client.connect(makeIp(10, 0, 0, 1), 80);
    });
    ASSERT_TRUE(sched.runUntil([&] { return accepted && conn; }));
    accepted->oooLimit = 2048;

    const std::uint32_t firstData = 65001;
    auto inject = [&](std::size_t off, std::size_t len) {
        std::vector<std::uint8_t> bytes(len);
        for (std::size_t i = 0; i < len; ++i)
            bytes[i] = streamByte(off + i);
        link.endB().transmit(craftSegment(
            makeIp(10, 0, 0, 2), makeIp(10, 0, 0, 1), conn->localPort(),
            80, firstData + static_cast<std::uint32_t>(off), tcpPsh,
            bytes));
    };

    // Four disjoint future segments, 2400 bytes > the 2048 limit: the
    // farthest (offset 4000) must be evicted.
    inject(1000, 600);
    inject(2000, 600);
    inject(3000, 600);
    inject(4000, 600);
    ASSERT_TRUE(sched.runUntil(
        [&] { return mach.counter("tcp.oooEvicted") > 0; }));
    EXPECT_EQ(accepted->oooQueuedBytes(), 1800u);
    EXPECT_LE(accepted->oooQueuedBytes(), accepted->oooLimit);
    EXPECT_EQ(mach.counter("tcp.oooEvicted"), 600u);
    EXPECT_GE(mach.counter("tcp.outOfOrder"), 3u);

    // Injecting a segment fully inside a stashed one is a duplicate.
    std::uint64_t dupsBefore = mach.counter("tcp.duplicates");
    inject(2100, 300);
    ASSERT_TRUE(sched.runUntil(
        [&] { return mach.counter("tcp.duplicates") > dupsBefore; }));
    EXPECT_EQ(accepted->oooQueuedBytes(), 1800u);

    // The in-order stream then delivers everything; stashed ranges are
    // merged (not re-delivered) and the evicted range arrives in order.
    const std::size_t total = 5000;
    std::vector<std::uint8_t> sent(total);
    for (std::size_t i = 0; i < total; ++i)
        sent[i] = streamByte(i);
    sched.spawn("cli-send", [&] {
        conn->send(sent.data(), sent.size());
        conn->close();
    });
    ASSERT_TRUE(
        sched.runUntil([&] { return received.size() == total; }));
    EXPECT_EQ(received, sent);
    EXPECT_EQ(accepted->oooQueuedBytes(), 0u);
}

/**
 * Byte-array reference reassembler: TcpSocket's receive side stated one
 * stream byte at a time, for differential tests. Offsets count from the
 * first data byte, so sequence wraparound never reaches the model.
 *
 * - Bytes before `next` are delivered. A segment reaching `next`
 *   delivers its new bytes and every held byte contiguous with them.
 * - A segment beyond a gap is held: each maximal run of its bytes not
 *   held before becomes one piece (one stored segment).
 * - While more than `limit` bytes are held, the piece holding the
 *   farthest byte is evicted whole.
 */
class ReferenceReassembler
{
  public:
    ReferenceReassembler(std::size_t streamLen, std::size_t limit)
        : have(streamLen, 0), pieceStart(streamLen, 0), limit(limit)
    {
    }

    void
    segment(std::size_t off, std::size_t len)
    {
        std::size_t end = off + len;
        if (end <= next)
            return; // duplicate of delivered data
        off = std::max(off, next);
        if (off == next) {
            for (std::size_t i = off; i < end; ++i)
                release(i);
            next = end;
            while (next < have.size() && have[next])
                release(next++);
            return;
        }
        bool inNewRun = false;
        for (std::size_t i = off; i < end; ++i) {
            if (have[i]) {
                inNewRun = false;
                continue;
            }
            have[i] = 1;
            pieceStart[i] = !inNewRun;
            inNewRun = true;
            ++held;
        }
        while (held > limit) {
            std::size_t i = have.size() - 1;
            while (!have[i])
                --i;
            for (bool start = false; !start; --i) {
                start = pieceStart[i];
                release(i);
                ++evicted;
            }
        }
    }

    std::size_t delivered() const { return next; }
    std::size_t heldBytes() const { return held; }
    std::size_t evictedBytes() const { return evicted; }

  private:
    void
    release(std::size_t i)
    {
        if (have[i]) {
            have[i] = 0;
            --held;
        }
    }

    std::vector<char> have;       ///< byte held beyond `next`
    std::vector<char> pieceStart; ///< held byte starts its piece
    std::size_t limit;
    std::size_t next = 0;
    std::size_t held = 0;
    std::size_t evicted = 0;
};

TEST(ReferenceReassembler, MergesHoldsAndEvictsFarthestPiece)
{
    ReferenceReassembler r(100, 40);
    r.segment(10, 10); // piece [10, 20)
    r.segment(30, 10); // piece [30, 40)
    EXPECT_EQ(r.heldBytes(), 20u);
    r.segment(15, 20); // only the gap [20, 30) is new
    EXPECT_EQ(r.heldBytes(), 30u);
    r.segment(60, 5);
    r.segment(45, 10); // 45 > 40 held: the farthest piece, [60, 65), goes
    EXPECT_EQ(r.heldBytes(), 40u);
    EXPECT_EQ(r.evictedBytes(), 5u);
    r.segment(0, 12); // in order: delivers through the held [10, 40)
    EXPECT_EQ(r.delivered(), 40u);
    EXPECT_EQ(r.heldBytes(), 10u);
    r.segment(40, 5);
    EXPECT_EQ(r.delivered(), 55u);
    EXPECT_EQ(r.heldBytes(), 0u);
    r.segment(5, 10); // stale
    EXPECT_EQ(r.delivered(), 55u);
}

/**
 * One differential case: a fake peer at 10.0.0.2 hand-shakes with a
 * NetStack, then injects a seeded, permuted mix of a covering split of
 * the stream, partial overlaps and duplicates, and finally the cover
 * again in order (the retransmissions). After every segment the
 * socket's readable and out-of-order byte counts and its evicted-byte
 * counter must equal the reference's; the reader drains random amounts
 * in between, and what it reads must be the stream.
 */
/** What the differential cases exercised, summed over seeds. */
struct ReassemblyCoverage
{
    std::size_t wrapped = 0;      ///< streams crossing sequence 2^32
    std::uint64_t stashed = 0;    ///< out-of-order stashes
    std::uint64_t evicted = 0;    ///< bytes evicted over oooLimit
    std::uint64_t overlapped = 0; ///< partial overlaps with delivered data
};

void
reassemblyMatchesReference(std::uint64_t seed, ReassemblyCoverage &cov)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::uint32_t srvIp = makeIp(10, 0, 0, 1);
    const std::uint32_t cliIp = makeIp(10, 0, 0, 2);
    const std::uint16_t cliPort = 40000;
    const std::size_t total = rng.range(1, 12000);
    // Half the streams start within their own length of 2^32 and wrap.
    const std::uint32_t isn =
        rng.chance(1, 2)
            ? static_cast<std::uint32_t>(0 - rng.range(1, total + 1))
            : static_cast<std::uint32_t>(rng.next());
    const std::size_t limit =
        rng.chance(1, 2) ? TcpSocket::bufMax : rng.range(1, 3000);
    if (std::uint64_t(isn) + 1 + total > (std::uint64_t(1) << 32))
        ++cov.wrapped;
    std::vector<std::uint8_t> stream(total);
    for (auto &b : stream)
        b = static_cast<std::uint8_t>(rng.next());

    Machine mach;
    Scheduler sched(mach);
    Link link(mach);
    NetStack server(mach, sched, link.endA(), srvIp);
    TcpSocket *listener = server.listen(80);
    // Deliver one frame and drop the server's replies. Everything runs
    // on the test's own stack: no call below blocks.
    auto deliver = [&](std::uint32_t seq, std::uint8_t flags,
                       const std::vector<std::uint8_t> &payload,
                       std::uint32_t ack) {
        link.endB().transmit(craftSegment(cliIp, srvIp, cliPort, 80, seq,
                                          flags, payload, ack));
        server.pollQueue(0);
        while (link.endB().receive()) {
        }
    };

    link.endB().transmit(
        craftSegment(cliIp, srvIp, cliPort, 80, isn, tcpSyn, {}));
    server.pollQueue(0);
    auto synAck = link.endB().receive();
    ASSERT_TRUE(synAck);
    const std::uint32_t iss = getBe32(
        synAck->data() + EthHeader::wireSize + Ip4Header::wireSize + 4);
    deliver(isn + 1, tcpAck, {}, iss + 1);
    ASSERT_EQ(listener->pendingAccepts(), 1u);
    TcpSocket *sock = listener->accept();
    ASSERT_TRUE(sock->established());
    sock->oooLimit = limit;

    using Seg = std::pair<std::size_t, std::size_t>; // offset, length
    std::vector<Seg> cover;
    for (std::size_t off = 0; off < total;) {
        std::size_t len =
            rng.range(1, std::min<std::size_t>(600, total - off));
        cover.emplace_back(off, len);
        off += len;
    }
    std::vector<Seg> segs = cover;
    for (std::size_t i = rng.below(cover.size() + 1); i > 0; --i) {
        std::size_t off = rng.below(total);
        segs.emplace_back(
            off, rng.range(1, std::min<std::size_t>(900, total - off)));
    }
    for (std::size_t i = rng.below(segs.size() / 2 + 1); i > 0; --i)
        segs.push_back(segs[rng.below(segs.size())]);
    for (std::size_t i = segs.size(); i > 1; --i)
        std::swap(segs[i - 1], segs[rng.below(i)]);
    segs.insert(segs.end(), cover.begin(), cover.end());

    ReferenceReassembler ref(total, limit);
    std::vector<std::uint8_t> got;
    for (const auto &[off, len] : segs) {
        ref.segment(off, len);
        deliver(isn + 1 + static_cast<std::uint32_t>(off), tcpPsh,
                std::vector<std::uint8_t>(stream.begin() + off,
                                          stream.begin() + off + len),
                0);
        ASSERT_EQ(got.size() + sock->available(), ref.delivered());
        ASSERT_EQ(sock->oooQueuedBytes(), ref.heldBytes());
        ASSERT_EQ(mach.counter("tcp.oooEvicted"), ref.evictedBytes());
        std::size_t want = std::min<std::size_t>(rng.below(1500),
                                                 sock->available());
        if (want) {
            std::vector<std::uint8_t> buf(want);
            ASSERT_EQ(sock->recv(buf.data(), want),
                      static_cast<long>(want));
            got.insert(got.end(), buf.begin(), buf.end());
        }
    }
    ASSERT_EQ(ref.delivered(), total);
    std::vector<std::uint8_t> rest(sock->available());
    if (!rest.empty()) {
        ASSERT_EQ(sock->recv(rest.data(), rest.size()),
                  static_cast<long>(rest.size()));
    }
    got.insert(got.end(), rest.begin(), rest.end());
    EXPECT_EQ(got, stream);
    EXPECT_EQ(sock->oooQueuedBytes(), 0u);
    cov.stashed += mach.counter("tcp.outOfOrder");
    cov.evicted += mach.counter("tcp.oooEvicted");
    cov.overlapped += mach.counter("tcp.partialOverlaps");
}

TEST(TcpReassembly, MatchesByteArrayReference)
{
    ReassemblyCoverage cov;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        reassemblyMatchesReference(seed, cov);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(cov.wrapped, 50u);
    EXPECT_GT(cov.stashed, 1000u);
    EXPECT_GT(cov.evicted, 10000u);
    EXPECT_GT(cov.overlapped, 100u);
}

/** 100 clients connect in parallel against one listener. */
TEST_F(TcpFixture, AcceptStormHundredConnections)
{
    constexpr int conns = 100;
    TcpSocket *listener = server.listen(80);
    int served = 0;
    sched.spawn("srv-accept", [&] {
        for (int i = 0; i < conns; ++i) {
            TcpSocket *s = listener->accept();
            sched.spawn("srv-echo", [&, s] {
                char buf[32];
                long n = s->recv(buf, sizeof(buf));
                if (n > 0)
                    s->send(buf, static_cast<std::size_t>(n));
                while (s->recv(buf, sizeof(buf)) > 0) {
                }
                s->close();
                ++served;
            });
        }
    });

    int ok = 0;
    for (int i = 0; i < conns; ++i) {
        sched.spawn("cli-" + std::to_string(i), [&, i] {
            TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
            ASSERT_NE(s, nullptr);
            std::string msg = "c" + std::to_string(i);
            s->send(msg.data(), msg.size());
            char buf[32];
            long n = s->recv(buf, sizeof(buf));
            if (std::string(buf, static_cast<std::size_t>(n)) == msg)
                ++ok;
            s->close();
        });
    }

    ASSERT_TRUE(sched.runUntil(
        [&] { return ok == conns && served == conns; }, 5'000'000));
    EXPECT_EQ(mach.counter("tcp.backlogDrops"), 0u);

    // Flow-table hygiene: every closed connection is reaped.
    ASSERT_TRUE(sched.runUntil(
        [&] {
            return server.flowCount() == 0 && client.flowCount() == 0;
        },
        5'000'000));
}

/**
 * A tiny backlog under a connection storm: excess SYNs are dropped and
 * recovered by SYN retransmission, so every client still gets served.
 */
TEST_F(TcpFixture, SmallBacklogRecoversViaSynRetransmit)
{
    constexpr int conns = 20;
    TcpSocket *listener = server.listen(80, 2);
    int served = 0;
    sched.spawn("srv-accept", [&] {
        for (int i = 0; i < conns; ++i) {
            TcpSocket *s = listener->accept();
            sched.spawn("srv-echo", [&, s] {
                char buf[32];
                long n = s->recv(buf, sizeof(buf));
                if (n > 0)
                    s->send(buf, static_cast<std::size_t>(n));
                s->close();
                ++served;
            });
        }
    });

    int ok = 0;
    for (int i = 0; i < conns; ++i) {
        sched.spawn("cli-" + std::to_string(i), [&, i] {
            TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
            ASSERT_NE(s, nullptr);
            std::string msg = "b" + std::to_string(i);
            s->send(msg.data(), msg.size());
            char buf[32];
            long n = s->recv(buf, sizeof(buf));
            if (n > 0 &&
                std::string(buf, static_cast<std::size_t>(n)) == msg)
                ++ok;
            s->close();
        });
    }

    ASSERT_TRUE(sched.runUntil(
        [&] { return ok == conns && served == conns; }, 10'000'000));
    EXPECT_GE(mach.counter("tcp.backlogDrops"), 1u);
}

/** Property test: delivery is reliable under random loss + reordering. */
class TcpLossTest : public TcpFixture,
                    public ::testing::WithParamInterface<std::uint64_t>
{
};

TEST_P(TcpLossTest, ReliableUnderLossAndReorder)
{
    Rng rng(GetParam());
    // Drop 12% of the frames in each direction; retransmission must
    // recover every byte in order.
    link.endA().rxFilter = [&](NetBuf &) { return !rng.chance(3, 25); };
    link.endB().rxFilter = [&](NetBuf &) { return !rng.chance(3, 25); };

    const std::size_t total = 128 * 1024;
    std::vector<std::uint8_t> sent(total);
    for (auto &b : sent)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> received;

    TcpSocket *listener = server.listen(80);
    sched.spawn("srv", [&] {
        TcpSocket *s = listener->accept();
        std::uint8_t buf[4096];
        long n;
        while ((n = s->recv(buf, sizeof(buf))) > 0)
            received.insert(received.end(), buf, buf + n);
    });
    sched.spawn("cli", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        ASSERT_NE(s, nullptr);
        s->send(sent.data(), sent.size());
        s->close();
    });
    ASSERT_TRUE(sched.runUntil(
        [&] { return received.size() == total; }, 5'000'000));
    EXPECT_EQ(received, sent);
    EXPECT_GT(mach.counter("tcp.retransmits"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpLossTest,
                         ::testing::Values(11, 22, 33, 44, 55));

/** Out-of-order reassembly without loss: delay every 5th frame. */
TEST_F(TcpFixture, ReassemblesReorderedSegments)
{
    // Shared (not stack) state: the reinject fiber below is resumed
    // one last time by the fixture's cancelAll() after the test body
    // has returned, so anything it touches must outlive this scope.
    auto counter = std::make_shared<int>(0);
    auto held = std::make_shared<std::optional<NetBuf>>();
    link.endA().rxFilter = [counter, held](NetBuf &f) -> bool {
        ++*counter;
        if (*counter % 5 == 0 && !*held) {
            *held = std::move(f);
            return false;
        }
        return true;
    };
    // A separate fiber re-injects held frames after a short delay,
    // producing genuine reordering rather than loss.
    sched.spawn("reinject", [this, held] {
        for (int i = 0; i < 2000; ++i) {
            if (*held) {
                NetBuf f = std::move(**held);
                held->reset();
                // Bypass the filter to avoid re-holding.
                auto saved = link.endA().rxFilter;
                link.endA().rxFilter = nullptr;
                link.endB().transmit(NetBuf(f)); // wrong direction? no:
                link.endA().rxFilter = saved;
            }
            sched.yield();
        }
    });

    const std::size_t total = 96 * 1024;
    std::vector<std::uint8_t> sent(total);
    Rng rng(9);
    for (auto &b : sent)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> received;

    TcpSocket *listener = server.listen(80);
    sched.spawn("srv", [&] {
        TcpSocket *s = listener->accept();
        std::uint8_t buf[4096];
        long n;
        while ((n = s->recv(buf, sizeof(buf))) > 0)
            received.insert(received.end(), buf, buf + n);
    });
    sched.spawn("cli", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        s->send(sent.data(), sent.size());
        s->close();
    });
    ASSERT_TRUE(sched.runUntil(
        [&] { return received.size() == total; }, 5'000'000));
    EXPECT_EQ(received, sent);
}

/**
 * Pins every byte put on the wire. Over a seeded lossy, reordering
 * exchange (an echo in both directions), the live bytes of each frame
 * reaching either end are hashed (FNV-1a) in arrival order. The value
 * was recorded while frames were zero-filled on allocation; frame
 * storage is recycled uninitialised now, so a live byte read before it
 * is written changes the hash.
 */
TEST_F(TcpFixture, WireBytesArePinned)
{
    struct Tap
    {
        Rng rng{35};
        std::uint64_t hash = 0xcbf29ce484222325ull;
        std::uint64_t frames = 0;
        std::uint64_t reordered = 0;
        std::optional<NetBuf> held;

        void
        fold(const NetBuf &f)
        {
            for (std::size_t i = 0; i < f.size(); ++i) {
                hash ^= f.data()[i];
                hash *= 0x100000001b3ull;
            }
            ++frames;
        }
    };
    // Shared for the reinject fiber's last, cancelled resumption.
    auto tap = std::make_shared<Tap>();
    link.endA().rxFilter = [tap](NetBuf &f) {
        tap->fold(f);
        if (tap->rng.chance(1, 10))
            return false; // lost
        if (!tap->held && tap->rng.chance(1, 8)) {
            tap->held = std::move(f); // overtaken by later frames
            ++tap->reordered;
            return false;
        }
        return true;
    };
    link.endB().rxFilter = [tap](NetBuf &f) {
        tap->fold(f);
        return !tap->rng.chance(1, 10);
    };
    sched.spawn("reinject", [this, tap] {
        for (int i = 0; i < 4000; ++i) {
            if (tap->held && i % 3 == 0) {
                NetBuf f = std::move(*tap->held);
                tap->held.reset();
                auto filter = std::move(link.endA().rxFilter);
                link.endA().rxFilter = nullptr;
                link.endB().transmit(std::move(f));
                link.endA().rxFilter = std::move(filter);
            }
            sched.yield();
        }
    });

    const std::size_t total = 48 * 1024;
    std::vector<std::uint8_t> sent(total);
    Rng rng(17);
    for (auto &b : sent)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> echoed;

    TcpSocket *listener = server.listen(80);
    sched.spawn("srv", [&] {
        TcpSocket *s = listener->accept();
        std::uint8_t buf[3000];
        long n;
        while ((n = s->recv(buf, sizeof(buf))) > 0)
            s->send(buf, static_cast<std::size_t>(n));
        s->close();
    });
    sched.spawn("cli", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        ASSERT_NE(s, nullptr);
        s->send(sent.data(), sent.size());
        s->close();
        std::uint8_t buf[4096];
        long n;
        while ((n = s->recv(buf, sizeof(buf))) > 0)
            echoed.insert(echoed.end(), buf, buf + n);
    });
    ASSERT_TRUE(sched.runUntil(
        [&] { return echoed.size() == total; }, 5'000'000));
    EXPECT_EQ(echoed, sent);
    EXPECT_GT(mach.counter("tcp.retransmits"), 0u);
    EXPECT_GT(tap->reordered, 0u);
    EXPECT_EQ(tap->frames, 183u);
    EXPECT_EQ(tap->hash, 0x24485e338f3ccf50ull);
}

} // namespace
} // namespace flexos
