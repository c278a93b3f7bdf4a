/**
 * @file
 * The crossing path allocates nothing: a steady-state MPK or EPT
 * crossing makes no heap allocation (the EPT RPC ring is threaded
 * through the callers' on-stack slots, and the servers' idle wait
 * queue through the threads' own queue links). Counted with a
 * replaced global operator new, which is why these tests live in
 * their own binary.
 *
 * The retransmit timer queue allocates nothing either: its slots live
 * in their owners, so arming, cancelling, firing and polling only
 * reuse the heap's storage.
 *
 * Neither does the TCP/IP data path: frames come from the link's
 * frame pool, and the socket and RX queues are rings that stop growing
 * once they have held their peak.
 *
 * A SQLite INSERT on fig10's EPT2 image allocates only the page cache
 * entry of each new page: the VFS walks paths as views, holds
 * descriptors by value and recycles the journal's ramfs node, and
 * minisql's tokens, record, catalog text and pager sets reuse their
 * storage.
 *
 * Simulated memory stays off the C++ heap: an image's heap arenas,
 * data sections and shared heap are mapped pages, so booting one with
 * megabytes of simulated heap requests only kilobytes through
 * operator new.
 *
 * Also pins the resolved gate site (Image::site): building one never
 * raises, and gating through it raises exactly what a crossing raised
 * when it looked the callee up by name.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/deploy.hh"
#include "apps/minisql.hh"
#include "base/rng.hh"
#include "core/image.hh"
#include "core/toolchain.hh"
#include "net/tcp.hh"
#include "uktime/clock.hh"

namespace {

std::atomic<std::uint64_t> newCalls{0};
std::atomic<std::uint64_t> newBytes{0};

} // namespace

void *
operator new(std::size_t n)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    newBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The deletes stay out of line: inlined into a caller, GCC pairs their
// free() with the caller's new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace flexos {
namespace {

/** Crossings run before counting: first-crossing state (simulated
 *  stacks and queue capacity) is built here. */
constexpr std::uint64_t warmup = 1000;
/** Crossings counted. */
constexpr std::uint64_t measured = 10'000;

/**
 * Two compartments under one mechanism: libredis calls from `app`
 * into lwip in `net`. `netHardening` and `boundaries` are appended
 * verbatim when given.
 */
std::string
twoComp(const std::string &mech, const std::string &netHardening = "",
        const std::string &boundaries = "")
{
    std::string text = "compartments:\n- app:\n    mechanism: " + mech +
                       "\n    default: True\n- net:\n    mechanism: " +
                       mech + "\n";
    if (!netHardening.empty())
        text += "    hardening: [" + netHardening + "]\n";
    text += "libraries:\n"
            "- libredis: app\n"
            "- lwip: net\n";
    if (!boundaries.empty())
        text += "boundaries:\n- " + boundaries + "\n";
    return text;
}

struct CrossingFixture : ::testing::Test
{
    CrossingFixture()
        : sched(mach), reg(LibraryRegistry::standard()), tc(reg)
    {
    }

    std::unique_ptr<Image>
    buildFrom(const std::string &text)
    {
        SafetyConfig cfg = SafetyConfig::parse(text);
        cfg.heapBytes = 1 << 20;
        cfg.sharedHeapBytes = 1 << 20;
        return tc.build(mach, sched, cfg);
    }

    /**
     * Heap allocations made while a libredis thread runs `measured`
     * libredis -> lwip crossings after `warmup` uncounted ones (half
     * of each through a void body, half through a value-returning
     * one).
     */
    std::uint64_t
    allocsPerSteadyState(Image &img)
    {
        const GateSite recv = img.site("lwip", "recv");
        std::uint64_t allocs = 0;
        long sum = 0;
        bool done = false;
        img.spawnIn("libredis", "caller", [&] {
            auto cross = [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; i += 2) {
                    img.gate(recv, [&] { ++sum; });
                    sum += img.gate(recv, [] { return 1L; });
                }
            };
            cross(warmup);
            std::uint64_t before = newCalls.load();
            cross(measured);
            allocs = newCalls.load() - before;
            done = true;
        });
        EXPECT_TRUE(sched.runUntil([&] { return done; }));
        EXPECT_EQ(sum, static_cast<long>(warmup + measured));
        EXPECT_EQ(img.ledgerAt(0, 1).crossings, warmup + measured);
        return allocs;
    }

    Machine mach;
    Scheduler sched;
    LibraryRegistry reg;
    Toolchain tc;
};

TEST_F(CrossingFixture, MpkCrossingsAllocateNothing)
{
    auto img = buildFrom(twoComp("intel-mpk"));
    EXPECT_EQ(allocsPerSteadyState(*img), 0u);
    EXPECT_EQ(mach.counter("gate.mpk.dss"), warmup + measured);
}

TEST_F(CrossingFixture, MpkLightCrossingsAllocateNothing)
{
    auto img = buildFrom(
        twoComp("intel-mpk", "", "'*' -> '*': {gate: light}"));
    EXPECT_EQ(allocsPerSteadyState(*img), 0u);
    EXPECT_EQ(mach.counter("gate.mpk.light"), warmup + measured);
}

TEST_F(CrossingFixture, EptCrossingsAllocateNothing)
{
    auto img = buildFrom(twoComp("vm-ept"));
    std::uint64_t allocs = allocsPerSteadyState(*img);
    EXPECT_EQ(allocs, 0u)
        << allocs << " allocations over " << measured << " crossings";
    EXPECT_EQ(mach.counter("gate.ept"), warmup + measured);
    img->shutdown();
}

// ------------------------------------------------------ retransmit timers

TEST(TimerQueueAlloc, ArmCancelFireAndPollAllocateNothing)
{
    // Four sockets' retransmit timers, each armed 4 us out and polled
    // every 1 us, so up to four entries are in flight; every third arm
    // is cancelled (an ACK arrived) and the rest fire.
    Machine mach;
    TimerQueue timers(mach);
    TimerSlot slots[4];
    const Cycles usCycles = static_cast<Cycles>(1000 * mach.timing.cpuGhz);
    std::uint64_t armed = 0, cancelled = 0, fired = 0;
    auto cycle = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            TimerSlot &s = slots[armed % 4];
            timers.arm(s, 4000);
            if (armed++ % 3 == 0) {
                timers.cancel(s);
                ++cancelled;
            }
            mach.consume(usCycles);
            fired += timers.poll([](TimerSlot &) {});
        }
    };
    cycle(warmup);
    std::uint64_t before = newCalls.load();
    cycle(measured);
    std::uint64_t allocs = newCalls.load() - before;
    EXPECT_EQ(allocs, 0u)
        << allocs << " allocations over " << measured << " timer cycles";

    mach.consume(4 * usCycles);
    fired += timers.poll([](TimerSlot &) {});
    EXPECT_TRUE(timers.empty());
    EXPECT_EQ(fired, armed - cancelled);
}

// ------------------------------------------------------------ TCP/IP path

TEST(TcpAlloc, SteadyStateRequestResponseAllocatesNothing)
{
    // A client and an echo server on two NetStacks over one Link, each
    // stack driven by a deployment-style poller. Requests grow from 16
    // to 3000 bytes (three segments) so both directions gather across
    // ring wraparound and fill more than one frame per send.
    Machine mach;
    Scheduler sched(mach);
    Link link(mach);
    NetStack server(mach, sched, link.endA(), makeIp(10, 0, 0, 1));
    NetStack client(mach, sched, link.endB(), makeIp(10, 0, 0, 2));
    bool stopping = false;
    for (NetStack *stack : {&server, &client}) {
        // The timer heap keeps a cancelled retransmit deadline until
        // the clock passes it, so it grows through one RTO of arms: a
        // short RTO lets the warm-up reach its steady size.
        stack->baseRtoNs = 2'000'000;
        sched.spawn("poll", [&, stack] {
            while (!stopping) {
                if (stack->pollQueue(0))
                    sched.yield();
                else
                    stack->waitQueueActivity(0);
            }
        });
    }
    TcpSocket *listener = server.listen(80);
    sched.spawn("echo", [&] {
        TcpSocket *s = listener->accept();
        std::uint8_t buf[4096];
        long n;
        while ((n = s->recv(buf, sizeof(buf))) > 0)
            s->send(buf, static_cast<std::size_t>(n));
    });

    std::uint64_t allocs = 0, roundTrips = 0;
    bool done = false;
    sched.spawn("client", [&] {
        TcpSocket *s = client.connect(makeIp(10, 0, 0, 1), 80);
        ASSERT_NE(s, nullptr);
        std::uint8_t out[3000], in[3000];
        auto rounds = [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                std::size_t len = 16 + (i * 997) % (sizeof(out) - 16);
                std::memset(out, static_cast<int>(i), len);
                s->send(out, len);
                for (std::size_t got = 0; got < len;) {
                    long r = s->recv(in + got, len - got);
                    ASSERT_GT(r, 0);
                    got += static_cast<std::size_t>(r);
                }
                ASSERT_EQ(std::memcmp(in, out, len), 0);
                ++roundTrips;
            }
        };
        rounds(warmup);
        std::uint64_t before = newCalls.load();
        rounds(measured);
        allocs = newCalls.load() - before;
        s->close();
        done = true;
    });
    ASSERT_TRUE(sched.runUntil([&] { return done; }));
    EXPECT_EQ(roundTrips, warmup + measured);
    EXPECT_EQ(allocs, 0u)
        << allocs << " allocations over " << measured << " round trips";
    EXPECT_GT(mach.counter("tcp.segmentsOut"), 4 * (warmup + measured));
    stopping = true;
    server.wakePollers();
    client.wakePollers();
    sched.run();
    sched.cancelAll();
}

// ---------------------------------------------------------- SQLite INSERT

TEST(SqliteAlloc, SteadyStateInsertAllocatesAlmostNothing)
{
    // fig10's EPT2 image (vfscore alone in a vm-ept VM) with 8 MB
    // compartment heaps: each INSERT is its own transaction, so it
    // walks the journal and database paths, opens, writes, syncs and
    // unlinks a fresh journal, and journals and writes back its pages.
    DeployOptions opts;
    opts.withNet = false;
    opts.heapBytes = 8 * 1024 * 1024;
    Deployment dep(R"(compartments:
- c1:
    mechanism: vm-ept
    default: True
- c2:
    mechanism: vm-ept
libraries:
- libsqlite: c1
- newlib: c1
- uksched: c1
- vfscore: c2
- uktime: c1
)",
                   opts);
    constexpr int warm = 2000, counted = 4000;
    std::vector<std::string> sql;
    Rng rng(36);
    for (int i = 0; i < warm + counted; ++i) {
        std::string payload(rng.range(8, 88), 'a');
        for (char &c : payload)
            c = static_cast<char>('a' + rng.below(26));
        sql.push_back("INSERT INTO t VALUES (" + std::to_string(i) + ", '" +
                      payload + "')");
    }

    std::uint64_t allocs = 0;
    bool done = false;
    dep.image().spawnIn("libsqlite", "sql", [&] {
        minisql::Database db(dep.libc(), "/bench.db");
        db.open();
        ASSERT_TRUE(db.exec("CREATE TABLE t (id INTEGER, payload TEXT)").ok);
        for (int i = 0; i < warm; ++i)
            ASSERT_TRUE(db.exec(sql[std::size_t(i)]).ok);
        std::uint64_t before = newCalls.load();
        for (int i = warm; i < warm + counted; ++i)
            ASSERT_TRUE(db.exec(sql[std::size_t(i)]).ok);
        allocs = newCalls.load() - before;
        db.close();
        done = true;
    });
    ASSERT_TRUE(dep.scheduler().runUntil([&] { return done; }));
    // What remains is the page cache's node for each new page: a leaf
    // splits about every 17 INSERTs (242 over these 4 000).
    EXPECT_LE(allocs, counted / 10)
        << allocs << " allocations over " << counted << " INSERTs ("
        << double(allocs) / counted << " per INSERT)";
}

// --------------------------------------------------------- image memory

TEST_F(CrossingFixture, ImageMemoryStaysOffTheHeap)
{
    // Three compartments with the default 8 MB heaps and 4 MB shared
    // heap: 28 MB of simulated memory plus three 64 KiB data sections.
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: intel-mpk
- fs:
    mechanism: intel-mpk
libraries:
- libredis: app
- lwip: net
- vfscore: fs
)");
    std::uint64_t before = newBytes.load();
    auto img = tc.build(mach, sched, cfg);
    img->shutdown();
    img.reset();
    std::uint64_t bytes = newBytes.load() - before;
    EXPECT_LT(bytes, 1u << 20)
        << bytes << " bytes through operator new for one image";
}

// ------------------------------------------------------------ gate sites

TEST_F(CrossingFixture, SiteForLibraryOutsideTheImageFatalsOnlyWhenGated)
{
    auto img = buildFrom(twoComp("intel-mpk"));
    GateSite site;
    ASSERT_NO_THROW(site = img->site("libnginx", "nginx_main"));
    EXPECT_EQ(site.route, nullptr);
    EXPECT_TRUE(site.entryPoint); // the registry knows the symbol
    try {
        img->gate(site, [] {});
        FAIL() << "gating into a library outside the image must fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "library 'libnginx' not in the image"),
                  std::string::npos)
            << e.what();
    }
    // A library the registry does not know resolves too.
    ASSERT_NO_THROW(site = img->site("libquantum", "spin"));
    EXPECT_FALSE(site.entryPoint);
    EXPECT_THROW(img->gate(site, [] {}), FatalError);
}

/** Gate a non-entry symbol of lwip once from libredis; whether the
 *  body ran. Rethrows nothing: a CfiViolation is reported in `why`. */
bool
gateNonEntry(Scheduler &sched, Image &img, std::string &why)
{
    const GateSite gadget = img.site("lwip", "internal_tcp_input");
    EXPECT_FALSE(gadget.entryPoint);
    bool ran = false, done = false;
    img.spawnIn("libredis", "forger", [&] {
        try {
            img.gate(gadget, [&] { ran = true; });
        } catch (const CfiViolation &e) {
            why = e.what();
        }
        done = true;
    });
    EXPECT_TRUE(sched.runUntil([&] { return done; }));
    return ran;
}

TEST_F(CrossingFixture, NonEntrySiteRejectedOnEnforcingBoundary)
{
    auto img = buildFrom(
        twoComp("intel-mpk", "", "'*' -> '*': {validate: true}"));
    std::string why;
    EXPECT_FALSE(gateNonEntry(sched, *img, why));
    EXPECT_EQ(why, "cfi: gate to non-entry-point lwip.internal_tcp_input");
    EXPECT_EQ(mach.counter("gate.validate.reject"), 1u);
    EXPECT_EQ(img->ledgerAt(0, 1).rejected, 1u);
    EXPECT_EQ(img->ledgerAt(0, 1).crossings, 0u);
}

TEST_F(CrossingFixture, NonEntrySiteRejectedUnderCalleeCfi)
{
    auto img = buildFrom(twoComp("intel-mpk", "cfi"));
    std::string why;
    EXPECT_FALSE(gateNonEntry(sched, *img, why));
    EXPECT_EQ(why, "cfi: gate to non-entry-point lwip.internal_tcp_input");
    EXPECT_EQ(mach.counter("gate.validate.reject"), 1u);
    EXPECT_EQ(img->ledgerAt(0, 1).rejected, 1u);
}

TEST_F(CrossingFixture, NonEntrySitePassesNonEnforcingMpkBoundary)
{
    auto img = buildFrom(twoComp("intel-mpk"));
    std::string why;
    EXPECT_TRUE(gateNonEntry(sched, *img, why));
    EXPECT_TRUE(why.empty()) << why;
    EXPECT_EQ(mach.counter("gate.validate.reject"), 0u);
    EXPECT_EQ(img->ledgerAt(0, 1).rejected, 0u);
    EXPECT_EQ(img->ledgerAt(0, 1).crossings, 1u);
}

} // namespace
} // namespace flexos
