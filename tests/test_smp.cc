/**
 * @file
 * SMP machine-model tests: work-stealing balance across per-core run
 * queues, per-core PKRU register files, cross-core crossing and IPI
 * charges, RSS steering determinism, the `cores: 1` timing-equivalence
 * regression, elastic EPT server retirement, weighted token buckets
 * with per-edge throttle accounting, and the return-leg validation
 * charge.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/deploy.hh"
#include "apps/iperf.hh"
#include "core/image.hh"
#include "core/toolchain.hh"
#include "net/tcp.hh"
#include "uksched/scheduler.hh"

namespace flexos {
namespace {

struct SmpFixture : ::testing::Test
{
    SmpFixture()
        : mach(TimingModel{}, 4), sched(mach),
          reg(LibraryRegistry::standard()), tc(reg)
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

    Machine mach;
    Scheduler sched;
    LibraryRegistry reg;
    Toolchain tc;
};

const char *twoMpkConfig = R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
libraries:
- libredis: a
- lwip: b
)";

// ------------------------------------------------------ work stealing

TEST_F(SmpFixture, WorkStealingBalancesUnpinnedLoad)
{
    // Eight unpinned threads all spawned on core 0 of a 4-core
    // machine: idle cores must steal, and every core ends up charged.
    for (int i = 0; i < 8; ++i) {
        sched.spawnOn(0, "w" + std::to_string(i),
                      [&] {
                          for (int k = 0; k < 50; ++k) {
                              mach.consume(1000);
                              sched.yield();
                          }
                      },
                      256 * 1024, /*pinned=*/false);
    }
    EXPECT_TRUE(sched.run());
    EXPECT_GE(mach.counter("sched.steals"), 3u);
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(mach.coreCycles(c), 0u) << "core " << c << " idle";
}

TEST_F(SmpFixture, PinnedThreadsAreNeverStolen)
{
    for (int i = 0; i < 8; ++i) {
        sched.spawnOn(0, "p" + std::to_string(i), [&] {
            for (int k = 0; k < 10; ++k) {
                mach.consume(100);
                sched.yield();
            }
        }); // pinned by default
    }
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(mach.counter("sched.steals"), 0u);
    EXPECT_EQ(mach.coreCycles(1), 0u);
    EXPECT_EQ(mach.coreCycles(2), 0u);
    EXPECT_EQ(mach.coreCycles(3), 0u);
}

// --------------------------------------------- per-core register files

TEST_F(SmpFixture, PerCorePkruIsolatedAcrossCores)
{
    auto img = buildFrom(twoMpkConfig);
    Pkru domA = img->compartmentAt(0).domain;
    Pkru domB = img->compartmentAt(1).domain;
    ASSERT_NE(domA.value(), domB.value());

    // Two compartmented threads on different cores, interleaving at
    // yields: each must observe exactly its own compartment's PKRU in
    // the machine's (per-core) register window, every time it runs.
    std::vector<std::uint32_t> seenA, seenB;
    Thread *ta = img->spawnIn("libredis", "ta", [&] {
        for (int i = 0; i < 6; ++i) {
            seenA.push_back(mach.pkru.value());
            sched.yield();
        }
    });
    Thread *tb = img->spawnIn("lwip", "tb", [&] {
        for (int i = 0; i < 6; ++i) {
            seenB.push_back(mach.pkru.value());
            sched.yield();
        }
    });
    sched.pin(ta, 0);
    sched.pin(tb, 1);
    EXPECT_TRUE(sched.run());
    ASSERT_EQ(seenA.size(), 6u);
    ASSERT_EQ(seenB.size(), 6u);
    for (std::uint32_t v : seenA)
        EXPECT_EQ(v, domA.value());
    for (std::uint32_t v : seenB)
        EXPECT_EQ(v, domB.value());
    img->shutdown();
}

// -------------------------------------------------- cross-core charges

TEST_F(SmpFixture, CrossCoreCrossingChargesMigration)
{
    auto img = buildFrom(twoMpkConfig);
    bool done0 = false, done1 = false;
    Thread *t0 = img->spawnIn("libredis", "c0", [&] {
        img->gate("lwip", "recv", [] {});
        done0 = true;
    });
    sched.pin(t0, 0);
    sched.runUntil([&] { return done0; });
    ASSERT_TRUE(done0);
    // First crossing into b: no previous core, no migration charge.
    EXPECT_EQ(mach.counter("gate.crossCore"), 0u);

    Thread *t1 = img->spawnIn("libredis", "c1", [&] {
        img->gate("lwip", "recv", [] {});
        img->gate("lwip", "recv", [] {});
        done1 = true;
    });
    sched.pin(t1, 1);
    sched.runUntil([&] { return done1; });
    ASSERT_TRUE(done1);
    // b's gate state last ran on core 0; entering from core 1 pays the
    // migration charge once, then the state is core-1-hot.
    EXPECT_EQ(mach.counter("gate.crossCore"), 1u);
    img->shutdown();
}

TEST_F(SmpFixture, CrossCoreWakeChargesIpi)
{
    WaitQueue q(sched);
    bool woken = false;
    Thread *sleeper = sched.spawnOn(0, "sleeper", [&] {
        q.wait();
        woken = true;
    });
    (void)sleeper;
    sched.spawnOn(1, "waker", [&] {
        mach.consume(500); // be strictly ahead of core 0
        q.wakeOne();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(woken);
    EXPECT_EQ(mach.counter("sched.ipis"), 1u);
}

TEST_F(SmpFixture, SameCoreWakeChargesNoIpi)
{
    WaitQueue q(sched);
    sched.spawnOn(2, "sleeper", [&] { q.wait(); });
    sched.spawnOn(2, "waker", [&] { q.wakeOne(); });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(mach.counter("sched.ipis"), 0u);
}

// ------------------------------------------------------- RSS steering

TEST(RssSteering, HashIsDeterministic)
{
    std::uint32_t a =
        NetStack::rssHash(0x0a000002u, 49152, 0x0a000001u, 5001);
    std::uint32_t b =
        NetStack::rssHash(0x0a000002u, 49152, 0x0a000001u, 5001);
    EXPECT_EQ(a, b);
    // Different tuple, different hash (with these constants).
    EXPECT_NE(a, NetStack::rssHash(0x0a000002u, 49153, 0x0a000001u,
                                   5001));
}

TEST(RssSteering, ConsecutivePortsRotateThroughQueues)
{
    // Clients connect from consecutive ephemeral ports; the odd
    // per-field multipliers make the hash step by an odd constant per
    // port, so any power-of-two queue count is covered evenly: 8
    // consecutive ports over 4 queues means exactly 2 per queue.
    std::vector<int> load(4, 0);
    for (std::uint16_t p = 49152; p < 49160; ++p)
        ++load[NetStack::rssHash(0x0a000002u, p, 0x0a000001u, 5001) %
               4];
    for (int q = 0; q < 4; ++q)
        EXPECT_EQ(load[q], 2) << "queue " << q;
}

TEST(RssSteering, MultiCoreDeploymentSteersAndScales)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libiperf: all
- newlib: all
- uksched: all
- lwip: all
cores: 4
)");
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(cfg, opts);
    EXPECT_EQ(dep.machine().coreCount(), 4u);
    dep.start();
    EXPECT_EQ(dep.clientStack().rxQueueCount(), 1u);
    IperfResult res = runIperfMulti(dep.image(), dep.libc(),
                                    dep.clientStack(), 32 * 1024, 4096,
                                    /*flows=*/8);
    dep.stop();
    EXPECT_EQ(res.bytes, 8u * 32 * 1024);
    Machine &m = dep.machine();
    // RSS moved frames off queue 0 and more than one core did TCP work.
    EXPECT_GT(m.counter("nic.steered"), 0u);
    int coresCharged = 0;
    for (int c = 0; c < 4; ++c)
        if (m.coreCycles(c) > 0)
            ++coresCharged;
    EXPECT_GE(coresCharged, 2);
}

// -------------------------------------- cores: 1 timing equivalence

TEST(SingleCoreRegression, ExplicitCores1MatchesDefault)
{
    // `cores: 1` must be the exact single-core model: bit-identical
    // virtual time and counters to a config that never mentions cores.
    const char *base = R"(
compartments:
- all:
    mechanism: intel-mpk
    default: True
libraries:
- libiperf: all
- newlib: all
- uksched: all
- lwip: all
)";
    auto run = [&](const std::string &text) {
        SafetyConfig cfg = SafetyConfig::parse(text);
        DeployOptions opts;
        opts.withFs = false;
        Deployment dep(cfg, opts);
        dep.start();
        runIperfMulti(dep.image(), dep.libc(), dep.clientStack(),
                      64 * 1024, 4096, /*flows=*/2);
        dep.stop();
        return std::make_pair(dep.machine().wallCycles(),
                              dep.machine().counters());
    };
    auto [cyclesDefault, countersDefault] = run(base);
    auto [cyclesExplicit, countersExplicit] =
        run(std::string(base) + "cores: 1\n");
    EXPECT_EQ(cyclesDefault, cyclesExplicit);
    EXPECT_EQ(countersDefault, countersExplicit);
    // And no SMP artifacts exist on one core.
    EXPECT_EQ(countersDefault.count("sched.steals"), 0u);
    EXPECT_EQ(countersDefault.count("sched.ipis"), 0u);
    EXPECT_EQ(countersDefault.count("nic.steered"), 0u);
    EXPECT_EQ(countersDefault.count("gate.crossCore"), 0u);
}

// ------------------------------------------------ elastic EPT servers

TEST_F(SmpFixture, ElasticEptServerRetiresAfterIdleGrace)
{
    auto img = buildFrom(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: vm-ept
    servers: 1
libraries:
- libredis: app
- lwip: net
)");
    // Two concurrent RPCs against a base pool of one: the second
    // arrival finds every server busy and grows the shard; once the
    // boundary drains, the elastic server sees out its idle grace and
    // retires, shrinking the pool back to base.
    int inFlight = 0;
    bool done = false;
    auto body = [&] {
        ++inFlight;
        sched.sleepNs(100'000); // keep the server busy
        --inFlight;
    };
    Thread *t1 =
        img->spawnIn("libredis", "r1",
                     [&] { img->gate("lwip", "recv", body); });
    (void)t1;
    img->spawnIn("libredis", "r2", [&] {
        img->gate("lwip", "recv", body);
        // Outlive the elastic server's retire deadline so virtual
        // time provably passes it while the boundary is idle.
        sched.sleepNs(5'000'000);
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(inFlight, 0);
    EXPECT_GE(mach.counter("gate.ept.elasticSpawns"), 1u);
    EXPECT_GE(mach.counter("gate.ept.elasticRetires"), 1u);
    img->shutdown();
}

// ------------------------------------- weighted buckets + return legs

TEST_F(SmpFixture, WeightMultipliesTokenBudgetAndCountsPerCaller)
{
    auto img = buildFrom(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
libraries:
- libredis: a
- lwip: b
boundaries:
- a -> b: {rate: 4, weight: 2, window: 10000000, overflow: fail}
)");
    // rate 4 x weight 2 = 8 tokens before the bucket runs dry (the
    // window is far too long to refill meaningfully mid-burst).
    unsigned ok = 0;
    bool throttled = false;
    bool done = false;
    img->spawnIn("libredis", "burst", [&] {
        try {
            for (int i = 0; i < 9; ++i) {
                img->gate("lwip", "recv", [] {});
                ++ok;
            }
        } catch (const ThrottledCrossing &) {
            throttled = true;
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(ok, 8u);
    EXPECT_TRUE(throttled);
    EXPECT_EQ(mach.counter("gate.throttled"), 1u);
    EXPECT_EQ(img->ledgerAt(0, 1).throttled, 1u);
    img->shutdown();
}

TEST_F(SmpFixture, ValidateReturnChargesTheReturnLeg)
{
    auto img = buildFrom(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
- c:
    mechanism: intel-mpk
libraries:
- libredis: a
- uksched: b
- lwip: c
boundaries:
- a -> b: {validate_return: true}
)");
    // b and c are identical MPK compartments; the only policy delta is
    // the audited return into a, so the crossings' costs differ by
    // exactly one return-site validation.
    Cycles withValidate = 0, without = 0;
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        Cycles t0 = mach.cycles();
        img->gate("uksched", "yield", [] {});
        withValidate = mach.cycles() - t0;
        t0 = mach.cycles();
        img->gate("lwip", "recv", [] {});
        without = mach.cycles() - t0;
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(mach.counter("gate.validate.return"), 1u);
    EXPECT_EQ(withValidate, without + mach.timing.entryValidate);
    img->shutdown();
}

} // namespace
} // namespace flexos
