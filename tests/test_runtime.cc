/**
 * @file
 * Runtime control-plane tests: the quiesced gate-matrix swap path
 * (no-op bit-identity, mid-crossing quiesce against a thread blocked
 * in an EPT ring RPC, a vectored EPT chunk in flight across a swap
 * that denies its edge, swap under a throttle stall, a multi-core swap
 * storm) and the policy controller itself (config surface, storm
 * escalation ladder with hysteresis relax, deny-witness hardening,
 * windowed counter deltas, and the static-identity pin for images with
 * nothing adaptive).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/image.hh"
#include "core/toolchain.hh"
#include "runtime/controller.hh"

namespace flexos {
namespace {

struct RuntimeFixture : ::testing::Test
{
    RuntimeFixture()
        : sched(mach), reg(LibraryRegistry::standard()),
          tc(reg)
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

/** app (default, MPK) / sys (MPK) / att (MPK), att -> sys adaptive,
 *  att -> app denied: the controller's canonical test image. */
const char *adaptiveCfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- att:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- uktime: att
boundaries:
- att -> sys: {adaptive: true}
- att -> app: {deny: true}
)";

/** MPK app calling into an EPT network VM: crossings suspend inside
 *  the ring RPC, which is what the quiesce barrier exists for. */
const char *eptCfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: vm-ept
libraries:
- libredis: app
- lwip: net
)";

// --------------------------------------------------- config surface

TEST_F(RuntimeFixture, ControllerSectionParsesAndRoundTrips)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
controller:
  epoch: 250000
  storm_threshold: 40
  calm_epochs: 5
  deny_alert: 2
boundaries:
- app -> sys: {adaptive: true}
)");
    ASSERT_TRUE(cfg.controller.has_value());
    EXPECT_EQ(cfg.controller->epoch, 250000u);
    EXPECT_EQ(cfg.controller->stormThreshold, 40u);
    EXPECT_EQ(cfg.controller->calmEpochs, 5u);
    EXPECT_EQ(cfg.controller->denyAlert, 2u);
    ASSERT_EQ(cfg.boundaries.size(), 1u);
    EXPECT_EQ(cfg.boundaries[0].adaptive, true);

    SafetyConfig again = SafetyConfig::parse(cfg.toText());
    EXPECT_EQ(again.controller, cfg.controller);
    EXPECT_EQ(again.boundaries, cfg.boundaries);
    GateMatrix m = GateMatrix::build(again);
    EXPECT_TRUE(m.at(0, 1).adaptive);
    EXPECT_FALSE(m.at(1, 0).adaptive);

    // Bare section: presence alone enables the controller, defaulted.
    SafetyConfig bare = SafetyConfig::parse(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
libraries:
- libredis: app
controller:
)");
    ASSERT_TRUE(bare.controller.has_value());
    EXPECT_EQ(*bare.controller, ControllerConfig{});
}

// --------------------------------------------------- the swap path

TEST_F(RuntimeFixture, NoopSwapIsBitIdenticalToNoSwap)
{
    std::unique_ptr<Image> img = buildFrom(adaptiveCfg);
    Image::StatsSnapshot before = img->snapshotStats();
    // An identical matrix must be elided charge-free: no epoch bump,
    // no counter movement, nothing re-primed.
    EXPECT_FALSE(img->swapGateMatrix(img->gateMatrix()));
    EXPECT_EQ(img->gateMatrix().epoch(), 0u);
    EXPECT_EQ(img->snapshotStats(), before);
}

TEST_F(RuntimeFixture, SwapAppliesNewPolicyAndBumpsEpoch)
{
    std::unique_ptr<Image> img = buildFrom(adaptiveCfg);
    int att = img->compartmentIndexOf("uktime");
    int sys = img->compartmentIndexOf("uksched");

    GateMatrix next = img->gateMatrix();
    GatePolicy p = next.at(att, sys);
    p.rate = 50;
    p.rateWindow = 100000;
    p.overflow = RateOverflow::Fail;
    next.set(att, sys, p);
    EXPECT_TRUE(img->swapGateMatrix(std::move(next)));

    EXPECT_EQ(img->gateMatrix().epoch(), 1u);
    EXPECT_EQ(mach.counter("matrix.swaps"), 1u);
    EXPECT_EQ(mach.counter("matrix.epoch"), 1u);
    EXPECT_EQ(img->policyFor(att, sys).rate, 50u);
    EXPECT_EQ(img->policyFor(att, sys).overflow, RateOverflow::Fail);
    // One ack per core (single-core machine here).
    EXPECT_EQ(mach.counter("matrix.coreAcks"), mach.coreCount());
}

TEST_F(RuntimeFixture, FiberSwapQuiescesAgainstEptCrossingInFlight)
{
    std::unique_ptr<Image> img = buildFrom(eptCfg);
    int app = img->compartmentIndexOf("libredis");
    int net = img->compartmentIndexOf("lwip");

    bool bodyStarted = false, bodyDone = false;
    bool swapDone = false, swapSawBodyDone = false;
    bool swapApplied = false;

    // A: blocks mid-crossing — the body suspends on the far side of
    // the EPT ring, so the caller sits inside a backend transit.
    img->spawnIn("libredis", "caller", [&] {
        img->gate(img->site("lwip", "recv"), [&] {
            bodyStarted = true;
            sched.sleepNs(200000);
            bodyDone = true;
        });
    });

    // B: swaps once the crossing is provably in flight; must block on
    // the quiesce barrier until the crossing drains.
    sched.spawn("swapper", [&] {
        while (!bodyStarted)
            sched.yield();
        GateMatrix next = img->gateMatrix();
        GatePolicy p = next.at(app, net);
        p.rate = 1'000'000;
        p.rateWindow = 1'000'000;
        next.set(app, net, p);
        swapApplied = img->swapGateMatrix(std::move(next));
        swapSawBodyDone = bodyDone;
        swapDone = true;
    });

    // C: keeps gating while the swap is pending — new crossings must
    // yield to the waiting swapper instead of starving it.
    sched.spawn("prober", [&] {
        while (!swapDone) {
            img->gate(img->site("lwip", "poll"), [] {});
            sched.yield();
        }
    });

    sched.runUntil([&] { return swapDone; });
    EXPECT_TRUE(swapApplied);
    EXPECT_TRUE(swapSawBodyDone);
    EXPECT_EQ(img->activeCrossings(), 0);
    EXPECT_EQ(img->gateMatrix().epoch(), 1u);
    EXPECT_GE(mach.counter("matrix.quiesceWaits"), 1u);
    EXPECT_GE(mach.counter("matrix.swapYields"), 1u);
    sched.cancelAll();
}

TEST_F(RuntimeFixture, DriverSwapDrainsEptCrossingInFlight)
{
    std::unique_ptr<Image> img = buildFrom(eptCfg);
    int app = img->compartmentIndexOf("libredis");
    int net = img->compartmentIndexOf("lwip");

    bool bodyStarted = false, bodyDone = false;
    img->spawnIn("libredis", "caller", [&] {
        img->gate(img->site("lwip", "recv"), [&] {
            bodyStarted = true;
            sched.sleepNs(150000);
            bodyDone = true;
        });
    });
    sched.runUntil([&] { return bodyStarted; });
    ASSERT_GT(img->activeCrossings(), 0);

    // Driver context: swapGateMatrix runs the scheduler itself until
    // the transit drains, then flips.
    GateMatrix next = img->gateMatrix();
    GatePolicy p = next.at(app, net);
    p.validateReturn = true;
    next.set(app, net, p);
    EXPECT_TRUE(img->swapGateMatrix(std::move(next)));
    EXPECT_TRUE(bodyDone);
    EXPECT_EQ(img->activeCrossings(), 0);
    EXPECT_GE(mach.counter("matrix.quiesceWaits"), 1u);
    EXPECT_TRUE(img->policyFor(app, net).validateReturn);
}

TEST_F(RuntimeFixture, SwapWaitsForEptCrossingThenDeniesTheRest)
{
    std::unique_ptr<Image> img = buildFrom(eptCfg);
    int app = img->compartmentIndexOf("libredis");
    int net = img->compartmentIndexOf("lwip");

    int ran = 0;
    bool bodyStarted = false, denied = false, callerDone = false;
    int ranAtSwap = -1;

    // A: eight sequential gates. The first body suspends on the far
    // side of the EPT ring, so that crossing is in flight.
    img->spawnIn("libredis", "caller", [&] {
        GateSite recv = img->site("lwip", "recv");
        try {
            img->gate(recv, [&] {
                bodyStarted = true;
                sched.sleepNs(200000);
                ++ran;
            });
            for (int i = 1; i < 8; ++i)
                img->gate(recv, [&] { ++ran; });
        } catch (const DeniedCrossing &) {
            denied = true;
        }
        callerDone = true;
    });

    // B: denies the edge mid-crossing. The swap must wait for the
    // crossing in flight; the next gate then meets the new matrix.
    sched.spawn("swapper", [&] {
        while (!bodyStarted)
            sched.yield();
        GateMatrix next = img->gateMatrix();
        GatePolicy p = next.at(app, net);
        p.deny = true;
        next.set(app, net, p);
        EXPECT_TRUE(img->swapGateMatrix(std::move(next)));
        ranAtSwap = ran;
    });

    sched.runUntil([&] { return callerDone && ranAtSwap >= 0; });
    EXPECT_EQ(ranAtSwap, 1);
    EXPECT_TRUE(denied);
    EXPECT_EQ(ran, 1);
    EXPECT_GE(mach.counter("matrix.quiesceWaits"), 1u);
    EXPECT_EQ(img->gateMatrix().epoch(), 1u);
    sched.cancelAll();
}

TEST_F(RuntimeFixture, SwapRelievesThrottleStall)
{
    std::unique_ptr<Image> img = buildFrom(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
boundaries:
- app -> sys: {rate: 2, window: 1000000, overflow: stall}
)");
    int app = img->compartmentIndexOf("libredis");
    int sys = img->compartmentIndexOf("uksched");

    int crossed = 0;
    bool done = false;
    img->spawnIn("libredis", "storm", [&] {
        for (int i = 0; i < 10; ++i) {
            img->gate(img->site("uksched", "yield"), [] {});
            ++crossed;
            sched.yield();
        }
        done = true;
    });

    std::uint64_t throttledAtSwap = 0;
    sched.spawn("relaxer", [&] {
        // Swap once the storm is provably deep into stall-driven
        // back-pressure (stalls advance the clock without suspending,
        // so poll on the counter, not on virtual time).
        while (mach.counter("gate.throttled") < 3)
            sched.yield();
        throttledAtSwap = mach.counter("gate.throttled");
        GateMatrix next = img->gateMatrix();
        GatePolicy p = next.at(app, sys);
        p.rate = 0;
        next.set(app, sys, p);
        EXPECT_TRUE(img->swapGateMatrix(std::move(next)));
    });

    sched.runUntil([&] { return done; });
    EXPECT_EQ(crossed, 10);
    EXPECT_GE(throttledAtSwap, 1u);
    // Un-rated edge after the swap: not a single further throttle.
    EXPECT_EQ(mach.counter("gate.throttled"), throttledAtSwap);
    sched.cancelAll();
}

TEST(RuntimeSmp, SwapStormAcrossCores)
{
    Machine mach(TimingModel{}, 4);
    Scheduler sched(mach);
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);
    SafetyConfig cfg = SafetyConfig::parse(adaptiveCfg);
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    std::unique_ptr<Image> img = tc.build(mach, sched, cfg);
    int att = img->compartmentIndexOf("uktime");
    int sys = img->compartmentIndexOf("uksched");
    const GateSite yield = img->site("uksched", "yield");

    // Three storms pinned to three cores, all hammering the same
    // boundary while the driver flips the matrix ten times.
    int finished = 0;
    int crossed[3] = {0, 0, 0};
    for (int c = 0; c < 3; ++c) {
        Thread *t = img->spawnIn("uktime", "storm" + std::to_string(c),
                                 [&, c] {
                                     for (int i = 0; i < 500; ++i) {
                                         img->gate(yield, [] {});
                                         ++crossed[c];
                                         if (i % 16 == 0)
                                             sched.yield();
                                     }
                                     ++finished;
                                 });
        sched.pin(t, c + 1);
    }

    for (int k = 0; k < 10; ++k) {
        GateMatrix next = img->gateMatrix();
        GatePolicy p = next.at(att, sys);
        // Budget far above the storm: the swap machinery is under
        // test here, not the throttle. (The un-rated baseline means
        // the first flip must be the rated one to be a real change.)
        p.rate = (k % 2) ? 0 : 500000;
        p.rateWindow = 1'000'000;
        next.set(att, sys, p);
        ASSERT_TRUE(img->swapGateMatrix(std::move(next)));
    }
    sched.runUntil([&] { return finished == 3; });

    EXPECT_EQ(crossed[0] + crossed[1] + crossed[2], 1500);
    EXPECT_EQ(img->gateMatrix().epoch(), 10u);
    EXPECT_EQ(mach.counter("matrix.swaps"), 10u);
    // Every swap acknowledged on every core.
    EXPECT_EQ(mach.counter("matrix.coreAcks"), 10u * mach.coreCount());
    EXPECT_EQ(img->activeCrossings(), 0);
}

// ------------------------------------------- windowed counter reads

TEST_F(RuntimeFixture, SnapshotStatsDeltasKeepOnlyMovedKeys)
{
    std::unique_ptr<Image> img = buildFrom(adaptiveCfg);
    mach.bump(Counter::IpBadHeader, 5); // no network here: nothing
    mach.bump(Counter::IpNotMine, 2);   // else bumps the ip.* counters
    Image::StatsSnapshot before = img->snapshotStats();
    EXPECT_EQ(before.count("ip.truncated"), 0u); // never bumped: absent
    mach.bump(Counter::IpBadHeader, 3);
    mach.bump(Counter::IpTruncated, 7);
    auto delta = Image::statsDelta(before, img->snapshotStats());
    EXPECT_EQ(delta.count("ip.notMine"), 0u); // unmoved: not in the delta
    EXPECT_EQ(delta.at("ip.badHeader"), 3u);  // windowed, not the total
    EXPECT_EQ(delta.at("ip.truncated"), 7u);  // new keys count from zero
}

// --------------------------------------------------- the controller

/** Storm the att -> sys edge: `rounds` bursts of 200 crossings with a
 *  window-refilling sleep between bursts; throttle failures are
 *  absorbed so the storm survives `overflow: fail`. */
void
stormRounds(Image &img, Scheduler &sched, int rounds)
{
    bool done = false;
    img.spawnIn("uktime", "storm", [&] {
        for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < 200; ++i) {
                try {
                    img.gate(img.site("uksched", "yield"), [] {});
                } catch (const ThrottledCrossing &) {
                }
            }
            sched.sleepNs(110000);
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
}

TEST_F(RuntimeFixture, ControllerEscalatesStormAndRelaxesWhenCalm)
{
    std::unique_ptr<Image> img = buildFrom(adaptiveCfg);
    int att = img->compartmentIndexOf("uktime");
    int sys = img->compartmentIndexOf("uksched");
    GatePolicy base = img->policyFor(att, sys);

    ControllerConfig cc;
    cc.epoch = 100000;
    cc.stormThreshold = 50;
    cc.calmEpochs = 2;
    PolicyController ctl(*img, cc);

    // Level 1: a crossing budget appears, back-pressure only.
    stormRounds(*img, sched, 1);
    EXPECT_TRUE(ctl.step());
    GatePolicy p = img->policyFor(att, sys);
    EXPECT_EQ(p.rate, cc.stormThreshold);
    EXPECT_EQ(p.rateWindow, cc.epoch);
    EXPECT_EQ(p.overflow, RateOverflow::Stall);

    // Level 2: the storm rode through the stall, so fail fast.
    stormRounds(*img, sched, 1);
    EXPECT_TRUE(ctl.step());
    EXPECT_EQ(img->policyFor(att, sys).overflow, RateOverflow::Fail);

    // Level 3: persistent storm marks the edge attacker-facing.
    stormRounds(*img, sched, 3);
    EXPECT_TRUE(ctl.step());
    p = img->policyFor(att, sys);
    EXPECT_TRUE(p.validateEntry);
    EXPECT_TRUE(p.validateReturn);

    // Hysteresis: one quiet epoch relaxes nothing...
    EXPECT_FALSE(ctl.step());
    EXPECT_TRUE(img->policyFor(att, sys).validateEntry);
    // ...but each full calm streak steps one level back down, until
    // the edge is bit-identical to its configured baseline.
    for (int i = 0; i < 5; ++i)
        ctl.step();
    EXPECT_TRUE(img->policyFor(att, sys) == base);
    EXPECT_EQ(mach.counter("controller.relaxes"), 3u);
    EXPECT_EQ(mach.counter("controller.tightens"), 3u);
    EXPECT_GE(mach.counter("matrix.swaps"), 6u);
    EXPECT_EQ(ctl.epochs(), 9u);
}

TEST_F(RuntimeFixture, ControllerDenyWitnessHardensOutgoingEdges)
{
    // att -> sys starts on the light gate so the deny-witness
    // hardening (DSS + validated entry + scrubbed returns) is a
    // visible policy change.
    std::unique_ptr<Image> img = buildFrom(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- att:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- uktime: att
boundaries:
- att -> sys: {adaptive: true, gate: light}
- att -> app: {deny: true}
)");
    int att = img->compartmentIndexOf("uktime");
    int sys = img->compartmentIndexOf("uksched");
    GatePolicy base = img->policyFor(att, sys);
    EXPECT_EQ(base.flavor, MpkGateFlavor::Light);

    ControllerConfig cc;
    cc.epoch = 100000;
    cc.calmEpochs = 2;
    PolicyController ctl(*img, cc);

    bool done = false, denied = false;
    img->spawnIn("uktime", "prober", [&] {
        try {
            img->gate(img->site("libredis", "redis_handle_conn"), [] {});
        } catch (const DeniedCrossing &) {
            denied = true;
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(denied);

    EXPECT_TRUE(ctl.step());
    EXPECT_EQ(mach.counter("controller.alerts"), 1u);
    GatePolicy p = img->policyFor(att, sys);
    EXPECT_EQ(p.flavor, MpkGateFlavor::Dss);
    EXPECT_TRUE(p.validateEntry);
    EXPECT_TRUE(p.scrubReturn);
    // The denied edge itself is never touched.
    EXPECT_TRUE(img->policyFor(att, img->compartmentIndexOf("libredis"))
                    .deny);

    // A calm streak un-hardens back to the configured light gate.
    ctl.step();
    ctl.step();
    EXPECT_TRUE(img->policyFor(att, sys) == base);
}

TEST_F(RuntimeFixture, ControllerWithNothingAdaptiveIsStaticIdentity)
{
    // No `adaptive: true` anywhere: the controller enrolls nothing,
    // and no amount of storming moves the matrix off its build state.
    std::unique_ptr<Image> img = buildFrom(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- att:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- uktime: att
)");
    GateMatrix built = img->gateMatrix();
    PolicyController ctl(*img, ControllerConfig{});

    stormRounds(*img, sched, 2);
    EXPECT_FALSE(ctl.step());
    EXPECT_FALSE(ctl.step());
    EXPECT_EQ(mach.counter("matrix.swaps"), 0u);
    EXPECT_EQ(img->gateMatrix().epoch(), 0u);
    EXPECT_TRUE(img->gateMatrix() == built);
}

} // namespace
} // namespace flexos
