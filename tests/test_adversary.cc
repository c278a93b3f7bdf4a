/**
 * @file
 * Adversary-simulation suite tests: both polarities of the scorecard
 * (a hardened config must contain every applicable scenario, a loose
 * config must breach in at least two attack classes), the regression
 * pin that deny-edge attacks land on DeniedCrossing witnesses, the
 * EPT forged-doorbell rejection path, the scratch-register scrub
 * lifecycle, the controller decision trace, and a property-based
 * forged-crossing generator: 200 random (from, to, entry) tuples
 * against a deny-complete matrix, none of which may reach callee code.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "adversary/adversary.hh"
#include "apps/deploy.hh"
#include "base/rng.hh"
#include "core/image.hh"
#include "core/toolchain.hh"
#include "runtime/controller.hh"

namespace flexos {
namespace {

/** app / sys / net (all MPK), least-privilege boundaries: nothing may
 *  call into app, net -> sys crossings are entry-validated, and every
 *  boundary keeps the default DSS + scrubbed returns. */
const char *hardenedCfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- net:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- lwip: net
boundaries:
- net -> app: {deny: true}
- sys -> app: {deny: true}
- net -> sys: {validate: true}
)";

/** Same topology with the matrix thrown open: no deny edges, and the
 *  net -> sys boundary runs the light gate with scrubbing off over a
 *  fully shared stack — each a containment hole the scorecard must
 *  convert into a breach. */
const char *looseCfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- net:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- lwip: net
boundaries:
- net -> sys: {gate: light, scrub: false, stack_sharing: shared-stack}
)";

/** MPK attacker aiming at a vm-ept compartment: the forged-doorbell
 *  class has a ring to attack. */
const char *eptTargetCfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: vm-ept
- net:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- lwip: net
boundaries:
- net -> app: {deny: true}
- sys -> app: {deny: true}
)";

/** Three compartments with no configured static call edges between
 *  them (uktime and vfscore call nothing configured here), so every
 *  cross edge can be denied — a deny-complete matrix. (`deny:` is
 *  exclusive by design: a denied edge has no gate flavour to tune, so
 *  the property quantifies over targets and entry symbols instead.) */
const char *denyCompleteCfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- fs:
    mechanism: intel-mpk
- tm:
    mechanism: intel-mpk
libraries:
- libredis: app
- vfscore: fs
- uktime: tm
boundaries:
- app -> fs: {deny: true}
- fs -> app: {deny: true}
- app -> tm: {deny: true}
- tm -> app: {deny: true}
- fs -> tm: {deny: true}
- tm -> fs: {deny: true}
)";

DeployOptions
quietOpts()
{
    DeployOptions o;
    o.withNet = false;
    o.withFs = false;
    o.heapBytes = 1 << 20;
    o.sharedHeapBytes = 1 << 20;
    return o;
}

adversary::AttackOptions
netAttacker()
{
    adversary::AttackOptions a;
    a.attackerLib = "lwip";
    return a;
}

TEST(Adversary, HardenedConfigContainsEverything)
{
    Deployment dep(hardenedCfg, quietOpts());
    adversary::AttackScorecard card =
        adversary::runScorecard(dep, netAttacker());
    ASSERT_FALSE(card.results.empty());
    EXPECT_EQ(card.breached(), 0u) << card.summary();
    EXPECT_EQ(card.partial(), 0u) << card.summary();
    EXPECT_TRUE(card.fullContainment());
    EXPECT_EQ(card.score(), 0);
    EXPECT_EQ(card.bitsLeaked(), 0u);
    EXPECT_EQ(card.entropyDefeated(), 0u);
}

TEST(Adversary, DenyEdgeAttacksPinnedToDeniedWitness)
{
    // Regression pin: an attack across a `deny:` edge must be
    // witnessed by the edge's denied ledger cell — the same signal the
    // runtime controller's deny-witness rule alerts on.
    Deployment dep(hardenedCfg, quietOpts());
    adversary::AttackScorecard card =
        adversary::runScorecard(dep, netAttacker());
    bool sawRopCross = false;
    for (const adversary::AttackResult &r : card.results) {
        if (r.scenario != "rop-cross:net->app")
            continue;
        sawRopCross = true;
        EXPECT_EQ(r.outcome, adversary::Outcome::Contained);
        EXPECT_EQ(r.witness, "gate.denied.net->app");
    }
    EXPECT_TRUE(sawRopCross);
    Image &img = dep.image();
    EXPECT_GT(img.ledgerAt(img.compartmentIndexOf("lwip"),
                           img.compartmentIndexOf("libredis"))
                  .denied,
              0u);
    EXPECT_GT(dep.machine().counter("gate.denied"), 0u);
}

/** One ledger column summed over every boundary. */
std::uint64_t
ledgerSum(const Image &img, std::uint64_t Image::BoundaryCounts::*field)
{
    std::uint64_t sum = 0;
    for (const Image::BoundaryCounts &cell : img.ledger())
        sum += cell.*field;
    return sum;
}

TEST(Adversary, LedgerCellsSumToGateTotalsAfterEveryAttackClass)
{
    // Conservation: each denied, throttled or entry-rejected call is
    // counted once in its machine total and once in its boundary's
    // ledger cell, whichever attack raised it.
    for (const char *text : {hardenedCfg, eptTargetCfg}) {
        DeployOptions opts = quietOpts();
        opts.withNet = true;
        Deployment dep(text, opts);
        dep.start();
        adversary::AttackOptions aopts = netAttacker();
        aopts.withNet = true;
        adversary::AttackScorecard card =
            adversary::runScorecard(dep, aopts);
        dep.stop();
        ASSERT_FALSE(card.results.empty());
        const Machine &m = dep.machine();
        const Image &img = dep.image();
        EXPECT_GT(m.counter("gate.denied"), 0u);
        EXPECT_GT(m.counter("gate.validate.reject"), 0u);
        EXPECT_EQ(ledgerSum(img, &Image::BoundaryCounts::denied),
                  m.counter("gate.denied"));
        EXPECT_EQ(ledgerSum(img, &Image::BoundaryCounts::throttled),
                  m.counter("gate.throttled"));
        EXPECT_EQ(ledgerSum(img, &Image::BoundaryCounts::rejected),
                  m.counter("gate.validate.reject"));
    }
}

TEST(Adversary, LooseConfigBreachesAtLeastTwoClasses)
{
    Deployment dep(looseCfg, quietOpts());
    adversary::AttackScorecard card =
        adversary::runScorecard(dep, netAttacker());
    EXPECT_FALSE(card.fullContainment()) << card.summary();
    std::set<adversary::AttackClass> breachedClasses;
    for (const adversary::AttackResult &r : card.results)
        if (r.outcome == adversary::Outcome::Breached)
            breachedClasses.insert(r.cls);
    EXPECT_GE(breachedClasses.size(), 2u) << card.summary();
    EXPECT_GE(card.score(), 20);
    // The unscrubbed light gate leaks register contents, and the
    // shared stack gives the planted secret away — both carry the
    // compartment's full ASLR budget with them.
    EXPECT_GT(card.bitsLeaked(), 0u);
    EXPECT_GT(card.entropyDefeated(), 0u);
}

TEST(Adversary, InfoLeakAccountsEntropyAgainstLayoutSlide)
{
    Deployment dep(looseCfg, quietOpts());
    adversary::AttackScorecard card = adversary::runAttackClass(
        dep, adversary::AttackClass::InfoLeak, netAttacker());
    bool sawStackScan = false;
    for (const adversary::AttackResult &r : card.results) {
        if (r.scenario != "stack-scan:sys")
            continue;
        sawStackScan = true;
        EXPECT_EQ(r.outcome, adversary::Outcome::Breached);
        EXPECT_GE(r.bitsLeaked, 64u);
        // intel-mpk compartments randomize within one address space:
        // 12 bits of section-slide entropy, all defeated by one leak.
        EXPECT_EQ(r.entropyDefeated,
                  layoutEntropyBits(Mechanism::IntelMpk));
    }
    EXPECT_TRUE(sawStackScan);
}

TEST(Adversary, ForgedDoorbellRejectedByEptServer)
{
    Deployment dep(eptTargetCfg, quietOpts());
    adversary::AttackScorecard card = adversary::runAttackClass(
        dep, adversary::AttackClass::ForgedDoorbell, netAttacker());
    ASSERT_FALSE(card.results.empty());
    EXPECT_EQ(card.breached(), 0u) << card.summary();
    bool sawGadget = false, sawSpurious = false;
    for (const adversary::AttackResult &r : card.results) {
        if (r.scenario == "doorbell-gadget:sys") {
            sawGadget = true;
            EXPECT_EQ(r.outcome, adversary::Outcome::Contained);
            EXPECT_EQ(r.witness, "gate.ept.forgedRejected");
        }
        if (r.scenario == "doorbell-spurious:sys") {
            sawSpurious = true;
            EXPECT_EQ(r.outcome, adversary::Outcome::Contained);
            EXPECT_EQ(r.witness, "gate.ept.spuriousDoorbells");
        }
    }
    EXPECT_TRUE(sawGadget);
    EXPECT_TRUE(sawSpurious);
    EXPECT_GT(dep.machine().counter("gate.ept.forgedRejected"), 0u);
    EXPECT_GT(dep.machine().counter("gate.ept.spuriousDoorbells"), 0u);
}

TEST(Adversary, ScratchRegistersBankPerCoreAndScrub)
{
    Machine m(TimingModel{}, 2);
    m.scratch[0] = 0x1111;
    m.scratch[7] = 0x7777;
    m.setActiveCore(1);
    // Core 1 sees its own (clean) bank, not core 0's values.
    EXPECT_EQ(m.scratch[0], 0u);
    m.scratch[0] = 0x2222;
    m.setActiveCore(0);
    EXPECT_EQ(m.scratch[0], 0x1111u);
    EXPECT_EQ(m.scratch[7], 0x7777u);
    m.scrubScratch();
    EXPECT_EQ(m.scratch[0], 0u);
    EXPECT_EQ(m.scratch[7], 0u);
    m.setActiveCore(1);
    EXPECT_EQ(m.scratch[0], 0x2222u);
}

TEST(Adversary, DssGateScrubsScratchAcrossCrossingLightDoesNot)
{
    // The mechanism-level polarity behind the reg-probe scenario: a
    // DSS crossing scrubs the scratch file on entry and return, the
    // ERIM-style light gate touches nothing.
    const char *cfg = R"(
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
- sys -> app: {deny: true}
)";
    const char *lightCfg = R"(
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
- sys -> app: {deny: true}
- app -> sys: {gate: light, scrub: false}
)";
    for (bool light : {false, true}) {
        Deployment dep(light ? lightCfg : cfg, quietOpts());
        Image &img = dep.image();
        Machine &m = dep.machine();
        std::uint64_t seen = ~0ull;
        bool done = false;
        img.spawnIn("libredis", "driver", [&] {
            img.gate(img.site("uksched", "yield"),
                     [&] { m.scratch[3] = 0xfeedbeef; });
            seen = m.scratch[3];
            done = true;
        });
        dep.scheduler().runUntil([&] { return done; });
        ASSERT_TRUE(done);
        if (light)
            EXPECT_EQ(seen, 0xfeedbeefull); // leaks across the return
        else
            EXPECT_EQ(seen, 0u); // return-side scrub wiped it
    }
}

TEST(Adversary, ControllerTraceRecordsDecisions)
{
    const char *cfg = R"(
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
    Deployment dep(cfg, quietOpts());
    Image &img = dep.image();
    ControllerConfig ccfg;
    ccfg.stormThreshold = 10;
    ccfg.denyAlert = 1;
    PolicyController ctl(img, ccfg);

    // Storm the adaptive edge past the threshold, and probe the
    // denied edge once: one epoch must record both a tighten and a
    // deny-harden decision (plus the swap that applied them).
    bool done = false;
    img.spawnIn("uktime", "storm", [&] {
        for (int i = 0; i < 30; ++i)
            img.gate(img.site("uksched", "yield"), [] {});
        try {
            img.gate(img.site("libredis", "redis_main"), [] {});
        } catch (const DeniedCrossing &) {
        }
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_TRUE(ctl.step());

    std::set<std::string> rules;
    for (const PolicyController::TraceEntry &e : ctl.trace()) {
        rules.insert(e.rule);
        EXPECT_EQ(e.epoch, 1u);
    }
    EXPECT_TRUE(rules.count("tighten"));
    EXPECT_TRUE(rules.count("deny-harden"));
    EXPECT_TRUE(rules.count("swap"));
    EXPECT_EQ(dep.machine().counter("controller.trace"),
              ctl.trace().size());
    EXPECT_LE(ctl.trace().size(), PolicyController::traceCapacity);

    bool sawEdge = false;
    for (const PolicyController::TraceEntry &e : ctl.trace())
        if (e.rule == "tighten" && e.edge == "att->sys" && e.level == 1)
            sawEdge = true;
    EXPECT_TRUE(sawEdge);
}

TEST(Adversary, PropertyForgedCrossingsNeverExecuteOnDenyComplete)
{
    // Property: on a deny-complete matrix, NO forged crossing — any
    // (from, to) pair, legal entry point or gadget, any gate flavour —
    // may reach callee code. 200 seeded-random tuples.
    Deployment dep(denyCompleteCfg, quietOpts());
    Image &img = dep.image();
    Machine &m = dep.machine();

    const char *libs[3] = {"libredis", "vfscore", "uktime"};
    Rng rng(0xf00dULL);
    std::uint64_t deniedBefore = m.counter("gate.denied");
    int executed = 0;
    int denied = 0;
    for (int i = 0; i < 200; ++i) {
        int from = static_cast<int>(rng.below(3));
        int to = static_cast<int>(rng.below(2));
        if (to >= from)
            ++to; // uniform over the 6 directed pairs
        const std::string callee = libs[to];
        // Half the probes aim at a legal entry point (deny must stop
        // them anyway), half at a fabricated gadget symbol.
        std::string fn;
        if (rng.below(2) == 0)
            fn = *img.registry().get(callee).entryPoints.begin();
        else
            fn = "gadget_" + std::to_string(rng.next() & 0xffff);
        bool done = false;
        img.spawnIn(libs[from], "forge-" + std::to_string(i), [&] {
            try {
                img.gate(img.site(callee, fn), [&] { ++executed; });
            } catch (const DeniedCrossing &) {
                ++denied;
            }
            done = true;
        });
        dep.scheduler().runUntil([&] { return done; });
        ASSERT_TRUE(done) << "tuple " << i << " wedged";
    }
    EXPECT_EQ(executed, 0);
    EXPECT_EQ(denied, 200);
    EXPECT_EQ(m.counter("gate.denied") - deniedBefore, 200u);
}

TEST(Adversary, ResourceAttacksContainedByNetstackBounds)
{
    DeployOptions opts;
    opts.withNet = true;
    opts.withFs = false;
    Deployment dep(hardenedCfg, opts);
    dep.start();
    adversary::AttackOptions aopts = netAttacker();
    aopts.withNet = true;
    adversary::AttackScorecard card = adversary::runAttackClass(
        dep, adversary::AttackClass::Resource, aopts);
    dep.stop();
    ASSERT_FALSE(card.results.empty());
    EXPECT_EQ(card.breached(), 0u) << card.summary();
    bool sawFlood = false;
    for (const adversary::AttackResult &r : card.results)
        if (r.scenario == "syn-flood") {
            sawFlood = true;
            EXPECT_NE(r.outcome, adversary::Outcome::Breached);
        }
    EXPECT_TRUE(sawFlood);
}

TEST(Adversary, ScorecardNamesRoundTrip)
{
    for (adversary::AttackClass c : adversary::allAttackClasses()) {
        adversary::AttackClass back;
        ASSERT_TRUE(
            adversary::parseAttackClass(adversary::attackClassName(c),
                                        back));
        EXPECT_EQ(back, c);
    }
    adversary::AttackClass out;
    EXPECT_FALSE(adversary::parseAttackClass("bogus", out));
}

/** All-EPT image whose TCB allocator is homed in a third compartment
 *  next to an untrusted parser. EPT replicates the TCB, so lwip's
 *  ukalloc calls run locally in net: no static call lands in x. */
const char *replicatedTcbCfg = R"(
compartments:
- app:
    mechanism: vm-ept
    default: True
- net:
    mechanism: vm-ept
- x:
    mechanism: vm-ept
libraries:
- libredis: app
- newlib: app
- uksched: app
- uktime: app
- lwip: net
- ukalloc: x
- libopenjpg: x
)";

TEST(Adversary, RopCrossFollowsWhereStaticCallsLand)
{
    // The ROP pivot into x forges a crossing the static call graph
    // never makes: open boundaries let it reach libopenjpg, a deny
    // rule on net -> x stops it.
    auto ropCross = [](const std::string &text) {
        Deployment dep(text, quietOpts());
        adversary::AttackScorecard card = adversary::runAttackClass(
            dep, adversary::AttackClass::IllegalCrossing, netAttacker());
        for (const adversary::AttackResult &r : card.results)
            if (r.scenario == "rop-cross:net->x")
                return std::string(adversary::outcomeName(r.outcome));
        return std::string("absent");
    };
    EXPECT_EQ(ropCross(replicatedTcbCfg), "breached");
    EXPECT_EQ(ropCross(std::string(replicatedTcbCfg) +
                       "boundaries:\n- net -> x: {deny: true}\n"),
              "contained");
}

} // namespace
} // namespace flexos
