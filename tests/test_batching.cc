/**
 * @file
 * Vectored-crossing tests: `batch:` / `coalesce:` / `elide:` knob
 * parse + toText round-trip and wildcard layering, the batch: 1
 * vcycle-identity regression, exact chunk arithmetic (one gate plus
 * per-slot dispatch), per-logical-call throttle debiting, elision
 * streaks resetting on interleaved boundaries, a `batch:` RX boundary
 * leaving a deployment's traffic untouched, and the monotone
 * product-space pruner against brute force.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "apps/deploy.hh"
#include "apps/iperf.hh"
#include "core/image.hh"
#include "core/toolchain.hh"
#include "explore/poset.hh"
#include "explore/wayfinder.hh"

namespace flexos {
namespace {

struct BatchingFixture : ::testing::Test
{
    BatchingFixture()
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

// --------------------------------------------------- config surface

TEST_F(BatchingFixture, BatchKnobsParseAndRoundTripThroughToText)
{
    const char *text = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: vm-ept
libraries:
- libredis: app
- lwip: net
boundaries:
- app -> net: {batch: 8, coalesce: 2000}
- net -> app: {elide: scrub}
)";
    SafetyConfig cfg = SafetyConfig::parse(text);
    ASSERT_EQ(cfg.boundaries.size(), 2u);
    EXPECT_EQ(cfg.boundaries[0].batch, 8u);
    EXPECT_EQ(cfg.boundaries[0].coalesce, 2000u);
    EXPECT_FALSE(cfg.boundaries[0].elide.has_value());
    EXPECT_EQ(cfg.boundaries[1].elide, GateElide::Scrub);

    SafetyConfig again = SafetyConfig::parse(cfg.toText());
    EXPECT_EQ(again.boundaries, cfg.boundaries);
    GateMatrix m = GateMatrix::build(again);
    EXPECT_EQ(m.at(0, 1).batch, 8u);
    EXPECT_EQ(m.at(0, 1).coalesce, 2000u);
    EXPECT_EQ(m.at(1, 0).elide, GateElide::Scrub);
    // Untouched cells keep the full-strength defaults.
    EXPECT_EQ(m.at(1, 0).batch, 1u);
    EXPECT_EQ(m.at(0, 1).elide, GateElide::None);
    // The policy name carries the tuning for ledgers and docs.
    EXPECT_NE(m.at(0, 1).name().find("batch(8)"), std::string::npos);
    EXPECT_NE(m.at(0, 1).name().find("coalesce(2000)"),
              std::string::npos);
    EXPECT_NE(m.at(1, 0).name().find("elide=scrub"), std::string::npos);
}

TEST_F(BatchingFixture, BatchKnobsLayerBySpecificity)
{
    // Wildcard batch applies image-wide; a callee-side rule overrides
    // the caller-side one; the exact pair wins without disturbing
    // fields it does not set.
    SafetyConfig cfg = SafetyConfig::parse(R"(
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
boundaries:
- '*' -> '*': {batch: 4}
- '*' -> b: {batch: 8, elide: validate}
- a -> b: {elide: both}
- a -> '*': {coalesce: 500}
)");
    GateMatrix m = GateMatrix::build(cfg);
    // a -> c: global batch, caller-side coalesce.
    EXPECT_EQ(m.at(0, 2).batch, 4u);
    EXPECT_EQ(m.at(0, 2).coalesce, 500u);
    EXPECT_EQ(m.at(0, 2).elide, GateElide::None);
    // a -> b: callee-side batch beats global; exact elide beats the
    // callee-side one; caller-side coalesce still layers in.
    EXPECT_EQ(m.at(0, 1).batch, 8u);
    EXPECT_EQ(m.at(0, 1).elide, GateElide::Both);
    EXPECT_EQ(m.at(0, 1).coalesce, 500u);
    // c -> b: callee-side only.
    EXPECT_EQ(m.at(2, 1).batch, 8u);
    EXPECT_EQ(m.at(2, 1).elide, GateElide::Validate);

    // Knob validation: batch: 0 is not a width, a denied edge has no
    // gate to tune, and equal-specificity disagreement is ambiguous.
    // lint-skip: intentionally invalid fragments below.
    auto parse = [](const std::string &rules) {
        return SafetyConfig::parse(std::string(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
libraries:
- libredis: a
boundaries:
)") + rules);
    };
    EXPECT_THROW(parse("- a -> b: {batch: 0}\n"), FatalError);
    EXPECT_THROW(parse("- a -> b: {deny: true, batch: 8}\n"),
                 FatalError);
    EXPECT_THROW(parse("- a -> b: {deny: true, elide: both}\n"),
                 FatalError);
    EXPECT_THROW(GateMatrix::build(parse("- a -> b: {batch: 4}\n"
                                         "- a -> b: {batch: 8}\n")),
                 FatalError);
}

// --------------------------------------------- vcycle identity + cost

const char *twoCompMpk = R"(
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

/**
 * Wall cycles and counters after driving `calls` crossings a -> b
 * through gateBatch in chunks of `perCall` bodies, on a fresh
 * machine built from `text`.
 */
std::pair<Cycles, std::map<std::string, std::uint64_t>>
runBatched(LibraryRegistry &reg, const std::string &text,
           std::size_t calls, std::size_t perCall)
{
    Machine m;
    Scheduler sched(m);
    Toolchain tc(reg);
    SafetyConfig cfg = SafetyConfig::parse(text);
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    auto img = tc.build(m, sched, cfg);
    std::vector<std::function<void()>> bodies(perCall, [] {});
    img->spawnIn("libredis", "t", [&] {
        for (std::size_t i = 0; i < calls; i += perCall)
            img->gateBatch("lwip", "recv", bodies);
    });
    sched.run();
    img->shutdown();
    return {m.wallCycles(), m.counters()};
}

/** A config with every `intel-mpk` compartment moved to `mech`. */
std::string
onMechanism(std::string text, const std::string &mech)
{
    const std::string mpk = "intel-mpk";
    for (auto at = text.find(mpk); at != std::string::npos;
         at = text.find(mpk, at + mech.size()))
        text.replace(at, mpk.size(), mech);
    return text;
}

TEST_F(BatchingFixture, BatchOneIsVcycleIdenticalToSequentialGates)
{
    // The regression pin: `batch: 1` (and an unconfigured boundary
    // driven through the vectored API) must be bit-identical in
    // virtual time AND counters to the plain sequential gate, on every
    // mechanism's crossing.
    // Each mechanism's gate counter also counts one per crossing, as
    // the image's ledger does.
    const std::pair<const char *, const char *> mechs[] = {
        {"none", "gate.none"},
        {"intel-mpk", "gate.mpk.dss"},
        {"vm-ept", "gate.ept"},
        {"cheri", "gate.cheri"},
        {"linux-pt", "gate.syscall"},
        {"sel4-ipc", "gate.sel4ipc"},
        {"cubicle-mpk", "gate.cubicle"},
    };
    for (const auto &[mech, gateCounter] : mechs) {
        SCOPED_TRACE(mech);
        const std::string text = onMechanism(twoCompMpk, mech);
        Machine m;
        std::uint64_t ledgerCrossings = 0;
        {
            Scheduler sched(m);
            Toolchain tc2(reg);
            SafetyConfig cfg = SafetyConfig::parse(text);
            cfg.heapBytes = 1 << 20;
            cfg.sharedHeapBytes = 1 << 20;
            auto img = tc2.build(m, sched, cfg);
            img->spawnIn("libredis", "t", [&] {
                for (int i = 0; i < 64; ++i)
                    img->gate("lwip", "recv", [] {});
            });
            sched.run();
            img->shutdown();
            for (const Image::BoundaryCounts &cell : img->ledger())
                ledgerCrossings += cell.crossings;
        }
        auto [plainCycles, plainCounters] =
            std::make_pair(m.wallCycles(), m.counters());
        EXPECT_EQ(ledgerCrossings, 64u);
        EXPECT_EQ(ledgerCrossings, m.counter(gateCounter));

        auto [defCycles, defCounters] = runBatched(reg, text, 64, 1);
        auto [oneCycles, oneCounters] = runBatched(
            reg, text + "boundaries:\n- a -> b: {batch: 1}\n", 64, 1);
        EXPECT_EQ(defCycles, plainCycles);
        EXPECT_EQ(defCounters, plainCounters);
        EXPECT_EQ(oneCycles, plainCycles);
        EXPECT_EQ(oneCounters, plainCounters);
        // No vectored-path artifacts exist at width 1.
        EXPECT_EQ(plainCounters.count("gate.batched"), 0u);
        EXPECT_EQ(plainCounters.count("gate.coalesced"), 0u);
    }
}

TEST_F(BatchingFixture, BatchedChunkCostsOneGatePlusSlotDispatch)
{
    // A full chunk of k calls costs exactly one gate round trip plus
    // (k - 1) per-slot dispatches — the arithmetic behind fig11b's
    // (462 + 7 x 6) / 8 = 63 EPT step-change, here on the MPK DSS
    // boundary where nothing blocks.
    auto img = buildFrom(std::string(twoCompMpk) +
                         "boundaries:\n- a -> b: {batch: 8}\n");
    std::vector<std::function<void()>> one(1, [] {});
    std::vector<std::function<void()>> eight(8, [] {});
    Cycles gateCost = 0, chunkCost = 0;
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gateBatch("lwip", "recv", one); // warm the sim stack
        Cycles t0 = mach.cycles();
        img->gateBatch("lwip", "recv", one);
        gateCost = mach.cycles() - t0;
        t0 = mach.cycles();
        img->gateBatch("lwip", "recv", eight);
        chunkCost = mach.cycles() - t0;
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(gateCost, static_cast<Cycles>(mach.timing.mpkDssGate));
    EXPECT_EQ(chunkCost, gateCost + 7 * mach.timing.batchSlot);
    EXPECT_EQ(mach.counter("gate.batched"), 1u);
    EXPECT_EQ(mach.counter("gate.batchedCalls"), 8u);
    img->shutdown();
}

// ------------------------------------------- throttle per logical call

TEST_F(BatchingFixture, ThrottleDebitsPerLogicalCallNotPerDoorbell)
{
    // rate: 4 with batch: 8 — a vectored chunk of four debits all four
    // tokens even though it rings one doorbell, so the next logical
    // call overflows. Batching must not launder rate limits.
    auto img = buildFrom(std::string(twoCompMpk) + R"(boundaries:
- a -> b: {batch: 8, rate: 4, window: 10000000, overflow: fail}
)");
    int executed = 0;
    bool throttled = false;
    bool done = false;
    std::vector<std::function<void()>> four(4, [&] { ++executed; });
    img->spawnIn("libredis", "t", [&] {
        img->gateBatch("lwip", "recv", four);
        try {
            img->gateBatch("lwip", "recv", four);
        } catch (const ThrottledCrossing &) {
            throttled = true;
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    // First chunk: one crossing, four token debits, four bodies run.
    // Second chunk: rejected at enforcement, before any body runs.
    EXPECT_EQ(executed, 4);
    EXPECT_TRUE(throttled);
    EXPECT_EQ(mach.counter("gate.batched"), 1u);
    EXPECT_EQ(mach.counter("gate.batchedCalls"), 4u);
    EXPECT_EQ(mach.counter("gate.throttled"), 1u);
    img->shutdown();
}

// --------------------------------------------------- elision streaks

TEST_F(BatchingFixture, ElisionStreakResetsOnInterleavedBoundary)
{
    // elide: both sheds the validate + scrub legs only on consecutive
    // same-boundary calls; an intervening a -> c crossing breaks the
    // streak so the next a -> b call pays both legs in full.
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
- lwip: b
- uksched: c
boundaries:
- a -> b: {validate: true, elide: both}
)");
    Cycles elidedCost = 0, resetCost = 0;
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [] {}); // streak opener, full price
        Cycles t0 = mach.cycles();
        img->gate("lwip", "recv", [] {}); // streak: both legs elided
        elidedCost = mach.cycles() - t0;
        img->gate("uksched", "yield", [] {}); // breaks the streak
        t0 = mach.cycles();
        img->gate("lwip", "recv", [] {}); // full price again
        resetCost = mach.cycles() - t0;
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    // Exactly one elision of each leg happened, and the post-reset
    // crossing is dearer by precisely those two charges.
    EXPECT_EQ(mach.counter("gate.elided.validate"), 1u);
    EXPECT_EQ(mach.counter("gate.elided.scrub"), 1u);
    EXPECT_EQ(mach.counter("gate.validate"), 2u);
    EXPECT_EQ(resetCost, elidedCost + mach.timing.entryValidate +
                             mach.timing.registerSaveZero);
    img->shutdown();
}

// ------------------------------------- batched RX drain end to end

TEST(BatchedRxDrain, DeploymentDeliversAllBytesInOrder)
{
    // lwip in its own compartment with a `batch:` width on the app ->
    // net boundary. The RX poller runs inside lwip, so received frames
    // never cross that boundary, and the app's socket calls use the
    // plain gate: the width must change nothing. TCP is the ordering
    // oracle — reordered or dropped frames could not yield the exact
    // byte count across four flows.
    const std::string batched = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: intel-mpk
libraries:
- libiperf: app
- newlib: app
- uksched: app
- lwip: net
boundaries:
- app -> net: {batch: 8}
)";
    auto run = [](const std::string &text) {
        DeployOptions opts;
        opts.withFs = false;
        Deployment dep(SafetyConfig::parse(text), opts);
        dep.start();
        IperfResult res = runIperfMulti(dep.image(), dep.libc(),
                                        dep.clientStack(), 32 * 1024,
                                        4096, /*flows=*/4);
        dep.stop();
        EXPECT_EQ(res.bytes, 4u * 32 * 1024);
        Machine &m = dep.machine();
        return std::make_pair(m.wallCycles(), m.counters());
    };
    auto [plainCycles, plainCounters] =
        run(batched.substr(0, batched.find("boundaries:")));
    auto [batchCycles, batchCounters] = run(batched);
    EXPECT_EQ(batchCycles, plainCycles);
    EXPECT_EQ(batchCounters, plainCounters);
    EXPECT_EQ(batchCounters.count("gate.batched"), 0u);
}

// ------------------------------------------------ poset + pruning

TEST(BatchingPoset, ElisionOrdersPointsBatchWidthDoesNot)
{
    ConfigPoint base;
    base.partition = {0, 0, 0, 1};
    base.hardening.assign(4, 0);

    ConfigPoint elided = base;
    elided.elided = 3; // validate + scrub
    EXPECT_EQ(compareSafety(elided, base), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(base, elided), SafetyOrder::Greater);

    ConfigPoint scrubOnly = base;
    scrubOnly.elided = 2;
    EXPECT_EQ(compareSafety(scrubOnly, elided), SafetyOrder::Greater);
    ConfigPoint validateOnly = base;
    validateOnly.elided = 1;
    EXPECT_EQ(compareSafety(validateOnly, scrubOnly),
              SafetyOrder::Incomparable);

    // Batch width is performance-only, exactly like cores.
    ConfigPoint batched = base;
    batched.gateBatch = 8;
    EXPECT_EQ(compareSafety(batched, base), SafetyOrder::Equal);

    // And the sweep space materializes valid configs end to end.
    for (const ConfigPoint &p : wayfinder::batchingSpace()) {
        SafetyConfig c = wayfinder::toSafetyConfig(p, "libredis");
        if (p.gateBatch > 1 || p.elided != 0) {
            ASSERT_FALSE(c.boundaries.empty());
            EXPECT_EQ(c.boundaries.back().from, "*");
        }
        // Round-trips through text like any hand-written config.
        SafetyConfig again = SafetyConfig::parse(c.toText());
        EXPECT_EQ(again.boundaries, c.boundaries);
    }
}

TEST(PrunedProduct, MatchesBruteForceAndSkipsDominatedFailures)
{
    // Two safety axes (chains of 3 and 2) and one perf-only axis of 2:
    // perf decreases monotonically in the safety axes and is flat in
    // the perf axis. Budget 6.5 rejects x=2 vectors; the pruner must
    // accept exactly the brute-force set and never evaluate a vector
    // dominating a failed one — but a failure must NOT prune across
    // the perf-only axis.
    std::vector<wayfinder::ProductDimension> dims = {
        {"x", 3, [](std::size_t a, std::size_t b) { return a <= b; }},
        {"y", 2, [](std::size_t a, std::size_t b) { return a <= b; }},
        {"perf", 2,
         [](std::size_t a, std::size_t b) { return a == b; }},
    };
    auto perf = [](const std::vector<std::size_t> &v) {
        return 10.0 - 2.0 * static_cast<double>(v[0]) -
               static_cast<double>(v[1]);
    };
    std::set<std::vector<std::size_t>> evaluated, accepted;
    std::size_t evals = wayfinder::explorePrunedProduct(
        dims,
        [&](const std::vector<std::size_t> &v) {
            evaluated.insert(v);
            return perf(v);
        },
        6.5,
        [&](const std::vector<std::size_t> &v, double p) {
            EXPECT_EQ(p, perf(v));
            accepted.insert(v);
        });

    // Brute force: accepted iff 10 - 2x - y >= 6.5.
    std::set<std::vector<std::size_t>> expect;
    for (std::size_t x = 0; x < 3; ++x)
        for (std::size_t y = 0; y < 2; ++y)
            for (std::size_t p = 0; p < 2; ++p)
                if (perf({x, y, p}) >= 6.5)
                    expect.insert({x, y, p});
    EXPECT_EQ(accepted, expect);
    EXPECT_EQ(evals, evaluated.size());

    // The first x=2 vector of each perf slice fails (perf 6 < 6.5)
    // and prunes the (2,1,p) vector of the SAME perf index; vectors
    // in the other perf slice are incomparable under the equality
    // order and must still be evaluated in their own right.
    EXPECT_TRUE(evaluated.count({2, 0, 0}));
    EXPECT_TRUE(evaluated.count({2, 0, 1}));
    EXPECT_FALSE(evaluated.count({2, 1, 0}));
    EXPECT_FALSE(evaluated.count({2, 1, 1}));
    EXPECT_LT(evals, 12u);
}

TEST(PrunedProduct, ListingAgainstTheAxisOrderPanics)
{
    // A chain listed safest first breaks the linear-extension contract
    // ascending index-sum enumeration relies on: reject it up front.
    std::vector<wayfinder::ProductDimension> dims = {
        {"reversed", 3,
         [](std::size_t a, std::size_t b) { return a >= b; }},
    };
    std::size_t evals = 0;
    EXPECT_THROW(wayfinder::explorePrunedProduct(
                     dims,
                     [&](const std::vector<std::size_t> &) {
                         ++evals;
                         return 1.0;
                     },
                     0.0),
                 PanicError);
    EXPECT_EQ(evals, 0u);
}

} // namespace
} // namespace flexos
