/**
 * @file
 * Gate-policy matrix tests: `boundaries:` parse/toText round-trip,
 * wildcard precedence, validation of rules naming unknown
 * compartments, per-(from, to) policy counters under a mixed
 * light/dss image, asymmetric return policies, the per-compartment
 * EPT server pool (`servers:` + elastic growth + ringDepth), key
 * virtualization (EPT compartments unmapped instead of key-tagged),
 * the least-privilege rules (`deny`, `rate`/`window`/`overflow`
 * token buckets, per-boundary `stack_sharing`), equal-specificity
 * conflict errors, and seeded rule lists vs. a reference resolver.
 */

#include <gtest/gtest.h>

#include "apps/deploy.hh"
#include "base/rng.hh"
#include "core/dss.hh"
#include "core/image.hh"
#include "core/toolchain.hh"

namespace flexos {
namespace {

struct GatePolicyFixture : ::testing::Test
{
    GatePolicyFixture()
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

TEST_F(GatePolicyFixture, BoundariesParseAndRoundTripThroughToText)
{
    const char *text = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- net:
    mechanism: vm-ept
    servers: 5
libraries:
- libredis: app
- uksched: sys
- lwip: net
boundaries:
- app -> sys: {gate: light}
- '*' -> net: {gate: dss, validate: true}
- net -> '*': {scrub: false}
)";
    SafetyConfig cfg = SafetyConfig::parse(text);
    ASSERT_EQ(cfg.boundaries.size(), 3u);
    EXPECT_EQ(cfg.boundaries[0].from, "app");
    EXPECT_EQ(cfg.boundaries[0].to, "sys");
    EXPECT_EQ(cfg.boundaries[0].flavor, MpkGateFlavor::Light);
    EXPECT_FALSE(cfg.boundaries[0].validate.has_value());
    EXPECT_EQ(cfg.boundaries[1].from, "*");
    EXPECT_EQ(cfg.boundaries[1].validate, true);
    EXPECT_EQ(cfg.boundaries[2].scrub, false);
    EXPECT_EQ(cfg.compartment("net").servers, 5);

    // toText() serializes the section back; reparsing reproduces the
    // exact rules and the same resolved matrix.
    SafetyConfig again = SafetyConfig::parse(cfg.toText());
    EXPECT_EQ(again.boundaries, cfg.boundaries);
    EXPECT_EQ(again.compartment("net").servers, 5);
    GateMatrix m1 = GateMatrix::build(cfg);
    GateMatrix m2 = GateMatrix::build(again);
    for (int f = 0; f < 3; ++f)
        for (int t = 0; t < 3; ++t)
            EXPECT_EQ(m1.at(f, t), m2.at(f, t));
}

TEST_F(GatePolicyFixture, WildcardPrecedenceLayersBySpecificity)
{
    // Callee-side wildcards override caller-side ones (the historical
    // callee-decides rule), exact pairs override both, and unset
    // fields fall through to the less specific layer.
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
- '*' -> '*': {validate: true}
- a -> '*': {gate: light}
- '*' -> b: {gate: dss}
- a -> b: {scrub: false}
)");
    GateMatrix m = GateMatrix::build(cfg);

    // a -> c: caller-side wildcard flavour, global validate.
    EXPECT_EQ(m.at(0, 2).flavor, MpkGateFlavor::Light);
    EXPECT_TRUE(m.at(0, 2).validateEntry);
    EXPECT_TRUE(m.at(0, 2).scrubReturn);
    // a -> b: callee-side dss beats caller-side light; the exact rule
    // adds scrub: false without disturbing either.
    EXPECT_EQ(m.at(0, 1).flavor, MpkGateFlavor::Dss);
    EXPECT_TRUE(m.at(0, 1).validateEntry);
    EXPECT_FALSE(m.at(0, 1).scrubReturn);
    // c -> b: callee-side rule only.
    EXPECT_EQ(m.at(2, 1).flavor, MpkGateFlavor::Dss);
    // c -> a: untouched by flavour rules -> default dss.
    EXPECT_EQ(m.at(2, 0).flavor, MpkGateFlavor::Dss);
    EXPECT_TRUE(m.at(2, 0).validateEntry);
    // Policy names carry the overrides.
    EXPECT_EQ(m.at(0, 1).name(),
              std::string("intel-mpk(dss)+validate-scrub"));
}

TEST_F(GatePolicyFixture, LegacyMpkGateKnobDesugarsToWildcardRule)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- c1:
    mechanism: intel-mpk
    default: True
- c2:
    mechanism: intel-mpk
libraries:
- libredis: c1
- lwip: c2
mpk_gate: light
)");
    ASSERT_EQ(cfg.boundaries.size(), 1u);
    EXPECT_EQ(cfg.boundaries[0].from, "*");
    EXPECT_EQ(cfg.boundaries[0].to, "*");
    EXPECT_EQ(cfg.boundaries[0].flavor, MpkGateFlavor::Light);
    GateMatrix m = GateMatrix::build(cfg);
    EXPECT_EQ(m.at(0, 1).flavor, MpkGateFlavor::Light);
    EXPECT_EQ(m.at(1, 0).flavor, MpkGateFlavor::Light);
}

TEST_F(GatePolicyFixture, ValidateRejectsBoundariesNamingUnknowns)
{
    // lint-skip: intentionally invalid configuration.
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
libraries:
- libredis: a
boundaries:
- a -> ghost: {gate: light}
)");
    EXPECT_THROW(tc.validate(cfg), FatalError);

    // lint-skip: servers on a non-EPT compartment is a user error.
    SafetyConfig cfg2 = SafetyConfig::parse(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
    servers: 4
libraries:
- libredis: a
)");
    EXPECT_THROW(tc.validate(cfg2), FatalError);

    EXPECT_THROW(SafetyConfig::parse(R"(
# lint-skip: intentionally invalid (unknown flavour name)
compartments:
- a:
    mechanism: intel-mpk
    default: True
libraries:
- libredis: a
boundaries:
- a -> a: {gate: sideways}
)"),
                 FatalError);
}

// -------------------------------------- least-privilege rule surface

TEST_F(GatePolicyFixture, NewKeysParseAndRoundTripThroughToText)
{
    const char *text = R"(
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
- b -> a: {deny: true}
- a -> b: {rate: 100, window: 50000, overflow: fail}
- a -> c: {stack_sharing: shared-stack, rate: 7}
)";
    SafetyConfig cfg = SafetyConfig::parse(text);
    ASSERT_EQ(cfg.boundaries.size(), 3u);
    EXPECT_EQ(cfg.boundaries[0].deny, true);
    EXPECT_EQ(cfg.boundaries[1].rate, 100u);
    EXPECT_EQ(cfg.boundaries[1].window, 50000u);
    EXPECT_EQ(cfg.boundaries[1].overflow, RateOverflow::Fail);
    EXPECT_EQ(cfg.boundaries[2].stackSharing,
              StackSharing::SharedStack);
    EXPECT_EQ(cfg.boundaries[2].rate, 7u);

    SafetyConfig again = SafetyConfig::parse(cfg.toText());
    EXPECT_EQ(again.boundaries, cfg.boundaries);
    GateMatrix m = GateMatrix::build(again);
    EXPECT_TRUE(m.at(1, 0).deny);
    EXPECT_EQ(m.at(0, 1).rate, 100u);
    EXPECT_EQ(m.at(0, 1).rateWindow, 50000u);
    EXPECT_EQ(m.at(0, 1).overflow, RateOverflow::Fail);
    EXPECT_EQ(m.at(0, 2).stackSharing, StackSharing::SharedStack);
    // Untouched cells keep the defaults.
    EXPECT_FALSE(m.at(2, 0).deny);
    EXPECT_EQ(m.at(2, 0).rate, 0u);
    EXPECT_EQ(m.at(2, 0).stackSharing, StackSharing::Dss);
}

TEST_F(GatePolicyFixture, ToTextPreservesRedundantRulesAndStackSharing)
{
    // Regression: rules whose policy equals the resolved default must
    // still round-trip — dropping "redundant" explicit rules loses
    // author intent.
    const char *text = R"(
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
- a -> b: {gate: dss, validate: false, scrub: true, deny: false}
)";
    SafetyConfig cfg = SafetyConfig::parse(text);
    SafetyConfig again = SafetyConfig::parse(cfg.toText());
    EXPECT_EQ(again.boundaries, cfg.boundaries);
    ASSERT_EQ(again.boundaries.size(), 1u);
    EXPECT_EQ(again.boundaries[0].flavor, MpkGateFlavor::Dss);
    EXPECT_EQ(again.boundaries[0].validate, false);
    EXPECT_EQ(again.boundaries[0].scrub, true);
    EXPECT_EQ(again.boundaries[0].deny, false);

    // Regression: the image-wide stack_sharing used to vanish in
    // toText(), silently resetting reparsed configs to DSS. It now
    // desugars to a ('*','*') rule and survives the round trip.
    SafetyConfig heapCfg = SafetyConfig::parse(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
libraries:
- libredis: a
stack_sharing: heap
)");
    EXPECT_EQ(heapCfg.stackSharing, StackSharing::Heap);
    SafetyConfig heapAgain = SafetyConfig::parse(heapCfg.toText());
    EXPECT_EQ(GateMatrix::build(heapAgain).at(0, 0).stackSharing,
              StackSharing::Heap);

    // Programmatic assignment (no rule) survives too.
    SafetyConfig prog = SafetyConfig::parse(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
libraries:
- libredis: a
)");
    prog.stackSharing = StackSharing::SharedStack;
    SafetyConfig progAgain = SafetyConfig::parse(prog.toText());
    EXPECT_EQ(GateMatrix::build(progAgain).at(0, 0).stackSharing,
              StackSharing::SharedStack);
}

TEST_F(GatePolicyFixture, NewKeysLayerBySpecificity)
{
    // Wildcard layering with deny/rate/stack_sharing: a more specific
    // rule overrides a less specific one field by field, and
    // `deny: false` re-allows an edge a wildcard denied.
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
- '*' -> b: {deny: true}
- a -> b: {deny: false}
- a -> '*': {rate: 10}
- '*' -> c: {rate: 99, stack_sharing: heap}
- a -> c: {stack_sharing: shared-stack}
)");
    GateMatrix m = GateMatrix::build(cfg);
    // c -> b: wildcard deny holds; a -> b: exact rule re-allows.
    EXPECT_TRUE(m.at(2, 1).deny);
    EXPECT_FALSE(m.at(0, 1).deny);
    // a -> c: callee-side rate(99) beats caller-side rate(10); the
    // exact stack_sharing overrides the callee-side heap.
    EXPECT_EQ(m.at(0, 2).rate, 99u);
    EXPECT_EQ(m.at(0, 2).stackSharing, StackSharing::SharedStack);
    // b -> c: callee-side only.
    EXPECT_EQ(m.at(1, 2).rate, 99u);
    EXPECT_EQ(m.at(1, 2).stackSharing, StackSharing::Heap);
    // a -> b kept the caller-side rate from a -> '*'.
    EXPECT_EQ(m.at(0, 1).rate, 10u);
}

TEST_F(GatePolicyFixture, EqualSpecificityConflictsAreErrorsNotPrecedence)
{
    auto build = [](const std::string &rules) {
        // lint-skip: fragments completed below.
        return GateMatrix::build(SafetyConfig::parse(
            std::string(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
libraries:
- libredis: a
boundaries:
)") + rules));
    };

    // Same field, same layer, different values: ambiguous.
    EXPECT_THROW(build("- a -> b: {gate: light}\n"
                       "- a -> b: {gate: dss}\n"),
                 FatalError);
    // deny vs. rate at equal specificity: no precedence, an error.
    EXPECT_THROW(build("- a -> b: {deny: true}\n"
                       "- a -> b: {rate: 5}\n"),
                 FatalError);
    EXPECT_THROW(build("- a -> b: {rate: 5}\n"
                       "- a -> b: {deny: true}\n"),
                 FatalError);
    // Wildcards of the same shape conflict the same way.
    EXPECT_THROW(build("- '*' -> b: {stack_sharing: heap}\n"
                       "- '*' -> b: {stack_sharing: dss}\n"),
                 FatalError);
    // Agreement at equal specificity is fine (no false positives)...
    EXPECT_EQ(build("- a -> b: {rate: 5}\n"
                    "- a -> b: {rate: 5, window: 70}\n")
                  .at(0, 1)
                  .rate,
              5u);
    // ...and different layers never conflict.
    EXPECT_TRUE(build("- '*' -> b: {rate: 5}\n"
                      "- a -> b: {deny: true}\n")
                    .at(0, 1)
                    .deny);

    // deny: true admits no other key in the same rule.
    EXPECT_THROW(build("- a -> b: {deny: true, rate: 5}\n"),
                 FatalError);
    EXPECT_THROW(build("- a -> b: {deny: true, gate: light}\n"),
                 FatalError);
    // rate: 0 is not a rate (use deny).
    EXPECT_THROW(build("- a -> b: {rate: 0}\n"), FatalError);
}

TEST_F(GatePolicyFixture, DeniedStaticEdgeRejectedAtImageBuild)
{
    // libredis's static call graph needs lwip; denying app -> net
    // contradicts it and must fail at build, not at first crossing.
    // lint-skip: intentionally contradictory configuration.
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: intel-mpk
libraries:
- libredis: app
- lwip: net
boundaries:
- app -> net: {deny: true}
)");
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    EXPECT_THROW(tc.build(mach, sched, cfg), FatalError);
}

TEST_F(GatePolicyFixture, DynamicDeniedCrossingRaisesAndCounts)
{
    auto img = buildFrom(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- uktime: sys
boundaries:
- sys -> app: {deny: true}
)");
    bool denied = false, done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("uksched", "yield", [&] {
            // No static edge sys -> app exists; the dynamic attempt
            // is refused at the gate.
            try {
                img->gate("libredis", "redis_handle_conn", [] {});
            } catch (const DeniedCrossing &e) {
                EXPECT_EQ(e.from, "sys");
                EXPECT_EQ(e.to, "app");
                denied = true;
            }
        });
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_TRUE(denied);
    EXPECT_EQ(mach.counter("gate.denied"), 1u);
    // Denied edges never reach the crossing ledger or the backend.
    EXPECT_EQ(img->gateCrossings().count({1, 0}), 0u);
    EXPECT_EQ(img->policyFor(1, 0).name(), "denied");
    img->shutdown();
}

TEST_F(GatePolicyFixture, RateLimitStallsAndAccountsThrottledCycles)
{
    auto img = buildFrom(R"(
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
- app -> sys: {rate: 10, window: 1000000}
)");
    bool done = false;
    Cycles spent = 0;
    img->spawnIn("libredis", "t", [&] {
        Cycles before = mach.cycles();
        for (int i = 0; i < 30; ++i)
            img->gate("uksched", "yield", [] {});
        spent = mach.cycles() - before;
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    // The bucket starts full (10 tokens); the other 20 crossings each
    // stall ~window/rate = 100k vcycles for the next token.
    EXPECT_EQ(mach.counter("gate.throttled"), 20u);
    EXPECT_GE(mach.counter("machine.stallCycles"), 20u * 99'000);
    EXPECT_GE(spent, 20u * 99'000);
    // All 30 crossings executed (stall back-pressures, never drops).
    EXPECT_EQ(img->gateCrossings().at({0, 1}), 30u);
    img->shutdown();
}

TEST_F(GatePolicyFixture, RateLimitFailRaisesThrottledCrossing)
{
    auto img = buildFrom(R"(
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
- app -> sys: {rate: 5, overflow: fail}
)");
    int ran = 0, failed = 0;
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        for (int i = 0; i < 8; ++i) {
            try {
                img->gate("uksched", "yield", [&] { ++ran; });
            } catch (const ThrottledCrossing &e) {
                EXPECT_EQ(e.from, "app");
                EXPECT_EQ(e.to, "sys");
                ++failed;
            }
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    // 5 tokens, 8 attempts, negligible refill in between.
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(failed, 3);
    EXPECT_EQ(mach.counter("gate.throttled"), 3u);
    EXPECT_EQ(mach.counter("machine.stallCycles"), 0u);
    img->shutdown();
}

TEST_F(GatePolicyFixture, HundredBoundaryThrottleStorm)
{
    // Ten single-library compartments, every ordered pair
    // rate-limited through one wildcard rule: a 100-bucket matrix
    // with ~90 distinct boundaries driven past their budget by
    // nested crossings (bucket indexing + stall accounting; CI runs
    // this under ASan too).
    const std::pair<const char *, const char *> libs[] = {
        {"libredis", "redis_handle_conn"},
        {"uksched", "yield"},
        {"uktime", "clock_gettime"},
        {"lwip", "poll"},
        {"vfscore", "open"},
        {"newlib", "memcpy"},
        {"libnginx", "nginx_main"},
        {"libsqlite", "sqlite_open"},
        {"libiperf", "iperf_server"},
        {"libopenjpg", "decode_image"},
    };
    constexpr int nLibs = 10;
    std::string text = "compartments:\n";
    for (int i = 0; i < nLibs; ++i) {
        text += "- c" + std::to_string(i) + ":\n";
        text += "    mechanism: intel-mpk\n";
        if (i == 0)
            text += "    default: True\n";
    }
    text += "libraries:\n";
    for (int i = 0; i < nLibs; ++i)
        text += std::string("- ") + libs[i].first + ": c" +
                std::to_string(i) + "\n";
    text += "boundaries:\n- '*' -> '*': {rate: 2, window: 100000}\n";
    SafetyConfig cfg = SafetyConfig::parse(text);
    cfg.heapBytes = 64 * 1024;
    cfg.sharedHeapBytes = 64 * 1024;
    auto img = tc.build(mach, sched, cfg);

    int finished = 0;
    for (int t = 0; t < 5; ++t) {
        img->spawnIn("libredis", "storm-" + std::to_string(t), [&] {
            // Visit every compartment and, from inside each, cross
            // into every other: all ~90 ordered boundaries, each
            // beaten past its 2-token budget by the 5 threads.
            for (int i = 0; i < nLibs; ++i) {
                img->gate(libs[i].first, libs[i].second, [&] {
                    for (int j = 0; j < nLibs; ++j) {
                        if (j == i)
                            continue;
                        img->gate(libs[j].first, libs[j].second,
                                  [] {});
                    }
                });
            }
            ++finished;
        });
    }
    sched.runUntil([&] { return finished == 5; });
    ASSERT_EQ(finished, 5);

    // Every ordered compartment pair carried traffic...
    EXPECT_EQ(img->gateCrossings().size(),
              static_cast<std::size_t>(nLibs * (nLibs - 1)));
    // ...and the wildcard budget throttled the storm (stalls refill
    // every bucket as the clock advances, so the exact count varies
    // with interleaving — but 5 threads against 2-token buckets must
    // overflow somewhere, and stalled time must be accounted).
    EXPECT_GT(mach.counter("gate.throttled"), 0u);
    EXPECT_GT(mach.counter("machine.stallCycles"), 0u);
    // Conservation: each overflow counts once in the machine total and
    // once in its boundary's ledger cell.
    std::uint64_t throttled = 0, denied = 0, rejected = 0;
    for (const Image::BoundaryCounts &cell : img->ledger()) {
        throttled += cell.throttled;
        denied += cell.denied;
        rejected += cell.rejected;
    }
    EXPECT_EQ(throttled, mach.counter("gate.throttled"));
    EXPECT_EQ(denied, mach.counter("gate.denied"));
    EXPECT_EQ(rejected, mach.counter("gate.validate.reject"));
    // Stall never drops a crossing: per-boundary totals are exact.
    EXPECT_EQ(img->gateCrossings().at({1, 0}), 5u);
    EXPECT_EQ(img->gateCrossings().at({0, 1}), 10u);
    img->shutdown();
}

TEST_F(GatePolicyFixture, PerBoundaryStackSharingGovernsFrames)
{
    // app -> sys shares the whole stack; app -> net keeps the DSS.
    // The sys edge runs the *light* gate: even flavours that share
    // the caller's stack must lay the callee's sim stack out under
    // the boundary's policy (regression: only the DSS path used to).
    auto img = buildFrom(R"(
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
- app -> sys: {gate: light, stack_sharing: shared-stack}
)");
    bool done = false;
    int *sysVar = nullptr;
    img->spawnIn("libredis", "t", [&] {
        img->gate("uksched", "yield", [&] {
            DssFrame f(*img);
            sysVar = f.var<int>();
            // Shared stack: the variable itself is shared memory.
            EXPECT_EQ(f.shadow(sysVar), sysVar);
            img->store(sysVar, 41);
            // Readable from the caller's compartment: the whole
            // stack carries the shared key.
        });
        EXPECT_EQ(img->load(sysVar), 41);
        img->gate("lwip", "recv", [&] {
            DssFrame f(*img);
            int *x = f.var<int>();
            // DSS boundary: shadow lives stackBytes above.
            EXPECT_EQ(reinterpret_cast<char *>(f.shadow(x)),
                      reinterpret_cast<char *>(x) +
                          SimStack::stackBytes);
        });
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(img->policyFor(0, 1).stackSharing,
              StackSharing::SharedStack);
    EXPECT_EQ(img->policyFor(0, 2).stackSharing, StackSharing::Dss);
    img->shutdown();
}

// ----------------------------------------------- dispatch under load

/** Hot trusted boundary on light, attacker-facing one on dss. */
const char *mixedFlavorConfig = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- hot:
    mechanism: intel-mpk
- cold:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: hot
- lwip: cold
boundaries:
- app -> hot: {gate: light}
)";

TEST_F(GatePolicyFixture, TwoMpkFlavorsRunSimultaneously)
{
    auto img = buildFrom(mixedFlavorConfig);
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        for (int i = 0; i < 3; ++i)
            img->gate("uksched", "yield", [] {}); // app -> hot: light
        img->gate("lwip", "recv", [] {});         // app -> cold: dss
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);

    // Both flavours carried traffic in the same image — the global
    // knob could only ever produce one of these counters.
    EXPECT_EQ(mach.counter("gate.mpk.light"), 3u);
    EXPECT_EQ(mach.counter("gate.mpk.dss"), 1u);

    // The per-(from, to) ledger names each boundary's policy.
    auto stats = img->boundaryStats();
    ASSERT_TRUE(stats.count({0, 1}));
    ASSERT_TRUE(stats.count({0, 2}));
    EXPECT_EQ(stats.at({0, 1}).policy, "intel-mpk(light)");
    EXPECT_EQ(stats.at({0, 1}).count, 3u);
    EXPECT_EQ(stats.at({0, 2}).policy, "intel-mpk(dss)");
    EXPECT_EQ(stats.at({0, 2}).count, 1u);
    EXPECT_EQ(stats.at({0, 1}).from, "app");
    EXPECT_EQ(stats.at({0, 1}).to, "hot");

    // The linker script records the matrix.
    std::string ls = img->linkerScript();
    EXPECT_NE(ls.find("app -> hot : intel-mpk(light)"),
              std::string::npos);
    EXPECT_NE(ls.find("app -> cold : intel-mpk(dss)"),
              std::string::npos);
    img->shutdown();
}

TEST_F(GatePolicyFixture, PolicyValidateForcesEntryCheckOnMpkBoundary)
{
    auto img = buildFrom(R"(
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
- app -> sys: {validate: true}
)");
    bool rejected = false, ran = false;
    img->spawnIn("libredis", "t", [&] {
        // MPK gates don't validate entry points on their own (no CFI
        // here); the policy forces the check.
        try {
            img->gate("uksched", "not_an_entry_point", [] {});
        } catch (const CfiViolation &) {
            rejected = true;
        }
        img->gate("uksched", "yield", [&] { ran = true; });
    });
    sched.runUntil([&] { return ran; });
    EXPECT_TRUE(rejected);
    EXPECT_TRUE(ran);
    EXPECT_GT(mach.counter("gate.validate"), 0u);
    img->shutdown();
}

TEST_F(GatePolicyFixture, AsymmetricReturnPolicyIsCheaper)
{
    auto cost = [&](const char *extra) {
        Machine m2;
        Scheduler sched2(m2);
        Toolchain tc2(reg);
        SafetyConfig cfg = SafetyConfig::parse(
            std::string(R"(
compartments:
- c1:
    mechanism: intel-mpk
    default: True
- c2:
    mechanism: intel-mpk
libraries:
- libredis: c1
- lwip: c2
)") + extra);
        cfg.heapBytes = 1 << 20;
        cfg.sharedHeapBytes = 1 << 20;
        auto img = tc2.build(m2, sched2, cfg);
        Cycles before = 0, after = 0;
        img->spawnIn("libredis", "t", [&] {
            // Warm up the sim stack so both runs charge identically.
            img->gate("lwip", "recv", [] {});
            before = m2.cycles();
            for (int i = 0; i < 100; ++i)
                img->gate("lwip", "recv", [] {});
            after = m2.cycles();
        });
        sched2.run();
        return after - before;
    };
    Cycles scrubbed = cost("");
    Cycles unscrubbed = cost("boundaries:\n- c1 -> c2: {scrub: false}\n");
    EXPECT_LT(unscrubbed, scrubbed);
    // Exactly the return-side register save/zero per crossing.
    EXPECT_EQ(scrubbed - unscrubbed,
              100 * mach.timing.registerSaveZero);
}

// --------------------------------------------------- EPT server pool

TEST_F(GatePolicyFixture, EptPoolGrowsElasticallyAndTracksRingDepth)
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
    WaitQueue never(sched);
    int inBody = 0;
    for (int i = 0; i < 3; ++i) {
        img->spawnIn("libredis", "caller-" + std::to_string(i), [&] {
            img->gate("lwip", "recv", [&] {
                ++inBody;
                never.wait();
            });
        });
    }
    EXPECT_FALSE(sched.run()); // all callers blocked in RPC bodies

    // The base pool of 1 grew to absorb the three concurrent blocked
    // bodies; the ring's high-water mark was recorded before growth
    // caught up.
    EXPECT_EQ(inBody, 3);
    EXPECT_EQ(mach.counter("gate.ept.elasticSpawns"), 2u);
    EXPECT_EQ(mach.counter("gate.ept.ringDepth"), 3u);

    img->shutdown();
    EXPECT_EQ(mach.counter("gate.ept.shutdownCancels"), 3u);
    sched.run();
}

// ------------------------------------------------ key virtualization

TEST_F(GatePolicyFixture, EptCompartmentsConsumeNoKeysLiftingTheCap)
{
    // 15 keyed MPK compartments + 5 EPT ones: 20 compartments total,
    // impossible under the old key-tagged region model, legal with
    // EPT memory modelled as unmapped outside its VM.
    std::string text = "compartments:\n";
    for (int i = 0; i < 15; ++i) {
        text += "- m" + std::to_string(i) + ":\n";
        text += "    mechanism: intel-mpk\n";
        if (i == 0)
            text += "    default: True\n";
    }
    for (int i = 0; i < 5; ++i) {
        text += "- e" + std::to_string(i) + ":\n";
        text += "    mechanism: vm-ept\n";
        text += "    servers: 1\n";
    }
    text += "libraries:\n- libredis: m0\n- lwip: e0\n";

    SafetyConfig cfg = SafetyConfig::parse(text);
    cfg.heapBytes = 64 * 1024;
    cfg.sharedHeapBytes = 64 * 1024;
    auto img = tc.build(mach, sched, cfg);

    // Keyed compartments take keys 0..14; EPT ones are VM-private.
    for (std::size_t i = 0; i < 15; ++i) {
        EXPECT_FALSE(img->compartmentAt(i).vmPrivate);
        EXPECT_EQ(img->compartmentAt(i).key, static_cast<ProtKey>(i));
    }
    for (std::size_t i = 15; i < 20; ++i)
        EXPECT_TRUE(img->compartmentAt(i).vmPrivate);
    img->shutdown();
}

TEST_F(GatePolicyFixture, VmPrivateMemoryUnmappedOutsideItsVm)
{
    auto img = buildFrom(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- netA:
    mechanism: vm-ept
- netB:
    mechanism: vm-ept
libraries:
- libredis: app
- lwip: netA
- vfscore: netB
)");
    int *secretA = nullptr;
    bool mpkFaulted = false, crossVmFaulted = false, done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [&] {
            secretA = static_cast<int *>(img->heapOf("lwip").alloc(16));
            img->store(secretA, 7);
        });
        // An MPK-compartment thread sees EPT memory as unmapped.
        try {
            img->load(secretA);
        } catch (const ProtectionFault &) {
            mpkFaulted = true;
        }
        // So does a *different* VM: netB's servers can't read netA.
        img->gate("vfscore", "open", [&] {
            try {
                img->load(secretA);
            } catch (const ProtectionFault &) {
                crossVmFaulted = true;
            }
        });
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_TRUE(mpkFaulted);
    EXPECT_TRUE(crossVmFaulted);
    img->shutdown();
}

// ------------------------------- generated rules vs. a reference resolver

/**
 * Draws safety configs over three compartments (a, b, c) whose
 * `boundaries:` rules use every boundary key, every enum value and
 * '*' on either side. Values come from small pools so that rules of
 * equal specificity often collide. `deny: true` always stands alone,
 * as the parser demands.
 */
struct ConfigGenerator
{
    Rng rng;

    template <typename T>
    T
    pick(std::initializer_list<T> xs)
    {
        return *(xs.begin() + rng.below(xs.size()));
    }

    template <typename T>
    void
    maybe(std::optional<T> &field, T value)
    {
        if (rng.chance(1, 4))
            field = value;
    }

    BoundaryRule
    rule()
    {
        BoundaryRule r;
        r.from = pick<std::string>({"*", "a", "b", "c"});
        r.to = pick<std::string>({"*", "a", "b", "c"});
        if (rng.chance(1, 6)) {
            r.deny = true;
            return r;
        }
        maybe(r.flavor, pick({MpkGateFlavor::Light, MpkGateFlavor::Dss}));
        maybe(r.validate, rng.chance(1, 2));
        maybe(r.validateReturn, rng.chance(1, 2));
        maybe(r.scrub, rng.chance(1, 2));
        maybe(r.deny, false);
        maybe(r.rate, pick<std::uint64_t>({1, 5, 7}));
        maybe(r.window, pick<std::uint64_t>({70, 1'000'000}));
        maybe(r.weight, pick<std::uint64_t>({1, 3}));
        maybe(r.overflow, pick({RateOverflow::Stall, RateOverflow::Fail}));
        maybe(r.stackSharing, pick({StackSharing::Heap, StackSharing::Dss,
                                    StackSharing::SharedStack}));
        maybe(r.batch, pick<std::uint64_t>({1, 8}));
        maybe(r.coalesce, pick<std::uint64_t>({1, 400}));
        maybe(r.elide, pick({GateElide::None, GateElide::Validate,
                             GateElide::Scrub, GateElide::Both}));
        maybe(r.adaptive, rng.chance(1, 2));
        return r;
    }

    SafetyConfig
    config()
    {
        SafetyConfig cfg;
        for (const char *name : {"a", "b", "c"}) {
            CompartmentSpec c;
            c.name = name;
            c.mechanism = pick({Mechanism::None, Mechanism::IntelMpk,
                                Mechanism::VmEpt, Mechanism::Cheri,
                                Mechanism::LinuxPt, Mechanism::Sel4Ipc,
                                Mechanism::CubicleMpk});
            c.isDefault = cfg.compartments.empty();
            for (Hardening h :
                 {Hardening::StackProtector, Hardening::Ubsan,
                  Hardening::Kasan, Hardening::Cfi, Hardening::Asan})
                if (rng.chance(1, 3))
                    c.hardening.push_back(h);
            if (rng.chance(1, 4)) {
                c.servers = static_cast<int>(rng.range(1, 9));
                c.serversExplicit = true;
            }
            cfg.compartments.push_back(std::move(c));
        }
        cfg.libraries = {{"libredis", "a"}, {"lwip", "b"}};
        if (rng.chance(1, 3))
            cfg.libHardening["lwip"] = {pick({Hardening::Kasan,
                                              Hardening::StackProtector})};
        cfg.cores = static_cast<unsigned>(pick({1, 2, 4}));
        cfg.steering = pick({NicSteering::Rss, NicSteering::Single});
        if (rng.chance(1, 2))
            cfg.controller = ControllerConfig{
                rng.range(1, 5'000'000), rng.range(1, 5'000),
                rng.range(1, 9), rng.range(1, 9)};
        for (std::uint64_t i = rng.range(1, 6); i > 0; --i)
            cfg.boundaries.push_back(rule());
        return cfg;
    }
};

/**
 * Reference resolver, written without GateMatrix's layering loop: for
 * each cell and field, the rule of highest specificity that matches
 * the cell and sets the field decides (exact 3 > '*' -> to 2 >
 * from -> '*' 1 > '*' -> '*' 0). Returns nullopt where the rules are
 * ambiguous: matching rules of equal specificity that set one field
 * to different values, or a `deny: true` beside a `rate:` at equal
 * specificity.
 */
std::optional<std::vector<GatePolicy>>
referenceMatrix(const SafetyConfig &cfg)
{
    std::size_t n = cfg.compartments.size();
    std::vector<GatePolicy> cells;
    for (std::size_t f = 0; f < n; ++f) {
        for (std::size_t t = 0; t < n; ++t) {
            auto specificity = [&](const BoundaryRule &r) {
                bool fromOk = r.from == "*" ||
                              r.from == cfg.compartments[f].name;
                bool toOk =
                    r.to == "*" || r.to == cfg.compartments[t].name;
                if (!fromOk || !toOk)
                    return -1;
                return (r.from != "*" ? 1 : 0) + (r.to != "*" ? 2 : 0);
            };
            bool ambiguous = false;
            for (int level = 0; level < 4; ++level) {
                bool denied = false, rated = false;
                for (const BoundaryRule &r : cfg.boundaries) {
                    if (specificity(r) != level)
                        continue;
                    denied = denied || (r.deny && *r.deny);
                    rated = rated || r.rate.has_value();
                }
                ambiguous = ambiguous || (denied && rated);
            }
            GatePolicy p;
            p.mech = cfg.compartments[t].mechanism;
            p.stackSharing = cfg.stackSharing;
            auto resolve = [&](auto BoundaryRule::*opt, auto &field) {
                for (int level = 0; level < 4; ++level) {
                    std::optional<std::decay_t<decltype(field)>> value;
                    for (const BoundaryRule &r : cfg.boundaries) {
                        if (specificity(r) != level || !(r.*opt))
                            continue;
                        ambiguous = ambiguous ||
                                    (value && *value != *(r.*opt));
                        value = *(r.*opt);
                    }
                    if (value)
                        field = *value;
                }
            };
            resolve(&BoundaryRule::flavor, p.flavor);
            resolve(&BoundaryRule::validate, p.validateEntry);
            resolve(&BoundaryRule::validateReturn, p.validateReturn);
            resolve(&BoundaryRule::scrub, p.scrubReturn);
            resolve(&BoundaryRule::deny, p.deny);
            resolve(&BoundaryRule::rate, p.rate);
            resolve(&BoundaryRule::window, p.rateWindow);
            resolve(&BoundaryRule::weight, p.weight);
            resolve(&BoundaryRule::overflow, p.overflow);
            resolve(&BoundaryRule::stackSharing, p.stackSharing);
            resolve(&BoundaryRule::batch, p.batch);
            resolve(&BoundaryRule::coalesce, p.coalesce);
            resolve(&BoundaryRule::elide, p.elide);
            resolve(&BoundaryRule::adaptive, p.adaptive);
            if (ambiguous)
                return std::nullopt;
            cells.push_back(p);
        }
    }
    return cells;
}

TEST_F(GatePolicyFixture, GeneratedRulesRoundTripAndResolveLikeTheReference)
{
    int rejected = 0, resolved = 0;
    std::string corpus;
    for (std::uint64_t seed : {1, 2, 3}) {
        ConfigGenerator gen{Rng(seed)};
        for (int i = 0; i < 150; ++i) {
            SafetyConfig cfg = gen.config();
            std::string text = cfg.toText();
            corpus += text;
            SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                         std::to_string(i) + ":\n" + text);

            SafetyConfig again = SafetyConfig::parse(text);
            ASSERT_EQ(again.toText(), text);
            ASSERT_EQ(again.boundaries, cfg.boundaries);

            std::optional<std::vector<GatePolicy>> expected =
                referenceMatrix(cfg);
            if (!expected) {
                EXPECT_THROW(GateMatrix::build(cfg), FatalError);
                EXPECT_THROW(GateMatrix::build(again), FatalError);
                ++rejected;
                continue;
            }
            GateMatrix m = GateMatrix::build(cfg);
            EXPECT_TRUE(m == GateMatrix::build(again));
            for (int f = 0; f < 3; ++f) {
                for (int t = 0; t < 3; ++t) {
                    const GatePolicy &want =
                        (*expected)[static_cast<std::size_t>(f * 3 + t)];
                    EXPECT_TRUE(m.at(f, t) == want)
                        << "cell " << f << " -> " << t << ": got "
                        << m.at(f, t).name() << ", want " << want.name();
                }
            }
            ++resolved;
        }
    }
    // Both outcomes are common, and every key and enum value was drawn.
    EXPECT_GT(rejected, 40);
    EXPECT_GT(resolved, 300);
    for (const char *needle :
         {"gate: light", "gate: dss", "validate: true", "validate: false",
          "validate_return: true", "scrub: false", "deny: true",
          "deny: false", "rate: 7", "window: 70", "weight: 3",
          "overflow: stall", "overflow: fail", "stack_sharing: heap",
          "stack_sharing: dss", "stack_sharing: shared-stack", "batch: 8",
          "coalesce: 400", "elide: none", "elide: validate",
          "elide: scrub", "elide: both", "adaptive: true",
          "mechanism: none", "mechanism: intel-mpk", "mechanism: vm-ept",
          "mechanism: cheri", "mechanism: linux-pt", "mechanism: sel4-ipc",
          "mechanism: cubicle-mpk", "stack-protector", "ubsan", "kasan",
          "cfi", "asan", "steering: single", "cores: 4", "servers: ",
          "deny_alert: ", "'*' -> '*'"})
        EXPECT_NE(corpus.find(needle), std::string::npos) << needle;
}

// ------------------------------------------------ malformed config input

/**
 * A two-compartment config: `aKeys` nest under compartment a (lines
 * 4..), then b, the libraries and a `boundaries:` header, then `tail`.
 */
SafetyConfig
parseWith(const std::string &aKeys, const std::string &tail)
{
    return SafetyConfig::parse("compartments:\n- a:\n"
                               "    mechanism: intel-mpk\n" +
                               aKeys +
                               "- b:\n    mechanism: intel-mpk\n"
                               "libraries:\n- libredis: a\n"
                               "boundaries:\n" +
                               tail);
}

/** The FatalError message of `parse`, or "accepted". */
template <typename F>
std::string
fatalMessage(F parse)
{
    try {
        parse();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "accepted";
}

TEST_F(GatePolicyFixture, MalformedBooleansAreFatal)
{
    // true|false|yes|no|1|0 in any case are booleans...
    SafetyConfig ok = parseWith(
        "    default: YES\n",
        "- a -> b: {validate: True, scrub: no, adaptive: 1}\n"
        "- b -> a: {deny: 0, validate_return: FALSE}\n");
    EXPECT_TRUE(ok.compartments[0].isDefault);
    EXPECT_EQ(ok.boundaries[0].validate, true);
    EXPECT_EQ(ok.boundaries[0].scrub, false);
    EXPECT_EQ(ok.boundaries[0].adaptive, true);
    EXPECT_EQ(ok.boundaries[1].deny, false);
    EXPECT_EQ(ok.boundaries[1].validateReturn, false);

    // ...and anything else is fatal, naming the line and the key:
    // reading these as false would silently drop a least-privilege
    // rule or entry validation.
    std::string deny = fatalMessage([] {
        parseWith("    default: True\n", "- b -> a: {deny: yes please}\n");
    });
    EXPECT_NE(deny.find("config line 10: deny"), std::string::npos) << deny;
    EXPECT_NE(deny.find("'yes please'"), std::string::npos) << deny;
    std::string validate = fatalMessage([] {
        parseWith("    default: True\n", "- a -> b: {validate: ture}\n");
    });
    EXPECT_NE(validate.find("config line 10: validate"), std::string::npos)
        << validate;
    std::string dflt =
        fatalMessage([] { parseWith("    default: maybe\n", ""); });
    EXPECT_NE(dflt.find("config line 4: default"), std::string::npos)
        << dflt;
}

TEST_F(GatePolicyFixture, RepeatedKeysAreFatal)
{
    // In one boundary rule: keeping the last value would silently
    // resolve this to rate(7).
    std::string rate = fatalMessage([] {
        parseWith("    default: True\n", "- a -> b: {rate: 5, rate: 7}\n");
    });
    EXPECT_NE(rate.find("config line 10: boundary key 'rate'"),
              std::string::npos)
        << rate;
    // In one compartment item, and in the controller section.
    EXPECT_THROW(parseWith("    default: True\n    mechanism: vm-ept\n", ""),
                 FatalError);
    EXPECT_THROW(parseWith("    default: True\n",
                           "controller:\n  epoch: 5\n  epoch: 9\n"),
                 FatalError);

    // The same key in different rules, items or sections stays legal.
    SafetyConfig ok = parseWith("    default: True\n",
                                "- a -> b: {rate: 5}\n"
                                "- a -> b: {rate: 5, window: 70}\n"
                                "controller:\n  epoch: 5\n");
    EXPECT_EQ(GateMatrix::build(ok).at(0, 1).rate, 5u);
    EXPECT_EQ(ok.controller->epoch, 5u);
}

TEST_F(GatePolicyFixture, EnumNamesAcceptAliasesAndListTheChoices)
{
    EXPECT_EQ(mechanismFromName(" MPK "), Mechanism::IntelMpk);
    EXPECT_EQ(mechanismFromName("Ept"), Mechanism::VmEpt);
    EXPECT_EQ(hardeningFromName("SP"), Hardening::StackProtector);
    EXPECT_EQ(hardeningFromName("stackprotector"),
              Hardening::StackProtector);
    EXPECT_EQ(stackSharingFromName("share"), StackSharing::SharedStack);
    EXPECT_STREQ(flavorName(MpkGateFlavor::Light), "light");
    EXPECT_EQ(parseWith("    default: True\n", "- a -> b: {gate: FULL}\n")
                  .boundaries[0]
                  .flavor,
              MpkGateFlavor::Dss);

    std::string mech = fatalMessage([] { mechanismFromName("mpx"); });
    EXPECT_NE(mech.find("'mpx'"), std::string::npos) << mech;
    EXPECT_NE(mech.find("none, intel-mpk, vm-ept, cheri, linux-pt, "
                        "sel4-ipc, cubicle-mpk"),
              std::string::npos)
        << mech;
    std::string elide = fatalMessage([] {
        parseWith("    default: True\n", "- a -> b: {elide: sometimes}\n");
    });
    EXPECT_NE(elide.find("config line 10: unknown elide 'sometimes'"),
              std::string::npos)
        << elide;
    EXPECT_NE(elide.find("none, validate, scrub, both"), std::string::npos)
        << elide;
}
} // namespace
} // namespace flexos
