/**
 * @file
 * Tests for the FlexOS core: config parsing, toolchain validation and
 * transformation, gate semantics across every backend, isolation
 * enforcement, DSS, and the hardening mechanisms (including failure
 * injection proving they detect planted bugs).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/config.hh"
#include "core/dss.hh"
#include "core/image.hh"
#include "core/toolchain.hh"

namespace flexos {
namespace {

const char *twoCompMpk = R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
    hardening: [cfi, kasan]
libraries:
- libredis: comp1
- newlib: comp1
- uksched: comp1
- lwip: comp2
)";

// ---------------------------------------------------------------- config

TEST(Config, ParsesPaperExample)
{
    SafetyConfig cfg = SafetyConfig::parse(twoCompMpk);
    ASSERT_EQ(cfg.compartments.size(), 2u);
    EXPECT_EQ(cfg.compartments[0].name, "comp1");
    EXPECT_TRUE(cfg.compartments[0].isDefault);
    EXPECT_EQ(cfg.compartments[0].mechanism, Mechanism::IntelMpk);
    EXPECT_FALSE(cfg.compartments[1].isDefault);
    EXPECT_TRUE(cfg.compartments[1].hardenedWith(Hardening::Cfi));
    EXPECT_TRUE(cfg.compartments[1].hardenedWith(Hardening::Kasan));
    EXPECT_FALSE(cfg.compartments[1].hardenedWith(Hardening::Ubsan));
    ASSERT_EQ(cfg.libraries.size(), 4u);
    EXPECT_EQ(cfg.libraries[3].first, "lwip");
    EXPECT_EQ(cfg.libraries[3].second, "comp2");
}

TEST(Config, ParsesPerLibraryHardening)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- c1:
    mechanism: none
    default: True
libraries:
- libredis: c1 [kasan, ubsan]
- lwip: c1
)");
    ASSERT_TRUE(cfg.libHardening.count("libredis"));
    EXPECT_EQ(cfg.libHardening.at("libredis").size(), 2u);
    EXPECT_FALSE(cfg.libHardening.count("lwip"));
}

TEST(Config, RoundTripsThroughText)
{
    SafetyConfig cfg = SafetyConfig::parse(twoCompMpk);
    SafetyConfig again = SafetyConfig::parse(cfg.toText());
    EXPECT_EQ(again.compartments.size(), cfg.compartments.size());
    EXPECT_EQ(again.libraries, cfg.libraries);
    EXPECT_EQ(again.compartments[1].hardening,
              cfg.compartments[1].hardening);
}

TEST(Config, RejectsUnknownMechanism)
{
    EXPECT_THROW(SafetyConfig::parse(R"(
# lint-skip: intentionally invalid
compartments:
- c1:
    mechanism: sgx-enclave
    default: True
libraries:
- lwip: c1
)"),
                 FatalError);
}

TEST(Config, RejectsUnknownHardening)
{
    EXPECT_THROW(SafetyConfig::parse(R"(
# lint-skip: intentionally invalid
compartments:
- c1:
    mechanism: none
    default: True
    hardening: [voodoo]
libraries:
- lwip: c1
)"),
                 FatalError);
}

TEST(Config, RejectsGarbage)
{
    EXPECT_THROW(SafetyConfig::parse("what even is this"), FatalError);
    EXPECT_THROW(SafetyConfig::parse(""), FatalError);
}

TEST(Config, CommentsAndBlankLinesIgnored)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
# the trusted side
compartments:

- c1:
    mechanism: intel-mpk   # keys!
    default: True
libraries:
- lwip: c1
)");
    EXPECT_EQ(cfg.compartments.size(), 1u);
}

// ------------------------------------------------------------- registry

TEST(Registry, StandardHasPaperComponents)
{
    LibraryRegistry reg = LibraryRegistry::standard();
    for (const char *lib :
         {"lwip", "uksched", "vfscore", "uktime", "newlib", "libredis",
          "libnginx", "libsqlite", "libiperf"})
        EXPECT_TRUE(reg.contains(lib)) << lib;
    EXPECT_TRUE(reg.get("ukalloc").tcb);
    EXPECT_TRUE(reg.get("ukboot").tcb);
    // Table 1 metadata spot checks.
    EXPECT_EQ(reg.get("lwip").sharedVars, 23);
    EXPECT_EQ(reg.get("uktime").sharedVars, 0);
    EXPECT_EQ(reg.get("libnginx").sharedVars, 36);
}

TEST(Registry, EntryPointLookup)
{
    LibraryRegistry reg = LibraryRegistry::standard();
    EXPECT_TRUE(reg.isEntryPoint("lwip", "recv"));
    EXPECT_FALSE(reg.isEntryPoint("lwip", "internal_tcp_input"));
    EXPECT_THROW(reg.get("nosuchlib"), FatalError);
}

// ------------------------------------------------------------ toolchain

struct CoreFixture : ::testing::Test
{
    CoreFixture() : sched(mach), reg(LibraryRegistry::standard()),
                    tc(reg)
    {
    }

    std::unique_ptr<Image>
    buildFrom(const std::string &text)
    {
        SafetyConfig cfg = SafetyConfig::parse(text);
        cfg.heapBytes = 1 << 20; // keep tests light
        cfg.sharedHeapBytes = 1 << 20;
        return tc.build(mach, sched, cfg);
    }

    Machine mach;
    Scheduler sched;
    LibraryRegistry reg;
    Toolchain tc;
};

TEST_F(CoreFixture, BuildProducesGatePlanAndLinkerScript)
{
    auto img = buildFrom(twoCompMpk);
    const BuildReport &rep = tc.report();
    EXPECT_GT(rep.gatesInserted, 0);
    EXPECT_GT(rep.annotationsReplaced, 0);
    EXPECT_NE(rep.linkerScript.find(".data.comp2"), std::string::npos);
    EXPECT_NE(rep.linkerScript.find("shared"), std::string::npos);
    // Backends are flavour-agnostic (the flavour is a per-boundary
    // GatePolicy); the gate plan still names the resolved policy.
    EXPECT_EQ(rep.backendName, std::string("intel-mpk"));
    bool policyNamed = false;
    for (const std::string &t : rep.transformations)
        if (t.find("intel-mpk(dss) gate") != std::string::npos)
            policyNamed = true;
    EXPECT_TRUE(policyNamed);

    // lwip -> uksched crosses compartments: a gate must be planned.
    bool found = false;
    for (const std::string &t : rep.transformations)
        if (t.find("lwip: flexos_gate(uksched") != std::string::npos &&
            t.find("gate [") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);
}

TEST_F(CoreFixture, AnnotationCountMatchesTable1)
{
    auto img = buildFrom(twoCompMpk);
    // libredis 16 + uksched 5 + lwip 23 + newlib 0 = 44.
    EXPECT_EQ(tc.report().annotationsReplaced, 44);
}

TEST_F(CoreFixture, ValidateAcceptsMixedMechanisms)
{
    // The mechanism is a per-boundary knob: an image may mix MPK and
    // EPT compartments, each boundary enforced by its own backend.
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- c1:
    mechanism: intel-mpk
    default: True
- c2:
    mechanism: vm-ept
libraries:
- lwip: c2
)");
    EXPECT_NO_THROW(tc.validate(cfg));
}

TEST_F(CoreFixture, MixedMpkBudgetCountsOnlyKeyedCompartments)
{
    auto make = [](int mpk, int ept) {
        std::string text = "compartments:\n";
        for (int i = 0; i < mpk; ++i) {
            text += "- m" + std::to_string(i) + ":\n";
            text += "    mechanism: intel-mpk\n";
            if (i == 0)
                text += "    default: True\n";
        }
        for (int i = 0; i < ept; ++i) {
            text += "- e" + std::to_string(i) + ":\n";
            text += "    mechanism: vm-ept\n";
        }
        text += "libraries:\n- lwip: m0\n";
        return SafetyConfig::parse(text);
    };
    // EPT compartments don't tighten the MPK budget: 14 MPK + 1 EPT is
    // as legal as 15 pure-MPK compartments.
    EXPECT_NO_THROW(tc.validate(make(14, 1)));
    EXPECT_NO_THROW(tc.validate(make(15, 0)));
    // A 16th MPK compartment exhausts the key budget.
    EXPECT_THROW(tc.validate(make(16, 0)), FatalError);
    // Key virtualization: EPT compartments are VM-private, not
    // key-tagged, so they lift the old 15-*total* cap — a mixed image
    // may grow well past 15 compartments as long as at most 15 of
    // them consume keys.
    EXPECT_NO_THROW(tc.validate(make(15, 1)));
    EXPECT_NO_THROW(tc.validate(make(15, 10)));
    EXPECT_THROW(tc.validate(make(16, 10)), FatalError);
}

TEST_F(CoreFixture, ValidateRejectsMissingDefault)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
# lint-skip: intentionally invalid (no default compartment)
compartments:
- c1:
    mechanism: intel-mpk
libraries:
- lwip: c1
)");
    EXPECT_THROW(tc.validate(cfg), FatalError);
}

TEST_F(CoreFixture, ValidateRejectsDoubleAssignment)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
# lint-skip: intentionally invalid (double assignment)
compartments:
- c1:
    mechanism: intel-mpk
    default: True
libraries:
- lwip: c1
- lwip: c1
)");
    EXPECT_THROW(tc.validate(cfg), FatalError);
}

TEST_F(CoreFixture, ValidateRejectsUnknownLibraryOrCompartment)
{
    EXPECT_THROW(buildFrom(R"(
# lint-skip: intentionally invalid (unknown library)
compartments:
- c1:
    mechanism: intel-mpk
    default: True
libraries:
- libquantum: c1
)"),
                 FatalError);
    EXPECT_THROW(buildFrom(R"(
# lint-skip: intentionally invalid (unknown compartment)
compartments:
- c1:
    mechanism: intel-mpk
    default: True
libraries:
- lwip: c9
)"),
                 FatalError);
}

TEST_F(CoreFixture, ValidateRejectsTooManyMpkCompartments)
{
    std::string text = "compartments:\n";
    for (int i = 0; i < 16; ++i) {
        text += "- c" + std::to_string(i) + ":\n";
        text += "    mechanism: intel-mpk\n";
        if (i == 0)
            text += "    default: True\n";
    }
    text += "libraries:\n- lwip: c0\n";
    EXPECT_THROW(tc.validate(SafetyConfig::parse(text)), FatalError);
}

TEST_F(CoreFixture, ValidateRejectsTcbOutsideTrustedUnderMpk)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
# lint-skip: intentionally invalid (TCB outside trusted compartment)
compartments:
- c1:
    mechanism: intel-mpk
    default: True
- c2:
    mechanism: intel-mpk
libraries:
- ukalloc: c2
)");
    EXPECT_THROW(tc.validate(cfg), FatalError);
}

// ----------------------------------------------------------- gates/MPK

TEST_F(CoreFixture, SameCompartmentGateIsPlainCall)
{
    auto img = buildFrom(twoCompMpk);
    bool ran = false;
    Cycles before = mach.cycles();
    img->spawnIn("libredis", "t", [&] {
        img->gate("newlib", "memcpy", [&] { ran = true; });
    });
    sched.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(mach.counter("gate.direct"), 1u);
    EXPECT_EQ(mach.counter("gate.mpk.dss"), 0u);
    // Cost: two context switches + one function call; no gate charges.
    EXPECT_LE(mach.cycles() - before,
              2 * mach.timing.contextSwitch + mach.timing.functionCall +
                  2);
}

TEST_F(CoreFixture, CrossCompartmentMpkGateChargesAndSwitchesDomain)
{
    auto img = buildFrom(twoCompMpk);
    Pkru inside;
    int compInside = -1;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [&] {
            inside = mach.pkru;
            compInside = img->currentCompartment();
        });
        // Restored after the gate returns.
        EXPECT_EQ(img->currentCompartment(), 0);
    });
    sched.run();
    EXPECT_EQ(compInside, 1);
    EXPECT_TRUE(inside.permits(1, AccessType::Write));   // own key
    EXPECT_TRUE(inside.permits(sharedProtKey, AccessType::Write));
    EXPECT_FALSE(inside.permits(0, AccessType::Read));   // caller's key
    EXPECT_EQ(mach.counter("gate.mpk.dss"), 1u);
}

TEST_F(CoreFixture, GateReturnsValues)
{
    auto img = buildFrom(twoCompMpk);
    int got = 0;
    img->spawnIn("libredis", "t", [&] {
        got = img->gate("lwip", "recv", [&] { return 41 + 1; });
    });
    sched.run();
    EXPECT_EQ(got, 42);
}

TEST_F(CoreFixture, IsolationBlocksCrossCompartmentHeapAccess)
{
    auto img = buildFrom(twoCompMpk);
    // Allocate in lwip's private heap, then try to read it from redis'
    // compartment through the checked-access path: must fault.
    int *secret = nullptr;
    bool faulted = false;
    Thread *t = img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [&] {
            secret = static_cast<int *>(img->heapOf("lwip").alloc(16));
            img->store(secret, 1234);
        });
        try {
            img->load(secret); // from comp1: lwip's key is denied
        } catch (const ProtectionFault &) {
            faulted = true;
        }
    });
    sched.run();
    ASSERT_FALSE(t->failed()) << t->error();
    EXPECT_TRUE(faulted);
}

TEST_F(CoreFixture, SharedHeapReadableFromBothCompartments)
{
    auto img = buildFrom(twoCompMpk);
    int seen = 0;
    img->spawnIn("libredis", "t", [&] {
        auto *shared = static_cast<int *>(img->sharedAlloc(16));
        img->store(shared, 77);
        img->gate("lwip", "recv",
                  [&] { seen = img->load(shared); });
        img->sharedFree(shared);
    });
    sched.run();
    EXPECT_EQ(seen, 77);
}

TEST_F(CoreFixture, LightGateCheaperThanDssGate)
{
    SafetyConfig cfg = SafetyConfig::parse(twoCompMpk);
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;

    auto runOnce = [&](MpkGateFlavor flavor) {
        Machine m2;
        Scheduler sched2(m2);
        SafetyConfig c2 = cfg;
        BoundaryRule rule;
        rule.from = "*";
        rule.to = "*";
        rule.flavor = flavor;
        c2.boundaries.push_back(rule);
        Toolchain tc2(reg);
        auto img = tc2.build(m2, sched2, c2);
        Cycles before = m2.cycles();
        img->spawnIn("libredis", "t", [&] {
            for (int i = 0; i < 100; ++i)
                img->gate("lwip", "recv", [] {});
        });
        sched2.run();
        return m2.cycles() - before;
    };

    EXPECT_LT(runOnce(MpkGateFlavor::Light),
              runOnce(MpkGateFlavor::Dss));
}

// ----------------------------------------------------------- gates/EPT

const char *twoCompEpt = R"(
compartments:
- comp1:
    mechanism: vm-ept
    default: True
- comp2:
    mechanism: vm-ept
libraries:
- libredis: comp1
- newlib: comp1
- uksched: comp1
- lwip: comp2
)";

TEST_F(CoreFixture, EptGateExecutesViaRpcServer)
{
    auto img = buildFrom(twoCompEpt);
    int result = 0;
    std::string serverThread;
    img->spawnIn("libredis", "caller", [&] {
        result = img->gate("lwip", "recv", [&] {
            serverThread = sched.current()->name();
            return 7;
        });
    });
    sched.runUntil([&] { return result == 7; });
    EXPECT_EQ(result, 7);
    // The body ran on an RPC server fiber of VM 1, not on the caller.
    EXPECT_NE(serverThread.find("ept-vm1"), std::string::npos);
    EXPECT_GE(mach.counter("gate.ept"), 1u);
    img->shutdown();
}

TEST_F(CoreFixture, EptRejectsIllegalEntryPoint)
{
    auto img = buildFrom(twoCompEpt);
    bool rejected = false;
    img->spawnIn("libredis", "caller", [&] {
        try {
            img->gate("lwip", "not_an_entry", [] {});
        } catch (const CfiViolation &) {
            rejected = true;
        }
    });
    sched.runUntil([&] { return rejected; });
    EXPECT_TRUE(rejected);
    img->shutdown();
}

TEST_F(CoreFixture, EptReplicatesTcb)
{
    auto img = buildFrom(twoCompEpt);
    // ukalloc is TCB: a call from lwip's VM stays local (each VM has a
    // self-contained kernel, paper 4.2) — no RPC crossing.
    std::uint64_t before = mach.counter("gate.ept");
    bool done = false;
    img->spawnIn("lwip", "t", [&] {
        img->gate("ukalloc", "malloc", [] {});
        done = true;
    });
    sched.runUntil([&] { return done; });
    EXPECT_EQ(mach.counter("gate.ept"), before);
    img->shutdown();
}

TEST_F(CoreFixture, EptGateCostsMoreThanMpk)
{
    auto costOf = [&](const char *text) {
        Machine m2;
        Scheduler sched2(m2);
        Toolchain tc2(reg);
        SafetyConfig cfg = SafetyConfig::parse(text);
        cfg.heapBytes = 1 << 20;
        cfg.sharedHeapBytes = 1 << 20;
        auto img = tc2.build(m2, sched2, cfg);
        bool done = false;
        Cycles before = m2.cycles();
        img->spawnIn("libredis", "t", [&] {
            for (int i = 0; i < 50; ++i)
                img->gate("lwip", "recv", [] {});
            done = true;
        });
        sched2.runUntil([&] { return done; });
        Cycles cost = m2.cycles() - before;
        img->shutdown();
        return cost;
    };
    EXPECT_GT(costOf(twoCompEpt), costOf(twoCompMpk));
}

// ------------------------------------------------------------ hardening

TEST_F(CoreFixture, KasanDetectsHeapOverflow)
{
    auto img = buildFrom(twoCompMpk); // comp2 has kasan
    bool caught = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [&] {
            auto *buf =
                static_cast<char *>(img->heapOf("lwip").alloc(32));
            try {
                // One past the end: lands in the redzone.
                char c;
                img->currentHardening().checkAccess(buf + 32, 1);
                (void)c;
            } catch (const KasanViolation &) {
                caught = true;
            }
            img->heapOf("lwip").free(buf);
        });
    });
    sched.run();
    EXPECT_TRUE(caught);
}

TEST_F(CoreFixture, KasanDetectsUseAfterFree)
{
    auto img = buildFrom(twoCompMpk);
    bool caught = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [&] {
            auto *buf =
                static_cast<char *>(img->heapOf("lwip").alloc(32));
            img->heapOf("lwip").free(buf);
            try {
                img->currentHardening().checkAccess(buf, 1);
            } catch (const KasanViolation &) {
                caught = true;
            }
        });
    });
    sched.run();
    EXPECT_TRUE(caught);
}

TEST_F(CoreFixture, KasanDetectsDoubleFree)
{
    auto img = buildFrom(twoCompMpk);
    bool caught = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [&] {
            auto *buf = img->heapOf("lwip").alloc(8);
            img->heapOf("lwip").free(buf);
            try {
                img->heapOf("lwip").free(buf);
            } catch (const KasanViolation &) {
                caught = true;
            }
        });
    });
    sched.run();
    EXPECT_TRUE(caught);
}

TEST_F(CoreFixture, UnhardenedCompartmentSkipsKasan)
{
    auto img = buildFrom(twoCompMpk); // comp1 has no hardening
    bool anyThrow = false;
    img->spawnIn("libredis", "t", [&] {
        auto *buf =
            static_cast<char *>(img->heapOf("libredis").alloc(32));
        try {
            img->currentHardening().checkAccess(buf + 33, 1);
        } catch (const HardeningViolation &) {
            anyThrow = true;
        }
        img->heapOf("libredis").free(buf);
    });
    sched.run();
    EXPECT_FALSE(anyThrow);
}

TEST_F(CoreFixture, UbsanChecksArithmetic)
{
    EXPECT_EQ(ubsan::addChecked(2, 3), 5);
    EXPECT_THROW(ubsan::addChecked(INT32_MAX, 1), UbsanViolation);
    EXPECT_THROW(ubsan::mulChecked(INT32_MAX / 2, 3), UbsanViolation);
    EXPECT_THROW(ubsan::subChecked(INT32_MIN, 1), UbsanViolation);
    EXPECT_EQ(ubsan::shlChecked(1u, 4), 16u);
    EXPECT_THROW(ubsan::shlChecked(1u, 40), UbsanViolation);
    EXPECT_EQ(ubsan::indexChecked(3, 4), 3u);
    EXPECT_THROW(ubsan::indexChecked(4, 4), UbsanViolation);
}

TEST_F(CoreFixture, CfiGateRejectsNonEntryPoint)
{
    auto img = buildFrom(twoCompMpk); // comp2 (lwip) has cfi
    bool rejected = false;
    img->spawnIn("libredis", "t", [&] {
        try {
            img->gate("lwip", "secret_internal_fn", [] {});
        } catch (const CfiViolation &) {
            rejected = true;
        }
    });
    sched.run();
    EXPECT_TRUE(rejected);
}

TEST_F(CoreFixture, CfiRegistryValidatesIndirectCalls)
{
    CfiRegistry reg2;
    auto fn = +[] {};
    reg2.registerTarget(reinterpret_cast<const void *>(fn), "handler");
    EXPECT_NO_THROW(
        reg2.checkCall(reinterpret_cast<const void *>(fn)));
    int x;
    EXPECT_THROW(reg2.checkCall(&x), CfiViolation);
}

TEST_F(CoreFixture, HardeningMultipliersStack)
{
    TimingModel tm;
    double none = hardeningMultiplier({}, tm);
    double sp = hardeningMultiplier({Hardening::StackProtector}, tm);
    double all = hardeningMultiplier({Hardening::StackProtector,
                                      Hardening::Ubsan,
                                      Hardening::Kasan},
                                     tm);
    EXPECT_DOUBLE_EQ(none, 1.0);
    EXPECT_GT(sp, 1.0);
    EXPECT_GT(all, sp);
    EXPECT_NEAR(all, 2.5, 0.01); // the Figure 6 bundle
}

TEST_F(CoreFixture, HardenedComponentWorkIsTaxed)
{
    auto img = buildFrom(twoCompMpk); // lwip hardened with kasan+cfi
    Cycles plainCost = 0, hardenedCost = 0;
    img->spawnIn("libredis", "t", [&] {
        Cycles a = mach.cycles();
        img->gate("newlib", "memcpy", [&] { mach.consume(1000); });
        Cycles b = mach.cycles();
        img->gate("lwip", "recv", [&] { mach.consume(1000); });
        Cycles c = mach.cycles();
        plainCost = b - a;
        hardenedCost = c - b;
    });
    sched.run();
    EXPECT_GT(hardenedCost, plainCost);
}

// ------------------------------------------------------------------ DSS

const char *dssConfig = R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libredis: comp1
- lwip: comp2
)";

TEST_F(CoreFixture, DssShadowIsStackSizeOffset)
{
    auto img = buildFrom(dssConfig);
    img->spawnIn("libredis", "t", [&] {
        DssFrame frame(*img);
        int *x = frame.var<int>();
        int *sh = frame.shadow(x);
        EXPECT_EQ(reinterpret_cast<char *>(sh) -
                      reinterpret_cast<char *>(x),
                  static_cast<long>(SimStack::stackBytes));
    });
    sched.run();
}

TEST_F(CoreFixture, DssShadowSharedAcrossCompartments)
{
    auto img = buildFrom(dssConfig);
    int seen = 0;
    bool privFaulted = false;
    img->spawnIn("libredis", "t", [&] {
        DssFrame frame(*img);
        int *x = frame.var<int>();
        int *sh = frame.shadow(x);
        img->store(sh, 99); // write through the shadow (shared domain)
        img->gate("lwip", "recv", [&] {
            seen = img->load(sh); // callee reads the shadow: allowed
            try {
                img->load(x); // the private half: denied
            } catch (const ProtectionFault &) {
                privFaulted = true;
            }
        });
    });
    sched.run();
    EXPECT_EQ(seen, 99);
    EXPECT_TRUE(privFaulted);
}

TEST_F(CoreFixture, DssAllocationIsStackSpeed)
{
    auto img = buildFrom(dssConfig);
    Cycles cost = 0;
    img->spawnIn("libredis", "t", [&] {
        Cycles before = mach.cycles();
        DssFrame frame(*img);
        frame.var<int>();
        cost = mach.cycles() - before;
    });
    sched.run();
    EXPECT_LE(cost, 4u); // constant, ~2 cycles (Figure 11a)
}

TEST_F(CoreFixture, HeapStrategyUsesSharedHeap)
{
    SafetyConfig cfg = SafetyConfig::parse(dssConfig);
    cfg.stackSharing = StackSharing::Heap;
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    auto img = tc.build(mach, sched, cfg);
    img->spawnIn("libredis", "t", [&] {
        std::uint64_t before = img->sharedHeap().stats().allocs;
        DssFrame frame(*img);
        int *x = frame.var<int>();
        EXPECT_EQ(frame.shadow(x), x); // already shared memory
        EXPECT_EQ(img->sharedHeap().stats().allocs, before + 1);
    });
    sched.run();
}

TEST_F(CoreFixture, FramesNestAndUnwind)
{
    auto img = buildFrom(dssConfig);
    img->spawnIn("libredis", "t", [&] {
        SimStack &s = img->simStackFor(sched.current()->id(), 0);
        std::size_t top0 = s.top;
        {
            DssFrame f1(*img);
            f1.var<int>();
            {
                DssFrame f2(*img);
                f2.var<double>();
                EXPECT_GT(s.top, top0);
            }
        }
        EXPECT_EQ(s.top, top0);
    });
    sched.run();
}

TEST_F(CoreFixture, StackProtectorDetectsSmashedCanary)
{
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
    hardening: [stack-protector]
libraries:
- libredis: comp1
)");
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    auto img = tc.build(mach, sched, cfg);
    bool caught = false;
    img->spawnIn("libredis", "t", [&] {
        try {
            DssFrame frame(*img);
            auto *buf = static_cast<char *>(frame.alloc(16));
            // Plant a classic stack smash: write backwards over the
            // canary that precedes this buffer.
            std::memset(buf - 16, 0x41, 32);
        } catch (const CanaryViolation &) {
            caught = true;
        }
    });
    sched.run();
    EXPECT_TRUE(caught);
}

// ------------------------------------------------------------ mechanics

TEST_F(CoreFixture, NoneBackendSingleDomainHasNoIsolation)
{
    auto img = buildFrom(R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libredis: all
- lwip: all
- uksched: all
- newlib: all
)");
    // Cross-"compartment" data access is fine: one domain.
    int seen = 0;
    img->spawnIn("libredis", "t", [&] {
        auto *p = static_cast<int *>(img->heapOf("lwip").alloc(8));
        img->store(p, 5);
        seen = img->load(p);
    });
    sched.run();
    EXPECT_EQ(seen, 5);
    EXPECT_EQ(mach.counter("gate.mpk.dss"), 0u);
}

TEST_F(CoreFixture, BaselineMechanismsHaveOrderedGateCosts)
{
    auto gateCost = [&](const char *mech) {
        Machine m2;
        Scheduler sched2(m2);
        Toolchain tc2(reg);
        std::string text = std::string(R"(
compartments:
- c1:
    mechanism: )") + mech + R"(
    default: True
- c2:
    mechanism: )" + mech + R"(
libraries:
- libsqlite: c1
- vfscore: c2
)";
        SafetyConfig cfg = SafetyConfig::parse(text);
        cfg.heapBytes = 1 << 20;
        cfg.sharedHeapBytes = 1 << 20;
        auto img = tc2.build(m2, sched2, cfg);
        Cycles before = m2.cycles();
        img->spawnIn("libsqlite", "t", [&] {
            for (int i = 0; i < 20; ++i)
                img->gate("vfscore", "write", [] {});
        });
        sched2.run();
        return m2.cycles() - before;
    };

    Cycles mpk = gateCost("intel-mpk");
    Cycles linux = gateCost("linux-pt");
    Cycles sel4 = gateCost("sel4-ipc");
    Cycles cubicle = gateCost("cubicle-mpk");
    EXPECT_LT(mpk, linux);     // MPK gates beat syscalls
    EXPECT_LT(linux, sel4);    // syscall beats microkernel IPC
    EXPECT_LT(sel4, cubicle);  // pkey_mprotect is the worst (6.4)
}

TEST_F(CoreFixture, GateExceptionRestoresCallerDomain)
{
    auto img = buildFrom(twoCompMpk);
    img->spawnIn("libredis", "t", [&] {
        Pkru before = mach.pkru;
        try {
            img->gate("lwip", "recv", [&]() -> void {
                throw std::runtime_error("callee exploded");
            });
        } catch (const std::runtime_error &) {
        }
        EXPECT_EQ(img->currentCompartment(), 0);
        EXPECT_EQ(mach.pkru, before);
    });
    sched.run();
}

TEST_F(CoreFixture, CrossingsAreCounted)
{
    auto img = buildFrom(twoCompMpk);
    img->spawnIn("libredis", "t", [&] {
        for (int i = 0; i < 3; ++i)
            img->gate("lwip", "recv", [] {});
    });
    sched.run();
    auto it = img->gateCrossings().find({0, 1});
    ASSERT_NE(it, img->gateCrossings().end());
    EXPECT_EQ(it->second, 3u);
}

} // namespace
} // namespace flexos
