/**
 * @file
 * Mixed-mechanism (heterogeneous isolation) tests: per-boundary gate
 * dispatch through the callee compartment's backend, per-mechanism
 * boot/shutdown, range-aware MMU checks, EPT shutdown with servers
 * still blocked in RPC bodies, sim-stack reaping on thread exit, and
 * one placement rule shared by the auditor, the build and live gates.
 */

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "analysis/callgraph.hh"
#include "apps/deploy.hh"
#include "apps/iperf.hh"
#include "core/image.hh"
#include "core/toolchain.hh"
#include "explore/wayfinder.hh"

namespace flexos {
namespace {

/** MPK default + EPT network + unisolated libc compartment. */
const char *threeMechConfig = R"(
compartments:
- trusted:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: vm-ept
- loose:
    mechanism: none
libraries:
- libredis: trusted
- uksched: trusted
- lwip: net
- newlib: loose
)";

struct MixedFixture : ::testing::Test
{
    MixedFixture()
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

// ------------------------------------------------- per-boundary gates

TEST_F(MixedFixture, BootsOneBackendPerMechanism)
{
    auto img = buildFrom(threeMechConfig);
    EXPECT_EQ(img->backendCount(), 3u);
    EXPECT_EQ(img->backendFor(0).mechanism(), Mechanism::IntelMpk);
    EXPECT_EQ(img->backendFor(1).mechanism(), Mechanism::VmEpt);
    EXPECT_EQ(img->backendFor(2).mechanism(), Mechanism::None);
    EXPECT_NE(&img->backendFor(0), &img->backendFor(1));
    // Backends are flavour-agnostic: the MPK gate flavour is carried
    // by each boundary's GatePolicy, not baked into the backend.
    EXPECT_EQ(img->backendNames(), std::string("intel-mpk+vm-ept+none"));
    img->shutdown();
}

/**
 * The acceptance regression for per-boundary dispatch: under the old
 * single-backend image every crossing used compartment 0's mechanism
 * (here: all-MPK), so gate.ept and gate.none stayed zero.
 */
TEST_F(MixedFixture, CrossingsUseCalleeCompartmentsBackend)
{
    auto img = buildFrom(threeMechConfig);
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        // trusted -> net: the callee is EPT-backed -> RPC gate.
        img->gate("lwip", "recv", [] {});
        // trusted -> loose: callee unisolated -> plain-call gate.
        img->gate("newlib", "memcpy", [&] {
            // loose -> trusted: callee is MPK -> MPK gate.
            img->gate("uksched", "yield", [] {});
        });
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(mach.counter("gate.ept"), 1u);
    EXPECT_EQ(mach.counter("gate.none"), 1u);
    EXPECT_EQ(mach.counter("gate.mpk.dss"), 1u);

    // And the per-(from, to) ledger agrees boundary by boundary.
    const auto &xs = img->gateCrossings();
    EXPECT_EQ(xs.at({0, 1}), 1u); // trusted -> net   (EPT)
    EXPECT_EQ(xs.at({0, 2}), 1u); // trusted -> loose (none)
    EXPECT_EQ(xs.at({2, 0}), 1u); // loose -> trusted (MPK)
    img->shutdown();
}

TEST_F(MixedFixture, EptEntryCheckAppliesOnlyAtEptBoundary)
{
    auto img = buildFrom(threeMechConfig);
    bool rejected = false, looseRan = false;
    img->spawnIn("libredis", "t", [&] {
        // Crossing into the EPT compartment validates entry points...
        try {
            img->gate("lwip", "internal_tcp_input", [] {});
        } catch (const CfiViolation &) {
            rejected = true;
        }
        // ...crossing into the unhardened 'none' compartment does not.
        img->gate("newlib", "not_an_entry_point",
                  [&] { looseRan = true; });
    });
    sched.runUntil([&] { return looseRan; });
    EXPECT_TRUE(rejected);
    EXPECT_TRUE(looseRan);
    img->shutdown();
}

TEST_F(MixedFixture, ToolchainReportNamesPerBoundaryGates)
{
    auto img = buildFrom(threeMechConfig);
    const BuildReport &rep = tc.report();
    EXPECT_EQ(rep.backendName, std::string("intel-mpk+vm-ept+none"));

    // The gate plan names the callee boundary's mechanism: calls into
    // lwip (net) are EPT RPC gates, calls into uksched (trusted) are
    // MPK gates, calls into newlib (loose) are plain-call gates.
    bool eptGate = false, mpkGate = false, noneGate = false;
    for (const std::string &t : rep.transformations) {
        if (t.find("flexos_gate(lwip") != std::string::npos &&
            t.find("vm-ept gate") != std::string::npos)
            eptGate = true;
        if (t.find("flexos_gate(uksched") != std::string::npos &&
            t.find("intel-mpk(dss) gate") != std::string::npos)
            mpkGate = true;
        if (t.find("flexos_gate(newlib") != std::string::npos &&
            t.find("none gate") != std::string::npos)
            noneGate = true;
    }
    EXPECT_TRUE(eptGate);
    EXPECT_TRUE(mpkGate);
    EXPECT_TRUE(noneGate);

    // The linker script records each compartment's mechanism.
    EXPECT_NE(rep.linkerScript.find("mechanism intel-mpk"),
              std::string::npos);
    EXPECT_NE(rep.linkerScript.find("mechanism vm-ept"),
              std::string::npos);
    EXPECT_NE(rep.linkerScript.find("backends: intel-mpk+vm-ept"),
              std::string::npos);
    // ...and the full (from, to) policy matrix.
    EXPECT_NE(rep.linkerScript.find("gate-policy matrix"),
              std::string::npos);
    EXPECT_NE(rep.linkerScript.find("trusted -> net : vm-ept"),
              std::string::npos);
    img->shutdown();
}

TEST_F(MixedFixture, IsolationStillHoldsAcrossMixedBoundaries)
{
    auto img = buildFrom(threeMechConfig);
    // EPT compartment memory is still keyed: an MPK-compartment thread
    // cannot read lwip's private heap directly.
    int *secret = nullptr;
    bool faulted = false, done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [&] {
            secret = static_cast<int *>(img->heapOf("lwip").alloc(16));
            img->store(secret, 7);
        });
        try {
            img->load(secret);
        } catch (const ProtectionFault &) {
            faulted = true;
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
    EXPECT_TRUE(faulted);
    img->shutdown();
}

// ---------------------------------------------- range-aware MMU check

TEST_F(MixedFixture, CheckAccessCatchesWriteExtendingIntoDeniedRegion)
{
    // Regression: the old point lookup consulted only the region
    // containing the first byte, so a 16-byte write starting 8 bytes
    // before a denied region sailed through.
    alignas(16) static char arena[128];
    mach.memMap.add(arena + 8, 64, 3, "denied");
    mach.pkru = Pkru::allowing({0});
    EXPECT_THROW(mach.checkAccess(arena, 16, AccessType::Write),
                 ProtectionFault);
    EXPECT_EQ(mach.violations, 1u);
    // The same access entirely before the region passes.
    EXPECT_NO_THROW(mach.checkAccess(arena, 8, AccessType::Write));
    mach.memMap.remove(arena + 8);
}

TEST_F(MixedFixture, CheckAccessCrossesPermittedIntoDeniedRegion)
{
    alignas(16) static char arena[128];
    mach.memMap.add(arena, 64, 0, "mine");
    mach.memMap.add(arena + 64, 64, 3, "theirs");
    mach.pkru = Pkru::allowing({0});
    // Starts in permitted memory, runs into the denied region.
    EXPECT_THROW(mach.checkAccess(arena + 56, 16, AccessType::Read),
                 ProtectionFault);
    EXPECT_NO_THROW(mach.checkAccess(arena + 48, 16, AccessType::Read));
    mach.memMap.remove(arena);
    mach.memMap.remove(arena + 64);
}

// ------------------------------------------------------- EPT shutdown

TEST_F(MixedFixture, EptShutdownCancelsServerBlockedInRpcBody)
{
    auto img = buildFrom(threeMechConfig);
    WaitQueue never(sched); // nobody ever signals this
    bool inBody = false;
    Thread *caller = img->spawnIn("libredis", "caller", [&] {
        img->gate("lwip", "recv", [&] {
            inBody = true;
            never.wait(); // an RPC that will not complete
        });
    });
    ASSERT_TRUE(sched.runUntil([&] { return inBody; }));

    // The bounded drain cannot finish this server; teardown must
    // unwind it instead of destroying the rings under its feet.
    img->shutdown();
    EXPECT_EQ(mach.counter("gate.ept.shutdownCancels"), 1u);

    // The caller observes the cancellation and unwinds cleanly.
    sched.run();
    EXPECT_EQ(caller->state(), Thread::State::Finished);
    EXPECT_FALSE(caller->failed()) << caller->error();
}

TEST_F(MixedFixture, EptShutdownDrainsQueuedRpcs)
{
    auto img = buildFrom(threeMechConfig);
    WaitQueue never(sched);
    int inBody = 0;
    std::vector<Thread *> callers;
    // Ten callers into one VM: the pool grows elastically from the
    // base 2 up to the cap of 8, every server blocks inside a body,
    // and the last two RPCs sit queued in the ring.
    for (int i = 0; i < 10; ++i) {
        callers.push_back(img->spawnIn(
            "libredis", "caller-" + std::to_string(i), [&] {
                img->gate("lwip", "recv", [&] {
                    ++inBody;
                    never.wait();
                });
            }));
    }
    EXPECT_FALSE(sched.run()); // everything is blocked
    ASSERT_EQ(inBody, 8);
    EXPECT_EQ(mach.counter("gate.ept.elasticSpawns"), 6u);

    // Shutdown must cancel all busy servers AND fail the queued RPCs —
    // otherwise their callers wait on doneWait forever.
    img->shutdown();
    EXPECT_EQ(mach.counter("gate.ept.shutdownCancels"), 8u);
    EXPECT_EQ(mach.counter("gate.ept.shutdownDrained"), 2u);

    sched.run();
    for (Thread *t : callers) {
        EXPECT_EQ(t->state(), Thread::State::Finished);
        EXPECT_FALSE(t->failed()) << t->error();
    }
}

// --------------------------------------------------- sim-stack reaping

TEST_F(MixedFixture, SimStacksReapedWhenThreadsExit)
{
    auto img = buildFrom(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libredis: comp1
- lwip: comp2
)");
    std::size_t baseline = mach.memMap.count();

    // A 100-thread storm: every thread's first DSS-gate crossing lazily
    // registers a private+shadow stack pair for (thread, comp2).
    for (int i = 0; i < 100; ++i) {
        img->spawnIn("libredis", "worker-" + std::to_string(i), [&] {
            img->gate("lwip", "recv", [] {});
        });
    }
    sched.run();

    // All workers finished: their stacks (and memMap regions) are gone,
    // so long-running images don't accrete dead regions that slow every
    // MMU lookup.
    EXPECT_EQ(mach.memMap.count(), baseline);
    EXPECT_GE(mach.counter("image.simStackReaps"), 100u);
    img->shutdown();
}

// ------------------------------------------- deployment under load

TEST_F(MixedFixture, MixedDeploymentServesMultiFlowIperf)
{
    DeployOptions opts;
    opts.withFs = false;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    Deployment dep(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- net:
    mechanism: vm-ept
libraries:
- libiperf: app
- newlib: sys
- uksched: sys
- lwip: net
)",
                   opts);
    dep.start();
    IperfResult res =
        runIperfMulti(dep.image(), dep.libc(), dep.clientStack(),
                      16 * 1024, 2048, /*flows=*/4, /*port=*/5201);

    EXPECT_EQ(res.bytes, 4u * 16 * 1024);
    EXPECT_GT(res.gbitPerSec, 0.0);
    // Both mechanisms carried traffic on their own boundaries.
    EXPECT_GT(dep.machine().counter("gate.ept"), 0u);
    EXPECT_GT(dep.machine().counter("gate.mpk.dss"), 0u);

    // All per-connection fibers from the first run exited and their
    // sim stacks were reaped; only long-lived threads (pollers, RPC
    // servers — including elastically spawned ones) may still hold
    // stacks, and they build them lazily. The region count must
    // therefore reach a fixed point over identical runs instead of
    // growing per run — the unbounded-accretion regression.
    EXPECT_GT(dep.machine().counter("image.simStackReaps"), 0u);
    std::size_t prev = dep.machine().memMap.count();
    int stableRuns = 0;
    for (int run = 0; run < 6 && stableRuns < 2; ++run) {
        IperfResult res2 = runIperfMulti(
            dep.image(), dep.libc(), dep.clientStack(), 16 * 1024,
            2048, /*flows=*/4, /*port=*/static_cast<uint16_t>(5202 + run));
        EXPECT_EQ(res2.bytes, 4u * 16 * 1024);
        std::size_t now = dep.machine().memMap.count();
        stableRuns = now == prev ? stableRuns + 1 : 0;
        prev = now;
    }
    dep.stop();
    EXPECT_GE(stableRuns, 2);
}

// --------------------------------------------------- one placement rule

/** (caller library, callee library) static call edges, by name. */
using CallSet = std::set<std::pair<std::string, std::string>>;
/** Compartment-name pair -> the call edges crossing it. */
using EdgeMap = std::map<std::pair<std::string, std::string>, CallSet>;

/**
 * The auditor's static edges, the build's gate instantiation and the
 * live gate agree on where every call lands. Over fig6's 80 configs
 * and the mixed EPT/MPK shapes of this file: the CompartmentGraph's
 * edges equal the crossings the build reports, and one live gate from
 * a thread in each caller library to each static callee increments
 * exactly the reported ledger cell, or `gate.direct` when the build
 * made the call direct.
 */
TEST_F(MixedFixture, AuditorBuildAndLiveGatesAgreeOnWhereCallsLand)
{
    std::vector<SafetyConfig> cfgs;
    for (const ConfigPoint &p : wayfinder::fig6Space())
        cfgs.push_back(wayfinder::toSafetyConfig(p, "libredis"));
    SafetyConfig mixed = SafetyConfig::parse(threeMechConfig);
    cfgs.push_back(mixed);
    // The allocator homed in the trusted MPK compartment: the EPT
    // caller (lwip) keeps it local, the unisolated newlib crosses.
    SafetyConfig tcbHome = mixed;
    tcbHome.libraries.emplace_back("ukalloc", "trusted");
    cfgs.push_back(tcbHome);
    // The iperf deployment's MPK/MPK/EPT shape: newlib and uksched in
    // a second MPK compartment.
    SafetyConfig mpkEpt = tcbHome;
    mpkEpt.compartments[2].mechanism = Mechanism::IntelMpk;
    for (auto &[lib, comp] : mpkEpt.libraries)
        if (lib == "uksched")
            comp = "loose";
    cfgs.push_back(mpkEpt);
    ASSERT_EQ(cfgs.size(), 83u);

    int eptCallsKeptTcbLocal = 0;
    for (SafetyConfig &cfg : cfgs) {
        cfg.heapBytes = 1 << 20;
        cfg.sharedHeapBytes = 1 << 20;
        SCOPED_TRACE(cfg.toText());
        Machine m;
        Scheduler s(m);
        Toolchain chain(reg);
        auto img = chain.build(m, s, cfg);
        const std::size_t n = img->compartmentCount();

        // The build's verdict per static call: the crossed cell, or
        // nullopt for a direct call.
        EdgeMap built;
        std::map<std::pair<std::string, std::string>,
                 std::optional<std::size_t>>
            verdict;
        for (const std::string &t : chain.report().transformations) {
            std::size_t colon = t.find(": flexos_gate(");
            if (colon == std::string::npos)
                continue; // a shared-data annotation line
            std::size_t at = colon + std::string(": flexos_gate(").size();
            std::pair<std::string, std::string> call{
                t.substr(0, colon), t.substr(at, t.find(", ...)") - at)};
            std::size_t open = t.find(" gate [");
            if (open == std::string::npos) {
                verdict[call] = std::nullopt;
                continue;
            }
            open += std::string(" gate [").size();
            std::size_t arrow = t.find(" -> ", open);
            std::string from = t.substr(open, arrow - open);
            std::string to = t.substr(arrow + 4, t.size() - 1 - arrow - 4);
            built[{from, to}].insert(call);
            verdict[call] = static_cast<std::size_t>(
                cfg.compartmentIndex(from) * static_cast<int>(n) +
                cfg.compartmentIndex(to));
        }

        EdgeMap audited;
        analysis::CompartmentGraph g =
            analysis::buildCompartmentGraph(cfg, reg);
        for (const analysis::CompartmentGraph::Edge &e : g.edges)
            for (const analysis::CompartmentGraph::Witness &w : e.witnesses)
                audited[{g.comps[static_cast<std::size_t>(e.from)],
                         g.comps[static_cast<std::size_t>(e.to)]}]
                    .insert({w.lib, w.callee});
        EXPECT_EQ(audited, built);

        for (const auto &[call, cell] : verdict) {
            const auto &[lib, callee] = call;
            SCOPED_TRACE(lib + " calls " + callee);
            ASSERT_FALSE(reg.get(callee).entryPoints.empty());
            std::string entry = *reg.get(callee).entryPoints.begin();
            std::vector<Image::BoundaryCounts> before = img->ledger();
            std::uint64_t directBefore = m.counter("gate.direct");
            bool done = false;
            img->spawnIn(lib, "probe", [&] {
                img->gate(callee, entry.c_str(), [] {});
                done = true;
            });
            ASSERT_TRUE(s.runUntil([&] { return done; }));

            std::vector<std::uint64_t> moved(n * n), expected(n * n, 0);
            for (std::size_t i = 0; i < n * n; ++i)
                moved[i] = img->ledger()[i].crossings - before[i].crossings;
            if (cell)
                expected[*cell] = 1;
            EXPECT_EQ(moved, expected);
            EXPECT_EQ(m.counter("gate.direct"), directBefore + (cell ? 0 : 1));

            // A TCB callee homed elsewhere, called from an EPT VM.
            int from = img->compartmentIndexOf(lib);
            int home = -1;
            for (const auto &[placed, comp] : cfg.libraries)
                if (placed == callee)
                    home = cfg.compartmentIndex(comp);
            if (!cell && reg.get(callee).tcb && home >= 0 && home != from &&
                cfg.compartments[static_cast<std::size_t>(from)].mechanism ==
                    Mechanism::VmEpt)
                ++eptCallsKeptTcbLocal;
        }
    }
    EXPECT_GT(eptCallsKeptTcbLocal, 0);
}

} // namespace
} // namespace flexos

