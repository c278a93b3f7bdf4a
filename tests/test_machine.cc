/**
 * @file
 * Unit tests for the simulated machine: PKRU semantics, region map,
 * MMU checks, virtual clock, event counters.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.hh"
#include "core/image.hh"
#include "machine/counters.hh"
#include "machine/machine.hh"

namespace flexos {
namespace {

TEST(Pkru, AllowAllPermitsEverything)
{
    Pkru p(Pkru::allowAllValue);
    for (unsigned k = 0; k < numProtKeys; ++k) {
        EXPECT_TRUE(p.permits(k, AccessType::Read));
        EXPECT_TRUE(p.permits(k, AccessType::Write));
    }
}

TEST(Pkru, DenyAllBlocksDataAccess)
{
    Pkru p(Pkru::denyAllValue);
    for (unsigned k = 0; k < numProtKeys; ++k) {
        EXPECT_FALSE(p.permits(k, AccessType::Read));
        EXPECT_FALSE(p.permits(k, AccessType::Write));
    }
}

TEST(Pkru, ExecUnrestricted)
{
    // MPK does not gate instruction fetches (paper 4.1: W^X + gate
    // hardcoding provide the execution story).
    Pkru p(Pkru::denyAllValue);
    EXPECT_TRUE(p.permits(3, AccessType::Exec));
}

TEST(Pkru, AllowingSelectedKeysOnly)
{
    Pkru p = Pkru::allowing({1, 15});
    EXPECT_TRUE(p.permits(1, AccessType::Write));
    EXPECT_TRUE(p.permits(15, AccessType::Read));
    EXPECT_FALSE(p.permits(0, AccessType::Read));
    EXPECT_FALSE(p.permits(14, AccessType::Write));
}

TEST(Pkru, ReadOnlyKey)
{
    Pkru p(Pkru::denyAllValue);
    p.allowReadOnly(4);
    EXPECT_TRUE(p.permits(4, AccessType::Read));
    EXPECT_FALSE(p.permits(4, AccessType::Write));
}

TEST(Pkru, DenyAfterAllow)
{
    Pkru p = Pkru::allowing({2});
    p.deny(2);
    EXPECT_FALSE(p.permits(2, AccessType::Read));
}

TEST(Pkru, OutOfRangeKeyPanics)
{
    Pkru p;
    EXPECT_THROW(p.permits(16, AccessType::Read), PanicError);
}

TEST(MemoryMap, FindCoversInterior)
{
    MemoryMap mm;
    char buf[256];
    mm.add(buf, sizeof(buf), 5, "heap");
    const MemRegion *r = mm.find(buf + 100);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->key, 5);
    EXPECT_EQ(r->name, "heap");
}

TEST(MemoryMap, FindMissesOutside)
{
    MemoryMap mm;
    char buf[256];
    mm.add(buf + 64, 64, 1, "mid");
    EXPECT_EQ(mm.find(buf), nullptr);
    EXPECT_EQ(mm.find(buf + 128), nullptr);
    EXPECT_NE(mm.find(buf + 64), nullptr);
    EXPECT_NE(mm.find(buf + 127), nullptr);
}

TEST(MemoryMap, OverlapPanics)
{
    MemoryMap mm;
    char buf[256] = {};
    mm.add(buf + 32, 128, 1, "a");
    EXPECT_THROW(mm.add(buf + 96, 64, 2, "b"), PanicError);
    EXPECT_THROW(mm.add(buf + 16, 32, 2, "c"), PanicError);
}

TEST(MemoryMap, FindOverlapSeesRangeNotJustFirstByte)
{
    MemoryMap mm;
    char buf[256];
    mm.add(buf + 64, 64, 2, "mid");
    // Point lookup misses, range lookup hits.
    EXPECT_EQ(mm.find(buf + 56), nullptr);
    const MemRegion *r = mm.findOverlap(buf + 56, 16);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->name, "mid");
    // A range ending exactly at the region base does not overlap.
    EXPECT_EQ(mm.findOverlap(buf + 56, 8), nullptr);
    // A range starting inside still overlaps.
    EXPECT_NE(mm.findOverlap(buf + 100, 4), nullptr);
    // A range past the end does not.
    EXPECT_EQ(mm.findOverlap(buf + 128, 16), nullptr);
}

TEST(MemoryMap, ForEachOverlapVisitsAllRegionsInOrder)
{
    MemoryMap mm;
    char buf[256];
    mm.add(buf, 64, 1, "a");
    mm.add(buf + 64, 64, 2, "b");
    mm.add(buf + 192, 64, 3, "c");
    std::vector<std::string> seen;
    mm.forEachOverlap(buf + 32, 192, [&](const MemRegion &r) {
        seen.push_back(r.name);
    });
    // Overlaps a and b fully, skips the hole, ends inside c.
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], "a");
    EXPECT_EQ(seen[1], "b");
    EXPECT_EQ(seen[2], "c");
}

TEST(Machine, AccessExtendingIntoDeniedRegionFaults)
{
    Machine m;
    char buf[64];
    m.memMap.add(buf + 8, 32, 3, "denied");
    m.pkru = Pkru::allowing({0});
    // Starts in unregistered memory, extends into the denied region.
    EXPECT_THROW(m.checkAccess(buf, 16, AccessType::Write),
                 ProtectionFault);
    EXPECT_EQ(m.counter(Counter::MmuViolations), 1u);
    EXPECT_NO_THROW(m.checkAccess(buf, 8, AccessType::Write));
}

TEST(MemoryMap, RemoveAndRetag)
{
    MemoryMap mm;
    char buf[64];
    mm.add(buf, 64, 1, "a");
    mm.retag(buf, 9);
    EXPECT_EQ(mm.find(buf)->key, 9);
    mm.remove(buf);
    EXPECT_EQ(mm.find(buf), nullptr);
    EXPECT_EQ(mm.count(), 0u);
}

TEST(Machine, ClockAccumulatesAndConverts)
{
    Machine m;
    m.consume(2'200'000'000ull); // one second at 2.2 GHz
    EXPECT_DOUBLE_EQ(m.seconds(), 1.0);
    EXPECT_EQ(m.nanoseconds(), 1'000'000'000ull);
}

TEST(Machine, PerByteChargesInChunks)
{
    Machine m;
    m.consumePerByte(1, 1);
    EXPECT_EQ(m.cycles(), 1u);
    m.consumePerByte(17, 1);
    EXPECT_EQ(m.cycles(), 3u);
}

TEST(Machine, ChargingCanBeSuspended)
{
    Machine m;
    m.chargingEnabled = false;
    m.consume(1000);
    m.consumePerByte(4096, 1);
    EXPECT_EQ(m.cycles(), 0u);
}

TEST(Machine, EnforcingFaultsOnDeniedAccess)
{
    Machine m;
    char buf[64];
    m.memMap.add(buf, sizeof(buf), 3, "comp1-heap");
    m.pkru = Pkru::allowing({0});
    EXPECT_THROW(m.checkAccess(buf, 8, AccessType::Read), ProtectionFault);
    EXPECT_EQ(m.counter(Counter::MmuViolations), 1u);
}

TEST(Machine, FaultCarriesContext)
{
    Machine m;
    char buf[64];
    m.memMap.add(buf, sizeof(buf), 3, "comp1-heap");
    m.pkru = Pkru::allowing({0});
    try {
        m.checkAccess(buf + 4, 4, AccessType::Write);
        FAIL() << "expected ProtectionFault";
    } catch (const ProtectionFault &f) {
        EXPECT_EQ(f.key, 3);
        EXPECT_EQ(f.region, "comp1-heap");
        EXPECT_EQ(f.access, AccessType::Write);
    }
}

TEST(Machine, UnregisteredMemoryAlwaysPasses)
{
    Machine m;
    m.pkru = Pkru(Pkru::denyAllValue);
    int x = 0;
    EXPECT_NO_THROW(m.checkAccess(&x, sizeof(x), AccessType::Write));
}

TEST(Machine, ReadOnlySharedRegion)
{
    // A read-only data sharing strategy: key readable but not writable.
    Machine m;
    char buf[64];
    m.memMap.add(buf, sizeof(buf), 7, "ro-shared");
    m.pkru = Pkru(Pkru::denyAllValue);
    m.pkru.allowReadOnly(7);
    EXPECT_NO_THROW(m.checkAccess(buf, 1, AccessType::Read));
    EXPECT_THROW(m.checkAccess(buf, 1, AccessType::Write),
                 ProtectionFault);
}

TEST(Machine, CountersAccumulate)
{
    Machine m;
    m.bump(Counter::GateMpkDss);
    m.bump(Counter::GateMpkDss, 4);
    EXPECT_EQ(m.counter(Counter::GateMpkDss), 5u);
    EXPECT_EQ(m.counter("gate.mpk.dss"), 5u);
    EXPECT_EQ(m.counter("missing"), 0u);
}

TEST(Counters, EachIsDeclaredOnceWithUnitAndDescription)
{
    std::set<std::string_view> names;
    for (std::size_t i = 0; i < counterCount; ++i) {
        const CounterInfo &c = counterTable[i];
        SCOPED_TRACE(c.name);
        EXPECT_FALSE(std::string_view(c.name).empty());
        EXPECT_FALSE(std::string_view(c.unit).empty());
        EXPECT_FALSE(std::string_view(c.doc).empty());
        EXPECT_TRUE(names.insert(c.name).second) << "duplicate name";
        // The by-name lookup finds the row it was declared in.
        std::optional<Counter> id = counterNamed(c.name);
        ASSERT_TRUE(id);
        EXPECT_EQ(static_cast<std::size_t>(*id), i);
    }
    EXPECT_FALSE(counterNamed("gates.mpk"));
}

TEST(Counters, OnlyTouchedCountersAreReportedAndZeroBumpsCount)
{
    Machine m;
    EXPECT_TRUE(m.counters().empty());
    m.bump(Counter::GateEpt, 3);
    // A bump by 0 (an eviction of nothing, a zero-length stall) still
    // makes the counter visible, at 0: fig09 and the perfbench records
    // print every touched counter.
    m.bump(Counter::TcpOooEvicted, 0);
    m.stall(0);
    std::map<std::string, std::uint64_t> want{
        {"gate.ept", 3}, {"machine.stallCycles", 0}, {"tcp.oooEvicted", 0}};
    EXPECT_EQ(m.counters(), want);
    EXPECT_EQ(m.counter(Counter::GateMpkDss), 0u);
    EXPECT_EQ(m.counters().count("gate.mpk.dss"), 0u);
}

/**
 * The readers against a name-keyed reference: replay one seeded bump
 * sequence into the machine and into a map (`map[name] += n`), and
 * require the same counters() and, over a window, the same
 * statsDelta.
 */
TEST(Counters, ReadersMatchANameKeyedMapOverTheSameBumps)
{
    Rng rng(23);
    Machine m;
    std::map<std::string, std::uint64_t> ref;
    auto bumpBoth = [&](int count) {
        for (int k = 0; k < count; ++k) {
            std::size_t i = rng.below(counterCount);
            std::uint64_t n = rng.chance(1, 5) ? 0 : rng.range(1, 1000);
            m.bump(static_cast<Counter>(i), n);
            ref[counterTable[i].name] += n;
        }
    };
    bumpBoth(40);
    Image::StatsSnapshot before = m.counters();
    EXPECT_EQ(before, ref);
    std::map<std::string, std::uint64_t> refBefore = ref;
    bumpBoth(40);
    EXPECT_EQ(m.counters(), ref);

    // The window's delta: the keys that moved, by how much.
    Image::StatsSnapshot want;
    for (const auto &[name, value] : ref) {
        auto it = refBefore.find(name);
        std::uint64_t prev = it == refBefore.end() ? 0 : it->second;
        if (value > prev)
            want[name] = value - prev;
    }
    EXPECT_EQ(Image::statsDelta(before, m.counters()), want);
    EXPECT_FALSE(want.empty());
}

} // namespace
} // namespace flexos
