/**
 * @file
 * Unit and property tests for the TLSF and Lea allocators: alignment,
 * reuse, coalescing, exhaustion, and randomized stress with invariant
 * checking, run over both implementations via a typed/parameterized
 * suite.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "machine/machine.hh"
#include "ukalloc/lea.hh"
#include "ukalloc/tlsf.hh"

namespace flexos {
namespace {

enum class Kind { Tlsf, Lea };

std::unique_ptr<Allocator>
makeAllocator(Machine &m, Kind k, std::size_t bytes)
{
    if (k == Kind::Tlsf)
        return std::make_unique<TlsfAllocator>(m, bytes);
    return std::make_unique<LeaAllocator>(m, bytes);
}

void
checkConsistency(Allocator &a)
{
    if (auto *t = dynamic_cast<TlsfAllocator *>(&a))
        t->checkConsistency();
    else if (auto *l = dynamic_cast<LeaAllocator *>(&a))
        l->checkConsistency();
}

class AllocatorTest : public ::testing::TestWithParam<Kind>
{
  protected:
    Machine mach;
};

TEST_P(AllocatorTest, BasicAllocFree)
{
    auto a = makeAllocator(mach, GetParam(), 64 * 1024);
    void *p = a->alloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, 100);
    EXPECT_GE(a->blockSize(p), 100u);
    a->free(p);
    EXPECT_EQ(a->stats().allocs, 1u);
    EXPECT_EQ(a->stats().frees, 1u);
    checkConsistency(*a);
}

TEST_P(AllocatorTest, ReturnsAlignedPointers)
{
    auto a = makeAllocator(mach, GetParam(), 64 * 1024);
    for (std::size_t sz : {1u, 7u, 16u, 33u, 100u, 1000u}) {
        void *p = a->alloc(sz);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % allocAlign, 0u)
            << "size " << sz;
    }
    checkConsistency(*a);
}

TEST_P(AllocatorTest, DistinctLiveBlocksDoNotOverlap)
{
    auto a = makeAllocator(mach, GetParam(), 256 * 1024);
    std::vector<std::pair<char *, std::size_t>> live;
    for (int i = 0; i < 50; ++i) {
        std::size_t sz = 16 + 13 * static_cast<std::size_t>(i);
        auto *p = static_cast<char *>(a->alloc(sz));
        ASSERT_NE(p, nullptr);
        for (auto &[q, qsz] : live)
            EXPECT_TRUE(p + sz <= q || q + qsz <= p) << "overlap";
        live.emplace_back(p, sz);
    }
    checkConsistency(*a);
}

TEST_P(AllocatorTest, FreedMemoryIsReused)
{
    auto a = makeAllocator(mach, GetParam(), 64 * 1024);
    void *p = a->alloc(128);
    a->free(p);
    void *q = a->alloc(128);
    EXPECT_EQ(p, q); // same-size refill should land on the same block
}

TEST_P(AllocatorTest, CoalescingAllowsLargeRefill)
{
    auto a = makeAllocator(mach, GetParam(), 64 * 1024);
    // Fragment the heap, then free everything: a near-arena-size
    // allocation must succeed again, proving frees coalesced.
    std::vector<void *> ps;
    for (int i = 0; i < 64; ++i) {
        void *p = a->alloc(512);
        ASSERT_NE(p, nullptr);
        ps.push_back(p);
    }
    for (void *p : ps)
        a->free(p);
    checkConsistency(*a);
    void *big = a->alloc(48 * 1024);
    EXPECT_NE(big, nullptr);
}

TEST_P(AllocatorTest, ExhaustionReturnsNull)
{
    auto a = makeAllocator(mach, GetParam(), 16 * 1024);
    std::vector<void *> ps;
    while (void *p = a->alloc(1024))
        ps.push_back(p);
    EXPECT_GE(ps.size(), 8u);
    EXPECT_GT(a->stats().failed, 0u);
    for (void *p : ps)
        a->free(p);
    checkConsistency(*a);
}

TEST_P(AllocatorTest, DoubleFreePanics)
{
    auto a = makeAllocator(mach, GetParam(), 16 * 1024);
    void *p = a->alloc(64);
    a->free(p);
    EXPECT_THROW(a->free(p), PanicError);
}

TEST_P(AllocatorTest, FreeNullIsNoop)
{
    auto a = makeAllocator(mach, GetParam(), 16 * 1024);
    EXPECT_NO_THROW(a->free(nullptr));
}

TEST_P(AllocatorTest, LiveBytesTrackPeak)
{
    auto a = makeAllocator(mach, GetParam(), 64 * 1024);
    void *p = a->alloc(1024);
    void *q = a->alloc(2048);
    std::size_t peak = a->stats().liveBytes;
    a->free(p);
    a->free(q);
    EXPECT_EQ(a->stats().liveBytes, 0u);
    EXPECT_EQ(a->stats().peakBytes, peak);
}

TEST_P(AllocatorTest, ChargesCyclesWhenMachinePresent)
{
    // A bystander built after the allocator's own machine: the
    // allocator charges the machine it was built with, never the most
    // recently constructed one.
    auto a = makeAllocator(mach, GetParam(), 16 * 1024);
    Machine bystander;
    Cycles before = mach.cycles();
    void *p = a->alloc(64);
    EXPECT_GT(mach.cycles(), before);
    a->free(p);
    EXPECT_GT(a->stats().steps, 0u);
    EXPECT_EQ(bystander.cycles(), 0u);
}

TEST_P(AllocatorTest, WritesNeverCorruptNeighbours)
{
    auto a = makeAllocator(mach, GetParam(), 128 * 1024);
    std::map<char *, std::pair<std::size_t, char>> live;
    Rng rng(7);
    for (int round = 0; round < 400; ++round) {
        if (live.size() < 20 && rng.chance(3, 5)) {
            std::size_t sz = 1 + rng.below(600);
            auto *p = static_cast<char *>(a->alloc(sz));
            if (p) {
                char tag = static_cast<char>(rng.below(256));
                std::memset(p, tag, sz);
                live[p] = {sz, tag};
            }
        } else if (!live.empty()) {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            auto [sz, tag] = it->second;
            for (std::size_t i = 0; i < sz; ++i)
                ASSERT_EQ(it->first[i], tag) << "corruption at " << i;
            a->free(it->first);
            live.erase(it);
        }
    }
    checkConsistency(*a);
}

/** Randomized stress: invariants hold after every 64 operations. */
TEST_P(AllocatorTest, RandomStressKeepsInvariants)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        auto a = makeAllocator(mach, GetParam(), 512 * 1024);
        Rng rng(seed);
        std::vector<void *> live;
        for (int i = 0; i < 3000; ++i) {
            if (live.empty() || rng.chance(11, 20)) {
                std::size_t sz = 1 + rng.below(4000);
                void *p = a->alloc(sz);
                if (p)
                    live.push_back(p);
            } else {
                std::size_t idx = rng.below(live.size());
                a->free(live[idx]);
                live[idx] = live.back();
                live.pop_back();
            }
            if (i % 64 == 0)
                checkConsistency(*a);
        }
        for (void *p : live)
            a->free(p);
        checkConsistency(*a);
        EXPECT_EQ(a->stats().liveBytes, 0u) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Allocators, AllocatorTest,
                         ::testing::Values(Kind::Tlsf, Kind::Lea),
                         [](const auto &info) {
                             return info.param == Kind::Tlsf ? "Tlsf"
                                                             : "Lea";
                         });

TEST(TlsfSpecific, ExternalArenaIsUsed)
{
    Machine mach;
    std::vector<char> arena(32 * 1024);
    TlsfAllocator a(mach, arena.data(), arena.size());
    auto *p = static_cast<char *>(a.alloc(100));
    ASSERT_NE(p, nullptr);
    EXPECT_GE(p, arena.data());
    EXPECT_LT(p, arena.data() + arena.size());
}

TEST(LeaSpecific, DesignatedVictimMakesRepeatCyclesCheap)
{
    // The dlmalloc fast path: repeated same-size alloc/free settles into
    // very few steps per op — the property behind CubicleOS' allocator
    // advantage in the paper's Figure 10 discussion.
    Machine mach;
    LeaAllocator a(mach, 256 * 1024);
    void *warm = a.alloc(100);
    a.free(warm);
    std::uint64_t before = a.stats().steps;
    for (int i = 0; i < 100; ++i)
        a.free(a.alloc(100));
    std::uint64_t perOp = (a.stats().steps - before) / 200;
    EXPECT_LE(perOp, 4u);
}

TEST(AllocatorComparison, LeaCheaperThanTlsfOnSqlitePattern)
{
    // The pattern the SQLite benchmark produces: bursts of short-lived
    // equal-size allocations (journal pages / cell buffers).
    Machine mach;
    TlsfAllocator tlsf(mach, 512 * 1024);
    LeaAllocator lea(mach, 512 * 1024);
    auto run = [](Allocator &a) {
        for (int txn = 0; txn < 500; ++txn) {
            void *j = a.alloc(4096);
            void *c = a.alloc(256);
            a.free(c);
            a.free(j);
        }
        return a.stats().steps;
    };
    EXPECT_LT(run(lea), run(tlsf));
}

} // namespace
} // namespace flexos
