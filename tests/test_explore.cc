/**
 * @file
 * Tests for partial safety ordering: order axioms, refinement,
 * Hasse-diagram construction, budget pruning, monotone exploration
 * savings, and the Figure 6/8 sweep space.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/logging.hh"
#include "base/rng.hh"
#include "core/toolchain.hh"
#include "explore/poset.hh"
#include "explore/wayfinder.hh"

namespace flexos {
namespace {

ConfigPoint
mk(std::vector<int> part, std::vector<unsigned> hard, int mech = 1,
   int share = 1)
{
    ConfigPoint p;
    p.partition = std::move(part);
    p.hardening = std::move(hard);
    p.mechanismRank = mech;
    p.sharingRank = share;
    return p;
}

TEST(Refines, BasicCases)
{
    EXPECT_TRUE(refines({0, 1, 2}, {0, 0, 0}));  // finer refines coarser
    EXPECT_FALSE(refines({0, 0, 0}, {0, 1, 2}));
    EXPECT_TRUE(refines({0, 1, 0}, {0, 1, 0}));  // reflexive
    EXPECT_TRUE(refines({0, 1, 1}, {0, 1, 1}));
    EXPECT_FALSE(refines({0, 0, 1}, {0, 1, 0})); // crosswise
}

TEST(CompareSafety, PaperC1C2C3Chain)
{
    // Paper section 5: C1 no isolation/no hardening <= C2 two
    // compartments <= C3 adding CFI on top.
    ConfigPoint c1 = mk({0, 0}, {0, 0});
    ConfigPoint c2 = mk({0, 1}, {0, 0});
    ConfigPoint c3 = mk({0, 1}, {1, 1});
    EXPECT_EQ(compareSafety(c1, c2), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(c2, c3), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(c1, c3), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(c3, c1), SafetyOrder::Greater);
}

TEST(CompareSafety, IncomparableDimensions)
{
    // More compartments vs. more hardening: not comparable.
    ConfigPoint a = mk({0, 1}, {0, 0});
    ConfigPoint b = mk({0, 0}, {1, 1});
    EXPECT_EQ(compareSafety(a, b), SafetyOrder::Incomparable);

    // Hardening on different components: not comparable.
    ConfigPoint c = mk({0, 0}, {1, 0});
    ConfigPoint d = mk({0, 0}, {0, 1});
    EXPECT_EQ(compareSafety(c, d), SafetyOrder::Incomparable);
}

TEST(CompareSafety, MechanismAndSharingRank)
{
    ConfigPoint mpk = mk({0, 1}, {0, 0}, 1, 1);
    ConfigPoint ept = mk({0, 1}, {0, 0}, 2, 1);
    EXPECT_EQ(compareSafety(mpk, ept), SafetyOrder::Less);

    ConfigPoint sharedStack = mk({0, 1}, {0, 0}, 1, 0);
    EXPECT_EQ(compareSafety(sharedStack, mpk), SafetyOrder::Less);
}

TEST(CompareSafety, EqualAndReflexive)
{
    ConfigPoint a = mk({0, 1}, {1, 0});
    EXPECT_EQ(compareSafety(a, a), SafetyOrder::Equal);
}

/** Property: antisymmetry and transitivity over random samples. */
TEST(CompareSafety, OrderAxiomsHoldOnRandomSamples)
{
    Rng rng(17);
    std::vector<ConfigPoint> pts;
    for (int i = 0; i < 40; ++i) {
        std::vector<int> part(4);
        for (int &b : part)
            b = static_cast<int>(rng.below(3));
        std::vector<unsigned> hard(4);
        for (unsigned &h : hard)
            h = static_cast<unsigned>(rng.below(4));
        pts.push_back(mk(part, hard, static_cast<int>(rng.below(3)),
                         static_cast<int>(rng.below(2))));
    }

    for (const auto &a : pts) {
        for (const auto &b : pts) {
            SafetyOrder ab = compareSafety(a, b);
            SafetyOrder ba = compareSafety(b, a);
            // Antisymmetry.
            if (ab == SafetyOrder::Less)
                EXPECT_EQ(ba, SafetyOrder::Greater);
            if (ab == SafetyOrder::Equal)
                EXPECT_EQ(ba, SafetyOrder::Equal);
            // Transitivity.
            for (const auto &c : pts) {
                if (ab == SafetyOrder::Less &&
                    compareSafety(b, c) == SafetyOrder::Less)
                    EXPECT_EQ(compareSafety(a, c), SafetyOrder::Less);
            }
        }
    }
}

TEST(Poset, HasseEdgesSkipTransitive)
{
    SafetyPoset poset;
    std::size_t c1 = poset.add(mk({0, 0}, {0, 0}));
    std::size_t c2 = poset.add(mk({0, 1}, {0, 0}));
    std::size_t c3 = poset.add(mk({0, 1}, {1, 1}));
    poset.buildEdges();
    // c1 -> c2 -> c3 but no direct c1 -> c3 edge.
    EXPECT_EQ(poset.coversOf(c1), std::vector<std::size_t>{c2});
    EXPECT_EQ(poset.coversOf(c2), std::vector<std::size_t>{c3});
    EXPECT_TRUE(poset.coversOf(c3).empty());
}

TEST(Poset, SafestWithinBudgetPicksMaximal)
{
    SafetyPoset poset;
    std::size_t fast = poset.add(mk({0, 0}, {0, 0}));
    std::size_t mid = poset.add(mk({0, 1}, {0, 0}));
    std::size_t safe = poset.add(mk({0, 1}, {1, 1}));
    std::size_t side = poset.add(mk({0, 0}, {1, 1}));
    poset.at(fast).perf = 100;
    poset.at(mid).perf = 70;
    poset.at(safe).perf = 30; // misses the budget below
    poset.at(side).perf = 60;
    poset.buildEdges();

    std::vector<std::size_t> best = poset.safestWithin(50);
    std::set<std::size_t> bestSet(best.begin(), best.end());
    // 'safe' misses the budget; 'mid' and 'side' are maximal among the
    // remaining; 'fast' is dominated by 'mid'.
    EXPECT_EQ(bestSet, (std::set<std::size_t>{mid, side}));
}

TEST(Poset, ExploreSkipsDominatedEvaluations)
{
    // A chain of increasing safety with monotonically decreasing
    // performance: exploration must stop evaluating past the first
    // node under budget.
    SafetyPoset poset;
    for (unsigned h = 0; h <= 3; ++h) {
        std::vector<unsigned> hard(2);
        hard[0] = h >= 1 ? 1 : 0;
        hard[1] = h >= 2 ? 1 : 0;
        ConfigPoint p = mk({0, 1}, hard, 1, 1);
        if (h == 3)
            p.mechanismRank = 2;
        poset.add(p);
    }
    poset.buildEdges();

    int evals = 0;
    std::size_t ran = poset.explore(
        [&](ConfigPoint &p) {
            ++evals;
            // Perf drops sharply with each hardening step.
            double perf = 100;
            for (unsigned h : p.hardening)
                perf -= h * 45;
            return perf;
        },
        40);
    EXPECT_LT(ran, poset.size()); // pruning saved evaluations
    EXPECT_EQ(static_cast<std::size_t>(evals), ran);
}

TEST(Poset, DotOutputMarksWinners)
{
    SafetyPoset poset;
    poset.add(mk({0, 0}, {0, 0}));
    poset.add(mk({0, 1}, {0, 0}));
    poset.at(0).perf = 90;
    poset.at(0).label = "A";
    poset.at(1).perf = 80;
    poset.at(1).label = "B";
    poset.buildEdges();
    std::string dot = poset.toDot(50);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("shape=star"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

// ------------------------------------------------------------ wayfinder

TEST(Wayfinder, SpaceHas80DistinctConfigurations)
{
    auto space = wayfinder::fig6Space();
    EXPECT_EQ(space.size(), 80u);
    std::set<std::string> seen;
    for (const auto &p : space) {
        std::string key;
        for (int b : p.partition)
            key += std::to_string(b);
        for (unsigned h : p.hardening)
            key += std::to_string(h);
        seen.insert(key);
    }
    EXPECT_EQ(seen.size(), 80u);
}

TEST(Wayfinder, PartitionsMatchFigure8Strategies)
{
    const auto &parts = wayfinder::fig6Partitions();
    ASSERT_EQ(parts.size(), 5u);
    std::multiset<int> counts;
    for (const auto &p : parts) {
        ConfigPoint cp;
        cp.partition = p;
        counts.insert(cp.compartments());
    }
    EXPECT_EQ(counts, (std::multiset<int>{1, 2, 2, 2, 3}));
}

TEST(Wayfinder, ConfigsValidateAndBuild)
{
    auto space = wayfinder::fig6Space();
    // Spot-check a handful of corners: the all-in-one, the 3-comp with
    // full hardening, and one asymmetric point.
    for (std::size_t idx : {0ul, 79ul, 37ul}) {
        SafetyConfig cfg =
            wayfinder::toSafetyConfig(space[idx], "libredis");
        LibraryRegistry reg = LibraryRegistry::standard();
        Toolchain tc(reg);
        EXPECT_NO_THROW(tc.validate(cfg)) << idx;
    }
}

TEST(Wayfinder, PointWithoutHardeningArityPanics)
{
    // A partition with the default (empty) hardening vector is a bug
    // in the caller, reported as such rather than read out of bounds.
    ConfigPoint p;
    p.partition = {0, 0, 0, 1};
    EXPECT_THROW(wayfinder::toSafetyConfig(p, "libredis"), PanicError);
    EXPECT_THROW(wayfinder::pointLabel(p, "libredis"), PanicError);
    p.hardening.assign(3, 0);
    EXPECT_THROW(wayfinder::toSafetyConfig(p, "libredis"), PanicError);
    EXPECT_THROW(wayfinder::pointLabel(p, "libredis"), PanicError);
}

TEST(Wayfinder, MeasuredPerfFallsAsSafetyRises)
{
    // The premise both pruners rest on: over the measured Figure 6
    // space, no configuration that is strictly safer than another is
    // also faster.
    auto space = wayfinder::fig6Space();
    std::vector<double> perf;
    for (const ConfigPoint &p : space)
        perf.push_back(wayfinder::measureRedis(p, 400));
    std::size_t strictPairs = 0;
    for (std::size_t i = 0; i < space.size(); ++i) {
        for (std::size_t j = 0; j < space.size(); ++j) {
            if (compareSafety(space[j], space[i]) != SafetyOrder::Greater)
                continue;
            ++strictPairs;
            EXPECT_LE(perf[j], perf[i])
                << wayfinder::pointLabel(space[j], "libredis")
                << " is safer than and faster than "
                << wayfinder::pointLabel(space[i], "libredis");
        }
    }
    EXPECT_GT(strictPairs, 0u);
}

TEST(Wayfinder, MeasuredThroughputOrdersSanely)
{
    auto space = wayfinder::fig6Space();
    // Config 0: no isolation, no hardening = fastest corner.
    double fastest = wayfinder::measureRedis(space[0], 200);
    // Config 79: 3 compartments, everything hardened = slow corner.
    double slowest = wayfinder::measureRedis(space[79], 200);
    EXPECT_GT(fastest, slowest * 1.5);
}

// ------------------------------------------------- mixed mechanisms

TEST(CompareSafety, PerBlockMechanismsOrderComponentWise)
{
    // Same partition {0,1}: all-EPT dominates MPK+EPT dominates
    // all-MPK; MPK+EPT and EPT+MPK are incomparable.
    auto mkMech = [](std::vector<int> blocks) {
        ConfigPoint p;
        p.partition = {0, 1};
        p.hardening = {0, 0};
        p.blockMechanism = std::move(blocks);
        return p;
    };
    ConfigPoint allMpk = mkMech({1, 1});
    ConfigPoint mixed = mkMech({1, 2});
    ConfigPoint allEpt = mkMech({2, 2});
    ConfigPoint flipped = mkMech({2, 1});
    EXPECT_EQ(compareSafety(allMpk, mixed), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(mixed, allEpt), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(allMpk, allEpt), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(mixed, flipped), SafetyOrder::Incomparable);
}

TEST(CompareSafety, MixedComparableWithHomogeneousScalar)
{
    // A scalar-rank (homogeneous) point and a per-block point compare
    // through the same component-wise rule.
    ConfigPoint homogeneous = mk({0, 1}, {0, 0}, /*mech=*/1);
    ConfigPoint mixed;
    mixed.partition = {0, 1};
    mixed.hardening = {0, 0};
    mixed.blockMechanism = {1, 2}; // mpk + ept
    EXPECT_EQ(compareSafety(homogeneous, mixed), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(mixed, homogeneous), SafetyOrder::Greater);
}

TEST(Wayfinder, MixedSpaceEnumeratesPerBlockAssignments)
{
    auto space = wayfinder::mixedMechanismSpace();
    // 5 partitions with {1,2,2,2,3} blocks over {none, mpk, ept,
    // cheri}: 4 + 16 + 16 + 16 + 64.
    EXPECT_EQ(space.size(), 116u);
    std::set<std::string> seen;
    for (const auto &p : space) {
        EXPECT_EQ(p.blockMechanism.size(),
                  static_cast<std::size_t>(p.compartments()));
        std::string key;
        for (int b : p.partition)
            key += std::to_string(b);
        key += "|";
        for (int m : p.blockMechanism)
            key += std::to_string(m);
        seen.insert(key);
    }
    EXPECT_EQ(seen.size(), 116u);
}

TEST(Wayfinder, MixedConfigsValidateAndMaterializeMechanisms)
{
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);
    auto space = wayfinder::mixedMechanismSpace();
    int heterogeneous = 0;
    for (const auto &p : space) {
        SafetyConfig cfg = wayfinder::toSafetyConfig(p, "libredis");
        EXPECT_NO_THROW(tc.validate(cfg));
        if (cfg.mechanisms().size() > 1)
            ++heterogeneous;
        // Each block's compartment carries its assigned mechanism.
        static const Mechanism byRank[] = {
            Mechanism::None, Mechanism::IntelMpk, Mechanism::VmEpt,
            Mechanism::Cheri};
        for (std::size_t c = 0; c < p.partition.size(); ++c) {
            Mechanism want =
                byRank[p.blockMechanism[static_cast<std::size_t>(
                    p.partition[c])]];
            EXPECT_EQ(cfg.compartments[static_cast<std::size_t>(
                                           p.partition[c])]
                          .mechanism,
                      want);
        }
    }
    EXPECT_GT(heterogeneous, 0);
}

TEST(Wayfinder, MixedPointMeasuresBetweenHomogeneousCorners)
{
    // Partition E (3 blocks): all-MPK vs net-block-on-EPT vs all-EPT.
    ConfigPoint base;
    base.partition = {0, 0, 1, 2};
    base.hardening = {0, 0, 0, 0};
    base.sharingRank = 1;

    auto withMechs = [&](std::vector<int> m) {
        ConfigPoint p = base;
        p.blockMechanism = std::move(m);
        return p;
    };
    double allMpk =
        wayfinder::measureRedis(withMechs({1, 1, 1}), 150);
    double netEpt =
        wayfinder::measureRedis(withMechs({1, 1, 2}), 150);
    double allEpt =
        wayfinder::measureRedis(withMechs({2, 2, 2}), 150);
    // Stronger mechanisms on more boundaries cost more.
    EXPECT_GT(allMpk, netEpt);
    EXPECT_GT(netEpt, allEpt);
}

TEST(Wayfinder, MixedLabelsRenderMechanisms)
{
    auto space = wayfinder::mixedMechanismSpace();
    // The last point of the last partition is all-cheri; an all-ept
    // point appears earlier in the same enumeration.
    std::string label = wayfinder::pointLabel(space.back(), "libredis");
    EXPECT_NE(label.find("{"), std::string::npos);
    EXPECT_NE(label.find("cheri"), std::string::npos);
    bool sawEpt = false;
    for (const auto &p : space)
        if (wayfinder::pointLabel(p, "libredis").find("ept") !=
            std::string::npos)
            sawEpt = true;
    EXPECT_TRUE(sawEpt);
}

TEST(Wayfinder, LabelsRenderPartitionAndHardening)
{
    auto space = wayfinder::fig6Space();
    std::string label = wayfinder::pointLabel(space[79], "libredis");
    EXPECT_NE(label.find("/"), std::string::npos);
    EXPECT_NE(label.find("●"), std::string::npos);
}

TEST(CompareSafety, DeniedEdgeSupersetIsSafer)
{
    ConfigPoint base;
    base.partition = {0, 0, 1, 2};
    base.hardening = {0, 0, 0, 0};

    ConfigPoint one = base, two = base, other = base;
    one.deniedEdges = {{1, 2}};
    two.deniedEdges = {{1, 2}, {2, 1}};
    other.deniedEdges = {{2, 1}};

    // Denying more edges is safer; disjoint sets are incomparable.
    EXPECT_EQ(compareSafety(base, one), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(one, two), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(two, one), SafetyOrder::Greater);
    EXPECT_EQ(compareSafety(one, other), SafetyOrder::Incomparable);

    // Across different partitions block ids do not line up: the
    // dimension only stays comparable when neither denies anything.
    ConfigPoint coarser = base;
    coarser.partition = {0, 0, 1, 1};
    EXPECT_EQ(compareSafety(coarser, base), SafetyOrder::Less);
    coarser.deniedEdges = {{0, 1}};
    EXPECT_EQ(compareSafety(coarser, one), SafetyOrder::Incomparable);
}

TEST(Wayfinder, LeastPrivilegeSpaceSkipsRequiredEdges)
{
    // Every enumerated point must be buildable: denied edges never
    // include an edge the static call graph needs, so validation and
    // matrix resolution succeed for all of them.
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);
    auto space = wayfinder::leastPrivilegeSpace();
    EXPECT_GE(space.size(), 5u); // at least the 5 bare partitions
    bool sawDeny = false;
    for (const ConfigPoint &p : space) {
        SafetyConfig cfg = wayfinder::toSafetyConfig(p, "libredis");
        EXPECT_NO_THROW(tc.validate(cfg));
        if (!p.deniedEdges.empty()) {
            // Image build runs the static-edge deny rejection; a
            // least-privilege point must never trip it.
            Machine mach;
            Scheduler sched(mach);
            cfg.heapBytes = 64 * 1024;
            cfg.sharedHeapBytes = 64 * 1024;
            EXPECT_NO_THROW(tc.build(mach, sched, cfg)->shutdown());
        }
        auto required =
            wayfinder::requiredBlockEdges(p.partition, "libredis");
        for (const auto &edge : p.deniedEdges) {
            sawDeny = true;
            for (const auto &req : required)
                EXPECT_NE(edge, req);
        }
        // The matrix resolves the deny rules the point asked for.
        GateMatrix m = GateMatrix::build(cfg);
        for (const auto &[f, t] : p.deniedEdges)
            EXPECT_TRUE(m.at(f, t).deny);
    }
    EXPECT_TRUE(sawDeny); // the dimension is not degenerate

    // Denied labels render and the points order in the poset.
    for (const ConfigPoint &p : space) {
        if (p.deniedEdges.empty())
            continue;
        EXPECT_NE(wayfinder::pointLabel(p, "libredis").find("deny{"),
                  std::string::npos);
    }
}

// ------------------------------------------------ pruned product sweep

/**
 * Deterministic stand-in for a measurement in the pruned boundary
 * sweep: perf falls with every safety axis (mechanism rank sum, blocks
 * behind the DSS gate, denied edges, crossing legs kept rather than
 * elided) and does not depend on batch width.
 */
double
syntheticPerf(const ConfigPoint &p)
{
    int mech = 0, dss = 0;
    for (int r : p.blockMechanism)
        mech += r;
    for (int f : p.blockGateFlavor)
        dss += f;
    int kept = 2 - static_cast<int>((p.elided & 1) + (p.elided >> 1));
    return 100.0 - 10.0 * mech - 5.0 * dss -
           5.0 * static_cast<double>(p.deniedEdges.size()) - 5.0 * kept;
}

TEST(PrunedSweep, LwipSplitListingAndPruningArePinned)
{
    const std::vector<int> partition = {0, 0, 0, 1}; // C: lwip split
    constexpr double budget = 95;
    std::vector<ConfigPoint> evaluated, accepted;
    std::size_t evals = wayfinder::prunedBoundarySweep(
        partition, "libredis",
        [&](ConfigPoint &p) {
            p.perf = syntheticPerf(p);
            evaluated.push_back(p);
            return p.perf;
        },
        budget, accepted);
    EXPECT_EQ(evals, evaluated.size());
    EXPECT_EQ(evals, 39u);

    // The accepted points in listing order: ascending index sum over
    // mechanism x flavour x deny x elide x batch, each axis listed
    // least safe first (elide: both, validate, scrub, none).
    std::vector<std::string> labels;
    for (const ConfigPoint &p : accepted) {
        EXPECT_EQ(p.perf, syntheticPerf(p));
        std::string l = wayfinder::pointLabel(p, "app");
        std::size_t axes = l.find('{');
        EXPECT_EQ(l.substr(0, axes), "app+newlib+uksched / lwip  [○○○○] ");
        labels.push_back(l.substr(axes));
    }
    EXPECT_EQ(accepted.size(), 15u);
    EXPECT_EQ(labels, (std::vector<std::string>{
        "{none/none} <light/light> elide:both",
        "{none/none} <light/light> batch4 elide:both",
        "{none/none} <light/light> elide:validate",
        "{none/none} <dss/light> elide:both",
        "{none/none} <light/light> batch8 elide:both",
        "{none/none} <light/light> batch4 elide:validate",
        "{none/none} <light/light> elide:scrub",
        "{none/none} <dss/light> batch4 elide:both",
        "{none/none} <light/dss> elide:both",
        "{none/none} <light/light> batch8 elide:validate",
        "{none/none} <light/light> batch4 elide:scrub",
        "{none/none} <dss/light> batch8 elide:both",
        "{none/none} <light/dss> batch4 elide:both",
        "{none/none} <light/light> batch8 elide:scrub",
        "{none/none} <light/dss> batch8 elide:both",
    }));

    // Monotone pruning: once a point misses the budget, nothing that
    // safety-dominates it at the same (perf-only) batch width is run.
    for (const ConfigPoint &miss : evaluated) {
        if (miss.perf >= budget)
            continue;
        for (const ConfigPoint &e : evaluated)
            if (e.gateBatch == miss.gateBatch) {
                EXPECT_NE(compareSafety(e, miss), SafetyOrder::Greater)
                    << wayfinder::pointLabel(e, "app") << " over "
                    << wayfinder::pointLabel(miss, "app");
            }
    }
}

} // namespace
} // namespace flexos
