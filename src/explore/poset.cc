#include "explore/poset.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <sstream>

#include "base/logging.hh"

namespace flexos {

int
ConfigPoint::compartments() const
{
    std::set<int> blocks(partition.begin(), partition.end());
    return static_cast<int>(blocks.size());
}

int
ConfigPoint::mechanismRankOf(std::size_t c) const
{
    if (blockMechanism.empty())
        return mechanismRank;
    panic_if(c >= partition.size(), "component index out of range");
    auto block = static_cast<std::size_t>(partition[c]);
    panic_if(block >= blockMechanism.size(),
             "partition block without a mechanism assignment");
    return blockMechanism[block];
}

int
ConfigPoint::gateFlavorRankOf(std::size_t c) const
{
    if (blockGateFlavor.empty())
        return 1; // full DSS gate everywhere by default
    panic_if(c >= partition.size(), "component index out of range");
    auto block = static_cast<std::size_t>(partition[c]);
    panic_if(block >= blockGateFlavor.size(),
             "partition block without a gate-flavour assignment");
    return blockGateFlavor[block];
}

bool
mechanismRankLe(int a, int b)
{
    if (a == b)
        return true;
    if (a > b)
        return false;
    // a < b is ordered except across the ept(2)/cheri(3) antichain.
    return !(a == 2 && b == 3);
}

bool
refines(const std::vector<int> &a, const std::vector<int> &b)
{
    panic_if(a.size() != b.size(), "partition size mismatch");
    // a refines b iff components sharing a block in a also share in b.
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = i + 1; j < a.size(); ++j) {
            if (a[i] == a[j] && b[i] != b[j])
                return false;
        }
    }
    return true;
}

namespace {

/** Tri-state accumulate: does a dominate b on this dimension? */
enum class Dim { ALeq, AGeq, Both, Neither };

Dim
combine(Dim acc, bool aLeB, bool bLeA)
{
    Dim cur = aLeB && bLeA ? Dim::Both
              : aLeB       ? Dim::ALeq
              : bLeA       ? Dim::AGeq
                           : Dim::Neither;
    if (acc == Dim::Both)
        return cur;
    if (cur == Dim::Both)
        return acc;
    if (acc == cur)
        return acc;
    return Dim::Neither;
}

} // namespace

SafetyOrder
compareSafety(const ConfigPoint &a, const ConfigPoint &b)
{
    panic_if(a.partition.size() != b.partition.size() ||
                 a.hardening.size() != b.hardening.size(),
             "comparing configurations over different components");

    Dim acc = Dim::Both;

    // 1) Compartmentalization granularity: refinement order.
    acc = combine(acc, refines(b.partition, a.partition),
                  refines(a.partition, b.partition));

    // 2) Per-component hardening: subset order on each component.
    bool aSub = true, bSub = true;
    for (std::size_t i = 0; i < a.hardening.size(); ++i) {
        if ((a.hardening[i] & b.hardening[i]) != a.hardening[i])
            aSub = false;
        if ((a.hardening[i] & b.hardening[i]) != b.hardening[i])
            bSub = false;
    }
    acc = combine(acc, aSub, bSub);

    // 3) Mechanism strength, component-wise: with per-block mechanisms
    // (mixed images) a config dominates only if every component's
    // boundary is at least as strong — under the partial mechanism
    // order (ept and cheri are incomparable). Homogeneous configs
    // degenerate to the scalar-rank comparison.
    bool aMechLe = true, bMechLe = true;
    if (a.partition.empty()) {
        aMechLe = mechanismRankLe(a.mechanismRank, b.mechanismRank);
        bMechLe = mechanismRankLe(b.mechanismRank, a.mechanismRank);
    }
    for (std::size_t c = 0; c < a.partition.size(); ++c) {
        int ra = a.mechanismRankOf(c);
        int rb = b.mechanismRankOf(c);
        if (!mechanismRankLe(ra, rb))
            aMechLe = false;
        if (!mechanismRankLe(rb, ra))
            bMechLe = false;
    }
    acc = combine(acc, aMechLe, bMechLe);

    // 3b) Per-boundary MPK gate flavour, component-wise: the DSS gate
    // (register scrub + stack switch) dominates the light gate on
    // every boundary it guards.
    bool aFlavLe = true, bFlavLe = true;
    for (std::size_t c = 0; c < a.partition.size(); ++c) {
        int ra = a.gateFlavorRankOf(c);
        int rb = b.gateFlavorRankOf(c);
        if (ra > rb)
            aFlavLe = false;
        if (rb > ra)
            bFlavLe = false;
    }
    acc = combine(acc, aFlavLe, bFlavLe);

    // 3c) Least-privilege call graph: denying a superset of edges is
    // safer. Block ids only line up between identical partitions;
    // otherwise the dimension is neutral when both sets are empty and
    // incomparable when either denies anything.
    {
        std::set<std::pair<int, int>> da(a.deniedEdges.begin(),
                                         a.deniedEdges.end()),
            db(b.deniedEdges.begin(), b.deniedEdges.end());
        bool comparable = a.partition == b.partition ||
                          (da.empty() && db.empty());
        bool aSubset = std::includes(db.begin(), db.end(), da.begin(),
                                     da.end());
        bool bSubset = std::includes(da.begin(), da.end(), db.begin(),
                                     db.end());
        acc = combine(acc, comparable && aSubset, comparable && bSubset);
    }

    // 4) Data-isolation strength.
    acc = combine(acc, a.sharingRank <= b.sharingRank,
                  b.sharingRank <= a.sharingRank);

    switch (acc) {
      case Dim::Both:
        return SafetyOrder::Equal;
      case Dim::ALeq:
        return SafetyOrder::Less;
      case Dim::AGeq:
        return SafetyOrder::Greater;
      case Dim::Neither:
        return SafetyOrder::Incomparable;
    }
    return SafetyOrder::Incomparable;
}

std::size_t
SafetyPoset::add(ConfigPoint p)
{
    nodes.push_back(std::move(p));
    edgesBuilt = false;
    return nodes.size() - 1;
}

bool
SafetyPoset::strictlySafer(std::size_t a, std::size_t b) const
{
    return compareSafety(nodes[a], nodes[b]) == SafetyOrder::Greater;
}

void
SafetyPoset::buildEdges()
{
    std::size_t n = nodes.size();
    covers.assign(n, {});

    // Compare every pair once (n^2 comparisons); the reduction below
    // only reads the table.
    std::vector<char> safer(n * n, 0);
    for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = 0; b < n; ++b)
            if (a != b)
                safer[a * n + b] = strictlySafer(a, b);
    auto above = [&](std::size_t a, std::size_t b) {
        return safer[a * n + b] != 0;
    };

    for (std::size_t lo = 0; lo < n; ++lo) {
        for (std::size_t hi = 0; hi < n; ++hi) {
            if (!above(hi, lo))
                continue;
            // Cover edge iff no intermediate m with lo < m < hi
            // (transitive reduction -> Hasse diagram).
            bool direct = true;
            for (std::size_t m = 0; m < n && direct; ++m)
                if (above(m, lo) && above(hi, m))
                    direct = false;
            if (direct)
                covers[lo].push_back(hi);
        }
    }
    edgesBuilt = true;
}

const std::vector<std::size_t> &
SafetyPoset::coversOf(std::size_t i) const
{
    panic_if(!edgesBuilt, "poset edges not built");
    return covers[i];
}

std::vector<std::size_t>
SafetyPoset::safestWithin(double minPerf) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].perf < minPerf)
            continue;
        // Maximal in the qualifying sub-poset: no strictly safer node
        // also meets the budget.
        bool dominated = false;
        for (std::size_t j = 0; j < nodes.size() && !dominated; ++j) {
            if (j != i && nodes[j].perf >= minPerf &&
                strictlySafer(j, i))
                dominated = true;
        }
        if (!dominated)
            out.push_back(i);
    }
    return out;
}

std::size_t
SafetyPoset::explore(const std::function<double(ConfigPoint &)> &eval,
                     double minPerf)
{
    return exploreMonotone(nodes, eval, minPerf);
}

std::string
SafetyPoset::toDot(double minPerf) const
{
    std::vector<std::size_t> best = safestWithin(minPerf);
    std::ostringstream oss;
    oss << "digraph safety {\n    rankdir=BT;\n";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        bool starred =
            std::find(best.begin(), best.end(), i) != best.end();
        oss << "    n" << i << " [label=\"" << nodes[i].label << "\\n"
            << static_cast<std::uint64_t>(nodes[i].perf);
        // Audit-score axis: nodes carrying a static boundary-audit
        // score show it next to perf (lower = cleaner boundaries).
        if (nodes[i].auditScore >= 0)
            oss << "\\naudit=" << nodes[i].auditScore;
        oss << "\""
            << (starred ? ", shape=star, style=filled, fillcolor=green"
                : nodes[i].perf < minPerf ? ", style=dashed" : "")
            << "];\n";
    }
    for (std::size_t i = 0; i < nodes.size(); ++i)
        for (std::size_t up : covers[i])
            oss << "    n" << i << " -> n" << up << ";\n";
    oss << "}\n";
    return oss.str();
}

int
safetyRank(const ConfigPoint &p)
{
    int rank = p.compartments() + p.sharingRank;
    for (unsigned bits : p.hardening)
        rank += std::popcount(bits);
    if (p.partition.empty())
        rank += p.mechanismRank;
    for (std::size_t c = 0; c < p.partition.size(); ++c)
        rank += p.mechanismRankOf(c) + p.gateFlavorRankOf(c);
    std::set<std::pair<int, int>> denied(p.deniedEdges.begin(),
                                         p.deniedEdges.end());
    return rank + static_cast<int>(denied.size());
}

std::size_t
exploreMonotone(std::vector<ConfigPoint> &points,
                const std::function<double(ConfigPoint &)> &eval,
                double minPerf)
{
    std::vector<int> rank;
    for (const ConfigPoint &p : points)
        rank.push_back(safetyRank(p));
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rank[a] < rank[b];
                     });

    // Least safe first: by the time a point is visited, every point
    // below it has been evaluated or pruned. Performance decreases
    // monotonically with safety, so once a point misses the budget
    // every safer point would too (paper 5: "it can safely stop
    // evaluating a path as soon as a threshold is reached").
    std::vector<std::size_t> missed;
    std::size_t evaluated = 0;
    for (std::size_t i : order) {
        ConfigPoint &p = points[i];
        bool pruned = std::any_of(
            missed.begin(), missed.end(), [&](std::size_t m) {
                return compareSafety(p, points[m]) == SafetyOrder::Greater;
            });
        if (pruned) {
            p.perf = 0;
            continue;
        }
        p.perf = eval(p);
        ++evaluated;
        if (p.perf < minPerf)
            missed.push_back(i);
    }
    return evaluated;
}

} // namespace flexos
