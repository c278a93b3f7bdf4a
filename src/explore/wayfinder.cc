#include "explore/wayfinder.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "analysis/audit.hh"
#include "apps/deploy.hh"
#include "apps/http.hh"
#include "apps/redis.hh"
#include "base/logging.hh"

namespace flexos {
namespace wayfinder {

std::vector<std::string>
sweepComponents(const std::string &appLib)
{
    return {appLib, "newlib", "uksched", "lwip"};
}

const std::vector<std::vector<int>> &
fig6Partitions()
{
    static const std::vector<std::vector<int>> parts = {
        {0, 0, 0, 0}, // A: app+newlib+sched+lwip
        {0, 0, 1, 0}, // B: sched isolated
        {0, 0, 0, 1}, // C: lwip isolated
        {0, 0, 1, 1}, // D: app+newlib / sched+lwip
        {0, 0, 1, 2}, // E: app+newlib / sched / lwip
    };
    return parts;
}

namespace {

/** Mechanism of a rank in the poset order (none=0 ... cheri=3). */
Mechanism
mechanismOfRank(int rank)
{
    static const Mechanism byRank[] = {Mechanism::None, Mechanism::IntelMpk,
                                       Mechanism::VmEpt, Mechanism::Cheri};
    fatal_if(rank < 0 || rank > 3, "unknown mechanism rank ", rank);
    return byRank[rank];
}

/** Elide mode of an elided-work mask (bit 0 validate, bit 1 scrub). */
GateElide
elideOfMask(unsigned mask)
{
    static const GateElide byMask[] = {GateElide::None, GateElide::Validate,
                                       GateElide::Scrub, GateElide::Both};
    return byMask[mask & 3];
}

/** The dimensions of the configuration space the wayfinder sweeps. */
enum class Dim { Hardening, Mechanism, Flavour, Deny, Elide, Batch };

/**
 * One swept dimension, instantiated for a partition: `choices`
 * settings, apply(p, i) writes setting i into a point, and rank(i)
 * lists the settings least safe first for the pruned sweep (a linear
 * extension of the axis's safety order). A perfOnly dimension is one
 * compareSafety ignores. The safety order itself is not restated
 * here: prunedBoundarySweep derives it from compareSafety.
 */
struct Axis
{
    const char *name = "";
    std::size_t choices = 1;
    std::function<void(ConfigPoint &, std::size_t)> apply;
    std::function<int(std::size_t)> rank;
    bool perfOnly = false;
};

int
popcount(std::size_t x)
{
    return std::popcount(x);
}

/** The axis catalogue: every swept dimension, defined once. */
Axis
axis(Dim dim, const std::vector<int> &partition, const std::string &appLib)
{
    std::size_t blocks =
        std::set<int>(partition.begin(), partition.end()).size();
    switch (dim) {
      case Dim::Hardening: {
        // One hardening bundle bit per component.
        std::size_t comps = partition.size();
        return {"hardening", std::size_t(1) << comps,
                [comps](ConfigPoint &p, std::size_t mask) {
                    for (std::size_t c = 0; c < comps; ++c)
                        p.hardening[c] = (mask >> c) & 1;
                },
                popcount};
      }
      case Dim::Mechanism: {
        // {none, mpk, ept, cheri} per block, one base-4 digit each;
        // listed by rank sum.
        std::size_t codes = 1;
        for (std::size_t b = 0; b < blocks; ++b)
            codes *= 4;
        return {"mechanism", codes,
                [blocks](ConfigPoint &p, std::size_t code) {
                    p.blockMechanism.resize(blocks);
                    for (int &rank : p.blockMechanism) {
                        rank = static_cast<int>(code % 4);
                        code /= 4;
                    }
                },
                [](std::size_t code) {
                    int sum = 0;
                    for (; code; code /= 4)
                        sum += static_cast<int>(code % 4);
                    return sum;
                }};
      }
      case Dim::Flavour:
        // {light, dss} per block (the gates *into* it), bit = dss.
        return {"flavour", std::size_t(1) << blocks,
                [blocks](ConfigPoint &p, std::size_t mask) {
                    p.blockGateFlavor.resize(blocks);
                    for (std::size_t b = 0; b < blocks; ++b)
                        p.blockGateFlavor[b] = (mask >> b) & 1;
                },
                popcount};
      case Dim::Deny: {
        // Subsets of the deniable edges, bit e = edge e denied: every
        // ordered cross-block pair the static call graph does not
        // need. Required edges are never offered — a point denying
        // one would be rejected at image build, i.e. it is not a
        // reachable configuration.
        auto required = requiredBlockEdges(partition, appLib);
        std::set<std::pair<int, int>> keep(required.begin(),
                                           required.end());
        std::vector<std::pair<int, int>> edges;
        for (int f = 0; f < static_cast<int>(blocks); ++f)
            for (int t = 0; t < static_cast<int>(blocks); ++t)
                if (f != t && !keep.count({f, t}))
                    edges.emplace_back(f, t);
        return {"deny", std::size_t(1) << edges.size(),
                [edges](ConfigPoint &p, std::size_t mask) {
                    for (std::size_t e = 0; e < edges.size(); ++e)
                        if ((mask >> e) & 1)
                            p.deniedEdges.push_back(edges[e]);
                },
                popcount};
      }
      case Dim::Elide:
        // Elided crossing work (bit 0 validation, bit 1 scrub), listed
        // by work kept: both, validate, scrub, none.
        return {"elide", 4,
                [](ConfigPoint &p, std::size_t set) {
                    p.elided = static_cast<unsigned>(set);
                },
                [](std::size_t set) { return 2 - popcount(set); }};
      case Dim::Batch:
        return {"batch", 3,
                [](ConfigPoint &p, std::size_t i) {
                    static const int widths[] = {1, 4, 8};
                    p.gateBatch = widths[i];
                },
                [](std::size_t i) { return static_cast<int>(i); }, true};
    }
    panic("unknown sweep dimension");
}

/** A partition's point before any axis applies: all-MPK, DSS, bare. */
ConfigPoint
basePoint(const std::vector<int> &partition)
{
    ConfigPoint p;
    p.partition = partition;
    p.hardening.assign(partition.size(), 0);
    return p;
}

/**
 * The five Figure 8 partitions, each crossed with every choice of
 * `dims` (first dimension outermost, choices in natural order).
 */
std::vector<ConfigPoint>
productSpace(std::initializer_list<Dim> dims,
             const std::string &appLib = "libredis")
{
    std::vector<ConfigPoint> out;
    for (const auto &partition : fig6Partitions()) {
        std::vector<Axis> axes;
        for (Dim d : dims)
            axes.push_back(axis(d, partition, appLib));
        std::vector<std::size_t> choice(axes.size(), 0);
        std::size_t d;
        do {
            ConfigPoint p = basePoint(partition);
            for (std::size_t a = 0; a < axes.size(); ++a)
                axes[a].apply(p, choice[a]);
            out.push_back(std::move(p));
            // Odometer step, last dimension fastest.
            for (d = axes.size();
                 d > 0 && ++choice[d - 1] == axes[d - 1].choices; --d)
                choice[d - 1] = 0;
        } while (d > 0);
    }
    return out;
}

} // namespace

std::vector<ConfigPoint>
fig6Space()
{
    return productSpace({Dim::Hardening});
}

std::vector<ConfigPoint>
mixedMechanismSpace()
{
    return productSpace({Dim::Mechanism});
}

std::vector<ConfigPoint>
gateFlavorSpace()
{
    return productSpace({Dim::Flavour});
}

std::vector<ConfigPoint>
batchingSpace()
{
    return productSpace({Dim::Batch, Dim::Elide});
}

std::vector<ConfigPoint>
leastPrivilegeSpace(const std::string &appLib)
{
    return productSpace({Dim::Deny}, appLib);
}

std::vector<std::pair<int, int>>
requiredBlockEdges(const std::vector<int> &partition,
                   const std::string &appLib)
{
    // Which block every library of the materialized image lands in
    // (toSafetyConfig places the non-swept components with the app).
    std::vector<std::string> comps = sweepComponents(appLib);
    panic_if(partition.size() != comps.size(),
             "partition arity mismatch");
    std::map<std::string, int> blockOf;
    for (std::size_t c = 0; c < comps.size(); ++c)
        blockOf[comps[c]] = partition[c];
    int appBlock = partition[0];
    blockOf["uktime"] = appBlock;
    if (appLib == "libnginx")
        blockOf["vfscore"] = appBlock;

    // Cross-block edges of the registry's static call graph. All
    // sweep points are MPK-only, so no TCB replication applies and
    // unassigned TCB services (ukalloc) stay local to every caller.
    LibraryRegistry reg = LibraryRegistry::standard();
    std::set<std::pair<int, int>> edges;
    for (const auto &[lib, from] : blockOf) {
        for (const std::string &callee : reg.get(lib).callees) {
            auto it = blockOf.find(callee);
            if (it == blockOf.end() || it->second == from)
                continue;
            edges.emplace(from, it->second);
        }
    }
    return {edges.begin(), edges.end()};
}

std::size_t
explorePrunedProduct(
    const std::vector<ProductDimension> &dims,
    const std::function<double(const std::vector<std::size_t> &)> &eval,
    double minPerf,
    const std::function<void(const std::vector<std::size_t> &, double)>
        &emit)
{
    // Does candidate `v` dominate (sit at-or-above, component-wise)
    // one of the vectors that already missed the budget? Every axis
    // order is reflexive, so a failed vector also "dominates" itself
    // and is never revisited.
    std::vector<std::vector<std::size_t>> failed;
    auto dominatesFailed = [&](const std::vector<std::size_t> &v) {
        for (const auto &f : failed) {
            bool dom = true;
            for (std::size_t d = 0; d < dims.size() && dom; ++d)
                if (!dims[d].le(f[d], v[d]))
                    dom = false;
            if (dom)
                return true;
        }
        return false;
    };

    std::size_t evaluated = 0;
    auto visit = [&](const std::vector<std::size_t> &v) {
        if (dominatesFailed(v))
            return;
        double perf = eval(v);
        ++evaluated;
        if (perf >= minPerf) {
            if (emit)
                emit(v, perf);
        } else {
            failed.push_back(v);
        }
    };

    // Ascending index-sum enumeration: one index vector live at a
    // time, recursion assigning axis d a share of the remaining sum.
    // The linear-extension contract on each axis makes this a linear
    // extension of the product order, so by the time a vector is
    // visited everything it dominates has already been measured (or
    // pruned) — maximal pruning without materializing the product.
    std::size_t maxSum = 0;
    for (const auto &d : dims) {
        panic_if(d.size == 0 || !d.le, "malformed product dimension");
        for (std::size_t a = 1; a < d.size; ++a)
            for (std::size_t b = 0; b < a; ++b)
                panic_if(d.le(a, b), "product dimension '", d.name,
                         "' lists choice ", a, " after choice ", b,
                         " though le(", a, ", ", b,
                         ") holds: list choices least safe first");
        maxSum += d.size - 1;
    }
    std::vector<std::size_t> v(dims.size(), 0);
    std::function<void(std::size_t, std::size_t)> place =
        [&](std::size_t d, std::size_t rest) {
            if (d == dims.size()) {
                if (rest == 0)
                    visit(v);
                return;
            }
            std::size_t cap = std::min(rest, dims[d].size - 1);
            for (std::size_t i = 0; i <= cap; ++i) {
                v[d] = i;
                place(d + 1, rest - i);
            }
        };
    for (std::size_t sum = 0; sum <= maxSum; ++sum)
        place(0, sum);
    return evaluated;
}

std::size_t
prunedBoundarySweep(const std::vector<int> &partition,
                    const std::string &appLib,
                    const std::function<double(ConfigPoint &)> &eval,
                    double minPerf, std::vector<ConfigPoint> &accepted)
{
    const ConfigPoint base = basePoint(partition);
    std::vector<Axis> axes;
    std::vector<std::vector<std::size_t>> listing;
    std::vector<ProductDimension> dims;
    for (Dim d : {Dim::Mechanism, Dim::Flavour, Dim::Deny, Dim::Elide,
                  Dim::Batch}) {
        Axis a = axis(d, partition, appLib);
        std::vector<std::size_t> order(a.choices);
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t x, std::size_t y) {
                             return a.rank(x) < a.rank(y);
                         });
        // The axis order is compareSafety's restricted to the axis:
        // x <= y iff x is y, or (for a safety dimension) the point
        // taking x is strictly less safe than the one taking y.
        std::size_t n = order.size();
        std::vector<ConfigPoint> pts(n, base);
        for (std::size_t i = 0; i < n; ++i)
            a.apply(pts[i], order[i]);
        std::vector<char> le(n * n);
        for (std::size_t x = 0; x < n; ++x)
            for (std::size_t y = 0; y < n; ++y)
                le[x * n + y] =
                    x == y || (!a.perfOnly &&
                               compareSafety(pts[x], pts[y]) ==
                                   SafetyOrder::Less);
        dims.push_back({a.name, n,
                        [le = std::move(le), n](std::size_t x,
                                                std::size_t y) {
                            return le[x * n + y] != 0;
                        }});
        listing.push_back(std::move(order));
        axes.push_back(std::move(a));
    }

    auto materialize = [&](const std::vector<std::size_t> &v) {
        ConfigPoint p = base;
        for (std::size_t d = 0; d < axes.size(); ++d)
            axes[d].apply(p, listing[d][v[d]]);
        return p;
    };
    return explorePrunedProduct(
        dims,
        [&](const std::vector<std::size_t> &v) {
            ConfigPoint p = materialize(v);
            return eval(p);
        },
        minPerf,
        [&](const std::vector<std::size_t> &v, double perf) {
            ConfigPoint p = materialize(v);
            p.perf = perf;
            accepted.push_back(std::move(p));
        });
}

SafetyConfig
toSafetyConfig(const ConfigPoint &point, const std::string &appLib)
{
    std::vector<std::string> comps = sweepComponents(appLib);
    panic_if(point.partition.size() != comps.size(),
             "partition arity mismatch");
    panic_if(point.hardening.size() != comps.size(),
             "hardening arity mismatch");

    int nBlocks = point.compartments();
    std::ostringstream cfg;
    cfg << "compartments:\n";
    int appBlock = point.partition[0];
    for (int b = 0; b < nBlocks; ++b) {
        cfg << "- comp" << b + 1 << ":\n";
        Mechanism mech =
            point.blockMechanism.empty()
                ? Mechanism::IntelMpk
                : mechanismOfRank(
                      point.blockMechanism[static_cast<std::size_t>(b)]);
        cfg << "    mechanism: " << mechanismName(mech) << "\n";
        if (b == appBlock)
            cfg << "    default: True\n";
    }
    cfg << "libraries:\n";
    for (std::size_t c = 0; c < comps.size(); ++c) {
        cfg << "- " << comps[c] << ": comp" << point.partition[c] + 1;
        if (point.hardening[c])
            cfg << " [" << hardeningName(Hardening::StackProtector) << ", "
                << hardeningName(Hardening::Ubsan) << ", "
                << hardeningName(Hardening::Kasan) << "]";
        cfg << "\n";
    }
    // Components not varied by the sweep ride in the app compartment.
    cfg << "- uktime: comp" << appBlock + 1 << "\n";
    if (appLib == "libnginx")
        cfg << "- vfscore: comp" << appBlock + 1 << "\n";
    // Per-block gate flavours materialize as callee-side wildcard
    // boundary rules: gates *into* a light block run the ERIM-style
    // light gate (the default is dss, so only light needs a rule).
    // Denied edges become exact-pair deny rules.
    std::vector<std::string> rules;
    if (!point.blockGateFlavor.empty()) {
        panic_if(static_cast<int>(point.blockGateFlavor.size()) !=
                     nBlocks,
                 "gate-flavour arity mismatch");
        for (int b = 0; b < nBlocks; ++b)
            if (point.blockGateFlavor[static_cast<std::size_t>(b)] == 0)
                rules.push_back("- '*' -> comp" + std::to_string(b + 1) +
                                ": {gate: " +
                                flavorName(MpkGateFlavor::Light) + "}");
    }
    for (const auto &[f, t] : point.deniedEdges) {
        panic_if(f < 0 || t < 0 || f >= nBlocks || t >= nBlocks,
                 "denied edge names an unknown partition block");
        rules.push_back("- comp" + std::to_string(f + 1) + " -> comp" +
                        std::to_string(t + 1) + ": {deny: true}");
    }
    // Vectored-crossing knobs apply image-wide: one least-specific
    // wildcard rule that every exact/deny rule above still overrides.
    if (point.gateBatch > 1 || point.elided != 0) {
        std::string knobs;
        if (point.gateBatch > 1)
            knobs += "batch: " + std::to_string(point.gateBatch);
        if (point.elided != 0) {
            if (!knobs.empty())
                knobs += ", ";
            knobs += std::string("elide: ") +
                     elideName(elideOfMask(point.elided));
        }
        rules.push_back("- '*' -> '*': {" + knobs + "}");
    }
    if (!rules.empty()) {
        cfg << "boundaries:\n";
        for (const std::string &r : rules)
            cfg << r << "\n";
    }
    if (point.cores > 1)
        cfg << "cores: " << point.cores << "\n";
    return SafetyConfig::parse(cfg.str());
}

std::string
pointLabel(const ConfigPoint &point, const std::string &appLib)
{
    std::vector<std::string> comps = sweepComponents(appLib);
    panic_if(point.partition.size() != comps.size(),
             "partition arity mismatch");
    panic_if(point.hardening.size() != comps.size(),
             "hardening arity mismatch");
    std::ostringstream oss;
    // Partition rendering: blocks joined by '/'.
    int nBlocks = point.compartments();
    for (int b = 0; b < nBlocks; ++b) {
        if (b)
            oss << " / ";
        bool first = true;
        for (std::size_t c = 0; c < comps.size(); ++c) {
            if (point.partition[c] != b)
                continue;
            if (!first)
                oss << "+";
            oss << comps[c];
            first = false;
        }
    }
    oss << "  [";
    for (std::size_t c = 0; c < comps.size(); ++c)
        oss << (point.hardening[c] ? "●" : "○");
    oss << "]";
    if (!point.blockMechanism.empty()) {
        static const char *short_[] = {"none", "mpk", "ept", "cheri"};
        oss << " {";
        for (std::size_t b = 0; b < point.blockMechanism.size(); ++b) {
            if (b)
                oss << "/";
            oss << short_[point.blockMechanism[b]];
        }
        oss << "}";
    }
    if (!point.blockGateFlavor.empty()) {
        oss << " <";
        for (std::size_t b = 0; b < point.blockGateFlavor.size(); ++b) {
            if (b)
                oss << "/";
            oss << flavorName(point.blockGateFlavor[b] == 0
                                  ? MpkGateFlavor::Light
                                  : MpkGateFlavor::Dss);
        }
        oss << ">";
    }
    if (!point.deniedEdges.empty()) {
        oss << " deny{";
        for (std::size_t e = 0; e < point.deniedEdges.size(); ++e) {
            if (e)
                oss << ",";
            oss << point.deniedEdges[e].first + 1 << "->"
                << point.deniedEdges[e].second + 1;
        }
        oss << "}";
    }
    if (point.cores > 1)
        oss << " x" << point.cores << "cores";
    if (point.gateBatch > 1)
        oss << " batch" << point.gateBatch;
    if (point.elided)
        oss << " elide:" << elideName(elideOfMask(point.elided));
    return oss.str();
}

int
auditScore(const ConfigPoint &point, const std::string &appLib)
{
    static const LibraryRegistry reg = LibraryRegistry::standard();
    analysis::AuditOptions opts;
    opts.escape = false;
    return analysis::runAudit(toSafetyConfig(point, appLib), reg, opts)
        .score();
}

void
attachAuditScore(ConfigPoint &point, const std::string &appLib)
{
    point.auditScore = auditScore(point, appLib);
}

double
measureRedis(const ConfigPoint &point, std::uint64_t requests)
{
    DeployOptions opts;
    opts.withFs = false;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    Deployment dep(toSafetyConfig(point, "libredis"), opts);
    dep.start();
    // redis-benchmark default: no pipelining — every request pays the
    // full per-request communication pattern (paper 6.1).
    RedisBenchmarkResult res = runRedisGetBenchmark(
        dep.image(), dep.libc(), dep.clientStack(), requests, 1, 50);
    dep.stop();
    return res.requestsPerSec;
}

double
measureNginx(const ConfigPoint &point, std::uint64_t requests)
{
    DeployOptions opts;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    Deployment dep(toSafetyConfig(point, "libnginx"), opts);
    dep.writeFile("/www/index.html", std::string(612, 'w'));
    dep.start();
    HttpBenchmarkResult res = runHttpBenchmark(
        dep.image(), dep.libc(), dep.clientStack(), requests,
        "/index.html", 1);
    dep.stop();
    return res.requestsPerSec;
}

} // namespace wayfinder
} // namespace flexos
