#include "explore/wayfinder.hh"

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

/** The dimensions of the configuration space the wayfinder sweeps. */
enum class Dim { Hardening, Mechanism, Flavour, Deny };

/**
 * One swept dimension, instantiated for a partition: `choices`
 * settings, and apply(p, i) writes setting i into a point. The safety
 * order is not restated here: compareSafety orders the points.
 */
struct Axis
{
    std::size_t choices = 1;
    std::function<void(ConfigPoint &, std::size_t)> apply;
};

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
        return {std::size_t(1) << comps,
                [comps](ConfigPoint &p, std::size_t mask) {
                    for (std::size_t c = 0; c < comps; ++c)
                        p.hardening[c] = (mask >> c) & 1;
                }};
      }
      case Dim::Mechanism: {
        // {none, mpk, ept, cheri} per block, one base-4 digit each.
        std::size_t codes = 1;
        for (std::size_t b = 0; b < blocks; ++b)
            codes *= 4;
        return {codes,
                [blocks](ConfigPoint &p, std::size_t code) {
                    p.blockMechanism.resize(blocks);
                    for (int &rank : p.blockMechanism) {
                        rank = static_cast<int>(code % 4);
                        code /= 4;
                    }
                }};
      }
      case Dim::Flavour:
        // {light, dss} per block (the gates *into* it), bit = dss.
        return {std::size_t(1) << blocks,
                [blocks](ConfigPoint &p, std::size_t mask) {
                    p.blockGateFlavor.resize(blocks);
                    for (std::size_t b = 0; b < blocks; ++b)
                        p.blockGateFlavor[b] = (mask >> b) & 1;
                }};
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
        return {std::size_t(1) << edges.size(),
                [edges](ConfigPoint &p, std::size_t mask) {
                    for (std::size_t e = 0; e < edges.size(); ++e)
                        if ((mask >> e) & 1)
                            p.deniedEdges.push_back(edges[e]);
                }};
      }
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
 * Each of `partitions` crossed with every choice of `dims` (first
 * dimension outermost, choices in natural order).
 */
std::vector<ConfigPoint>
productSpace(std::initializer_list<Dim> dims,
             const std::vector<std::vector<int>> &partitions =
                 fig6Partitions(),
             const std::string &appLib = "libredis")
{
    std::vector<ConfigPoint> out;
    for (const auto &partition : partitions) {
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
leastPrivilegeSpace(const std::string &appLib)
{
    return productSpace({Dim::Deny}, fig6Partitions(), appLib);
}

std::vector<std::pair<int, int>>
requiredBlockEdges(const std::vector<int> &partition,
                   const std::string &appLib)
{
    // The cross-compartment static calls of the partition's
    // materialized image, where block b is compartment b.
    SafetyConfig cfg = toSafetyConfig(basePoint(partition), appLib);
    std::set<std::pair<int, int>> edges;
    for (const StaticCall &c :
         staticCalls(cfg, LibraryRegistry::standard()))
        if (c.to != c.from)
            edges.emplace(c.from, c.to);
    return {edges.begin(), edges.end()};
}

std::vector<ConfigPoint>
boundaryProduct(const std::vector<int> &partition, const std::string &appLib)
{
    return productSpace({Dim::Mechanism, Dim::Flavour, Dim::Deny},
                        {partition}, appLib);
}

std::size_t
prunedBoundarySweep(const std::vector<int> &partition,
                    const std::string &appLib,
                    const std::function<double(ConfigPoint &)> &eval,
                    double minPerf, std::vector<ConfigPoint> &accepted)
{
    std::vector<ConfigPoint> product = boundaryProduct(partition, appLib);
    // Pruned points read perf 0, which meets a budget <= 0: accept
    // only what eval() measured.
    std::vector<char> measured(product.size(), 0);
    std::size_t evaluated = exploreMonotone(
        product,
        [&](ConfigPoint &p) {
            measured[static_cast<std::size_t>(&p - product.data())] = 1;
            return eval(p);
        },
        minPerf);
    for (std::size_t i = 0; i < product.size(); ++i)
        if (measured[i] && product[i].perf >= minPerf)
            accepted.push_back(std::move(product[i]));
    return evaluated;
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
