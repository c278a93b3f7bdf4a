#include "analysis/callgraph.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

#include "base/logging.hh"

namespace flexos {
namespace analysis {

namespace {

/** Breadth-first closure over an adjacency predicate. */
std::vector<bool>
closure(std::size_t n, int start,
        const std::function<bool(int, int)> &adjacent)
{
    std::vector<bool> seen(n, false);
    if (start < 0)
        return seen;
    std::vector<int> work{start};
    seen[static_cast<std::size_t>(start)] = true;
    while (!work.empty()) {
        int at = work.back();
        work.pop_back();
        for (int next = 0; next < static_cast<int>(n); ++next) {
            if (seen[static_cast<std::size_t>(next)] || next == at)
                continue;
            if (adjacent(at, next)) {
                seen[static_cast<std::size_t>(next)] = true;
                work.push_back(next);
            }
        }
    }
    return seen;
}

} // namespace

const CompartmentGraph::Edge *
CompartmentGraph::staticEdge(int from, int to) const
{
    for (const Edge &e : edges)
        if (e.from == from && e.to == to)
            return &e;
    return nullptr;
}

CompartmentGraph
buildCompartmentGraph(const SafetyConfig &cfg, const LibraryRegistry &reg)
{
    CompartmentGraph g;
    for (const CompartmentSpec &c : cfg.compartments) {
        g.comps.push_back(c.name);
        if (c.isDefault)
            g.defaultComp = static_cast<int>(g.comps.size()) - 1;
    }
    std::size_t n = g.comps.size();

    // The first compartment holding a net-facing library is the
    // attacker-facing root.
    for (const auto &[lib, compName] : cfg.libraries)
        if (g.netComp < 0 && reg.contains(lib) && reg.get(lib).netFacing)
            g.netComp = cfg.compartmentIndex(compName);

    GateMatrix matrix = GateMatrix::build(cfg);
    g.allowed.assign(n * n, false);
    for (std::size_t f = 0; f < n; ++f)
        for (std::size_t t = 0; t < n; ++t)
            g.allowed[f * n + t] =
                f == t || !matrix
                               .at(static_cast<int>(f),
                                   static_cast<int>(t))
                               .deny;

    // Static cross-compartment edges: the config's static calls that
    // land outside their caller, grouped by boundary.
    std::map<std::pair<int, int>, std::vector<CompartmentGraph::Witness>>
        edgeWitnesses;
    for (const StaticCall &c : staticCalls(cfg, reg))
        if (c.to != c.from)
            edgeWitnesses[{c.from, c.to}].push_back({c.lib, c.callee});
    for (auto &[pair, witnesses] : edgeWitnesses) {
        CompartmentGraph::Edge e;
        e.from = pair.first;
        e.to = pair.second;
        e.witnesses = std::move(witnesses);
        std::sort(e.witnesses.begin(), e.witnesses.end(),
                  [](const auto &a, const auto &b) {
                      return std::tie(a.lib, a.callee) <
                             std::tie(b.lib, b.callee);
                  });
        e.denied = !g.edgeAllowed(e.from, e.to);
        g.edges.push_back(std::move(e));
    }

    g.reachableIgnoringDeny =
        closure(n, g.defaultComp, [&](int f, int t) {
            return g.staticEdge(f, t) != nullptr;
        });
    g.reachable = closure(n, g.defaultComp, [&](int f, int t) {
        const CompartmentGraph::Edge *e = g.staticEdge(f, t);
        return e && !e->denied;
    });
    g.netReachable = closure(n, g.netComp, [&](int f, int t) {
        return g.edgeAllowed(f, t);
    });
    return g;
}

void
callGraphPass(const CompartmentGraph &g, AuditReport &report)
{
    std::size_t n = g.size();

    // Denied static edges: the image build will reject the config.
    for (const CompartmentGraph::Edge &e : g.edges) {
        if (!e.denied)
            continue;
        for (const CompartmentGraph::Witness &w : e.witnesses) {
            Finding f;
            f.pass = "callgraph";
            f.code = "denied-static-edge";
            f.severity = Severity::Error;
            f.from = g.comps[static_cast<std::size_t>(e.from)];
            f.to = g.comps[static_cast<std::size_t>(e.to)];
            f.library = w.lib;
            f.message = "denied boundary is " + w.lib +
                        "'s only path to its dependency " + w.callee +
                        " (image build will reject this config)";
            report.add(std::move(f));
        }
    }

    for (std::size_t c = 0; c < n; ++c) {
        if (static_cast<int>(c) == g.defaultComp)
            continue;

        // Deny-induced unreachability, multi-hop chains included: the
        // compartment had a static path from the default compartment
        // and the deny ruleset severed every one of them.
        if (g.reachableIgnoringDeny[c] && !g.reachable[c]) {
            Finding f;
            f.pass = "callgraph";
            f.code = "deny-unreachable-compartment";
            f.severity = Severity::Warning;
            f.to = g.comps[c];
            f.message = "compartment '" + g.comps[c] +
                        "' is statically reachable from the default "
                        "compartment only through denied boundaries";
            report.add(std::move(f));
        } else if (!g.reachableIgnoringDeny[c] && n > 1) {
            Finding f;
            f.pass = "callgraph";
            f.code = "statically-unreachable-compartment";
            f.severity = Severity::Note;
            f.to = g.comps[c];
            f.message = "no static call path from the default "
                        "compartment reaches '" +
                        g.comps[c] +
                        "' — only dynamic crossings can enter it";
            report.add(std::move(f));
        }

        // Dead compartments: every inbound gate denied.
        bool reachable = n == 1;
        for (std::size_t f = 0; f < n && !reachable; ++f)
            reachable = f != c && g.edgeAllowed(static_cast<int>(f),
                                                static_cast<int>(c));
        if (!reachable) {
            Finding f;
            f.pass = "callgraph";
            f.code = "dead-compartment";
            f.severity = Severity::Warning;
            f.to = g.comps[c];
            f.message = "compartment '" + g.comps[c] +
                        "' is denied from every other compartment — "
                        "nothing can ever gate into it";
            report.add(std::move(f));
        }
    }
}

} // namespace analysis
} // namespace flexos
