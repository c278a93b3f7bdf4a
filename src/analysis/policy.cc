#include "analysis/policy.hh"

#include "base/logging.hh"

namespace flexos {
namespace analysis {

void
policyPass(const SafetyConfig &cfg, const CompartmentGraph &g,
           AuditReport &report)
{
    std::size_t n = g.size();
    if (n < 2)
        return;
    GateMatrix matrix = GateMatrix::build(cfg);

    for (int from = 0; from < static_cast<int>(n); ++from) {
        for (int to = 0; to < static_cast<int>(n); ++to) {
            if (from == to)
                continue;
            const GatePolicy &pol = matrix.at(from, to);
            const std::string &fromName =
                g.comps[static_cast<std::size_t>(from)];
            const std::string &toName =
                g.comps[static_cast<std::size_t>(to)];

            // Unused static edges: nothing in the registry's call
            // graph needs this pair, and the config does not deny it.
            // The collected set is the suggested minimal deny ruleset
            // (it never covers a static edge, so the image still
            // builds).
            if (!pol.deny && !g.staticEdge(from, to)) {
                Finding f;
                f.pass = "policy";
                f.code = "unused-static-edge";
                f.severity = Severity::Note;
                f.from = fromName;
                f.to = toName;
                f.message = "no static call edge needs this boundary; "
                            "a `deny: true` rule would cost nothing";
                report.add(std::move(f));
                report.suggestedDeny.emplace_back(fromName, toName);
            }

            // The rest of the pass audits the attacker-drivable
            // surface: gates whose caller compartment an attacker in
            // the net-facing compartment can reach.
            if (g.netComp < 0 ||
                !g.netReachable[static_cast<std::size_t>(from)] ||
                !g.edgeAllowed(from, to))
                continue;

            if (!pol.scrubReturn) {
                Finding f;
                f.pass = "policy";
                f.code = "unscrubbed-net-boundary";
                f.severity = Severity::Error;
                f.from = fromName;
                f.to = toName;
                f.message = "`scrub: false` on a boundary reachable "
                            "from net-facing compartment '" +
                            g.comps[static_cast<std::size_t>(
                                g.netComp)] +
                            "' — returning registers leak";
                report.add(std::move(f));
            }
            if (!pol.validateEntry) {
                Finding f;
                f.pass = "policy";
                f.code = "unvalidated-net-boundary";
                f.severity = Severity::Warning;
                f.from = fromName;
                f.to = toName;
                f.message = "no `validate:` on a boundary reachable "
                            "from net-facing compartment '" +
                            g.comps[static_cast<std::size_t>(
                                g.netComp)] +
                            "'";
                report.add(std::move(f));
            }
            if (from == g.netComp && pol.rate == 0) {
                Finding f;
                f.pass = "policy";
                f.code = "unthrottled-external-edge";
                f.severity = Severity::Warning;
                f.from = fromName;
                f.to = toName;
                f.message = "gate out of net-facing compartment '" +
                            fromName +
                            "' carries no `rate:` budget — gate "
                            "storms are uncontained";
                report.add(std::move(f));
            }
        }
    }
}

} // namespace analysis
} // namespace flexos
