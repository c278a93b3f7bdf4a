/**
 * @file
 * Policy-safety audit: walks every resolved GatePolicy of a
 * configuration's gate matrix against the call-graph model and flags
 * rule/reachability hazards — weak legs on boundaries an attacker in
 * the net-facing compartment can drive, unthrottled external edges,
 * and unused static edges, for which it emits the suggested minimal
 * `deny:` ruleset (the least-privilege tightening the config could
 * apply without losing any statically-needed crossing).
 */

#ifndef FLEXOS_ANALYSIS_POLICY_HH
#define FLEXOS_ANALYSIS_POLICY_HH

#include "analysis/callgraph.hh"
#include "analysis/report.hh"
#include "core/config.hh"

namespace flexos {
namespace analysis {

/**
 * The policy audit pass. Findings (all anchored to a boundary):
 *
 *  - `unscrubbed-net-boundary` (error): `scrub: false` on a boundary
 *    whose caller compartment is reachable from the net-facing
 *    compartment — register contents leak to an attacker-drivable
 *    edge;
 *  - `unvalidated-net-boundary` (warning): no `validate:` on such a
 *    boundary;
 *  - `unthrottled-external-edge` (warning): a gate out of the
 *    net-facing compartment itself carries no `rate:` budget — a
 *    compromised netstack can storm it freely;
 *  - `unused-static-edge` (note): the pair carries no static call
 *    edge and is not denied; collected into report.suggestedDeny.
 *
 * With no net-facing compartment only `unused-static-edge` can fire.
 */
void policyPass(const SafetyConfig &cfg, const CompartmentGraph &graph,
                AuditReport &report);

} // namespace analysis
} // namespace flexos

#endif // FLEXOS_ANALYSIS_POLICY_HH
