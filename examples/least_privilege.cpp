/**
 * @file
 * Least-privilege boundary rules: the gate matrix as a call-graph
 * specification, not just a table of gate knobs.
 *
 * Three rule kinds beyond {gate, validate, scrub}:
 *
 *  - `deny: true` statically forbids an edge. Edges the static call
 *    graph needs are rejected at image build; dynamic crossings raise
 *    DeniedCrossing and count in `gate.denied`. Here nothing may ever
 *    gate back into the application compartment.
 *  - `rate: N` budgets crossings per boundary per virtual-time window
 *    (token bucket in vcycles) — gate-storm containment. Overflowing
 *    crossings count in `gate.throttled` and either stall the caller
 *    (back-pressure, `machine.stallCycles`) or fail, per `overflow:`.
 *  - `stack_sharing:` is a per-boundary strategy resolved through the
 *    same wildcard layering; the old image-global key is just the
 *    `'*' -> '*'` default. Every boundary here keeps the DSS: sharing
 *    the whole stack on the hot app -> sys edge would be cheaper, but
 *    the adversary scorecard (`--score`) rates shared frames as
 *    corruptible/scannable from a compromised peer.
 *
 * Run with `--score` to deploy this config and mount the full
 * flexos::adversary attack catalogue against it from a compromised
 * net compartment; the process exits non-zero unless every applicable
 * scenario is contained (the CI containment smoke).
 *
 * The config round-trips through SafetyConfig::toText() — see
 * docs/gate-policy.md for the worked version of this example.
 */

#include <cstdio>
#include <cstring>

#include "adversary/adversary.hh"
#include "analysis/audit.hh"
#include "apps/deploy.hh"
#include "core/dss.hh"

using namespace flexos;

namespace {

const char *leastPrivilegeConfig = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- net:
    mechanism: intel-mpk
libraries:
- libredis: app
- newlib: sys
- uksched: sys
- uktime: sys
- lwip: net
boundaries:
- '*' -> app: {deny: true}                     # nobody calls back in
- app -> sys: {stack_sharing: dss}             # hot edge keeps the DSS
- sys -> net: {rate: 100, window: 1000000, overflow: stall}
- net -> sys: {rate: 500, overflow: fail, validate: true}
)";

} // namespace

int
main(int argc, char **argv)
{
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    Deployment dep(leastPrivilegeConfig, opts);
    Image &img = dep.image();
    Machine &m = dep.machine();

    if (argc > 1 && std::strcmp(argv[1], "--score") == 0) {
        // Containment smoke: attack the deployed matrix from a
        // compromised net compartment and demand full containment.
        adversary::AttackOptions aopts;
        aopts.attackerLib = "lwip";
        adversary::AttackScorecard card =
            adversary::runScorecard(dep, aopts);
        std::printf("=== Adversary scorecard (attacker: net/lwip) "
                    "===\n\n");
        for (const adversary::AttackResult &r : card.results)
            std::printf("  %-11s %-28s %-9s %s\n",
                        adversary::attackClassName(r.cls),
                        r.scenario.c_str(),
                        adversary::outcomeName(r.outcome),
                        r.witness.c_str());
        std::printf("\n%s\n", card.summary().c_str());
        if (!card.fullContainment()) {
            std::printf("FAIL: configuration does not fully contain "
                        "the attack catalogue\n");
            return 1;
        }
        std::printf("full containment: yes\n");
        return 0;
    }

    std::printf("=== Least-privilege boundary rules ===\n\n");
    std::printf("gate-policy matrix (from -> to : policy):\n");
    for (std::size_t f = 0; f < img.compartmentCount(); ++f) {
        for (std::size_t t = 0; t < img.compartmentCount(); ++t) {
            if (f == t)
                continue;
            std::printf("  %-4s -> %-4s : %s\n",
                        img.compartmentAt(f).spec.name.c_str(),
                        img.compartmentAt(t).spec.name.c_str(),
                        img.policyFor(static_cast<int>(f),
                                      static_cast<int>(t))
                            .name()
                            .c_str());
        }
    }

    // The config survives serialization: reparsing toText() resolves
    // to the exact same matrix (CI keeps this property tested too).
    SafetyConfig again = SafetyConfig::parse(img.config().toText());
    GateMatrix m2 = GateMatrix::build(again);
    bool same = true;
    for (std::size_t f = 0; f < img.compartmentCount(); ++f)
        for (std::size_t t = 0; t < img.compartmentCount(); ++t)
            same = same && m2.at(static_cast<int>(f),
                                 static_cast<int>(t)) ==
                               img.policyFor(static_cast<int>(f),
                                             static_cast<int>(t));
    std::printf("\ntoText() round-trip resolves to the same matrix: "
                "%s\n",
                same ? "yes" : "NO");

    // Drive the boundaries. The storm loop overruns sys -> net's
    // 100-per-1M-vcycle budget and gets stalled; the denied edges
    // refuse their dynamic crossings.
    std::uint64_t denied = 0, throttleFailed = 0;
    bool done = false;
    // Gate sites resolve once, before any crossing.
    const GateSite yield = img.site("uksched", "yield");
    const GateSite poll = img.site("lwip", "poll");
    const GateSite handleConn = img.site("libredis", "redis_handle_conn");
    img.spawnIn("libredis", "driver", [&] {
        // Hot edge: app -> sys keeps the DSS, so frames opened behind
        // it still split private variable from shared shadow copy.
        img.gate(yield, [&] {
            DssFrame frame(img);
            int *x = frame.var<int>();
            img.store(x, 7);
            std::printf("\napp -> sys frame: shadow(&x) != &x: %s "
                        "(dss boundary)\n",
                        frame.shadow(x) != x ? "yes" : "NO");
        });

        // Gate storm across the rate-limited sys -> net edge.
        img.gate(yield, [&] {
            for (int i = 0; i < 300; ++i)
                img.gate(poll, [] {});
        });

        // net -> sys is budgeted with overflow: fail.
        img.gate(yield, [&] {
            img.gate(poll, [&] {
                for (int i = 0; i < 700; ++i) {
                    try {
                        img.gate(yield, [] {});
                    } catch (const ThrottledCrossing &) {
                        ++throttleFailed;
                    }
                }
            });
        });

        // Crossings back into the app compartment are denied for
        // everyone — sys and net alike.
        img.gate(yield, [&] {
            try {
                img.gate(handleConn, [] {});
            } catch (const DeniedCrossing &) {
                ++denied;
            }
        });
        img.gate(poll, [&] {
            try {
                img.gate(handleConn, [] {});
            } catch (const DeniedCrossing &) {
                ++denied;
            }
        });
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });

    std::printf("\nleast-privilege stats:\n");
    std::printf("  gate.denied          : %6lu  (DeniedCrossing "
                "caught: %lu)\n",
                static_cast<unsigned long>(m.counter("gate.denied")),
                static_cast<unsigned long>(denied));
    std::printf("  gate.throttled       : %6lu  (ThrottledCrossing "
                "caught: %lu)\n",
                static_cast<unsigned long>(m.counter("gate.throttled")),
                static_cast<unsigned long>(throttleFailed));
    std::printf("  machine.stallCycles  : %6lu  (sys -> net "
                "back-pressure)\n",
                static_cast<unsigned long>(
                    m.counter("machine.stallCycles")));

    std::printf("\ncrossings per boundary (from -> to : policy):\n");
    for (const auto &[pair, stat] : img.boundaryStats()) {
        (void)pair;
        std::printf("  %-4s -> %-4s : %-28s %8lu\n", stat.from.c_str(),
                    stat.to.c_str(), stat.policy.c_str(),
                    static_cast<unsigned long>(stat.count));
    }

    // Where do the deny rules come from? The boundary auditor derives
    // them: strip this config's deny rules and ask it what a minimal
    // least-privilege ruleset would be — it suggests exactly the edges
    // the `'*' -> app` rule covers (see docs/static-analysis.md and
    // `tools/boundary_audit`).
    LibraryRegistry reg = LibraryRegistry::standard();
    analysis::AuditOptions aopts;
    aopts.escape = false; // call-graph + policy passes only

    SafetyConfig loose = img.config();
    std::erase_if(loose.boundaries, [](const BoundaryRule &r) {
        return r.deny && *r.deny;
    });
    analysis::AuditReport before = analysis::runAudit(loose, reg, aopts);
    analysis::AuditReport after =
        analysis::runAudit(img.config(), reg, aopts);

    std::printf("\nboundary audit, deny rules stripped (score %d) — "
                "suggested minimal deny ruleset:\n",
                before.score());
    for (const auto &[f, t] : before.suggestedDeny)
        std::printf("  - %s -> %s: {deny: true}\n", f.c_str(),
                    t.c_str());
    std::printf("boundary audit of the shipped config (score %d): "
                "%zu further deny rule(s) suggested\n",
                after.score(), after.suggestedDeny.size());

    std::printf("\nThe matrix is a call-graph specification: edges "
                "the deployment does not\nneed are denied, bursty "
                "edges are budgeted, and the data-sharing strategy\n"
                "is chosen boundary by boundary.\n");
    return 0;
}
