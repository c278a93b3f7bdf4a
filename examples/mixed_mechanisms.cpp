/**
 * @file
 * Heterogeneous isolation: one image, several mechanisms, and a
 * gate-policy matrix. The mechanism is a per-boundary build-time
 * knob, so a deployment can spend the expensive protection exactly
 * where the threat is: here the network stack — the component parsing
 * attacker-controlled bytes — sits alone in an EPT-backed VM, while
 * the application and system libraries stay behind MPK boundaries.
 *
 * The `boundaries:` section then tunes individual (from, to) pairs of
 * the matrix: the hot trusted app -> sys boundary runs the ERIM-style
 * light gate while every other MPK boundary keeps the full
 * register-scrubbing DSS gate (two flavours live in one image),
 * crossings into the attacker-facing net VM force caller-side entry
 * validation, and EPT -> MPK returns skip the return-side scrub —
 * asymmetric policies that one image-wide gate flavour could not say.
 *
 * The workload is the PR 1 multi-flow iperf: N parallel connections
 * through one listener, i.e. MPK->EPT and EPT->MPK crossings under
 * load rather than a single ping.
 */

#include <cstdio>

#include "apps/deploy.hh"
#include "apps/iperf.hh"

using namespace flexos;

namespace {

const char *heterogeneousConfig = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- net:
    mechanism: vm-ept        # attacker-facing: strongest boundary
    servers: 3               # RPC pool size (elastic up to the cap)
libraries:
- libiperf: app
- newlib: sys
- uksched: sys
- lwip: net
boundaries:
- app -> sys: {gate: light}  # hot trusted boundary: ERIM-style gate
- '*' -> net: {validate: true} # attacker-facing: validate entries
- net -> '*': {scrub: false} # EPT->MPK returns skip the re-scrub
)";

} // namespace

int
main()
{
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(heterogeneousConfig, opts);

    std::printf("=== Heterogeneous isolation: MPK app/sys + EPT net "
                "===\n\n");
    std::printf("backends instantiated: %s\n",
                dep.image().backendNames().c_str());
    for (std::size_t i = 0; i < dep.image().compartmentCount(); ++i) {
        const Compartment &c = dep.image().compartmentAt(i);
        std::printf("  compartment %zu '%s' -> %s\n", i,
                    c.spec.name.c_str(),
                    dep.image().backendFor(static_cast<int>(i)).name());
    }

    std::printf("\ngate-policy matrix (from -> to : policy):\n");
    for (std::size_t f = 0; f < dep.image().compartmentCount(); ++f) {
        for (std::size_t t = 0; t < dep.image().compartmentCount();
             ++t) {
            if (f == t)
                continue;
            std::printf("  %-4s -> %-4s : %s\n",
                        dep.image().compartmentAt(f).spec.name.c_str(),
                        dep.image().compartmentAt(t).spec.name.c_str(),
                        dep.image()
                            .policyFor(static_cast<int>(f),
                                       static_cast<int>(t))
                            .name()
                            .c_str());
        }
    }
    std::printf("\nround-tripped config (toText):\n%s",
                dep.image().config().toText().c_str());

    dep.start();
    IperfResult res = runIperf(dep.image(), dep.libc(),
                               dep.clientStack(), 64 * 1024, 4096,
                               /*flows=*/4);
    dep.stop();

    Machine &m = dep.machine();
    std::printf("\niperf: %u flows, %.2f Gb/s aggregate\n", res.flows,
                res.gbitPerSec);
    std::printf("\ngate traffic by flavour/mechanism:\n");
    std::printf("  gate.direct    (same compartment)  : %10lu\n",
                static_cast<unsigned long>(m.counter("gate.direct")));
    std::printf("  gate.mpk.light (hot app->sys edge) : %10lu\n",
                static_cast<unsigned long>(m.counter("gate.mpk.light")));
    std::printf("  gate.mpk.dss   (other MPK edges)   : %10lu\n",
                static_cast<unsigned long>(m.counter("gate.mpk.dss")));
    std::printf("  gate.ept       (into net, RPC)     : %10lu\n",
                static_cast<unsigned long>(m.counter("gate.ept")));
    std::printf("  gate.validate  (forced entry check): %10lu\n",
                static_cast<unsigned long>(m.counter("gate.validate")));
    std::printf("  gate.ept.ringDepth (high water)    : %10lu\n",
                static_cast<unsigned long>(
                    m.counter("gate.ept.ringDepth")));

    std::printf("\ncrossings per boundary (from -> to : policy):\n");
    for (const auto &[pair, stat] : dep.image().boundaryStats()) {
        (void)pair;
        std::printf("  %-4s -> %-4s : %-22s %10lu\n",
                    stat.from.c_str(), stat.to.c_str(),
                    stat.policy.c_str(),
                    static_cast<unsigned long>(stat.count));
    }

    std::printf("\nOne config file, two mechanisms, one policy "
                "matrix: the network boundary\nis VM-grade, the hot "
                "app->sys edge runs the light gate, and every "
                "override\nis a one-line boundaries: rule.\n");
    return 0;
}
