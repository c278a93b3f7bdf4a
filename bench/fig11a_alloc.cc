/**
 * @file
 * Figure 11a reproduction: latency of allocating 1..3 shared 1-byte
 * stack variables under the three data-sharing strategies — shared-heap
 * conversion, DSS, and fully shared stacks.
 *
 * Prints virtual machine cycles per frame (the paper's y axis); the
 * table is deterministic and pinned by the `fig11a_golden` CTest.
 * Expected: heap 100-300+ cycles growing with the variable count; DSS
 * and shared stack constant ~2 cycles.
 */

#include <cstdio>

#include "apps/deploy.hh"
#include "core/dss.hh"

using namespace flexos;

namespace {

const char *cfgText = R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libredis: comp1
- lwip: comp2
)";

/** Measure virtual cycles of one frame with n shared 1-byte vars. */
double
measure(StackSharing sharing, int nVars, std::uint64_t iters)
{
    SafetyConfig cfg = SafetyConfig::parse(cfgText);
    cfg.stackSharing = sharing;
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    Deployment dep(cfg, opts);

    Cycles total = 0;
    bool done = false;
    dep.image().spawnIn("libredis", "alloc-bench", [&] {
        Machine &m = dep.machine();
        for (std::uint64_t i = 0; i < iters; ++i) {
            Cycles before = m.cycles();
            {
                DssFrame frame(dep.image());
                for (int v = 0; v < nVars; ++v)
                    frame.alloc(1);
            }
            total += m.cycles() - before;
        }
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    return static_cast<double>(total) / static_cast<double>(iters);
}

} // namespace

int
main()
{
    std::printf("=== Figure 11a: shared stack variable allocation "
                "(vcycles per frame) ===\n%-14s %8s %8s %8s\n",
                "stack_sharing", "1 var", "2 vars", "3 vars");
    for (StackSharing s : {StackSharing::Heap, StackSharing::Dss,
                           StackSharing::SharedStack}) {
        std::printf("%-14s", stackSharingName(s));
        for (int nVars = 1; nVars <= 3; ++nVars)
            std::printf(" %8.10g", measure(s, nVars, 2000));
        std::printf("\n");
    }
    return 0;
}
