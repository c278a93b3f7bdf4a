/**
 * @file
 * Ablation harness for the design choices DESIGN.md calls out:
 *
 *  1. Data sharing strategy (Figure 11a's end-to-end consequence):
 *     heap conversion vs DSS vs fully shared stacks, measured on the
 *     Redis macro-benchmark rather than in isolation.
 *  2. MPK gate flavour: light (shared stacks/registers) vs full DSS
 *     gate, same workload.
 *  3. Per-compartment allocator: TLSF vs Lea under the SQLite
 *     filesystem pattern (the CubicleOS observation).
 *  4. EPT RPC server pool sizing: does the second server thread matter
 *     under a single-client load?
 */

#include <cstdio>

#include "apps/deploy.hh"
#include "apps/redis.hh"
#include "ukalloc/lea.hh"
#include "ukalloc/tlsf.hh"

using namespace flexos;

namespace {

std::string
redisMpk2()
{
    return R"(
compartments:
- c1:
    mechanism: intel-mpk
    default: True
- c2:
    mechanism: intel-mpk
libraries:
- libredis: c1
- newlib: c1
- uksched: c1
- uktime: c1
- lwip: c2
)";
}

double
throughput(SafetyConfig cfg)
{
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(std::move(cfg), opts);
    dep.start();
    double out = runRedisGetBenchmark(dep.image(), dep.libc(),
                                      dep.clientStack(), 300, 1, 32)
                     .requestsPerSec;
    dep.stop();
    return out;
}

} // namespace

int
main()
{
    std::printf("=== Ablation: FlexOS design choices ===\n\n");

    std::printf("[1] stack data sharing strategy (Redis, MPK2):\n");
    for (auto [name, strategy] :
         {std::pair{"shared-heap conversion", StackSharing::Heap},
          std::pair{"data shadow stacks (DSS)", StackSharing::Dss},
          std::pair{"fully shared stacks", StackSharing::SharedStack}}) {
        SafetyConfig cfg = SafetyConfig::parse(redisMpk2());
        cfg.stackSharing = strategy;
        std::printf("    %-26s %9.1fk req/s\n", name,
                    throughput(cfg) / 1000);
    }

    std::printf("\n[2] MPK gate flavour (Redis, MPK2):\n");
    for (auto [name, flavor] :
         {std::pair{"light (ERIM-style)", MpkGateFlavor::Light},
          std::pair{"full/DSS (HODOR-style)", MpkGateFlavor::Dss}}) {
        SafetyConfig cfg = SafetyConfig::parse(redisMpk2());
        BoundaryRule rule;
        rule.from = "*";
        rule.to = "*";
        rule.flavor = flavor;
        cfg.boundaries.push_back(rule);
        std::printf("    %-26s %9.1fk req/s\n", name,
                    throughput(cfg) / 1000);
    }

    std::printf("\n[3] allocator family on the SQLite journal pattern "
                "(steps per op, lower is faster):\n");
    {
        Machine clock; // charged, but only steps are reported
        TlsfAllocator tlsf(clock, 1 << 20);
        LeaAllocator lea(clock, 1 << 20);
        auto steps = [](Allocator &a) {
            for (int i = 0; i < 2000; ++i) {
                void *j = a.alloc(4096);
                void *c = a.alloc(256);
                a.free(c);
                a.free(j);
            }
            return static_cast<double>(a.stats().steps) / 8000.0;
        };
        std::printf("    %-26s %9.2f steps/op\n", "TLSF (Unikraft)",
                    steps(tlsf));
        std::printf("    %-26s %9.2f steps/op\n", "Lea (CubicleOS)",
                    steps(lea));
    }

    std::printf("\n[4] EPT with nested cross-VM calls (sanity: pool "
                "absorbs re-entrant gates):\n");
    {
        SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- c1:
    mechanism: vm-ept
    default: True
- c2:
    mechanism: vm-ept
libraries:
- libredis: c1
- newlib: c1
- uksched: c1
- uktime: c1
- lwip: c2
)");
        std::printf("    %-26s %9.1fk req/s\n", "EPT2 RPC pool",
                    throughput(cfg) / 1000);
    }

    std::printf("\nexpected: DSS within a few %% of shared stacks and "
                "well above heap conversion; light gates above DSS "
                "gates; Lea below TLSF in steps/op\n");
    return 0;
}
