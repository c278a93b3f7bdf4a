/**
 * @file
 * Use case (paper section 7): "as secure as you can afford". A service
 * operator wants, at any time, the *safest* configuration that still
 * sustains the current load. Partial safety ordering answers exactly
 * that question: build the poset over the configuration space, label
 * it with measured throughput, and pick the maximal elements above the
 * load. As load rises, defenses gracefully switch off; as it falls,
 * they come back.
 */

#include <cstdio>

#include "explore/poset.hh"
#include "explore/wayfinder.hh"

using namespace flexos;

int
main()
{
    // Build and measure a compact slice of the Redis space once.
    std::vector<ConfigPoint> space = wayfinder::fig6Space();
    SafetyPoset poset;
    for (ConfigPoint &p : space) {
        p.label = wayfinder::pointLabel(p, "redis");
        poset.add(p);
    }
    for (std::size_t i = 0; i < poset.size(); ++i)
        poset.at(i).perf = wayfinder::measureRedis(poset.at(i), 250);

    double peak = 0;
    for (std::size_t i = 0; i < poset.size(); ++i)
        peak = std::max(peak, poset.at(i).perf);

    // A day in the life of the service: load as a fraction of peak.
    struct Hour
    {
        const char *when;
        double load;
    };
    const Hour day[] = {
        {"03:00 (night, idle)", 0.25},
        {"09:00 (morning ramp)", 0.55},
        {"13:00 (lunch peak)", 0.85},
        {"20:00 (evening)", 0.45},
    };

    std::printf("peak capacity: %.0fk req/s\n\n", peak / 1000);
    for (const Hour &h : day) {
        double needed = peak * h.load;
        std::vector<std::size_t> best = poset.safestWithin(needed);
        std::printf("%-22s needs %6.0fk req/s -> %zu safest "
                    "configuration(s):\n",
                    h.when, needed / 1000, best.size());
        for (std::size_t i : best) {
            std::printf("    %-52s %8.0fk req/s\n",
                        poset.at(i).label.c_str(),
                        poset.at(i).perf / 1000);
        }
    }
    std::printf("\nswitching between these is a rebuild away — no "
                "redesign, ever.\n");
    return 0;
}
