/**
 * @file
 * explore-redis-budget: the paper's section 5 / fig8 exploration. The
 * 80 fig6Space points go into a SafetyPoset; SafetyPoset::explore
 * walks it with the benchmark's own seeded Redis closed loop as the
 * evaluator under the budget peak x 500/1199.2, and every evaluated
 * point also gets its static audit score.
 */

#include <set>

#include "explore/wayfinder.hh"
#include "redis_load.hh"

namespace perfbench {

using namespace flexos;

namespace {

class ExploreWorkload : public Workload
{
  public:
    explicit ExploreWorkload(std::uint64_t seed)
        : load(makeRedisLoad(seed, 64, 4, 1, 400, 0))
    {
        opts.withFs = false;
        opts.heapBytes = 2 * 1024 * 1024;
        opts.sharedHeapBytes = 1 * 1024 * 1024;
    }

    Episode
    run(Trace *trace) override
    {
        Episode ep;
        std::int64_t t0 = hostNs();

        // ---- set-up: the space and the poset's cover relation.
        SafetyPoset poset;
        {
            HostSpan span(trace, "fig6Space");
            for (ConfigPoint &p : wayfinder::fig6Space()) {
                p.label = wayfinder::pointLabel(p, "libredis");
                poset.add(p);
            }
        }
        std::int64_t e0 = hostNs();
        {
            HostSpan span(trace, "buildEdges");
            poset.buildEdges();
        }
        ep.posetEdgesMs = millis(hostNs() - e0);
        ep.setupS = static_cast<double>(hostNs() - t0) / 1e9;

        // ---- the sweep: peak corner, then the pruned walk.
        std::set<std::size_t> evaluatedAt;
        std::map<std::size_t, int> audit;
        double peak = servePoint(poset.at(0), 2, ep, trace);
        double budget = peak * (500.0 / 1199.2); // the paper's ratio
        std::size_t evaluated = poset.explore(
            [&](ConfigPoint &p) {
                std::size_t idx =
                    static_cast<std::size_t>(&p - &poset.at(0));
                evaluatedAt.insert(idx);
                double perf =
                    servePoint(p, 3 + static_cast<int>(idx), ep, trace);
                std::int64_t a0 = hostNs();
                {
                    HostSpan span(trace, "audit");
                    audit[idx] = wayfinder::auditScore(p, "libredis");
                }
                ep.auditMs += millis(hostNs() - a0);
                ++ep.audits;
                return perf;
            },
            budget);
        std::vector<std::size_t> starred = poset.safestWithin(budget);
        ep.measuredS = static_cast<double>(hostNs() - t0) / 1e9;

        // ---- checks on the exploration's own outputs.
        // A point is pruned only when it is strictly safer than an
        // evaluated point that missed the budget (poset.cc's rule), so
        // evaluated + pruned = 80 holds only if no point was skipped
        // without that cause.
        std::size_t pruned = 0;
        for (std::size_t i = 0; i < poset.size(); ++i) {
            if (evaluatedAt.count(i))
                continue;
            for (std::size_t j : evaluatedAt)
                if (poset.at(j).perf < budget &&
                    compareSafety(poset.at(i), poset.at(j)) ==
                        SafetyOrder::Greater) {
                    ++pruned;
                    break;
                }
        }
        if (evaluated + pruned != poset.size())
            ep.fail("evaluated + pruned = " +
                    std::to_string(evaluated + pruned) + ", not " +
                    std::to_string(poset.size()));
        for (std::size_t i : starred) {
            const ConfigPoint &p = poset.at(i);
            if (!evaluatedAt.count(i) || p.perf <= 0)
                ep.fail("starred point " + p.label + " was not measured");
            if (p.perf < budget)
                ep.fail("starred point " + p.label + " misses the budget");
            for (std::size_t j : starred)
                if (j != i && compareSafety(p, poset.at(j)) ==
                                  SafetyOrder::Greater)
                    ep.fail("starred " + p.label + " dominates " +
                            poset.at(j).label);
        }
        for (const auto &[idx, score] : audit)
            if (score < 0)
                ep.fail("no audit score for " + poset.at(idx).label);

        double lo = peak, hi = peak;
        for (std::size_t i : evaluatedAt) {
            lo = std::min(lo, poset.at(i).perf);
            hi = std::max(hi, poset.at(i).perf);
        }
        ep.facts["peak_req_per_s"] = peak;
        ep.facts["budget_req_per_s"] = budget;
        ep.facts["evaluated"] = static_cast<double>(evaluated);
        ep.facts["pruned"] = static_cast<double>(pruned);
        ep.facts["starred"] = static_cast<double>(starred.size());
        ep.facts["min_req_per_s"] = lo;
        ep.facts["max_req_per_s"] = hi;
        long auditSum = 0;
        for (const auto &[idx, score] : audit)
            auditSum += score;
        ep.facts["audit_score_sum"] = static_cast<double>(auditSum);
        return ep;
    }

  private:
    /** One evaluation: build, boot, serve and tear down p. */
    double
    servePoint(const ConfigPoint &p, int pid, Episode &ep, Trace *trace)
    {
        if (trace)
            trace->nameProcess(pid, "sim " + p.label);
        std::int64_t firstOp = 0;
        return serveConfig(wayfinder::toSafetyConfig(p, "libredis"), opts,
                           load, ep, trace, pid, &firstOp);
    }

    RedisLoad load;
    DeployOptions opts;
};

} // namespace

std::unique_ptr<Workload>
makeExploreWorkload(std::uint64_t seed)
{
    return std::make_unique<ExploreWorkload>(seed);
}

} // namespace perfbench
