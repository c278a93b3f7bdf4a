#include "runtime/controller.hh"

#include <algorithm>

#include "base/logging.hh"

namespace flexos {

PolicyController::PolicyController(Image &image, ControllerConfig config)
    : img(image), cfg(config)
{
    // Enroll the opted-in boundaries. A `deny:` edge never enrolls —
    // deny is a least-privilege statement, and the controller must
    // not be able to open a channel the configuration closed.
    int n = static_cast<int>(img.compartmentCount());
    for (int f = 0; f < n; ++f) {
        for (int t = 0; t < n; ++t) {
            if (f == t)
                continue;
            const GatePolicy &pol = img.policyFor(f, t);
            if (!pol.adaptive || pol.deny)
                continue;
            EdgeState st;
            st.baseline = pol;
            edges.emplace(std::make_pair(f, t), st);
        }
    }
    prevStats = img.snapshotStats();
    for (const auto &[pair, stat] : img.boundaryStats())
        prevCrossings[pair] = stat.count;
}

PolicyController::~PolicyController()
{
    stop();
}

void
PolicyController::start()
{
    if (thread)
        return;
    stopping = false;
    thread = img.scheduler().spawn("policy-controller", [this] {
        while (!stopping) {
            img.scheduler().sleepNs(cfg.epoch);
            if (stopping)
                break;
            step();
        }
    });
    // Control-plane work models a management core outside the measured
    // guest: it must neither be charged to the workload nor hold the
    // run queues non-empty while sleeping between epochs.
    thread->freeRunning = true;
}

void
PolicyController::stop()
{
    if (!thread)
        return;
    stopping = true;
    if (thread->state() != Thread::State::Finished)
        img.scheduler().cancel(thread);
    thread = nullptr;
}

void
PolicyController::record(const std::string &rule, const std::string &edge,
                         int level)
{
    traceRing.push_back({epochCount, rule, edge, level});
    if (traceRing.size() > traceCapacity)
        traceRing.pop_front();
    img.machine().bump("controller.trace");
}

GatePolicy
PolicyController::policyAt(const EdgeState &st) const
{
    GatePolicy p = st.baseline;
    if (st.level >= 1) {
        // Impose a crossing budget of one storm threshold per epoch —
        // or the configured budget if it was already tighter. Stall
        // first: back-pressure is recoverable, failure is not.
        std::uint64_t budget = cfg.stormThreshold;
        if (p.rate)
            budget = std::min(p.rate, budget);
        p.rate = budget;
        p.rateWindow = cfg.epoch;
        p.overflow = RateOverflow::Stall;
    }
    if (st.level >= 2)
        p.overflow = RateOverflow::Fail;
    if (st.level >= 3) {
        p.validateEntry = true;
        p.validateReturn = true;
    }
    if (st.denyHardened) {
        // The offender probed a denied edge: treat its writable
        // channels as attacker-facing — full DSS gate, validated
        // entry, scrubbed returns.
        p.flavor = MpkGateFlavor::Dss;
        p.validateEntry = true;
        p.scrubReturn = true;
    }
    return p;
}

bool
PolicyController::step()
{
    Machine &mach = img.machine();
    ++epochCount;
    mach.bump("controller.epochs");

    // Windowed sample: everything below reasons about THIS epoch's
    // activity, never the monotonic totals (satellite: counter-reset
    // semantics — snapshot and difference, don't reset).
    Image::StatsSnapshot snap = img.snapshotStats();
    Image::StatsSnapshot delta = Image::statsDelta(prevStats, snap);
    prevStats = std::move(snap);

    std::map<std::pair<int, int>, std::uint64_t> crossed;
    for (const auto &[pair, stat] : img.boundaryStats()) {
        std::uint64_t prev = prevCrossings[pair];
        if (stat.count > prev)
            crossed[pair] = stat.count - prev;
        prevCrossings[pair] = stat.count;
    }

    const auto &comps = img.config().compartments;
    auto nameOf = [&](int i) {
        return comps[static_cast<std::size_t>(i)].name;
    };

    // Deny witnesses first: an offender caught probing a closed edge
    // this epoch gets its outgoing adaptive edges hardened before the
    // storm/relax pass below reasons about them.
    int n = static_cast<int>(comps.size());
    for (int f = 0; f < n; ++f) {
        bool offender = false;
        for (int t = 0; t < n; ++t) {
            if (f == t)
                continue;
            auto it =
                delta.find("gate.denied." + nameOf(f) + "->" + nameOf(t));
            if (it != delta.end() && it->second >= cfg.denyAlert) {
                offender = true;
                mach.bump("controller.alerts");
            }
        }
        if (!offender)
            continue;
        for (auto &[pair, st] : edges) {
            if (pair.first != f || st.denyHardened)
                continue;
            st.denyHardened = true;
            st.calm = 0;
            mach.bump("controller.tightens");
            record("deny-harden",
                   nameOf(pair.first) + "->" + nameOf(pair.second), -1);
        }
    }

    // Storm / calm pass, with hysteresis: a single quiet epoch never
    // relaxes anything, and any storm resets the calm streak.
    for (auto &[pair, st] : edges) {
        auto it = crossed.find(pair);
        std::uint64_t count = it == crossed.end() ? 0 : it->second;
        if (count > cfg.stormThreshold) {
            st.calm = 0;
            if (st.level < 3) {
                ++st.level;
                mach.bump("controller.tightens");
                record("tighten",
                       nameOf(pair.first) + "->" + nameOf(pair.second),
                       st.level);
            }
        } else if (st.level > 0 || st.denyHardened) {
            if (++st.calm >= cfg.calmEpochs) {
                if (st.level > 0)
                    --st.level;
                else
                    st.denyHardened = false;
                st.calm = 0;
                mach.bump("controller.relaxes");
                record("relax",
                       nameOf(pair.first) + "->" + nameOf(pair.second),
                       st.level);
            }
        }
    }

    // Materialize: rebuild each enrolled edge's policy from its state
    // and swap only if some cell actually changed (an unchanged matrix
    // must stay bit-identical to no swap — the pin the static model
    // relies on).
    GateMatrix next = img.gateMatrix();
    bool changed = false;
    for (const auto &[pair, st] : edges) {
        GatePolicy want = policyAt(st);
        if (!(want == img.policyFor(pair.first, pair.second))) {
            next.set(pair.first, pair.second, want);
            changed = true;
        }
    }
    if (!changed)
        return false;
    bool swapped = img.swapGateMatrix(std::move(next));
    if (swapped)
        record("swap", "", 0);
    return swapped;
}

} // namespace flexos
