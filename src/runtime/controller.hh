/**
 * @file
 * Runtime policy controller: the online half of the FlexOS safety
 * story. The build-time toolchain picks a gate matrix for the traffic
 * it can predict; this control plane watches the per-boundary ledger
 * the gates already maintain and adapts the matrix — through
 * Image::swapGateMatrix's quiesced epoch flips — when observed
 * behaviour diverges from the configuration's assumptions.
 *
 * The controller is deliberately conservative:
 *  - it only ever touches boundaries that opted in (`adaptive: true`);
 *  - `deny:` edges are never relaxed online (a deny is a least-
 *    privilege statement, not a performance knob);
 *  - every tightening step is reversible, and relaxation only walks
 *    back toward the *configured* policy, never past it;
 *  - a swap that would change nothing is elided entirely, so images
 *    with no adaptive boundary are bit-identical to the static model.
 */

#ifndef FLEXOS_RUNTIME_CONTROLLER_HH
#define FLEXOS_RUNTIME_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/image.hh"

namespace flexos {

/**
 * Samples an image's boundary counters on a fixed virtual-time epoch
 * and applies policy deltas through quiesced gate-matrix swaps.
 *
 * Rules evaluated each epoch, per adaptive boundary:
 *
 *  - **Gate storm** (tighten): more crossings in the window than
 *    `storm_threshold` escalates the edge one level —
 *      level 1: impose a crossing-rate budget of the threshold per
 *               epoch (overflow: stall — back-pressure, not failure);
 *      level 2: overflow becomes fail (the storm persists through
 *               back-pressure, so the caller is misbehaving);
 *      level 3: entry and return validation are forced on (treat the
 *               edge as attacker-facing).
 *
 *  - **Calm caller** (relax): a tightened edge whose caller stayed
 *    under the threshold for `calm_epochs` consecutive epochs steps
 *    one level back toward its configured policy. Hysteresis: any
 *    storm resets the calm streak.
 *
 *  - **Deny witness** (alert + harden): `deny_alert` or more denied
 *    crossings on any edge in one window raises an alert and forces
 *    DSS flavour + entry validation onto the offender's *outgoing*
 *    adaptive edges (its writable channels) — the deny edge itself is
 *    already as tight as policy gets and is never modified.
 *
 * Counters: controller.epochs, controller.tightens, controller.relaxes,
 * controller.alerts (plus matrix.swaps / matrix.epoch from the swap
 * path itself).
 */
class PolicyController
{
  public:
    /** Entries the decision trace retains (oldest evicted first). */
    static constexpr std::size_t traceCapacity = 256;

    /**
     * One controller decision, timestamped by epoch: the
     * observability record benches dump so containment timelines can
     * be *plotted* from the rule firings rather than inferred from
     * counter deltas. `level` is the edge's escalation level after
     * the decision (deny-hardening reports level -1: it is an
     * orthogonal bit, not a ladder rung).
     */
    struct TraceEntry
    {
        std::uint64_t epoch = 0;
        std::string rule; ///< tighten | relax | deny-harden | swap
        std::string edge; ///< "from->to", or "" for image-wide events
        int level = 0;
    };

    PolicyController(Image &img, ControllerConfig cfg);
    ~PolicyController();

    PolicyController(const PolicyController &) = delete;
    PolicyController &operator=(const PolicyController &) = delete;

    /**
     * Spawn the sampling thread: sleeps `epoch` virtual ns, runs
     * step(), repeats. The thread is free-running (control-plane work
     * models a host core outside the measured guest).
     */
    void start();

    /** Stop and join the sampling thread. */
    void stop();

    /**
     * Evaluate one epoch now, in the calling context: sample the
     * counter window, run every rule, and apply the resulting matrix
     * through a quiesced swap. Exposed for tests and driver-context
     * closed loops; start() calls it on the sampling cadence.
     * @return true if a swap was applied (some policy changed).
     */
    bool step();

    /** Epochs evaluated so far. */
    std::uint64_t epochs() const { return epochCount; }

    /** The decision trace ring (`controller.trace` counts entries). */
    const std::deque<TraceEntry> &trace() const { return traceRing; }

  private:
    /** Append to the trace ring, evicting the oldest past capacity. */
    void record(const std::string &rule, const std::string &edge,
                int level);
    /** Per-adaptive-boundary escalation state. */
    struct EdgeState
    {
        GatePolicy baseline;      ///< the configured (build-time) policy
        int level = 0;            ///< 0 = baseline .. 3 = max escalation
        std::uint64_t calm = 0;   ///< consecutive under-threshold epochs
        bool denyHardened = false; ///< deny-witness DSS+validate applied
    };

    /** Re-derive an edge's policy from its baseline and state. */
    GatePolicy policyAt(const EdgeState &st) const;

    Image &img;
    ControllerConfig cfg;
    Thread *thread = nullptr;
    bool stopping = false;
    std::uint64_t epochCount = 0;

    std::map<std::pair<int, int>, EdgeState> edges;
    /** The image's per-boundary ledger at the previous epoch
     *  (windowed deltas). */
    std::vector<Image::BoundaryCounts> prevLedger;
    /** Bounded decision trace (see TraceEntry). */
    std::deque<TraceEntry> traceRing;
};

} // namespace flexos

#endif // FLEXOS_RUNTIME_CONTROLLER_HH
