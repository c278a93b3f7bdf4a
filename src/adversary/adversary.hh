/**
 * @file
 * Adversary simulation: the compromised-compartment attack harness.
 *
 * Everything else in the repository *specifies* least privilege
 * (the gate matrix), *audits* it statically (flexos::analysis) or
 * *adapts* it online (the policy controller); this subsystem attacks
 * it. One compartment is declared compromised and a structured
 * catalogue of attack scenarios is mounted from inside it against a
 * live deployment:
 *
 *  - **ROP-style illegal crossings**: forged gate entries into
 *    non-adjacent compartments, gate entries aimed at non-entry-point
 *    "gadgets", forged and replayed EPT ring doorbells.
 *  - **Return/stack corruption**: writes into other compartments'
 *    private stack halves (the return-address corruption analogue
 *    across DSS frames).
 *  - **Info-leak probes**: scans of victim stacks and of the
 *    unscrubbed scratch-register file for planted canaries, with
 *    bits-leaked and ASLR-entropy-defeated accounting against the
 *    linker script's per-compartment layout slides.
 *  - **Resource attacks** (re-used from the netstack): SYN floods
 *    against listener backlogs, out-of-order-queue exhaustion, and
 *    flow-table churn aimed at a compromised net compartment.
 *
 * Each scenario reports contained / partial / breached plus the
 * virtual cycles until the containment witness fired, aggregated into
 * an AttackScorecard — the measured security outcome that
 * `fig07_scatter --attack` and `least_privilege --score` report.
 */

#ifndef FLEXOS_ADVERSARY_ADVERSARY_HH
#define FLEXOS_ADVERSARY_ADVERSARY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace flexos {

class Deployment;

namespace adversary {

/** The attack classes the harness mounts. */
enum class AttackClass
{
    IllegalCrossing,  ///< forged gates into non-adjacent compartments
    ReturnCorruption, ///< cross-compartment stack-frame writes
    ForgedDoorbell,   ///< forged / replayed EPT ring doorbells
    InfoLeak,         ///< stack scans + unscrubbed-register probes
    Resource,         ///< netstack floods from a compromised net comp
};

/** Stable short name (CLI `--attack` argument, JSON keys). */
const char *attackClassName(AttackClass c);

/** Parse an attackClassName; returns false on an unknown name. */
bool parseAttackClass(const std::string &name, AttackClass &out);

/** Every attack class, catalogue order. */
const std::vector<AttackClass> &allAttackClasses();

/** What one scenario achieved against the deployed config. */
enum class Outcome
{
    Contained,    ///< the mechanism/policy stopped and witnessed it
    Partial,      ///< degraded but bounded (throttled, detected late)
    Breached,     ///< the attack reached its goal
    NotApplicable ///< the deployment has no surface for this scenario
};

const char *outcomeName(Outcome o);

/** One attack scenario's verdict. */
struct AttackResult
{
    AttackClass cls = AttackClass::IllegalCrossing;
    /** Scenario id, e.g. "rop-cross:net->app" or "syn-flood". */
    std::string scenario;
    Outcome outcome = Outcome::NotApplicable;
    /**
     * Virtual cycles from mounting the attack to the containment
     * witness firing (0 for breaches — a breach is never detected).
     */
    std::uint64_t detectionCycles = 0;
    /** Counter (or mechanism) that witnessed the containment. */
    std::string witness;
    /** Info-leak accounting: secret bits the attacker recovered. */
    unsigned bitsLeaked = 0;
    /** Layout-randomization bits a leaked pointer revealed. */
    unsigned entropyDefeated = 0;
};

/**
 * The aggregated containment scorecard of one deployment: the
 * measured counterpart of the static boundary audit's score (lower =
 * better, 0 = full containment).
 */
struct AttackScorecard
{
    std::vector<AttackResult> results;

    std::size_t contained() const;
    std::size_t partial() const;
    std::size_t breached() const;
    /** Total secret bits leaked across every scenario. */
    unsigned bitsLeaked() const;
    /** Total ASLR entropy bits defeated across every scenario. */
    unsigned entropyDefeated() const;

    /** No breach and no partial among the applicable scenarios. */
    bool fullContainment() const;

    /** Hazard score: 10 per breach + 3 per partial (0 = contained). */
    int score() const;

    /** One-line human summary. */
    std::string summary() const;
};

/** Harness knobs. */
struct AttackOptions
{
    /** Seed for the scenario RNG (scan order, gadget names). */
    std::uint64_t seed = 0x5eedULL;
    /** Library whose compartment is compromised (must exist). */
    std::string attackerLib = "lwip";
    /** Mount the resource class against the deployment's netstack. */
    bool withNet = false;
};

/**
 * Run the full scenario catalogue against a live deployment from the
 * compromised compartment and return the scorecard. The deployment
 * must be booted; with opts.withNet the pollers must be started. The
 * harness cleans up after itself (attack fibers cancelled, sockets
 * aborted, filters removed), so the deployment stays usable.
 */
AttackScorecard runScorecard(Deployment &dep, const AttackOptions &opts);

/** Run only the scenarios of one class (the bench `--attack` mode). */
AttackScorecard runAttackClass(Deployment &dep, AttackClass cls,
                               const AttackOptions &opts);

} // namespace adversary
} // namespace flexos

#endif // FLEXOS_ADVERSARY_ADVERSARY_HH
