/**
 * @file
 * The simulated machine: virtual cycle clock, MMU (region map + PKRU
 * check), enforcement policy, and event counters.
 *
 * There is no ambient machine: every component that charges cycles
 * (scheduler, image, allocators, NIC, VFS, apps) is handed the Machine
 * it charges at construction, so any number of machines can be alive at
 * once, each only ever advanced by its own components.
 */

#ifndef FLEXOS_MACHINE_MACHINE_HH
#define FLEXOS_MACHINE_MACHINE_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machine/memmap.hh"
#include "machine/pkru.hh"
#include "machine/timing.hh"

namespace flexos {

/**
 * Raised when an access violates the current PKRU/key configuration and
 * enforcement is on; the analogue of the MPK page fault (paper 4.1).
 */
class ProtectionFault : public std::runtime_error
{
  public:
    ProtectionFault(const void *addr, ProtKey key, AccessType at,
                    const std::string &region);

    const void *addr;
    ProtKey key;
    AccessType access;
    std::string region;
};

/** What the MMU does on a key-permission mismatch. */
enum class Enforcement
{
    Off,        ///< No checks at all (pure timing runs).
    Permissive, ///< Count violations but let them pass (porting workflow).
    Enforcing,  ///< Raise ProtectionFault (deployed image).
};

/**
 * One core's architectural execution state. The Machine's public
 * members (clock, PKRU, VM token, work multiplier) act as the *active*
 * core's register file; setActiveCore() banks them here and loads the
 * target core's saved state, so all single-core call sites keep working
 * unchanged and a 1-core machine never swaps at all.
 */
struct CoreContext
{
    Cycles cycleCount = 0;
    Pkru pkru;
    int currentVm = -1;
    double workMultiplier = 1.0;
    bool chargingEnabled = true;
    std::array<std::uint64_t, 8> scratch{};
};

/**
 * The simulated machine.
 */
class Machine
{
  public:
    explicit Machine(TimingModel tm = TimingModel{}, unsigned cores = 1);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** @name Virtual time. @{ */
    /** Charge c cycles of work to the virtual clock. */
    void
    consume(Cycles c)
    {
        if (chargingEnabled)
            cycleCount += applyMultiplier(c);
    }
    /** Charge a per-byte cost in 16-byte chunks (copies, checksums). */
    void
    consumePerByte(std::size_t bytes, Cycles per16)
    {
        if (chargingEnabled)
            cycleCount += applyMultiplier((bytes + 15) / 16 * per16);
    }

    /**
     * Advance the clock through a stall: time spent *waiting* (e.g. a
     * rate-limited gate back-pressuring until its token bucket
     * refills), not executing — so the work multiplier does not apply.
     * Stalled time is accounted separately in `machine.stallCycles`.
     */
    void
    stall(Cycles c)
    {
        if (!chargingEnabled)
            return;
        cycleCount += c;
        bump("machine.stallCycles", c);
        bump("machine.stallCycles.core" + std::to_string(active_), c);
    }

    /**
     * Work multiplier applied to every charge; call gates set it to the
     * target compartment's software-hardening factor (paper 4.5: KASan,
     * UBSan etc. instrument the component's own execution). 1.0 = none.
     */
    double workMultiplier = 1.0;

    /**
     * Whether consume() advances the clock. The scheduler clears this
     * while "free-running" threads execute: load generators standing in
     * for the paper's client machines (which run on separate cores and
     * do not count towards server-side time).
     */
    bool chargingEnabled = true;
    /** Cycles elapsed on the active core since construction. */
    Cycles cycles() const { return cycleCount; }
    /** Virtual wall-clock seconds on the active core. */
    double seconds() const;
    /** Virtual nanoseconds on the active core. */
    std::uint64_t nanoseconds() const;
    /** @} */

    /** @name SMP: per-core execution contexts. @{ */
    /** Number of simulated cores (fixed at construction, >= 1). */
    unsigned coreCount() const { return unsigned(cores_.size()); }

    /** The core whose register file the public members mirror. */
    int activeCore() const { return active_; }

    /**
     * Bank the public register window into the active core's context
     * and load core's saved state. Called by the scheduler on every
     * dispatch; a no-op when core is already active (always, on a
     * 1-core machine — preserving single-core behaviour exactly).
     */
    void setActiveCore(int core);

    /** A core's virtual clock (the window for the active core). */
    Cycles coreCycles(int core) const;

    /** Aggregate wall clock: the furthest-ahead core's clock. */
    Cycles wallCycles() const;
    /** Wall-clock seconds at the model frequency. */
    double wallSeconds() const;

    /**
     * Jump a core's clock forward to target (no-op if already past):
     * idle time waiting for work or a cross-core event, charged
     * without the work multiplier and tallied in machine.idleCycles.
     */
    void advanceCoreTo(int core, Cycles target);

    /** Charge cycles directly to a core (active or banked). */
    void chargeCore(int core, Cycles c);
    /** @} */

    /** @name MMU. @{ */
    /** The machine's region map (compartment heaps, stacks, sections). */
    MemoryMap memMap;

    /** Current PKRU value (the running thread's; swapped by the sched). */
    Pkru pkru;

    /**
     * VM whose second-level page tables are active, or -1 outside any
     * VM (key virtualization: EPT compartments are modelled as
     * "unmapped outside their VM" instead of key-tagged, so they don't
     * consume PKRU keys). Swapped alongside pkru by the scheduler and
     * the gates' domain transitions.
     */
    int currentVm = -1;

    /**
     * MMU access check: every registered region overlapping
     * [p, p+size) must carry a key the current PKRU permits; the first
     * denied region faults per the enforcement mode. Unregistered
     * memory is simulator-internal and always passes.
     */
    void checkAccess(const void *p, std::size_t size, AccessType at);

    Enforcement enforcement = Enforcement::Enforcing;

    /** Number of violations observed (Permissive mode keeps counting). */
    std::uint64_t violations = 0;
    /** @} */

    /** @name Scratch registers. @{ */
    /**
     * The active core's caller-saved scratch register file. Gates
     * scrub it on hardened entries and on return legs whose policy
     * keeps `scrub: true`; anything a compartment leaves behind
     * otherwise survives the crossing — the register side channel the
     * adversary suite's info-leak probes measure (paper 4.2: DSS
     * save/restore vs. the light gate's bare jump).
     */
    std::array<std::uint64_t, 8> scratch{};

    /** Zero the scratch file (the gate's register scrub). */
    void scrubScratch() { scratch.fill(0); }
    /** @} */

    /** @name Statistics. @{ */
    /** Bump a named event counter (gate crossings, faults, RPCs...). */
    void bump(const std::string &counter, std::uint64_t n = 1);
    std::uint64_t counter(const std::string &name) const;
    const std::map<std::string, std::uint64_t> &counters() const;
    /** @} */

    /** The timing model in force. */
    TimingModel timing;

  private:
    Cycles
    applyMultiplier(Cycles c) const
    {
        if (workMultiplier == 1.0)
            return c;
        return static_cast<Cycles>(static_cast<double>(c) *
                                   workMultiplier);
    }

    Cycles cycleCount = 0;
    std::map<std::string, std::uint64_t> stats;

    /** Banked register files; cores_[active_] is stale while active. */
    std::vector<CoreContext> cores_;
    int active_ = 0;
};

} // namespace flexos

#endif // FLEXOS_MACHINE_MACHINE_HH
