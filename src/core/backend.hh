/**
 * @file
 * The isolation-backend API (paper 3.2).
 *
 * A backend supplies (1) gate implementations, (2) its memory-layout
 * recipe (how compartment regions are tagged), and (3) registration into
 * the toolchain. It needs no scheduler hooks: the scheduler saves and
 * installs each thread's protection domain on every switch by itself.
 * Adding a mechanism means implementing this interface — no redesign of
 * the OS.
 */

#ifndef FLEXOS_CORE_BACKEND_HH
#define FLEXOS_CORE_BACKEND_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"

namespace flexos {

class Image;
struct GateSite;

/**
 * One isolation mechanism's implementation.
 */
class IsolationBackend
{
  public:
    virtual ~IsolationBackend() = default;

    /** Mechanism this backend implements. */
    virtual Mechanism mechanism() const = 0;

    /** Human-readable name for reports. */
    virtual const char *name() const = 0;

    /**
     * Boot-time hook: tag regions, spawn RPC servers. Called once from
     * Image::boot().
     */
    virtual void boot(Image &img) = 0;

    /** Orderly teardown (stop server threads). */
    virtual void shutdown(Image &img) = 0;

    /**
     * Execute `body` in compartment 'to' on behalf of the current
     * thread — the instantiated call gate. Charges the gate cost,
     * performs the domain transition, and runs the body under the
     * site's route multiplier (the callee component's hardening tax).
     * The resolved (from, to) GatePolicy selects the MPK flavour,
     * caller-side entry validation, and whether the return path scrubs
     * the register set (asymmetric policies like "EPT->MPK returns skip
     * re-validation" drop the return-side scrub). The image has already
     * enforced the boundary and counted the call in its per-boundary
     * ledger; a backend keeps only its own counters.
     */
    virtual void crossCall(Image &img, int to, const GatePolicy &policy,
                           const GateSite &site,
                           const std::function<void()> &body) = 0;

    /**
     * Whether the mechanism validates entry points on every crossing
     * regardless of CFI hardening (the EPT RPC server does, paper 4.2).
     */
    virtual bool checksEntryPoints() const { return false; }

    /** What became of a forged RPC injected into a backend's ring. */
    enum class ForgedRpcOutcome
    {
        NoRing,   ///< mechanism has no shared ring to forge into
        Rejected, ///< server-side validation refused the slot
        Executed, ///< the body ran in the target compartment (breach)
    };

    /**
     * Adversary hook: inject a forged RPC slot straight into the
     * mechanism's shared transport for compartment 'to' — bypassing
     * every caller-side gate check — as a compromised compartment
     * writing the ring memory would. Backends without a shared ring
     * (MPK, CHERI, the baselines) have nothing to forge: NoRing. The
     * EPT backend enqueues the slot and rings the doorbell; its
     * server-side re-validation decides Rejected vs Executed. The
     * forger picks the symbol; the verdict the server re-checks is
     * the one Image::site() took from the registry.
     */
    virtual ForgedRpcOutcome
    injectForgedRpc(Image &img, int to, const GateSite &site,
                    const std::function<void()> &body)
    {
        (void)img;
        (void)to;
        (void)site;
        (void)body;
        return ForgedRpcOutcome::NoRing;
    }

    /**
     * Adversary hook: ring a compartment's doorbell with no slot
     * behind it (a replayed/spurious interrupt). Returns true if the
     * mechanism has a doorbell to ring; servers must absorb the wake
     * harmlessly (counted, not crashed).
     */
    virtual bool
    injectSpuriousDoorbell(Image &img, int to)
    {
        (void)img;
        (void)to;
        return false;
    }
};

/**
 * Instantiate the backend for a mechanism (toolchain registration).
 * Backends are flavour-agnostic: the MPK gate flavour arrives with
 * each crossing's GatePolicy, so one backend instance serves light and
 * DSS boundaries simultaneously.
 */
std::unique_ptr<IsolationBackend> makeBackend(Mechanism m);

} // namespace flexos

#endif // FLEXOS_CORE_BACKEND_HH
