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
     * Execute `count` (>= 1) bodies in compartment 'to' on behalf of
     * the current thread — the instantiated call gate. Charges the
     * gate cost, performs the domain transition, and runs the bodies
     * in order under calleeWorkMult (the callee component's hardening
     * tax). The resolved (from, to) GatePolicy selects the MPK
     * flavour, caller-side entry validation, and whether the return
     * path scrubs the register set (asymmetric policies like "EPT->MPK
     * returns skip re-validation" drop the return-side scrub). The
     * image has already enforced the boundary and counted the calls in
     * its per-boundary ledger; a backend keeps only its own counters.
     *
     * count > 1 is a vectored crossing (`batch: N` boundaries).
     * Mechanisms that can amortize pay ONE transition for the whole
     * vector: MPK and CHERI one entry/return leg plus a per-slot
     * dispatch cost, EPT one ring slot and one doorbell. The
     * per-call mechanisms pay their charge for every body. An
     * exception from any body aborts the rest of the vector.
     */
    virtual void crossCall(Image &img, int to, const GatePolicy &policy,
                           const std::string &calleeLib,
                           const char *fnName, double calleeWorkMult,
                           const std::function<void()> *bodies,
                           std::size_t count) = 0;

    /**
     * Notification that the image's gate matrix changed through a
     * quiesced epoch swap (Image::swapGateMatrix). Called after the
     * flip, outside any crossing, so backends may resize the resources
     * they scale to the policy — the EPT backend shrinks elastic
     * server pools above VMs whose inbound edges became throttled.
     * Default: nothing to adapt.
     */
    virtual void policyChanged(Image &img) { (void)img; }

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
     * server-side re-validation decides Rejected vs Executed.
     */
    virtual ForgedRpcOutcome
    injectForgedRpc(Image &img, int to, const std::string &calleeLib,
                    const char *fnName, const std::function<void()> &body)
    {
        (void)img;
        (void)to;
        (void)calleeLib;
        (void)fnName;
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
