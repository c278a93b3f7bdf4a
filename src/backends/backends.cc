/**
 * @file
 * Isolation backend implementations (paper sections 4.1-4.3) plus the
 * baseline mechanisms used by the Figure 10 comparison.
 *
 * - MPK: inline gates that swap the PKRU (light flavour) and
 *   additionally save/zero registers and switch the per-compartment
 *   stack (DSS flavour).
 * - EPT: one "VM" per compartment with a pool of RPC server threads;
 *   gates marshal a request into a shared ring and block the caller.
 * - CHERI: a sketch backend (paper 4.3) — CInvoke-style inline domain
 *   transitions with sentry-capability entry checks.
 * - None / LinuxPt / Sel4Ipc / CubicleMpk: per-call mechanisms, one
 *   class driven by a row each. None is a single protection domain
 *   whose gates are plain calls; the others are the baseline
 *   crossing-cost regimes.
 *
 * The image enforces each boundary and counts its crossings before a
 * backend runs; backends charge the gate and keep their own counters.
 */

#include "core/backend.hh"

#include <algorithm>
#include <deque>
#include <exception>

#include "base/logging.hh"
#include "core/image.hh"

namespace flexos {

namespace {

/**
 * Whether a compartment's boundary is enforced by backend `be` — in a
 * mixed-mechanism image each backend boots/tears down only the
 * compartments declaring its mechanism.
 */
bool
ownsCompartment(const IsolationBackend &be, Image &img, std::size_t i)
{
    return img.compartmentAt(i).spec.mechanism == be.mechanism();
}

/**
 * RAII domain transition used by all inline (non-RPC) gates: installs
 * the target compartment's PKRU, VM token, compartment id and work
 * multiplier, restoring the caller's on scope exit (also on
 * exceptions, which is how ProtectionFault and hardening violations
 * unwind through gates).
 */
class DomainTransition
{
  public:
    DomainTransition(Image &img, int to, double workMult)
        : mach(img.machine()), thread(img.scheduler().current()),
          savedPkru(mach.pkru), savedVm(mach.currentVm),
          savedMult(mach.workMultiplier),
          savedComp(thread ? thread->currentCompartment : 0)
    {
        Compartment &c = img.compartmentAt(static_cast<std::size_t>(to));
        mach.pkru = c.domain;
        // VM-private (EPT) compartments are unmapped outside their VM:
        // executing there makes only that VM's memory reachable.
        mach.currentVm = c.vmPrivate ? to : -1;
        mach.workMultiplier = workMult;
        if (thread)
            thread->currentCompartment = to;
    }

    ~DomainTransition()
    {
        mach.pkru = savedPkru;
        mach.currentVm = savedVm;
        mach.workMultiplier = savedMult;
        if (thread)
            thread->currentCompartment = savedComp;
    }

    DomainTransition(const DomainTransition &) = delete;
    DomainTransition &operator=(const DomainTransition &) = delete;

  private:
    Machine &mach;
    Thread *thread;
    Pkru savedPkru;
    int savedVm;
    double savedMult;
    int savedComp;
};

/**
 * RAII return-leg gate charge. Crossings are charged in two halves —
 * the entry sequence up front, the return sequence when the callee
 * hands control back — so per-direction policy (scrub_return,
 * validate_return) attaches to the right half. Charged from a
 * destructor so an exception unwinding through the gate still pays
 * the return transition (it re-enters the caller's domain the same
 * way), keeping the aggregate round-trip numbers in timing.hh exact.
 *
 * Declare *before* DomainTransition: the return leg must be charged
 * after the transition restores the caller's work multiplier, which
 * is the multiplier the entry leg was charged under.
 */
class ReturnCharge
{
  public:
    /**
     * `scrub` is the *functional* half of the return-side register
     * save/zero: when the policy keeps it, the callee's leavings in
     * the machine's scratch file are wiped before the caller resumes;
     * a policy (or elision streak) that waives the scrub leaves them
     * readable — the register side channel the adversary measures.
     */
    ReturnCharge(Machine &m, Cycles c, bool scrub = false)
        : mach(m), cost(c), doScrub(scrub)
    {
    }

    ~ReturnCharge()
    {
        mach.consume(cost);
        if (doScrub)
            mach.scrubScratch();
    }

    ReturnCharge(const ReturnCharge &) = delete;
    ReturnCharge &operator=(const ReturnCharge &) = delete;

  private:
    Machine &mach;
    Cycles cost;
    bool doScrub;
};

/**
 * The inline gate shared by MPK and CHERI: one entry leg and one
 * return leg for the whole vector, each extra call paying only the
 * slot-dispatch cost, the bodies running back-to-back inside the
 * callee domain. Touches the per-thread compartment stack registry so
 * the target stack exists (the functional stack switch), laid out
 * under this boundary's stack-sharing policy; the MPK light gate keeps
 * the caller's stack, but frames the callee opens still follow the
 * boundary's policy. `scrub` wipes the scratch registers on the way
 * back (see ReturnCharge).
 */
void
inlineGate(Image &img, int to, const GatePolicy &policy, double workMult,
           Cycles entryCost, Cycles returnCost, bool scrub,
           const std::function<void()> *bodies, std::size_t count)
{
    auto &m = img.machine();
    m.consume(entryCost);
    if (count > 1)
        m.consume(static_cast<Cycles>(count - 1) * m.timing.batchSlot);
    Thread *t = img.scheduler().current();
    if (t)
        img.simStackFor(t->id(), to, policy.stackSharing);
    ReturnCharge rc(m, returnCost, scrub);
    DomainTransition dt(img, to, workMult);
    for (std::size_t i = 0; i < count; ++i)
        bodies[i]();
}

/**
 * The full (register save/zero + stack switch) gate's return leg. An
 * asymmetric policy can waive the return-side scrub (e.g. returns into
 * the caller's own VM re-enter trusted state), saving the register
 * save/zero on the way back.
 */
Cycles
fullReturnLeg(const TimingModel &t, bool scrub)
{
    return scrub ? t.mpkDssReturn
                 : t.mpkDssReturn - std::min(t.mpkDssReturn,
                                             t.registerSaveZero);
}

/**
 * Intel MPK backend (paper 4.1). Flavour-agnostic: each crossing's
 * GatePolicy picks the light (ERIM-style) or DSS (HODOR-style) gate,
 * so one image can run both flavours on different boundaries.
 */
class MpkBackend : public IsolationBackend
{
  public:
    Mechanism mechanism() const override { return Mechanism::IntelMpk; }
    const char *name() const override { return "intel-mpk"; }

    void
    boot(Image &img) override
    {
        // The key budget binds only the compartments this backend
        // enforces; EPT/none compartments in a mixed image don't
        // consume protection keys at the boundary.
        std::size_t mpkComps = 0;
        for (std::size_t i = 0; i < img.compartmentCount(); ++i)
            if (ownsCompartment(*this, img, i))
                ++mpkComps;
        fatal_if(mpkComps > numProtKeys - 1,
                 "MPK supports at most ", numProtKeys - 1,
                 " compartments (one key is reserved for the shared "
                 "domain)");
    }

    void shutdown(Image &) override {}

    void
    crossCall(Image &img, int to, const GatePolicy &policy,
              const std::string &, const char *, double workMult,
              const std::function<void()> *bodies,
              std::size_t count) override
    {
        // One entry/return leg for the whole vector: the PKRU switch,
        // register save/zero and stack switch are paid once.
        auto &m = img.machine();
        if (policy.flavor == MpkGateFlavor::Light) {
            // ERIM-style: wrpkru pair around a normal call; stack and
            // register set are shared with the callee (nothing to
            // scrub on return). Entry leg is the first wrpkru + call;
            // the second wrpkru + return is charged on the way back.
            m.bump("gate.mpk.light");
            inlineGate(img, to, policy, workMult,
                       m.timing.mpkLightGate - m.timing.mpkLightReturn,
                       m.timing.mpkLightReturn, /*scrub=*/false, bodies,
                       count);
            return;
        }
        // HODOR-style full gate: save+zero the register set, switch
        // thread permissions, switch to the compartment's stack via the
        // per-thread stack registry (and back on return).
        m.bump("gate.mpk.dss");
        if (!policy.scrubReturn)
            m.bump("gate.mpk.dss.noscrub");
        // The entry-side register save/zero: the callee starts from a
        // clean scratch file (the light gate shares it).
        m.scrubScratch();
        inlineGate(img, to, policy, workMult,
                   m.timing.mpkDssGate - m.timing.mpkDssReturn,
                   fullReturnLeg(m.timing, policy.scrubReturn),
                   policy.scrubReturn, bodies, count);
    }
};

/** EPT backend: one VM per compartment, RPC gates (paper 4.2). */
class EptBackend : public IsolationBackend
{
  public:
    /** Elastic pool cap: a shard never grows past this many servers. */
    static constexpr int maxServersPerVm = 8;

    /**
     * Idle grace before an elastic server retires (virtual ns): long
     * enough to ride out RPC bursts, short enough that a drained
     * boundary returns to its base pool size.
     */
    static constexpr std::uint64_t elasticRetireNs = 1'000'000;

    Mechanism mechanism() const override { return Mechanism::VmEpt; }
    const char *name() const override { return "vm-ept"; }
    bool checksEntryPoints() const override { return true; }

    void
    boot(Image &img) override
    {
        stopping = false;
        vms.clear();
        // Slots are indexed by compartment id, but only EPT
        // compartments become VMs with an RPC server pool; in a mixed
        // image the other compartments' slots stay empty (no crossing
        // is ever routed here for them).
        vms.resize(img.compartmentCount());
        Scheduler &sched = img.scheduler();
        // One shard per core: ring, idle queue and server pool are
        // core-local, so two cores crossing into the same VM never
        // contend on one ring. Callers enqueue on their own core's
        // shard; servers are pinned to their shard's core.
        std::size_t shardCount = img.machine().coreCount();

        for (std::size_t vmId = 0; vmId < vms.size(); ++vmId) {
            if (!ownsCompartment(*this, img, vmId))
                continue;
            auto &vm = vms[vmId];
            vm.shards.resize(shardCount);
            for (auto &sh : vm.shards)
                sh.serverIdle = std::make_unique<WaitQueue>(sched);
            // Base pool size is the compartment's `servers:` knob,
            // dealt round-robin across the shards; each shard grows
            // elastically under load (blocked RPC bodies — socket
            // waits — would otherwise occupy the whole pool).
            int base = img.compartmentAt(vmId).spec.servers;
            for (int s = 0; s < base; ++s)
                spawnServer(img, vmId,
                            static_cast<std::size_t>(s) % shardCount,
                            /*elastic=*/false);
        }
    }

    void
    shutdown(Image &img) override
    {
        stopping = true;
        for (auto &vm : vms)
            for (auto &sh : vm.shards)
                if (sh.serverIdle)
                    sh.serverIdle->wakeAll();
        // Let the servers observe the flag and exit; other long-running
        // threads (e.g. net pollers) may keep yielding meanwhile.
        img.scheduler().runUntil(
            [this] {
                for (Thread *t : serverThreads)
                    if (t->state() != Thread::State::Finished)
                        return false;
                return true;
            },
            1'000'000);
        // A server can still be live here: blocked inside a long RPC
        // body (e.g. a recv() that will never complete). Destroying
        // vms underneath it would free the rings and WaitQueues its
        // frames reference — use-after-free on its next step. Unwind
        // stragglers via the cancellation path instead: the throw in
        // the body is converted to the RPC's error, the caller is
        // woken, and the server exits its loop.
        std::uint64_t cancels = 0;
        for (Thread *t : serverThreads) {
            if (t->state() != Thread::State::Finished) {
                img.scheduler().cancel(t);
                ++cancels;
            }
        }
        if (cancels)
            img.machine().bump("gate.ept.shutdownCancels", cancels);
        // RPCs still queued in a ring (all servers were busy or
        // cancelled) would leave their callers blocked on doneWait
        // forever: fail each one and wake its caller before the rings
        // are destroyed. The callers observe the cancellation and
        // unwind.
        std::uint64_t drained = 0;
        for (auto &vm : vms) {
            for (auto &sh : vm.shards) {
                while (!sh.ring.empty()) {
                    Rpc *rpc = sh.ring.front();
                    sh.ring.pop_front();
                    rpc->error =
                        std::make_exception_ptr(ThreadCancelled{});
                    rpc->done = true;
                    rpc->doneWait->wakeAll();
                    ++drained;
                }
            }
        }
        if (drained)
            img.machine().bump("gate.ept.shutdownDrained", drained);
        serverThreads.clear();
        vms.clear();
    }

    void
    crossCall(Image &img, int to, const GatePolicy &policy,
              const std::string &calleeLib, const char *fnName,
              double workMult, const std::function<void()> *bodies,
              std::size_t count) override
    {
        // One ring slot and one doorbell carry the whole vector; the
        // caller blocks once for all the calls and the server walks
        // the slot's body list in order.
        auto &m = img.machine();
        Scheduler &sched = img.scheduler();
        Thread *caller = sched.current();
        panic_if(!caller, "EPT RPC gate requires a thread context");

        auto &vm = vms[static_cast<std::size_t>(to)];
        panic_if(vm.shards.empty(),
                 "EPT RPC routed to a compartment without a VM");
        // Core-local shard: the caller enqueues on its own core's
        // ring, so concurrent crossings from different cores into the
        // same VM proceed independently.
        auto &sh =
            vm.shards[static_cast<std::size_t>(m.activeCore()) %
                      vm.shards.size()];

        // Doorbell coalescing under back-pressure (`coalesce:` key):
        // a submission that finds requests already queued within the
        // window of the last doorbell skips the ring notify — the
        // earlier doorbell's server is still draining this ring and
        // will reach the new slot (entries are only queued behind a
        // rung doorbell, so the chain never strands a request).
        bool coalesced = policy.coalesce && !sh.ring.empty() &&
                         m.cycles() - sh.lastDoorbell <= policy.coalesce;

        // Caller side: place the "function pointer" and arguments in
        // the predefined shared area (paper 4.2) and wait. The entry
        // leg is the request marshalling + doorbell; the response
        // unmarshalling is charged when the RPC completes (also when
        // it completes by raising — the error unwinds back through
        // the same shared area). A policy waiving the return-side
        // scrub skips the register save/zero the caller would
        // otherwise redo when the RPC completes. A batched submission
        // marshals each extra call into the next slot of the same
        // request for a per-slot cost.
        Cycles entryCost = m.timing.eptGate - m.timing.eptReturn;
        if (count > 1)
            entryCost += static_cast<Cycles>(count - 1) *
                         m.timing.batchSlot;
        if (coalesced) {
            entryCost -= std::min(entryCost, m.timing.eptDoorbell);
            m.bump("gate.coalesced");
        }
        m.consume(entryCost);
        Cycles returnCost = m.timing.eptReturn;
        if (!policy.scrubReturn) {
            returnCost -= std::min(returnCost, m.timing.registerSaveZero);
            m.bump("gate.ept.noscrub");
        }
        m.bump("gate.ept");
        ReturnCharge rc(m, returnCost, policy.scrubReturn);

        Rpc rpc;
        rpc.bodies = bodies;
        rpc.count = count;
        rpc.calleeLib = &calleeLib;
        rpc.fnName = fnName;
        rpc.workMult = workMult;
        rpc.stackSharing = policy.stackSharing;
        WaitQueue doneWait(sched);
        rpc.doneWait = &doneWait;

        sh.ring.push_back(&rpc);
        // Ring-depth high-water mark: the deepest any shard's request
        // ring ever got (pool pressure; ROADMAP "EPT server pool
        // sizing"). The machine counter tracks the max across VMs and
        // survives reboots, so it only ratchets upward.
        if (sh.ring.size() > sh.ringHighWater) {
            sh.ringHighWater = sh.ring.size();
            std::uint64_t cur = m.counter("gate.ept.ringDepth");
            if (sh.ringHighWater > cur)
                m.bump("gate.ept.ringDepth", sh.ringHighWater - cur);
        }
        // Elastic growth: if every server in the shard is busy
        // (running or blocked inside an RPC body) and requests are
        // queueing, add a server up to the cap so blocked bodies
        // can't starve the boundary.
        int idle = static_cast<int>(sh.pool.size()) - sh.busy;
        if (static_cast<int>(sh.ring.size()) > idle &&
            static_cast<int>(sh.pool.size()) < poolCap(img, to)) {
            spawnServer(img, static_cast<std::size_t>(to),
                        static_cast<std::size_t>(m.activeCore()) %
                            vm.shards.size(),
                        /*elastic=*/true);
            m.bump("gate.ept.elasticSpawns");
        }
        if (!coalesced) {
            sh.serverIdle->wakeOne();
            sh.lastDoorbell = m.cycles();
        }

        while (!rpc.done)
            doneWait.wait();
        if (rpc.error)
            std::rethrow_exception(rpc.error);
    }

    ForgedRpcOutcome
    injectForgedRpc(Image &img, int to, const std::string &calleeLib,
                    const char *fnName,
                    const std::function<void()> &body) override
    {
        auto &m = img.machine();
        if (to < 0 || static_cast<std::size_t>(to) >= vms.size() ||
            vms[static_cast<std::size_t>(to)].shards.empty())
            return ForgedRpcOutcome::NoRing;
        Scheduler &sched = img.scheduler();
        panic_if(!sched.current(),
                 "forged RPC injection requires a thread context");
        auto &vm = vms[static_cast<std::size_t>(to)];
        auto &sh =
            vm.shards[static_cast<std::size_t>(m.activeCore()) %
                      vm.shards.size()];

        // A compromised compartment writing the shared ring memory:
        // the slot lands behind every caller-side gate check (deny,
        // rate, checkEntry) — only the server's own re-validation
        // stands between it and the VM.
        bool executed = false;
        std::function<void()> probe = [&] {
            executed = true;
            body();
        };
        Rpc rpc;
        rpc.bodies = &probe;
        rpc.count = 1;
        rpc.calleeLib = &calleeLib;
        rpc.fnName = fnName;
        WaitQueue doneWait(sched);
        rpc.doneWait = &doneWait;
        sh.ring.push_back(&rpc);
        m.bump("gate.ept.forgedRpcs");
        sh.serverIdle->wakeOne();
        sh.lastDoorbell = m.cycles();
        while (!rpc.done)
            doneWait.wait();
        // The slot's error (CfiViolation on rejection, or whatever the
        // payload raised) is absorbed: the adversary reads an outcome,
        // not an exception.
        if (executed)
            return ForgedRpcOutcome::Executed;
        m.bump("gate.ept.forgedRejected");
        return ForgedRpcOutcome::Rejected;
    }

    bool
    injectSpuriousDoorbell(Image &img, int to) override
    {
        auto &m = img.machine();
        if (to < 0 || static_cast<std::size_t>(to) >= vms.size() ||
            vms[static_cast<std::size_t>(to)].shards.empty())
            return false;
        auto &vm = vms[static_cast<std::size_t>(to)];
        auto &sh =
            vm.shards[static_cast<std::size_t>(m.activeCore()) %
                      vm.shards.size()];
        // A replayed interrupt with no slot behind it: the woken
        // server observes an empty ring and re-idles (counted so the
        // scorecard can assert the wake was absorbed, not serviced).
        m.bump("gate.ept.spuriousDoorbells");
        sh.serverIdle->wakeOne();
        return true;
    }

    void
    policyChanged(Image &img) override
    {
        // The server pool is sized to demand; demand is bounded by the
        // inbound edges' rate budgets. After a swap that throttles a
        // VM's inbound edges, elastic servers grown for the old (open)
        // regime would idle out only after their full retirement
        // grace. Flag the shard for fast retirement and wake them: a
        // woken elastic server that finds its ring empty under the
        // tightened budget retires immediately instead of re-arming
        // its grace timer.
        auto &m = img.machine();
        int n = static_cast<int>(img.compartmentCount());
        for (int vmId = 0; vmId < n; ++vmId) {
            auto &vm = vms[static_cast<std::size_t>(vmId)];
            if (vm.shards.empty())
                continue;
            bool throttledInbound = false;
            for (int from = 0; from < n; ++from)
                if (from != vmId && img.policyFor(from, vmId).rate)
                    throttledInbound = true;
            if (!throttledInbound)
                continue;
            std::size_t woken = 0;
            for (auto &sh : vm.shards) {
                int base =
                    img.compartmentAt(static_cast<std::size_t>(vmId))
                        .spec.servers;
                if (static_cast<int>(sh.pool.size()) > base) {
                    sh.fastRetire = true;
                    woken += sh.serverIdle->wakeAll();
                }
            }
            if (woken)
                m.bump("gate.ept.policyResizes", woken);
        }
    }

  private:
    struct Rpc
    {
        /** The calls this slot carries: `count` bodies, run in order
         *  (one for a plain crossing, the whole vector for a batch). */
        const std::function<void()> *bodies = nullptr;
        std::size_t count = 1;
        const std::string *calleeLib = nullptr;
        const char *fnName = nullptr;
        double workMult = 1.0;
        /** The crossing boundary's stack-sharing policy: governs the
         *  layout of the server thread's stack in the VM. */
        StackSharing stackSharing = StackSharing::Dss;
        bool done = false;
        std::exception_ptr error;
        WaitQueue *doneWait = nullptr;
    };

    /** One core's slice of a VM's RPC machinery. */
    struct Shard
    {
        std::deque<Rpc *> ring; ///< the shared-memory request ring
        std::unique_ptr<WaitQueue> serverIdle;
        std::vector<Thread *> pool; ///< this shard's server threads
        int busy = 0;               ///< servers inside an RPC body
        std::size_t ringHighWater = 0;
        /** When this shard's doorbell last rang (coalescing window). */
        Cycles lastDoorbell = 0;
        /** A policy swap throttled this VM's inbound edges: elastic
         *  servers retire on their first idle observation instead of
         *  riding out the full grace period. */
        bool fastRetire = false;
    };

    struct Vm
    {
        /** Core-sharded rings/pools; indexed by the caller's core. */
        std::vector<Shard> shards;
    };

    /** Per-shard elastic ceiling: at least the configured base size. */
    int
    poolCap(Image &img, int vmId)
    {
        return std::max(
            img.compartmentAt(static_cast<std::size_t>(vmId))
                .spec.servers,
            maxServersPerVm);
    }

    void
    spawnServer(Image &img, std::size_t vmId, std::size_t shardIdx,
                bool elastic)
    {
        Scheduler &sched = img.scheduler();
        auto &vm = vms[vmId];
        auto &sh = vm.shards[shardIdx];
        std::string name = "ept-vm" + std::to_string(vmId);
        if (vm.shards.size() > 1)
            name += "-c" + std::to_string(shardIdx);
        name += "-rpc" + std::to_string(sh.pool.size());
        // Pinned to the shard's core: the server must drain the ring
        // its callers fill, and the work-stealer must not migrate it.
        Thread *t = sched.spawnOn(
            static_cast<int>(shardIdx), std::move(name),
            [this, &img, vmId, shardIdx, elastic] {
                serverLoop(img, vmId, shardIdx, elastic);
            });
        t->currentCompartment = static_cast<int>(vmId);
        t->pkru = img.compartmentAt(vmId).domain;
        // Server threads execute inside the VM: its private (keyless)
        // memory is mapped for them and nothing else's.
        t->vm = static_cast<int>(vmId);
        sh.pool.push_back(t);
        serverThreads.push_back(t);
    }

    void
    serverLoop(Image &img, std::size_t vmId, std::size_t shardIdx,
               bool elastic)
    {
        auto &m = img.machine();
        auto &sh = vms[vmId].shards[shardIdx];
        while (!stopping) {
            if (sh.ring.empty()) {
                // Busy-wait in the paper; cooperatively idle here (the
                // MONITOR/MWAIT variant it also describes). Elastic
                // servers idle with a deadline: one that sees no work
                // for the grace period retires, shrinking the pool
                // back towards its configured base size.
                if (elastic) {
                    bool woken = img.scheduler().blockFor(
                        *sh.serverIdle, elasticRetireNs);
                    if ((!woken || sh.fastRetire) && sh.ring.empty() &&
                        !stopping) {
                        auto &pool = sh.pool;
                        pool.erase(std::remove(pool.begin(), pool.end(),
                                               img.scheduler().current()),
                                   pool.end());
                        if (static_cast<int>(pool.size()) <=
                            img.compartmentAt(vmId).spec.servers)
                            sh.fastRetire = false;
                        m.bump("gate.ept.elasticRetires");
                        return;
                    }
                } else {
                    sh.serverIdle->wait();
                }
                continue;
            }
            Rpc *rpc = sh.ring.front();
            sh.ring.pop_front();

            // The RPC server checks the function is a legal API entry
            // point before executing it (paper 4.2). Image::checkEntry
            // validated against the registry; re-validate defensively.
            if (!img.registry().isEntryPoint(*rpc->calleeLib,
                                             rpc->fnName)) {
                rpc->error = std::make_exception_ptr(CfiViolation(
                    std::string("EPT RPC to illegal entry point ") +
                    *rpc->calleeLib + "." + rpc->fnName));
            } else {
                m.consume(m.timing.pollDispatch);
                // Entering the VM: the server dispatches from a clean
                // register file (the entry half of the RPC marshal).
                m.scrubScratch();
                // The server thread's stack in the VM follows the
                // crossing boundary's stack-sharing policy (frames
                // the RPC body opens resolve to it).
                Thread *self = img.scheduler().current();
                if (self)
                    img.simStackFor(self->id(),
                                    static_cast<int>(vmId),
                                    rpc->stackSharing);
                ++sh.busy;
                try {
                    WorkMultGuard guard(m, rpc->workMult);
                    // A batched slot carries several calls, run in
                    // order under one dispatch (the per-slot cost was
                    // charged by the submitter). An exception from
                    // any body aborts the rest of the batch and
                    // travels back as the slot's single error.
                    for (std::size_t i = 0; i < rpc->count; ++i)
                        rpc->bodies[i]();
                } catch (...) {
                    rpc->error = std::current_exception();
                }
                --sh.busy;
            }
            rpc->done = true;
            rpc->doneWait->wakeAll();
        }
    }

    std::vector<Vm> vms;
    std::vector<Thread *> serverThreads;
    bool stopping = false;
};

/**
 * CHERI sketch backend (paper 4.3): CInvoke-style inline transitions
 * with sentry-capability entry enforcement. Cost modelled as the full
 * MPK gate (register + capability save/clear dominate, as in 4.3's
 * description); no published latency exists to calibrate against.
 */
class CheriBackend : public IsolationBackend
{
  public:
    Mechanism mechanism() const override { return Mechanism::Cheri; }
    const char *name() const override { return "cheri(sketch)"; }
    bool checksEntryPoints() const override { return true; }

    void boot(Image &) override {}
    void shutdown(Image &) override {}

    void
    crossCall(Image &img, int to, const GatePolicy &policy,
              const std::string &, const char *, double workMult,
              const std::function<void()> *bodies,
              std::size_t count) override
    {
        // One CInvoke entry and one return-side clear for the whole
        // vector (the sentry check covers the shared entry point once).
        // Capability + register clear dominates: the entry leg carries
        // the extra capability save on top of the full MPK gate's, the
        // return leg mirrors the full MPK gate's, scrub waiver included.
        auto &m = img.machine();
        m.bump("gate.cheri");
        m.scrubScratch();
        inlineGate(img, to, policy, workMult,
                   m.timing.registerSaveZero +
                       (m.timing.mpkDssGate - m.timing.mpkDssReturn),
                   fullReturnLeg(m.timing, policy.scrubReturn),
                   policy.scrubReturn, bodies, count);
    }
};

/**
 * One per-call mechanism: a crossing regime that cannot amortize a
 * transition over a vector, so every call of a chunk pays the whole
 * charge and counts once in `counter`.
 */
struct PerCallRow
{
    Mechanism mech;
    const char *name;
    const char *counter;
    /** The per-call transition charge: `costRepeat` x `cost`. */
    Cycles TimingModel::*cost;
    Cycles costRepeat = 1;
    /** Extra charge on every second crossing (nullptr: none). */
    Cycles TimingModel::*everySecondCall = nullptr;
    /** The return path zeroes the scratch registers. */
    bool scrubReturn = false;
    bool checksEntryPoints = false;
    /** Boot gives the compartments it owns an allow-all PKRU. */
    bool allowAllDomain = false;
};

const PerCallRow perCallRows[] = {
    // No isolation: one protection domain, and the "gate" is the
    // function call itself.
    {.mech = Mechanism::None,
     .name = "none",
     .counter = "gate.none",
     .cost = &TimingModel::functionCall,
     .allowAllDomain = true},
    // Page-table isolation via Linux syscalls (Figure 10 PT2). A kernel
    // without KPTI is a timing override (fig11b's syscall-nokpti row).
    // The kernel return path sanitizes the scratch registers, as on a
    // real syscall boundary.
    {.mech = Mechanism::LinuxPt,
     .name = "linux-pt",
     .counter = "gate.syscall",
     .cost = &TimingModel::syscallKpti,
     .scrubReturn = true},
    // seL4/Genode microkernel IPC round trip (Figure 10 PT3). Replies
    // carry only the message registers; everything else comes back
    // zeroed.
    {.mech = Mechanism::Sel4Ipc,
     .name = "sel4-ipc",
     .counter = "gate.sel4ipc",
     .cost = &TimingModel::sel4Ipc,
     .scrubReturn = true,
     .checksEntryPoints = true},
    // CubicleOS: MPK emulated with pkey_mprotect syscalls from linuxu
    // plus the trap-and-map shared window (paper 6.4). Two syscalls per
    // transition (open + close the window); every other crossing
    // touches a not-yet-mapped shared object and takes the fault.
    {.mech = Mechanism::CubicleMpk,
     .name = "cubicle-mpk",
     .counter = "gate.cubicle",
     .cost = &TimingModel::pkeyMprotect,
     .costRepeat = 2,
     .everySecondCall = &TimingModel::trapAndMapFault},
};

/** The per-call mechanisms (the None domain and the Figure 10
 *  baselines), each driven by its row. */
class PerCallBackend : public IsolationBackend
{
  public:
    explicit PerCallBackend(const PerCallRow &r) : row(r) {}

    Mechanism mechanism() const override { return row.mech; }
    const char *name() const override { return row.name; }
    bool checksEntryPoints() const override { return row.checksEntryPoints; }

    void
    boot(Image &img) override
    {
        callCount = 0;
        // One protection domain: each unisolated compartment's PKRU
        // allows all. Other compartments (mixed image) keep theirs.
        if (row.allowAllDomain)
            for (std::size_t i = 0; i < img.compartmentCount(); ++i)
                if (ownsCompartment(*this, img, i))
                    img.compartmentAt(i).domain =
                        Pkru(Pkru::allowAllValue);
    }

    void shutdown(Image &) override {}

    void
    crossCall(Image &img, int to, const GatePolicy &,
              const std::string &, const char *, double workMult,
              const std::function<void()> *bodies,
              std::size_t count) override
    {
        auto &m = img.machine();
        for (std::size_t i = 0; i < count; ++i) {
            m.consume(row.costRepeat * m.timing.*row.cost);
            if (row.everySecondCall && ++callCount % 2 == 0)
                m.consume(m.timing.*row.everySecondCall);
            m.bump(row.counter);
            ReturnCharge rc(m, 0, row.scrubReturn);
            DomainTransition dt(img, to, workMult);
            bodies[i]();
        }
    }

  private:
    const PerCallRow &row;
    std::uint64_t callCount = 0;
};

} // namespace

std::unique_ptr<IsolationBackend>
makeBackend(Mechanism m)
{
    switch (m) {
      case Mechanism::IntelMpk:
        return std::make_unique<MpkBackend>();
      case Mechanism::VmEpt:
        return std::make_unique<EptBackend>();
      case Mechanism::Cheri:
        return std::make_unique<CheriBackend>();
      default:
        break;
    }
    for (const PerCallRow &row : perCallRows)
        if (row.mech == m)
            return std::make_unique<PerCallBackend>(row);
    fatal("unhandled mechanism");
}

} // namespace flexos
