/**
 * @file
 * The FlexOS image: the runtime instantiation of one safety
 * configuration over the simulated machine.
 *
 * Built by the Toolchain from a SafetyConfig + LibraryRegistry, the
 * image owns the compartments (keys, heaps, static sections), the
 * shared heap, the DSS stack pool, one isolation backend per mechanism
 * present in the configuration, and the gate dispatch that library
 * code calls through FLEXOS gates. Every crossing is enforced under
 * the (from, to) cell of the image's GateMatrix — by default the
 * callee compartment's mechanism at full strength, overridable per
 * boundary through the config's `boundaries:` section — so a single
 * image can mix mechanisms *and* run different MPK gate flavours on
 * different boundaries simultaneously.
 */

#ifndef FLEXOS_CORE_IMAGE_HH
#define FLEXOS_CORE_IMAGE_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/backend.hh"
#include "core/config.hh"
#include "core/hardening.hh"
#include "core/library.hh"
#include "uksched/scheduler.hh"
#include "ukalloc/tlsf.hh"

namespace flexos {

/** Shared-domain protection key (the last MPK key, paper 4.1). */
inline constexpr ProtKey sharedProtKey = 15;

/**
 * Bits of per-compartment layout-randomization entropy a mechanism's
 * loader grants (the linker script's ASLR slide). The numbers model
 * how much of the address space each mechanism can rearrange: MPK
 * compartments share one address space (section-level slide only),
 * EPT compartments own a whole guest physical map, CHERI bounds let
 * the loader scatter within the capability-addressable range, and
 * the unisolated baselines slide everything or nothing together.
 */
unsigned layoutEntropyBits(Mechanism m);

/**
 * Raised by Image::gate() when the (from, to) boundary carries
 * `deny: true`: the configuration declares the edge unreachable
 * (least-privilege call graph). Statically-known call edges are
 * rejected at image build instead; this error covers dynamic
 * crossings the static graph does not see. Counted in `gate.denied`
 * and the edge's ledger cell.
 */
class DeniedCrossing : public std::runtime_error
{
  public:
    DeniedCrossing(const std::string &from, const std::string &to)
        : std::runtime_error("denied crossing " + from + " -> " + to),
          from(from), to(to)
    {
    }

    std::string from;
    std::string to;
};

/**
 * Raised by Image::gate() when a rate-limited boundary overflows its
 * token budget and the policy's overflow action is `fail`. Counted in
 * `gate.throttled` and the edge's ledger cell (the `stall` action
 * counts the same way but back-pressures the caller instead of
 * raising).
 */
class ThrottledCrossing : public std::runtime_error
{
  public:
    ThrottledCrossing(const std::string &from, const std::string &to)
        : std::runtime_error("throttled crossing " + from + " -> " + to),
          from(from), to(to)
    {
    }

    std::string from;
    std::string to;
};

/** RAII guard setting the machine work multiplier for a scope. */
class WorkMultGuard
{
  public:
    WorkMultGuard(Machine &m, double mult)
        : mach(m), saved(m.workMultiplier)
    {
        mach.workMultiplier = mult;
    }

    ~WorkMultGuard() { mach.workMultiplier = saved; }

    WorkMultGuard(const WorkMultGuard &) = delete;
    WorkMultGuard &operator=(const WorkMultGuard &) = delete;

  private:
    Machine &mach;
    double saved;
};

/**
 * A compartment instance: protection key, private heap + allocator,
 * static data section, hardening state.
 */
class Compartment
{
  public:
    int id = 0;
    ProtKey key = 0;
    /**
     * Key virtualization (EPT): the compartment's memory is modelled
     * as unmapped outside its VM rather than key-tagged, so it holds
     * no protection key and doesn't count against the key budget.
     */
    bool vmPrivate = false;
    CompartmentSpec spec;

    /** Combined hardening work multiplier (>= 1.0). */
    double hardenMultiplier = 1.0;

    /**
     * Layout randomization (linker script): the page-aligned ASLR
     * slide this compartment's sections load at, drawn deterministically
     * from the compartment name so runs stay reproducible, masked to
     * the mechanism's entropy budget. An info-leak that reads a code
     * pointer out of a shared stack defeats all `layoutEntropyBits`
     * bits at once — the measurement the adversary suite reports.
     */
    std::uint64_t layoutSlide = 0;
    unsigned layoutEntropyBits = 0;

    /** Hardening runtime handed to library code in this compartment. */
    HardeningContext hardening;

    /** The PKRU value threads use while executing here. */
    Pkru domain;

    /** Private heap allocator ("one allocator per compartment", 4.5);
     *  points at the KASan wrapper when kasan/asan is enabled. */
    Allocator *heap = nullptr;

    /** Arena backing the private heap (registered in the region map). */
    std::vector<char> heapArena;
    /** Per-compartment static data section (.data/.bss analogue). */
    std::vector<char> dataSection;

    std::unique_ptr<TlsfAllocator> rawHeap;
    std::unique_ptr<KasanHeap> kasanHeap;
    CfiRegistry cfiRegistry;
};

/**
 * Per-(thread, compartment) simulated call stack with its DSS upper
 * half (paper 4.1, Figure 4): the stack is doubled; [0, stackBytes) is
 * the private stack, [stackBytes, 2*stackBytes) is the shadow area in
 * the shared domain; shadow(x) = x + stackBytes.
 */
struct SimStack
{
    static constexpr std::size_t stackBytes = 8 * 4096; // 8 pages (6.5)

    std::unique_ptr<char[]> mem; ///< 2 * stackBytes
    std::size_t top = 0;         ///< bump offset within the private half
    /**
     * The sharing strategy this stack was laid out under — a
     * per-boundary policy since the gate matrix carries
     * `stack_sharing`; recorded so teardown removes the right regions
     * and DssFrame follows the layout the stack actually has.
     */
    StackSharing sharing = StackSharing::Dss;
};

/**
 * The runtime image.
 */
class Image
{
  public:
    Image(Machine &m, Scheduler &s, SafetyConfig cfg,
          const LibraryRegistry &reg);
    ~Image();

    Image(const Image &) = delete;
    Image &operator=(const Image &) = delete;

    /** Bring the image up: regions, domains, backend, hooks. */
    void boot();

    /** Orderly teardown (also run by the destructor). */
    void shutdown();

    /** @name Topology. @{ */
    std::size_t compartmentCount() const { return comps.size(); }
    Compartment &compartmentAt(std::size_t idx);
    /** Compartment a library is placed in (fatal for a library
     *  placed nowhere). */
    int compartmentIndexOf(const std::string &lib) const;
    Compartment &compartmentOf(const std::string &lib);
    /**
     * Compartment a call from `from` into `lib` lands in, read from
     * the routing table resolved at construction (see
     * landingCompartment()); -1 when `lib` is not in the image.
     */
    int landingOf(const std::string &lib, int from) const;
    /** @} */

    /**
     * The call gate. Executes fn as entry point fnName of calleeLib,
     * performing a domain transition when the caller's current
     * compartment differs from the callee's. Same-compartment calls
     * cost exactly a function call — "you only pay for what you get".
     * A real crossing is the one-call case of the vectored path: the
     * same crossChunk() that gateBatch() drives.
     */
    template <typename F>
    auto
    gate(const std::string &calleeLib, const char *fnName, F &&fn)
        -> std::invoke_result_t<F>
    {
        using R = std::invoke_result_t<F>;
        int from = currentCompartment();
        const LibraryRoute &r = route(calleeLib);
        int to = r.landing[static_cast<std::size_t>(from)];
        if (from == to) {
            // Same compartment: the gate degenerates to a plain call
            // (paper Figure 3, step 3': zero overhead). Only the
            // callee's own hardening instrumentation applies.
            mach.consume(mach.timing.functionCall);
            mach.bump(Counter::GateDirect);
            WorkMultGuard guard(mach, r.mult);
            return fn();
        }
        if constexpr (std::is_void_v<R>) {
            const std::function<void()> body = [&] { fn(); };
            crossChunk(calleeLib, fnName, from, to, r.mult, &body, 1);
        } else {
            std::optional<R> result;
            const std::function<void()> body = [&] {
                result.emplace(fn());
            };
            crossChunk(calleeLib, fnName, from, to, r.mult, &body, 1);
            return std::move(*result);
        }
    }

    /**
     * Vectored gate: run a sequence of calls to one entry point of
     * calleeLib through crossings of the boundary's `batch:` width —
     * each chunk pays ONE backend transition (one EPT doorbell, one
     * MPK/CHERI entry/return leg) plus a per-slot cost, while
     * deny/rate enforcement is still debited per logical call. On a
     * `batch: 1` boundary every chunk is one call, exactly gate().
     */
    void gateBatch(const std::string &calleeLib, const char *fnName,
                   const std::vector<std::function<void()>> &bodies);

    /** Spawn a thread whose execution starts in lib's compartment. */
    Thread *spawnIn(const std::string &lib, std::string name,
                    std::function<void()> entry);

    /** @name Data sharing (paper 3.1/4.1). @{ */
    /** Allocate from the shared communication heap. */
    void *sharedAlloc(std::size_t n);
    void sharedFree(void *p);
    Allocator &sharedHeap() { return *sharedHeapAlloc; }
    /** Private heap of a library's compartment. */
    Allocator &heapOf(const std::string &lib);
    /** @} */

    /** @name Checked accesses (MMU + KASan instrumentation point). @{ */
    template <typename T>
    T
    load(const T *p)
    {
        mach.checkAccess(p, sizeof(T), AccessType::Read);
        currentHardening().checkAccess(p, sizeof(T));
        return *p;
    }

    template <typename T>
    void
    store(T *p, const T &v)
    {
        mach.checkAccess(p, sizeof(T), AccessType::Write);
        currentHardening().checkAccess(p, sizeof(T));
        *p = v;
    }
    /** @} */

    /** Compartment the calling thread currently executes in. */
    int currentCompartment() const;

    /** Hardening context of the current compartment. */
    const HardeningContext &currentHardening() const;

    /**
     * The per-(thread, compartment) simulated stack, lazily built
     * under the given sharing strategy (the crossing boundary's
     * resolved `stack_sharing`). An already-built stack keeps the
     * layout of its first crossing.
     */
    SimStack &simStackFor(int threadId, int comp, StackSharing sharing);

    /** Convenience overload: the compartment's own resolved strategy. */
    SimStack &
    simStackFor(int threadId, int comp)
    {
        return simStackFor(threadId, comp, stackSharingFor(comp));
    }

    /**
     * The shared-stack strategy in force for frames opened while
     * executing in a compartment with no crossing context: the
     * matrix's (comp, comp) cell, which wildcard rules naming the
     * compartment on either side reach.
     */
    StackSharing
    stackSharingFor(int comp) const
    {
        return gates.at(comp, comp).stackSharing;
    }

    /**
     * The strategy a DssFrame opened by (thread, comp) must follow:
     * the layout of the thread's existing stack in the compartment
     * (created by the crossing that entered it), falling back to the
     * compartment's own resolved strategy.
     */
    StackSharing
    frameStrategyFor(int threadId, int comp) const
    {
        auto it = simStacks.find({threadId, comp});
        if (it != simStacks.end())
            return it->second.sharing;
        return stackSharingFor(comp);
    }

    /** Generated linker-script analogue describing the memory layout. */
    std::string linkerScript() const;

    /**
     * One (from, to) boundary's cell of the per-boundary ledger: what
     * happened at the gate, each event counted once, here only (the
     * machine keeps just the image-wide totals `gate.denied`,
     * `gate.throttled` and `gate.validate.reject`).
     */
    struct BoundaryCounts
    {
        /** Calls that passed enforcement into the backend. */
        std::uint64_t crossings = 0;
        /** Calls refused by `deny: true`. */
        std::uint64_t denied = 0;
        /** Calls that found the token bucket dry (stalled or failed). */
        std::uint64_t throttled = 0;
        /** Calls refused by entry-point validation. */
        std::uint64_t rejected = 0;
    };

    /**
     * The per-boundary ledger, row-major [from * n + to] like the gate
     * matrix. Cells are monotonic totals; windowed readers (the
     * controller) difference two copies.
     */
    const std::vector<BoundaryCounts> &
    ledger() const
    {
        return boundaryLedger;
    }

    /** One boundary's ledger cell. */
    const BoundaryCounts &
    ledgerAt(int from, int to) const
    {
        return boundaryLedger[boundaryIndex(from, to)];
    }

    /** Crossings per (from, to) pair: the ledger cells that carried
     *  any. */
    std::map<std::pair<int, int>, std::uint64_t> gateCrossings() const;

    /** One (from, to) boundary's traffic, named by its policy. */
    struct BoundaryStat
    {
        std::string from;   ///< caller compartment name
        std::string to;     ///< callee compartment name
        std::string policy; ///< resolved GatePolicy::name()
        std::uint64_t count = 0;
    };

    /**
     * The crossing column of the ledger joined with the gate matrix:
     * every boundary that carried traffic, labelled with the policy
     * that enforced it. Map key is the (from, to) index pair.
     */
    std::map<std::pair<int, int>, BoundaryStat> boundaryStats() const;

    /**
     * SMP crossing accounting: when a compartment was last entered
     * from a different core, its hot state (private stacks, heap
     * metadata, gate scratch) migrates to the entering core's caches —
     * charged as `crossCoreMigration` and counted in `gate.crossCore`.
     */
    void
    noteCoreMigration(int to)
    {
        int coreNow = mach.activeCore();
        int &lastCore = compLastCore[static_cast<std::size_t>(to)];
        if (lastCore >= 0 && lastCore != coreNow) {
            mach.consume(mach.timing.crossCoreMigration);
            mach.bump(Counter::GateCrossCore);
        }
        lastCore = coreNow;
    }

    /**
     * Return-leg policy work: `validate_return` boundaries re-probe
     * the caller's export table on the way back (the symmetric check
     * to `validate`), charged only when the callee returned normally.
     */
    void
    noteReturn(const GatePolicy &pol)
    {
        if (pol.validateReturn) {
            mach.consume(mach.timing.entryValidate);
            mach.bump(Counter::GateValidateReturn);
        }
    }

    /** The resolved policy of a (from, to) boundary. */
    const GatePolicy &
    policyFor(int from, int to) const
    {
        return gates.at(from, to);
    }

    /** The full policy matrix in force. */
    const GateMatrix &gateMatrix() const { return gates; }

    /** @name Runtime policy swaps (the controller's apply path). @{ */
    /**
     * Replace the live gate matrix through a quiesced epoch flip: the
     * swap waits until no thread sits inside a backend transit (their
     * gate frames reference cells of the matrix being replaced), then
     * the matrix flips at one instant, changed-cell token buckets re-prime,
     * every core acknowledges the epoch, and each backend's
     * policyChanged() hook runs. `deny` edges and the compartment
     * topology cannot change — only gate knobs do — so the swap never
     * invalidates region or backend state.
     *
     * A policy-identical `next` is a charge- and counter-free no-op
     * (the regression pin that a no-op swap is bit-identical to no
     * swap), returning false. Effective swaps bump `matrix.swaps` and
     * `matrix.epoch` and return true. Must not be called from inside
     * a gated crossing (panics); callable from a fiber or from the
     * driver (the latter runs the scheduler to drain crossings).
     */
    bool swapGateMatrix(GateMatrix next);

    /** Crossings currently inside a backend transit (tests). */
    int activeCrossings() const { return activeCrossings_; }
    /** @} */

    /** @name Windowed statistics. @{ */
    /** A point-in-time copy of the machine's counters. */
    using StatsSnapshot = std::map<std::string, std::uint64_t>;

    /**
     * Snapshot every machine counter. Counters are monotonic totals;
     * rate logic (epoch tests, benchmark windows) must difference two
     * snapshots with statsDelta() instead of reading totals — using
     * totals double-counts all history before the window.
     */
    StatsSnapshot snapshotStats() const;

    /**
     * Per-key difference now - before, keeping only keys that moved.
     * Keys absent from `before` count from zero.
     */
    static StatsSnapshot statsDelta(const StatsSnapshot &before,
                                    const StatsSnapshot &now);
    /** @} */

    Machine &machine() { return mach; }
    Scheduler &scheduler() { return sched; }
    const SafetyConfig &config() const { return cfg; }
    const LibraryRegistry &registry() const { return reg; }

    /** @name Per-boundary backends. @{ */
    /** The backend enforcing a compartment's boundary. */
    IsolationBackend &backendFor(int comp) const;
    /** The instantiated backend for a mechanism (fatal if absent). */
    IsolationBackend &backendOf(Mechanism m) const;
    /** One backend per distinct mechanism, first-appearance order. */
    std::size_t backendCount() const { return backends.size(); }
    /** Joined backend names, e.g. "intel-mpk(dss)+vm-ept". */
    std::string backendNames() const;
    /** @} */

    /** Drop a finished thread's simulated stacks and their regions. */
    void reapSimStacks(int threadId);

  private:
    /**
     * One library's row of the routing table: where a call into it
     * lands from each caller compartment and the hardening work
     * multiplier its code runs under (its compartment's set plus its
     * own per-component set).
     */
    struct LibraryRoute
    {
        /** Compartment the library is placed in; -1 for a TCB library
         *  placed nowhere (local to every caller). */
        int home = -1;
        /** Landing compartment, indexed by caller compartment. */
        std::vector<int> landing;
        double mult = 1.0;
    };

    /** A library's routing row; fatal when it is not in the image. */
    const LibraryRoute &route(const std::string &lib) const;

    /** Row-major index of a (from, to) boundary in the per-boundary
     *  tables (the ledger and the token buckets). */
    std::size_t
    boundaryIndex(int from, int to) const
    {
        return static_cast<std::size_t>(from) * comps.size() +
               static_cast<std::size_t>(to);
    }

    /**
     * Entry-point validation of one crossing: a gate aimed at a
     * non-exported symbol (a ROP-style jump into the middle of the
     * callee) raises CfiViolation, witnessed in `gate.validate.reject`
     * and the edge's ledger cell so the adversary scorecard can pin
     * rejections to the attacked edge.
     */
    void checkEntry(const std::string &lib, const char *fnName, int from,
                    int to, const GatePolicy &pol);
    /**
     * Least-privilege enforcement of one crossing: raises
     * DeniedCrossing on a denied edge, and debits the boundary's
     * token bucket on a rate-limited one (stalling the virtual clock
     * or raising ThrottledCrossing on overflow, per the policy). Each
     * refusal and overflow counts in the edge's ledger cell.
     */
    void enforceBoundary(int from, int to, const GatePolicy &pol);
    void registerRegions();
    void unregisterRegions();

    /**
     * Elision streak accounting + the entry-validate leg: records the
     * calling thread's (from, to) crossing, and when the previous
     * crossing was this same boundary and the policy elides legs,
     * returns a policy copy (in `scratch`) with the elided legs
     * dropped (`gate.elided.validate` / `gate.elided.scrub`). The
     * validate charge is made here either way; with `elide: none`
     * (the default) the returned policy is `pol` itself and the
     * charges are exactly the pre-batching gate's.
     */
    const GatePolicy &applyElision(int from, int to,
                                   const GatePolicy &pol,
                                   GatePolicy &scratch);

    /**
     * Whether the calling thread's previous crossing was this same
     * boundary; records (from, to) either way so any intervening
     * crossing resets every other boundary's streak. Charge-free.
     */
    bool noteBoundaryStreak(int from, int to);

    /** Token bucket of one rate-limited boundary (vcycle refill). */
    struct GateBucket
    {
        double tokens = 0;
        Cycles lastRefill = 0;
        bool primed = false; ///< bucket starts full on first crossing
    };

    /**
     * RAII depth of crossings inside backend transits: swapGateMatrix
     * quiesces on the global count (a crossing blocked in an EPT ring
     * holds references into the live matrix), and the per-thread depth
     * catches a swap attempted from inside a gated body.
     */
    struct CrossingScope
    {
        explicit CrossingScope(Image &i)
            : img(i),
              tid(i.sched.current() ? i.sched.current()->id() : -1)
        {
            ++img.activeCrossings_;
            ++img.crossingDepth[tid];
        }

        ~CrossingScope()
        {
            auto it = img.crossingDepth.find(tid);
            if (--it->second == 0)
                img.crossingDepth.erase(it);
            if (--img.activeCrossings_ == 0 && img.swapWaiters > 0)
                img.quiesceWait.wakeAll();
        }

        CrossingScope(const CrossingScope &) = delete;
        CrossingScope &operator=(const CrossingScope &) = delete;

        Image &img;
        int tid;
    };

    /**
     * The one crossing path behind gate() and gateBatch(): `k`
     * (>= 1) calls from compartment `from` into `to` through ONE
     * backend transition, the bodies running under `calleeMult`. In
     * order: the swap barrier, the policy lookup, least-privilege
     * enforcement per logical call, elision and the entry-validate
     * leg, entry-point validation, SMP migration accounting, the
     * crossing scope, the ledger count, the backend call, and the
     * return-leg policy work.
     */
    void crossChunk(const std::string &calleeLib, const char *fnName,
                    int from, int to, double calleeMult,
                    const std::function<void()> *bodies, std::size_t k);

    /** The crossing-side half of the swap barrier (defined with
     *  swapGateMatrix). */
    void yieldForSwap();

    /** Per-core epoch acknowledgement after a matrix flip. */
    void ackCoresAfterSwap();

    Machine &mach;
    Scheduler &sched;
    SafetyConfig cfg;
    const LibraryRegistry &reg;
    /** Resolved (from, to) gate-policy matrix. */
    GateMatrix gates;
    /** Crossings currently inside a backend transit (all threads). */
    int activeCrossings_ = 0;
    /** Per-thread crossing depth (self-swap detection). */
    std::map<int, int> crossingDepth;
    /** swapGateMatrix callers blocked on the quiesce barrier. */
    int swapWaiters = 0;
    /** Woken when the last in-flight crossing drains. */
    WaitQueue quiesceWait;

    std::vector<std::unique_ptr<Compartment>> comps;
    /** Routing table: placed libraries and registry TCB libraries. */
    std::map<std::string, LibraryRoute> routes;
    /** One backend per distinct mechanism in the config. */
    std::vector<std::unique_ptr<IsolationBackend>> backends;
    /** Compartment index -> its mechanism's backend. */
    std::vector<IsolationBackend *> compBackends;
    /** Scheduler thread-exit listener id (sim-stack reaping). */
    int threadExitListener = -1;

    std::vector<char> sharedArena;
    std::unique_ptr<TlsfAllocator> sharedHeapAlloc;

    /** Row-major [from * n + to] buckets for rate-limited boundaries. */
    std::vector<GateBucket> gateBuckets;
    /** Core each compartment last executed on (-1 = never entered). */
    std::vector<int> compLastCore;
    /** Per-thread (from, to) of the last crossing (`elide:` streaks). */
    std::map<int, std::pair<int, int>> lastBoundary;

    std::map<std::pair<int, int>, SimStack> simStacks;
    /** Row-major [from * n + to] per-boundary ledger (ledger()). */
    std::vector<BoundaryCounts> boundaryLedger;
    std::vector<const void *> registeredRegions;
    bool booted = false;
};

} // namespace flexos

#endif // FLEXOS_CORE_IMAGE_HH
