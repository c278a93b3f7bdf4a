/**
 * @file
 * Safety configuration: the build-time input that selects the
 * compartmentalization, the isolation mechanism, the data-sharing
 * strategy and per-compartment software hardening (paper 3.0).
 *
 * The text format is the YAML subset used in the paper:
 *
 *     compartments:
 *     - comp1:
 *         mechanism: intel-mpk
 *         default: True
 *     - comp2:
 *         mechanism: intel-mpk
 *         hardening: [cfi, asan]
 *     libraries:
 *     - libredis: comp1
 *     - libopenjpg: comp2
 *     - lwip: comp2
 *     boundaries:
 *     - comp1 -> comp2: {gate: light}
 *     - '*' -> comp2: {validate: true, rate: 1000, overflow: stall}
 *     - comp2 -> comp1: {deny: true}
 *
 * The optional `boundaries:` section overrides the gate policy of
 * individual (from, to) compartment pairs; see BoundaryRule/GateMatrix.
 * config.cc declares each key once, in one table per section, and each
 * enum's names once: those tables drive parsing, GateMatrix::build,
 * toText() and the key-by-key reference docs/config-reference.md
 * (tools/config_doc).
 */

#ifndef FLEXOS_CORE_CONFIG_HH
#define FLEXOS_CORE_CONFIG_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace flexos {

/** Isolation mechanisms understood by the toolchain. */
enum class Mechanism
{
    None,         ///< single protection domain (vanilla Unikraft)
    IntelMpk,     ///< protection keys, intra-AS (paper 4.1)
    VmEpt,        ///< one VM per compartment, RPC gates (paper 4.2)
    Cheri,        ///< capability backend (sketch, paper 4.3)
    LinuxPt,      ///< baseline: page-table isolation via syscalls
    Sel4Ipc,      ///< baseline: microkernel IPC (seL4/Genode)
    CubicleMpk,   ///< baseline: CubicleOS MPK-via-pkey_mprotect
};

/** MPK gate flavours (paper 4.1). */
enum class MpkGateFlavor
{
    Light, ///< shared stack + registers; raw wrpkru pair (ERIM-like)
    Dss,   ///< full gate: register save/zero + stack switch (HODOR-like)
};

/** How shared stack variables are materialized (paper 4.1, Fig. 11a). */
enum class StackSharing
{
    Heap,        ///< convert stack allocations to shared-heap ones
    Dss,         ///< data shadow stacks
    SharedStack, ///< share the whole stack (cheapest, least safe)
};

/** Software hardening mechanisms (paper 4.5). */
enum class Hardening
{
    StackProtector,
    Ubsan,
    Kasan,
    Cfi,
    Asan, // userland flavour of kasan; same instrumentation point
};

/**
 * What a rate-limited boundary does with a crossing that exceeds its
 * token budget (`overflow:` key): stall the caller until a token
 * refills (gate-storm containment: the boundary back-pressures), or
 * fail the crossing with a ThrottledCrossing error.
 */
enum class RateOverflow
{
    Stall,
    Fail,
};

/**
 * How the NIC spreads received flows across cores on a multi-core
 * image (`steering:` key): RSS hashes each connection's 4-tuple to one
 * of per-core receive queues, `single` funnels everything through
 * queue 0 (the single-core data path, kept as a control knob).
 */
enum class NicSteering
{
    Rss,
    Single,
};

/**
 * Which per-crossing safety legs a boundary may skip for consecutive
 * same-boundary calls from the same thread (`elide:` key). The streak
 * resets on any intervening crossing of a *different* boundary, so the
 * first call after a boundary change always pays the full legs.
 * Strictly less safe than None — the explore poset orders it so.
 */
enum class GateElide
{
    None,     ///< never skip (the default, full-strength policy)
    Validate, ///< skip the entry-validation charge on streaks
    Scrub,    ///< skip the return-path register scrub on streaks
    Both,     ///< skip both legs on streaks
};

/**
 * Parse helpers for the enums: canonical names and aliases in any case
 * are accepted, and an unknown name is fatal, listing the accepted ones.
 */
Mechanism mechanismFromName(const std::string &name);
const char *mechanismName(Mechanism m);
const char *flavorName(MpkGateFlavor f);
Hardening hardeningFromName(const std::string &name);
const char *hardeningName(Hardening h);
StackSharing stackSharingFromName(const std::string &name);
const char *stackSharingName(StackSharing s);
const char *rateOverflowName(RateOverflow o);
NicSteering steeringFromName(const std::string &name);
const char *steeringName(NicSteering s);
GateElide elideFromName(const std::string &name);
const char *elideName(GateElide e);

/** Whether an elide mode covers entry validation / return scrubbing. */
inline bool
elidesValidate(GateElide e)
{
    return e == GateElide::Validate || e == GateElide::Both;
}
inline bool
elidesScrub(GateElide e)
{
    return e == GateElide::Scrub || e == GateElide::Both;
}

/**
 * Whether a mechanism's compartments occupy an MPK protection key in
 * the region model. EPT compartments are modelled as "unmapped outside
 * their VM" (key virtualization): their memory is reachable only from
 * threads executing inside the VM, so they consume no PKRU key and do
 * not count against the 15-compartment key budget.
 */
bool mechanismConsumesProtKey(Mechanism m);

/**
 * Whether a mechanism replicates the TCB into each of its compartments
 * (paper 3.1: backends relying on several systems — VMs — duplicate
 * the TCB so each compartment has a self-contained kernel). A TCB
 * library called from such a compartment runs locally.
 */
bool mechanismReplicatesTcb(Mechanism m);

/** RPC servers an EPT compartment's VM boots with by default. */
inline constexpr int defaultEptServers = 2;

/**
 * Default token-bucket refill window of a rate-limited boundary, in
 * virtual cycles (`window:` key): `rate: N` alone budgets N crossings
 * per this many vcycles.
 */
inline constexpr std::uint64_t defaultRateWindow = 1'000'000;

/** One compartment in the configuration. */
struct CompartmentSpec
{
    std::string name;
    Mechanism mechanism = Mechanism::IntelMpk;
    bool isDefault = false;
    std::vector<Hardening> hardening;

    /**
     * RPC server threads this compartment's VM boots with (EPT only;
     * `servers: N` in the config). The pool grows elastically under
     * load up to EptBackend's cap, so blocked RPC bodies cannot starve
     * the boundary.
     */
    int servers = defaultEptServers;
    /** Whether `servers:` was written explicitly (EPT-only key). */
    bool serversExplicit = false;

    bool
    hardenedWith(Hardening h) const
    {
        for (Hardening x : hardening)
            if (x == h)
                return true;
        return false;
    }
};

/**
 * The resolved gate policy of one (from, to) boundary — the first-class
 * value every crossing is enforced under. Defaults reproduce the
 * callee-side rule: the callee compartment's mechanism, the full DSS
 * flavour for MPK boundaries, no extra entry validation, and register
 * scrubbing on the return path.
 */
struct GatePolicy
{
    /** Mechanism enforcing the crossing (the callee compartment's). */
    Mechanism mech = Mechanism::None;
    /** MPK gate flavour used when mech is intel-mpk. */
    MpkGateFlavor flavor = MpkGateFlavor::Dss;
    /** Force caller-side entry-point validation on this edge. */
    bool validateEntry = false;
    /** Scrub the register set on the return path (DSS/EPT gates). */
    bool scrubReturn = true;
    /**
     * Validate the return site when the crossing comes back, the
     * return-path mirror of validateEntry: gates charge entry and
     * return legs separately, and each direction can be audited
     * independently (`validate_return:` key).
     */
    bool validateReturn = false;

    /**
     * Statically forbid this edge: crossings of the call graph the
     * configuration declares unreachable (least-privilege). Edges the
     * static call graph needs are rejected at image build; dynamic
     * crossings raise DeniedCrossing and bump `gate.denied`.
     */
    bool deny = false;

    /**
     * Crossing budget: at most `rate` crossings per `rateWindow`
     * virtual cycles (token bucket), 0 = unlimited. Overflowing
     * crossings bump `gate.throttled` and either stall until a token
     * refills or fail with ThrottledCrossing, per `overflow`.
     */
    std::uint64_t rate = 0;
    std::uint64_t rateWindow = defaultRateWindow;
    RateOverflow overflow = RateOverflow::Stall;

    /**
     * QoS weight of the edge's token bucket (`weight:` key): the
     * effective budget is rate x weight, so boundaries sharing a
     * wildcard `rate:` can be biased per caller instead of starving
     * FIFO-less. Throttled crossings also count in the edge's
     * `throttled` cell of Image::ledger(). Default 1 (no bias).
     */
    std::uint64_t weight = 1;

    /**
     * How shared stack variables are materialized for frames opened
     * behind this boundary — per-boundary since the data-sharing
     * strategy is a (from, to) knob like the gate itself. The global
     * `stack_sharing:` key desugars to a ('*','*') rule.
     */
    StackSharing stackSharing = StackSharing::Dss;

    /**
     * Vectored-crossing width (`batch:` key): up to this many queued
     * calls of the same boundary are submitted through ONE gate —
     * one EPT ring doorbell, one MPK/CHERI entry/return leg — with
     * each extra call charged only the per-slot dispatch cost.
     * Perf-only (every call still runs behind the boundary, and
     * throttle budgets are debited per logical call). 1 = no batching,
     * vcycle-identical to the unbatched gate by construction.
     */
    std::uint64_t batch = 1;

    /**
     * Doorbell-coalescing window in virtual cycles (`coalesce:` key,
     * EPT boundaries under back-pressure): a submission that finds the
     * ring non-empty within this window of the last doorbell skips the
     * doorbell — the already-ringing server will drain the slot. 0 =
     * ring every time.
     */
    std::uint64_t coalesce = 0;

    /**
     * Skip entry-validation and/or return-scrub legs for consecutive
     * same-boundary calls from the same thread (`elide:` key). The
     * streak resets on any intervening crossing, so the first call of
     * every run pays the full legs. Strictly less safe than None.
     */
    GateElide elide = GateElide::None;

    /**
     * Opt this edge into online policy adaptation (`adaptive:` key):
     * the runtime PolicyController may tighten or relax its rate /
     * overflow / validation knobs between epochs. Edges without the
     * opt-in (and all `deny:` edges) are never touched at runtime, so
     * an image with no adaptive edges behaves bit-identically to the
     * static model.
     */
    bool adaptive = false;

    /** Policy name, e.g. "intel-mpk(light)" or "vm-ept+validate". */
    std::string name() const;

    bool operator==(const GatePolicy &o) const = default;
};

/**
 * One rule of the `boundaries:` section. `from`/`to` are compartment
 * names or the wildcard "*"; unset fields leave the less specific
 * layer's (or the default policy's) value in place.
 */
struct BoundaryRule
{
    std::string from;
    std::string to;
    std::optional<MpkGateFlavor> flavor; ///< `gate: light|dss`
    std::optional<bool> validate;        ///< `validate: true|false`
    std::optional<bool> validateReturn;  ///< `validate_return: ...`
    std::optional<bool> scrub;           ///< `scrub: true|false`
    std::optional<bool> deny;            ///< `deny: true|false`
    std::optional<std::uint64_t> rate;   ///< `rate: N` (crossings)
    std::optional<std::uint64_t> window; ///< `window: N` (vcycles)
    std::optional<std::uint64_t> weight; ///< `weight: N` (QoS bias)
    std::optional<RateOverflow> overflow; ///< `overflow: stall|fail`
    /** `stack_sharing: heap|dss|shared-stack` */
    std::optional<StackSharing> stackSharing;
    std::optional<std::uint64_t> batch;    ///< `batch: N` (calls/gate)
    std::optional<std::uint64_t> coalesce; ///< `coalesce: N` (vcycles)
    std::optional<GateElide> elide; ///< `elide: validate|scrub|both|none`
    std::optional<bool> adaptive;   ///< `adaptive: true|false`

    /** "from -> to", for error messages. */
    std::string edgeName() const { return from + " -> " + to; }

    bool operator==(const BoundaryRule &o) const = default;
};

struct SafetyConfig;

/**
 * Runtime policy-controller parameters (`controller:` section). The
 * section's *presence* enables the controller; every key has a usable
 * default. The controller samples per-boundary counters once per
 * `epoch` virtual cycles and only ever adapts boundaries that opt in
 * with `adaptive: true` — an image without the section (or without any
 * adaptive edge) runs the static model unchanged.
 */
struct ControllerConfig
{
    /** Sample window in virtual cycles (`epoch:` key). */
    std::uint64_t epoch = 1'000'000;

    /**
     * Crossings per epoch on one boundary that count as a gate storm
     * (`storm_threshold:` key): the controller imposes/halves a
     * `rate` budget on adaptive edges that exceed it, escalating
     * `overflow: fail` and entry/return validation on persistence.
     */
    std::uint64_t stormThreshold = 1'000;

    /**
     * Hysteresis (`calm_epochs:` key): epochs a tightened boundary
     * must stay below the storm threshold before the controller
     * relaxes it one step back toward its configured policy.
     */
    std::uint64_t calmEpochs = 3;

    /**
     * DeniedCrossing witnesses on one edge within an epoch that raise
     * a `controller.alerts` alert and harden the offender's outgoing
     * adaptive edges to the full DSS flavour (`deny_alert:` key).
     */
    std::uint64_t denyAlert = 1;

    bool operator==(const ControllerConfig &o) const = default;
};

/**
 * The (from, to) gate-policy matrix resolved from a configuration:
 * one GatePolicy per ordered compartment pair. Rules are layered by
 * specificity — ('*','*') then (from,'*') then ('*',to) then exact —
 * so callee-side wildcards override caller-side ones, matching the
 * historical callee-decides dispatch rule. Two rules of *equal*
 * specificity that disagree on a field for the same cell are a fatal
 * user error (no silent precedence), as is mixing `deny: true` with a
 * `rate:` budget at equal specificity — deny, rate and the scalar
 * knobs have no precedence order among themselves.
 */
class GateMatrix
{
  public:
    /** Resolve the matrix (fatal on rules naming unknown comps). */
    static GateMatrix build(const SafetyConfig &cfg);

    /** Policy of the (from, to) boundary. */
    const GatePolicy &at(int from, int to) const;

    /**
     * Replace the (from, to) cell — the runtime controller's mutation
     * primitive. Only ever applied to a *pending* copy of the matrix;
     * the live matrix changes solely through Image::swapGateMatrix's
     * quiesced epoch flip.
     */
    void set(int from, int to, const GatePolicy &p);

    /** Number of compartments (the matrix is size x size). */
    std::size_t size() const { return n; }

    /**
     * Swap epoch of the live matrix: 0 for the boot matrix, +1 per
     * effective swapGateMatrix. Version bookkeeping, not policy — the
     * equality below deliberately ignores it so a swap to an
     * identical matrix can be detected (and elided) cheaply.
     */
    std::uint64_t epoch() const { return epoch_; }
    void setEpoch(std::uint64_t e) { epoch_ = e; }

    /** Policy equality: same shape, same cells (epoch ignored). */
    bool operator==(const GateMatrix &o) const
    {
        return n == o.n && cells == o.cells;
    }

  private:
    std::size_t n = 0;
    std::uint64_t epoch_ = 0;
    std::vector<GatePolicy> cells; ///< row-major [from * n + to]
};

/** A full safety configuration. */
struct SafetyConfig
{
    std::vector<CompartmentSpec> compartments;
    /** library name -> compartment name, in file order. */
    std::vector<std::pair<std::string, std::string>> libraries;

    /**
     * Per-library hardening on top of the compartment's (Figure 6
     * enables hardening per *component*). Config syntax:
     *     - lwip: comp2 [kasan, ubsan]
     */
    std::map<std::string, std::vector<Hardening>> libHardening;

    /**
     * Per-boundary policy overrides in declaration order. The legacy
     * global `mpk_gate:` knob desugars to a ('*','*') flavour rule.
     */
    std::vector<BoundaryRule> boundaries;

    /**
     * Image-wide default shared-stack strategy: the value the gate
     * matrix seeds every cell's stackSharing with before boundary
     * rules layer on top. The config key `stack_sharing:` both sets
     * this field and desugars to a ('*','*') rule so it round-trips
     * through toText(); programmatic users may simply assign it.
     */
    StackSharing stackSharing = StackSharing::Dss;

    /** Per-compartment private heap size (bytes). */
    std::size_t heapBytes = 8 * 1024 * 1024;
    /** Shared communication heap size (bytes). */
    std::size_t sharedHeapBytes = 4 * 1024 * 1024;

    /**
     * Simulated cores the image boots (`cores: N`). One per-core NIC
     * queue and poller is spawned for each; `cores: 1` is the exact
     * single-core model every earlier config ran under.
     */
    unsigned cores = 1;

    /**
     * Flow steering across cores (`steering:`); only meaningful when
     * cores > 1. Default RSS.
     */
    NicSteering steering = NicSteering::Rss;

    /**
     * Runtime policy controller (`controller:` section). Engaged when
     * present; see ControllerConfig for the per-key semantics.
     */
    std::optional<ControllerConfig> controller;

    /** Parse the YAML-subset text; fatal on malformed input. */
    static SafetyConfig parse(const std::string &text);

    /** Serialize back to the config-file format. */
    std::string toText() const;

    /** Find a compartment spec by name (fatal if missing). */
    const CompartmentSpec &compartment(const std::string &name) const;

    /** Index of a compartment by name, or -1 if unknown. */
    int compartmentIndex(const std::string &name) const;

    /** The default compartment's index (fatal if none declared). */
    std::size_t defaultCompartment() const;

    /**
     * Distinct isolation mechanisms declared across compartments, in
     * first-appearance order. A heterogeneous (mixed-mechanism) image
     * has more than one entry; each gets its own backend instance.
     */
    std::vector<Mechanism> mechanisms() const;
};

/**
 * @name Self-describing config surface.
 *
 * The parser dispatches the per-section keys off tables whose rows
 * carry the key name, its value syntax and one line of documentation.
 * configReferenceMarkdown() renders those same tables (plus the
 * enum-name tables behind the *FromName helpers) as
 * docs/config-reference.md, so the generated reference cannot drift
 * from what the parser accepts — CI regenerates it and fails on diff.
 * @{
 */

/** One documented config key, as the parser knows it. */
struct ConfigKeyInfo
{
    const char *section; ///< e.g. "compartments", "boundaries"
    const char *key;     ///< e.g. "mechanism", "rate"
    std::string values;  ///< value syntax, e.g. "light | dss"
    const char *doc;     ///< one-line description
};

/** Every key the parser accepts, section by section. */
const std::vector<ConfigKeyInfo> &configKeyReference();

/** The full generated config reference (docs/config-reference.md). */
std::string configReferenceMarkdown();

/** @} */

} // namespace flexos

#endif // FLEXOS_CORE_CONFIG_HH
