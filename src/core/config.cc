#include "core/config.hh"

#include <array>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace flexos {

Mechanism
mechanismFromName(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "none")
        return Mechanism::None;
    if (n == "intel-mpk" || n == "mpk")
        return Mechanism::IntelMpk;
    if (n == "vm-ept" || n == "ept")
        return Mechanism::VmEpt;
    if (n == "cheri")
        return Mechanism::Cheri;
    if (n == "linux-pt")
        return Mechanism::LinuxPt;
    if (n == "sel4-ipc")
        return Mechanism::Sel4Ipc;
    if (n == "cubicle-mpk")
        return Mechanism::CubicleMpk;
    fatal("unknown isolation mechanism '", name, "'");
}

const char *
mechanismName(Mechanism m)
{
    switch (m) {
      case Mechanism::None:
        return "none";
      case Mechanism::IntelMpk:
        return "intel-mpk";
      case Mechanism::VmEpt:
        return "vm-ept";
      case Mechanism::Cheri:
        return "cheri";
      case Mechanism::LinuxPt:
        return "linux-pt";
      case Mechanism::Sel4Ipc:
        return "sel4-ipc";
      case Mechanism::CubicleMpk:
        return "cubicle-mpk";
    }
    return "?";
}

bool
mechanismConsumesProtKey(Mechanism m)
{
    // Only EPT compartments live behind their VM's second-level page
    // tables instead of a protection key; every other mechanism's
    // memory is key-tagged in the region model.
    return m != Mechanism::VmEpt;
}

StackSharing
stackSharingFromName(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "heap")
        return StackSharing::Heap;
    if (n == "dss")
        return StackSharing::Dss;
    if (n == "shared-stack" || n == "share")
        return StackSharing::SharedStack;
    fatal("unknown stack_sharing '", name,
          "' (expected heap, dss or shared-stack)");
}

const char *
stackSharingName(StackSharing s)
{
    switch (s) {
      case StackSharing::Heap:
        return "heap";
      case StackSharing::Dss:
        return "dss";
      case StackSharing::SharedStack:
        return "shared-stack";
    }
    return "?";
}

const char *
rateOverflowName(RateOverflow o)
{
    return o == RateOverflow::Stall ? "stall" : "fail";
}

NicSteering
steeringFromName(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "rss")
        return NicSteering::Rss;
    if (n == "single")
        return NicSteering::Single;
    fatal("unknown steering '", name, "' (expected rss or single)");
}

const char *
steeringName(NicSteering s)
{
    return s == NicSteering::Rss ? "rss" : "single";
}

GateElide
elideFromName(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "none")
        return GateElide::None;
    if (n == "validate")
        return GateElide::Validate;
    if (n == "scrub")
        return GateElide::Scrub;
    if (n == "both")
        return GateElide::Both;
    fatal("unknown elide '", name,
          "' (expected validate, scrub, both or none)");
}

const char *
elideName(GateElide e)
{
    switch (e) {
      case GateElide::None:
        return "none";
      case GateElide::Validate:
        return "validate";
      case GateElide::Scrub:
        return "scrub";
      case GateElide::Both:
        return "both";
    }
    return "?";
}

Hardening
hardeningFromName(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "stack-protector" || n == "stackprotector" || n == "sp")
        return Hardening::StackProtector;
    if (n == "ubsan")
        return Hardening::Ubsan;
    if (n == "kasan")
        return Hardening::Kasan;
    if (n == "asan")
        return Hardening::Asan;
    if (n == "cfi")
        return Hardening::Cfi;
    fatal("unknown hardening mechanism '", name, "'");
}

const char *
hardeningName(Hardening h)
{
    switch (h) {
      case Hardening::StackProtector:
        return "stack-protector";
      case Hardening::Ubsan:
        return "ubsan";
      case Hardening::Kasan:
        return "kasan";
      case Hardening::Asan:
        return "asan";
      case Hardening::Cfi:
        return "cfi";
    }
    return "?";
}

namespace {

/** Parse "[a, b, c]" or "a" into items. */
std::vector<std::string>
parseList(const std::string &value)
{
    std::string v = trim(value);
    std::vector<std::string> out;
    if (!v.empty() && v.front() == '[') {
        fatal_if(v.back() != ']', "unterminated list: ", v);
        for (const std::string &item : split(v.substr(1, v.size() - 2), ','))
            if (!trim(item).empty())
                out.push_back(trim(item));
    } else if (!v.empty()) {
        out.push_back(v);
    }
    return out;
}

bool
parseBool(const std::string &value)
{
    std::string v = toLower(trim(value));
    return v == "true" || v == "yes" || v == "1";
}

MpkGateFlavor
flavorFromName(const std::string &value, int lineNo)
{
    std::string v = toLower(trim(value));
    if (v == "light")
        return MpkGateFlavor::Light;
    if (v == "dss" || v == "full")
        return MpkGateFlavor::Dss;
    fatal("config line ", lineNo, ": unknown gate flavour '", value,
          "' (expected light or dss)");
}

/** Strip surrounding single or double quotes ('*' -> *). */
std::string
stripQuotes(const std::string &s)
{
    std::string v = trim(s);
    if (v.size() >= 2 && ((v.front() == '\'' && v.back() == '\'') ||
                          (v.front() == '"' && v.back() == '"')))
        return trim(v.substr(1, v.size() - 2));
    return v;
}

/** Parse a positive integer config value (rate, window, servers). */
std::uint64_t
parseCount(const std::string &value, int lineNo, const char *key,
           std::size_t maxDigits)
{
    std::string v = trim(value);
    bool numeric = !v.empty() && v.size() <= maxDigits;
    for (char ch : v)
        numeric = numeric && ch >= '0' && ch <= '9';
    fatal_if(!numeric, "config line ", lineNo, ": ", key,
             " must be a positive integer, got '", value, "'");
    std::uint64_t n = std::stoull(v);
    fatal_if(n < 1, "config line ", lineNo, ": ", key, " must be >= 1");
    return n;
}

/**
 * The keys of one `boundaries:` rule — the table the parser dispatches
 * on AND the source of the generated config reference (key name, value
 * syntax and documentation live here, once).
 */
struct BoundaryKey
{
    const char *key;
    const char *values;
    const char *doc;
    void (*apply)(BoundaryRule &rule, const std::string &value,
                  int lineNo);
};

const BoundaryKey boundaryKeyTable[] = {
    {"gate", "light | dss",
     "MPK gate flavour of the edge: ERIM-style wrpkru pair (light) or "
     "the full register-scrubbing, stack-switching gate (dss). "
     "Default: dss.",
     [](BoundaryRule &r, const std::string &v, int lineNo) {
         r.flavor = flavorFromName(v, lineNo);
     }},
    {"validate", "true | false",
     "Force caller-side entry-point validation on every crossing of "
     "the edge, whatever the mechanism's own rule. Default: false.",
     [](BoundaryRule &r, const std::string &v, int) {
         r.validate = parseBool(v);
     }},
    {"validate_return", "true | false",
     "Validate the return site when the crossing comes back — the "
     "return-path mirror of `validate`, charged on the return leg of "
     "the gate (entry and return are modelled per direction). "
     "Default: false.",
     [](BoundaryRule &r, const std::string &v, int) {
         r.validateReturn = parseBool(v);
     }},
    {"scrub", "true | false",
     "Scrub the register set on the return path (DSS/EPT/CHERI "
     "gates); `false` waives the return-side save/zero on edges whose "
     "returns re-enter trusted state. Default: true.",
     [](BoundaryRule &r, const std::string &v, int) {
         r.scrub = parseBool(v);
     }},
    {"deny", "true | false",
     "Statically forbid the edge (least-privilege call graph): edges "
     "the static call graph needs are rejected at image build, "
     "dynamic crossings raise DeniedCrossing and bump `gate.denied`. "
     "`deny: false` re-allows an edge denied by a less specific rule. "
     "`deny: true` admits no other key in the same rule. "
     "Default: false.",
     [](BoundaryRule &r, const std::string &v, int) {
         r.deny = parseBool(v);
     }},
    {"rate", "<crossings>",
     "Token-bucket crossing budget of the edge: at most this many "
     "crossings per `window` virtual cycles (gate-storm containment). "
     "Overflow bumps `gate.throttled` and acts per `overflow`. "
     "Default: unlimited.",
     [](BoundaryRule &r, const std::string &v, int lineNo) {
         r.rate = parseCount(v, lineNo, "rate", 12);
     }},
    {"window", "<vcycles>",
     "Refill window of the `rate` token bucket, in virtual cycles. "
     "Default: 1000000.",
     [](BoundaryRule &r, const std::string &v, int lineNo) {
         r.window = parseCount(v, lineNo, "window", 12);
     }},
    {"weight", "<factor>",
     "QoS weight of the edge's token bucket: the effective budget is "
     "`rate` x `weight`, biasing boundaries that inherit a shared "
     "wildcard `rate:` instead of starving callers FIFO-less. "
     "Throttled crossings also bump `gate.throttled.<from>`. "
     "Default: 1.",
     [](BoundaryRule &r, const std::string &v, int lineNo) {
         r.weight = parseCount(v, lineNo, "weight", 6);
     }},
    {"overflow", "stall | fail",
     "What a crossing beyond the `rate` budget does: stall the caller "
     "until a token refills (back-pressure) or fail with "
     "ThrottledCrossing. Default: stall.",
     [](BoundaryRule &r, const std::string &v, int lineNo) {
         std::string o = toLower(trim(v));
         if (o == "stall")
             r.overflow = RateOverflow::Stall;
         else if (o == "fail")
             r.overflow = RateOverflow::Fail;
         else
             fatal("config line ", lineNo, ": unknown overflow '", v,
                   "' (expected stall or fail)");
     }},
    {"stack_sharing", "heap | dss | shared-stack",
     "Shared-stack-variable strategy for frames opened behind this "
     "boundary; overrides the image-wide `stack_sharing:` default "
     "(which desugars to a `'*' -> '*'` rule). Default: dss.",
     [](BoundaryRule &r, const std::string &v, int) {
         r.stackSharing = stackSharingFromName(v);
     }},
    {"batch", "<calls>",
     "Vectored-crossing width: up to this many queued calls of the "
     "edge are submitted through one gate (one EPT ring doorbell, one "
     "MPK/CHERI entry/return leg), each extra call paying only a "
     "per-slot dispatch cost. Only calls made through "
     "`Image::gateBatch`/`gateDeferred` are batched; plain gates and "
     "the in-lwip RX poller never are. Performance-only — throttle "
     "budgets are still debited per logical call. Default: 1 (no "
     "batching).",
     [](BoundaryRule &r, const std::string &v, int lineNo) {
         r.batch = parseCount(v, lineNo, "batch", 6);
     }},
    {"coalesce", "<vcycles>",
     "Doorbell-coalescing window for EPT edges under back-pressure: a "
     "submission finding the ring non-empty within this many vcycles "
     "of the last doorbell skips the doorbell (the ringing server "
     "drains the slot) and bumps `gate.coalesced`. Default: 0 (ring "
     "every time).",
     [](BoundaryRule &r, const std::string &v, int lineNo) {
         r.coalesce = parseCount(v, lineNo, "coalesce", 12);
     }},
    {"elide", "validate | scrub | both | none",
     "Skip entry-validation and/or return-scrub legs for consecutive "
     "same-boundary calls from the same thread; the streak resets on "
     "any intervening crossing, so the first call of every run pays "
     "the full legs. Strictly less safe than the default. Elided legs "
     "bump `gate.elided.validate` / `gate.elided.scrub`. "
     "Default: none.",
     [](BoundaryRule &r, const std::string &v, int) {
         r.elide = elideFromName(v);
     }},
    {"adaptive", "true | false",
     "Opt the edge into online adaptation by the runtime policy "
     "controller (`controller:` section): its rate / overflow / "
     "validation knobs and gate flavour may be tightened or relaxed "
     "between quiesced matrix swaps. Edges without the opt-in (and "
     "all `deny:` edges) are never touched at runtime. "
     "Default: false.",
     [](BoundaryRule &r, const std::string &v, int) {
         r.adaptive = parseBool(v);
     }},
};

/**
 * The keys of one `compartments:` item — same table-driven scheme as
 * boundaryKeyTable (parser dispatch + generated reference).
 */
struct CompartmentKey
{
    const char *key;
    const char *values;
    const char *doc;
    void (*apply)(CompartmentSpec &spec, const std::string &value,
                  int lineNo);
};

const CompartmentKey compartmentKeyTable[] = {
    {"mechanism",
     "none | intel-mpk | vm-ept | cheri | linux-pt | sel4-ipc | "
     "cubicle-mpk",
     "Isolation mechanism enforcing this compartment's boundary. "
     "Default: intel-mpk.",
     [](CompartmentSpec &c, const std::string &v, int) {
         c.mechanism = mechanismFromName(v);
     }},
    {"default", "true | false",
     "Marks the trusted compartment threads start in; exactly one "
     "compartment must set it.",
     [](CompartmentSpec &c, const std::string &v, int) {
         c.isDefault = parseBool(v);
     }},
    {"hardening", "[stack-protector, ubsan, kasan, asan, cfi]",
     "Software hardening instrumented into every component placed in "
     "the compartment. Default: none.",
     [](CompartmentSpec &c, const std::string &v, int) {
         for (const std::string &h : parseList(v))
             c.hardening.push_back(hardeningFromName(h));
     }},
    {"servers", "<threads>",
     "RPC server threads the compartment's VM boots with (vm-ept "
     "only; the pool grows elastically under load up to a cap). "
     "Default: 2.",
     [](CompartmentSpec &c, const std::string &v, int lineNo) {
         c.servers = static_cast<int>(
             parseCount(v, lineNo, "servers", 4));
         c.serversExplicit = true;
     }},
};

/**
 * The keys of the `controller:` section — same table-driven scheme as
 * boundaryKeyTable (parser dispatch + generated reference). The
 * section's presence enables the runtime policy controller; every key
 * has a default.
 */
struct ControllerKey
{
    const char *key;
    const char *values;
    const char *doc;
    void (*apply)(ControllerConfig &ctl, const std::string &value,
                  int lineNo);
};

const ControllerKey controllerKeyTable[] = {
    {"epoch", "<vcycles>",
     "Sample window of the controller: per-boundary counter deltas "
     "are evaluated once per this many virtual cycles. Default: "
     "1000000.",
     [](ControllerConfig &c, const std::string &v, int lineNo) {
         c.epoch = parseCount(v, lineNo, "epoch", 12);
     }},
    {"storm_threshold", "<crossings>",
     "Crossings per epoch on one boundary that count as a gate storm: "
     "adaptive edges exceeding it get a `rate` budget imposed (or "
     "halved), escalating to `overflow: fail` and entry/return "
     "validation while the storm persists. Default: 1000.",
     [](ControllerConfig &c, const std::string &v, int lineNo) {
         c.stormThreshold = parseCount(v, lineNo, "storm_threshold", 12);
     }},
    {"calm_epochs", "<epochs>",
     "Hysteresis: epochs a tightened boundary must stay below the "
     "storm threshold before the controller relaxes it one step back "
     "toward its configured policy. Default: 3.",
     [](ControllerConfig &c, const std::string &v, int lineNo) {
         c.calmEpochs = parseCount(v, lineNo, "calm_epochs", 6);
     }},
    {"deny_alert", "<witnesses>",
     "DeniedCrossing witnesses on one edge within an epoch that raise "
     "a `controller.alerts` alert and harden the offender's outgoing "
     "adaptive edges to the full DSS gate flavour. `deny:` edges "
     "themselves are never relaxed online. Default: 1.",
     [](ControllerConfig &c, const std::string &v, int lineNo) {
         c.denyAlert = parseCount(v, lineNo, "deny_alert", 9);
     }},
};

/**
 * Parse a boundary rule: key "from -> to", value "{k: v, ...}".
 * Recognized keys: see boundaryKeyTable.
 */
BoundaryRule
parseBoundaryRule(const std::string &key, const std::string &value,
                  int lineNo)
{
    auto arrow = key.find("->");
    fatal_if(arrow == std::string::npos, "config line ", lineNo,
             ": boundary rule must be 'from -> to', got '", key, "'");
    BoundaryRule rule;
    rule.from = stripQuotes(key.substr(0, arrow));
    rule.to = stripQuotes(key.substr(arrow + 2));
    fatal_if(rule.from.empty() || rule.to.empty(), "config line ",
             lineNo, ": boundary rule needs both endpoints");

    std::string v = trim(value);
    fatal_if(v.empty() || v.front() != '{' || v.back() != '}',
             "config line ", lineNo,
             ": boundary policy must be an inline map '{...}'");
    for (const std::string &entry : split(v.substr(1, v.size() - 2), ',')) {
        if (trim(entry).empty())
            continue;
        auto colon = entry.find(':');
        fatal_if(colon == std::string::npos, "config line ", lineNo,
                 ": boundary policy entry '", trim(entry),
                 "' is not 'key: value'");
        std::string k = toLower(trim(entry.substr(0, colon)));
        std::string val = trim(entry.substr(colon + 1));
        bool known = false;
        for (const BoundaryKey &bk : boundaryKeyTable) {
            if (k == bk.key) {
                bk.apply(rule, val, lineNo);
                known = true;
                break;
            }
        }
        if (!known) {
            std::string expected;
            for (const BoundaryKey &bk : boundaryKeyTable) {
                if (!expected.empty())
                    expected += ", ";
                expected += bk.key;
            }
            fatal("config line ", lineNo, ": unknown boundary key '", k,
                  "' (expected one of: ", expected, ")");
        }
    }

    // `deny: true` forbids the edge outright; combining it with knobs
    // that tune how crossings behave is contradictory, so reject it
    // here rather than silently ignoring the other keys.
    bool denied = rule.deny && *rule.deny;
    fatal_if(denied && (rule.flavor || rule.validate ||
                        rule.validateReturn || rule.scrub ||
                        rule.rate || rule.window || rule.weight ||
                        rule.overflow || rule.stackSharing ||
                        rule.batch || rule.coalesce || rule.elide ||
                        rule.adaptive),
             "config line ", lineNo, ": boundary rule '",
             rule.edgeName(),
             "' sets deny: true alongside other keys — a denied edge "
             "has no gate to tune");
    return rule;
}

} // namespace

std::string
GatePolicy::name() const
{
    if (deny)
        return "denied";
    std::string s = mechanismName(mech);
    if (mech == Mechanism::IntelMpk)
        s += flavor == MpkGateFlavor::Light ? "(light)" : "(dss)";
    if (validateEntry)
        s += "+validate";
    if (validateReturn)
        s += "+validate-return";
    if (!scrubReturn)
        s += "-scrub";
    if (rate) {
        s += "+rate(" + std::to_string(rate);
        if (rateWindow != defaultRateWindow)
            s += "/" + std::to_string(rateWindow);
        if (weight != 1)
            s += ",w" + std::to_string(weight);
        if (overflow == RateOverflow::Fail)
            s += ",fail";
        s += ")";
    }
    if (stackSharing != StackSharing::Dss)
        s += std::string("+stack=") + stackSharingName(stackSharing);
    if (batch > 1)
        s += "+batch(" + std::to_string(batch) + ")";
    if (coalesce)
        s += "+coalesce(" + std::to_string(coalesce) + ")";
    if (elide != GateElide::None)
        s += std::string("+elide=") + elideName(elide);
    if (adaptive)
        s += "+adaptive";
    return s;
}

namespace {

/** The per-cell fields a boundary rule can set (conflict tracking). */
enum PolicyField
{
    FieldFlavor,
    FieldValidate,
    FieldValidateReturn,
    FieldScrub,
    FieldDeny,
    FieldRate,
    FieldWindow,
    FieldWeight,
    FieldOverflow,
    FieldStackSharing,
    FieldBatch,
    FieldCoalesce,
    FieldElide,
    FieldAdaptive,
    FieldCount,
};

const char *const policyFieldName[FieldCount] = {
    "gate",   "validate", "validate_return", "scrub",
    "deny",   "rate",     "window",          "weight",
    "overflow", "stack_sharing", "batch",    "coalesce",
    "elide",  "adaptive",
};

/** Which rule last set a field of a cell, and at what layer. */
struct FieldSetter
{
    int layer = -1;
    int rule = -1;
};

} // namespace

GateMatrix
GateMatrix::build(const SafetyConfig &cfg)
{
    GateMatrix m;
    m.n = cfg.compartments.size();
    m.cells.resize(m.n * m.n);

    // Default fallback: the callee compartment's mechanism with the
    // full-strength policy (today's callee-side dispatch rule) and the
    // image-wide shared-stack strategy.
    for (std::size_t f = 0; f < m.n; ++f) {
        for (std::size_t t = 0; t < m.n; ++t) {
            GatePolicy &p = m.cells[f * m.n + t];
            p.mech = cfg.compartments[t].mechanism;
            p.stackSharing = cfg.stackSharing;
        }
    }

    // Layer the rules by specificity. Callee-side wildcards ('*' -> to)
    // are more specific than caller-side ones (from -> '*'), mirroring
    // callee-side dispatch. Two rules of EQUAL specificity that
    // disagree on a field for the same cell are a user error — there
    // is no silent precedence, and in particular none among deny, rate
    // and the scalar knobs.
    std::vector<std::array<FieldSetter, FieldCount>> setters(m.n * m.n);

    auto applyLayer = [&](int layer, auto matches) {
        for (std::size_t ri = 0; ri < cfg.boundaries.size(); ++ri) {
            const BoundaryRule &r = cfg.boundaries[ri];
            if (!matches(r))
                continue;
            int fi = r.from == "*" ? -1 : cfg.compartmentIndex(r.from);
            int ti = r.to == "*" ? -1 : cfg.compartmentIndex(r.to);
            fatal_if(r.from != "*" && fi < 0, "boundary rule names ",
                     "unknown compartment '", r.from, "'");
            fatal_if(r.to != "*" && ti < 0, "boundary rule names ",
                     "unknown compartment '", r.to, "'");
            for (std::size_t f = 0; f < m.n; ++f) {
                if (fi >= 0 && f != static_cast<std::size_t>(fi))
                    continue;
                for (std::size_t t = 0; t < m.n; ++t) {
                    if (ti >= 0 && t != static_cast<std::size_t>(ti))
                        continue;
                    GatePolicy &p = m.cells[f * m.n + t];
                    auto &st = setters[f * m.n + t];

                    auto conflict = [&](PolicyField field,
                                        const char *detail) {
                        const BoundaryRule &prev = cfg.boundaries
                            [static_cast<std::size_t>(st[field].rule)];
                        fatal("boundary rules '", prev.edgeName(),
                              "' and '", r.edgeName(), "' conflict on ",
                              detail, " for boundary ",
                              cfg.compartments[f].name, " -> ",
                              cfg.compartments[t].name,
                              " at equal specificity — make one rule "
                              "more specific or reconcile them");
                    };
                    // A field set twice at the same layer by different
                    // rules must agree; otherwise it is ambiguous.
                    auto apply = [&](PolicyField field, auto &cellField,
                                     const auto &optVal) {
                        if (!optVal)
                            return;
                        if (st[field].layer == layer &&
                            st[field].rule != static_cast<int>(ri) &&
                            cellField != *optVal)
                            conflict(field, policyFieldName[field]);
                        cellField = *optVal;
                        st[field] = {layer, static_cast<int>(ri)};
                    };
                    // deny and rate have no precedence order between
                    // them: mixing them at one specificity is an error
                    // (a more specific rule may still override either).
                    if (r.deny && *r.deny &&
                        st[FieldRate].layer == layer &&
                        st[FieldRate].rule != static_cast<int>(ri))
                        conflict(FieldRate, "deny vs. rate");
                    if (r.rate && st[FieldDeny].layer == layer &&
                        st[FieldDeny].rule != static_cast<int>(ri) &&
                        p.deny)
                        conflict(FieldDeny, "deny vs. rate");

                    apply(FieldFlavor, p.flavor, r.flavor);
                    apply(FieldValidate, p.validateEntry, r.validate);
                    apply(FieldValidateReturn, p.validateReturn,
                          r.validateReturn);
                    apply(FieldScrub, p.scrubReturn, r.scrub);
                    apply(FieldDeny, p.deny, r.deny);
                    apply(FieldRate, p.rate, r.rate);
                    apply(FieldWindow, p.rateWindow, r.window);
                    apply(FieldWeight, p.weight, r.weight);
                    apply(FieldOverflow, p.overflow, r.overflow);
                    apply(FieldStackSharing, p.stackSharing,
                          r.stackSharing);
                    apply(FieldBatch, p.batch, r.batch);
                    apply(FieldCoalesce, p.coalesce, r.coalesce);
                    apply(FieldElide, p.elide, r.elide);
                    apply(FieldAdaptive, p.adaptive, r.adaptive);
                }
            }
        }
    };
    applyLayer(0, [](const BoundaryRule &r) {
        return r.from == "*" && r.to == "*";
    });
    applyLayer(1, [](const BoundaryRule &r) {
        return r.from != "*" && r.to == "*";
    });
    applyLayer(2, [](const BoundaryRule &r) {
        return r.from == "*" && r.to != "*";
    });
    applyLayer(3, [](const BoundaryRule &r) {
        return r.from != "*" && r.to != "*";
    });
    return m;
}

const GatePolicy &
GateMatrix::at(int from, int to) const
{
    panic_if(from < 0 || to < 0 ||
                 static_cast<std::size_t>(from) >= n ||
                 static_cast<std::size_t>(to) >= n,
             "gate-matrix index out of range");
    return cells[static_cast<std::size_t>(from) * n +
                 static_cast<std::size_t>(to)];
}

void
GateMatrix::set(int from, int to, const GatePolicy &p)
{
    panic_if(from < 0 || to < 0 ||
                 static_cast<std::size_t>(from) >= n ||
                 static_cast<std::size_t>(to) >= n,
             "gate-matrix index out of range");
    cells[static_cast<std::size_t>(from) * n +
          static_cast<std::size_t>(to)] = p;
}

SafetyConfig
SafetyConfig::parse(const std::string &text)
{
    SafetyConfig cfg;
    enum class Section
    {
        None,
        Compartments,
        Libraries,
        Boundaries,
        Controller,
    } section = Section::None;
    CompartmentSpec *current = nullptr;

    int lineNo = 0;
    for (const std::string &rawLine : split(text, '\n')) {
        ++lineNo;
        std::string noComment = rawLine.substr(0, rawLine.find('#'));
        std::string line = trim(noComment);
        if (line.empty())
            continue;

        if (line == "compartments:") {
            section = Section::Compartments;
            current = nullptr;
            continue;
        }
        if (line == "libraries:") {
            section = Section::Libraries;
            current = nullptr;
            continue;
        }
        if (line == "boundaries:") {
            section = Section::Boundaries;
            current = nullptr;
            continue;
        }
        if (line == "controller:") {
            // Presence enables the controller, defaults and all.
            section = Section::Controller;
            current = nullptr;
            if (!cfg.controller)
                cfg.controller = ControllerConfig{};
            continue;
        }

        // Top-level scalar options.
        auto colon = line.find(':');
        fatal_if(colon == std::string::npos, "config line ", lineNo,
                 ": expected 'key: value', got '", line, "'");
        bool isItem = line.front() == '-';
        std::string key =
            trim(isItem ? line.substr(1, colon - 1)
                        : line.substr(0, colon));
        std::string value = trim(line.substr(colon + 1));

        if (section == Section::None || (!isItem && current == nullptr &&
                                         section == Section::None)) {
            fatal("config line ", lineNo, ": '", key,
                  "' outside any section");
        }

        // Legacy global knob, accepted anywhere a top-level key could
        // appear: desugars to a ('*','*') flavour rule so old configs
        // keep parsing while the matrix is the only policy source.
        if (!isItem && current == nullptr && key == "mpk_gate") {
            BoundaryRule rule;
            rule.from = "*";
            rule.to = "*";
            rule.flavor = flavorFromName(value, lineNo);
            cfg.boundaries.push_back(std::move(rule));
            continue;
        }

        // SMP knobs, accepted in the same top-level positions.
        if (!isItem && current == nullptr && key == "cores") {
            cfg.cores = static_cast<unsigned>(
                parseCount(value, lineNo, "cores", 3));
            continue;
        }
        if (!isItem && current == nullptr && key == "steering") {
            cfg.steering = steeringFromName(value);
            continue;
        }

        if (section == Section::Compartments) {
            if (isItem) {
                fatal_if(!value.empty(), "config line ", lineNo,
                         ": compartment item takes no inline value");
                cfg.compartments.push_back(CompartmentSpec{});
                current = &cfg.compartments.back();
                current->name = key;
            } else if (current) {
                bool known = false;
                for (const CompartmentKey &ck : compartmentKeyTable) {
                    if (key == ck.key) {
                        ck.apply(*current, value, lineNo);
                        known = true;
                        break;
                    }
                }
                fatal_if(!known, "config line ", lineNo,
                         ": unknown compartment key '", key, "'");
            } else {
                fatal("config line ", lineNo, ": stray key '", key, "'");
            }
        } else if (section == Section::Boundaries) {
            fatal_if(!isItem, "config line ", lineNo,
                     ": boundaries entries are '- from -> to: {...}'");
            cfg.boundaries.push_back(
                parseBoundaryRule(key, value, lineNo));
        } else if (section == Section::Controller) {
            fatal_if(isItem, "config line ", lineNo,
                     ": controller entries are plain 'key: value'");
            bool known = false;
            for (const ControllerKey &ck : controllerKeyTable) {
                if (key == ck.key) {
                    ck.apply(*cfg.controller, value, lineNo);
                    known = true;
                    break;
                }
            }
            fatal_if(!known, "config line ", lineNo,
                     ": unknown controller key '", key, "'");
        } else if (section == Section::Libraries) {
            if (isItem) {
                fatal_if(value.empty(), "config line ", lineNo,
                         ": library item needs a compartment");
                // Value: "compName" or "compName [harden1, harden2]".
                std::string compName = value;
                auto bracket = value.find('[');
                if (bracket != std::string::npos) {
                    compName = trim(value.substr(0, bracket));
                    for (const std::string &h :
                         parseList(value.substr(bracket)))
                        cfg.libHardening[key].push_back(
                            hardeningFromName(h));
                }
                cfg.libraries.emplace_back(key, compName);
            } else if (key == "stack_sharing") {
                // Image-wide default; desugars to a ('*','*') rule so
                // it round-trips through toText() and participates in
                // the matrix's specificity layering (a more specific
                // rule overrides it, a conflicting equal-specificity
                // rule is rejected) like any other boundary policy.
                cfg.stackSharing = stackSharingFromName(value);
                BoundaryRule rule;
                rule.from = "*";
                rule.to = "*";
                rule.stackSharing = cfg.stackSharing;
                cfg.boundaries.push_back(std::move(rule));
            } else {
                fatal("config line ", lineNo, ": stray key '", key, "'");
            }
        }
    }

    fatal_if(cfg.compartments.empty(), "config declares no compartments");
    return cfg;
}

std::string
SafetyConfig::toText() const
{
    std::ostringstream oss;
    oss << "compartments:\n";
    for (const CompartmentSpec &c : compartments) {
        oss << "- " << c.name << ":\n";
        oss << "    mechanism: " << mechanismName(c.mechanism) << "\n";
        if (c.isDefault)
            oss << "    default: True\n";
        if (c.serversExplicit || c.servers != defaultEptServers)
            oss << "    servers: " << c.servers << "\n";
        if (!c.hardening.empty()) {
            oss << "    hardening: [";
            for (std::size_t i = 0; i < c.hardening.size(); ++i) {
                if (i)
                    oss << ", ";
                oss << hardeningName(c.hardening[i]);
            }
            oss << "]\n";
        }
    }
    oss << "libraries:\n";
    for (const auto &[lib, comp] : libraries) {
        oss << "- " << lib << ": " << comp;
        auto it = libHardening.find(lib);
        if (it != libHardening.end() && !it->second.empty()) {
            oss << " [";
            for (std::size_t i = 0; i < it->second.size(); ++i) {
                if (i)
                    oss << ", ";
                oss << hardeningName(it->second[i]);
            }
            oss << "]";
        }
        oss << "\n";
    }
    // A non-default image-wide strategy set programmatically (no
    // desugared rule carries it) must survive the round trip too —
    // omitting it used to silently reset reparsed configs to DSS.
    bool sharingInRules = false;
    for (const BoundaryRule &r : boundaries)
        if (r.from == "*" && r.to == "*" && r.stackSharing)
            sharingInRules = true;
    if (stackSharing != StackSharing::Dss && !sharingInRules)
        oss << "stack_sharing: " << stackSharingName(stackSharing)
            << "\n";
    if (cores != 1)
        oss << "cores: " << cores << "\n";
    if (steering != NicSteering::Rss)
        oss << "steering: " << steeringName(steering) << "\n";
    if (controller) {
        // All keys are serialized explicitly: section presence alone
        // enables the controller, so a default-valued key costs
        // nothing and the round trip stays field-exact.
        oss << "controller:\n";
        oss << "  epoch: " << controller->epoch << "\n";
        oss << "  storm_threshold: " << controller->stormThreshold
            << "\n";
        oss << "  calm_epochs: " << controller->calmEpochs << "\n";
        oss << "  deny_alert: " << controller->denyAlert << "\n";
    }
    if (!boundaries.empty()) {
        auto quoted = [](const std::string &s) {
            return s == "*" ? std::string("'*'") : s;
        };
        oss << "boundaries:\n";
        // Serialize every explicit rule, including ones whose policy
        // equals the resolved default: dropping "redundant" rules
        // would lose author intent (and the redundancy can become
        // load-bearing when surrounding rules change).
        for (const BoundaryRule &r : boundaries) {
            oss << "- " << quoted(r.from) << " -> " << quoted(r.to)
                << ": {";
            bool first = true;
            auto sep = [&] {
                if (!first)
                    oss << ", ";
                first = false;
            };
            if (r.flavor) {
                sep();
                oss << "gate: "
                    << (*r.flavor == MpkGateFlavor::Light ? "light"
                                                          : "dss");
            }
            if (r.validate) {
                sep();
                oss << "validate: " << (*r.validate ? "true" : "false");
            }
            if (r.validateReturn) {
                sep();
                oss << "validate_return: "
                    << (*r.validateReturn ? "true" : "false");
            }
            if (r.scrub) {
                sep();
                oss << "scrub: " << (*r.scrub ? "true" : "false");
            }
            if (r.deny) {
                sep();
                oss << "deny: " << (*r.deny ? "true" : "false");
            }
            if (r.rate) {
                sep();
                oss << "rate: " << *r.rate;
            }
            if (r.window) {
                sep();
                oss << "window: " << *r.window;
            }
            if (r.weight) {
                sep();
                oss << "weight: " << *r.weight;
            }
            if (r.overflow) {
                sep();
                oss << "overflow: " << rateOverflowName(*r.overflow);
            }
            if (r.stackSharing) {
                sep();
                oss << "stack_sharing: "
                    << stackSharingName(*r.stackSharing);
            }
            if (r.batch) {
                sep();
                oss << "batch: " << *r.batch;
            }
            if (r.coalesce) {
                sep();
                oss << "coalesce: " << *r.coalesce;
            }
            if (r.elide) {
                sep();
                oss << "elide: " << elideName(*r.elide);
            }
            if (r.adaptive) {
                sep();
                oss << "adaptive: " << (*r.adaptive ? "true" : "false");
            }
            oss << "}\n";
        }
    }
    return oss.str();
}

const CompartmentSpec &
SafetyConfig::compartment(const std::string &name) const
{
    for (const CompartmentSpec &c : compartments)
        if (c.name == name)
            return c;
    fatal("unknown compartment '", name, "'");
}

int
SafetyConfig::compartmentIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < compartments.size(); ++i)
        if (compartments[i].name == name)
            return static_cast<int>(i);
    return -1;
}

std::vector<Mechanism>
SafetyConfig::mechanisms() const
{
    std::vector<Mechanism> out;
    for (const CompartmentSpec &c : compartments) {
        bool seen = false;
        for (Mechanism m : out)
            if (m == c.mechanism)
                seen = true;
        if (!seen)
            out.push_back(c.mechanism);
    }
    return out;
}

std::size_t
SafetyConfig::defaultCompartment() const
{
    for (std::size_t i = 0; i < compartments.size(); ++i)
        if (compartments[i].isDefault)
            return i;
    fatal("no default compartment declared");
}

const std::vector<ConfigKeyInfo> &
configKeyReference()
{
    static const std::vector<ConfigKeyInfo> ref = [] {
        std::vector<ConfigKeyInfo> out;
        out.push_back({"compartments", "- <name>:", "",
                       "Declares one compartment; the keys below nest "
                       "under it."});
        for (const CompartmentKey &ck : compartmentKeyTable)
            out.push_back(
                {"compartments", ck.key, ck.values, ck.doc});
        out.push_back({"libraries",
                       "- <library>: <compartment> [hardening...]",
                       "",
                       "Places a micro-library in a compartment; the "
                       "optional bracket list adds per-component "
                       "hardening on top of the compartment's."});
        out.push_back({"libraries", "stack_sharing",
                       "heap | dss | shared-stack",
                       "Image-wide default shared-stack strategy; "
                       "desugars to a `'*' -> '*'` boundary rule. "
                       "Default: dss."});
        out.push_back({"boundaries", "- <from> -> <to>: {key: value, "
                                     "...}",
                       "",
                       "Overrides the gate policy of one (from, to) "
                       "boundary; `'*'` wildcards layer by "
                       "specificity (exact > callee-side > "
                       "caller-side > global). Equal-specificity "
                       "conflicts are rejected."});
        for (const BoundaryKey &bk : boundaryKeyTable)
            out.push_back({"boundaries", bk.key, bk.values, bk.doc});
        out.push_back({"controller", "controller:", "",
                       "Enables the runtime policy controller; the "
                       "keys below nest under it, each with a usable "
                       "default. Only boundaries opting in with "
                       "`adaptive: true` are ever adapted, and `deny:` "
                       "edges are never relaxed online."});
        for (const ControllerKey &ck : controllerKeyTable)
            out.push_back({"controller", ck.key, ck.values, ck.doc});
        out.push_back({"(top level)", "mpk_gate", "light | dss",
                       "Legacy global MPK flavour knob; desugars to a "
                       "`'*' -> '*': {gate: ...}` rule. Prefer "
                       "`boundaries:`."});
        out.push_back({"(top level)", "cores", "<count>",
                       "Simulated cores the image boots; each gets its "
                       "own run queue, NIC receive queue and poller. "
                       "`cores: 1` is the exact single-core model. "
                       "Default: 1."});
        out.push_back({"(top level)", "steering", "rss | single",
                       "Flow steering across cores: hash each "
                       "connection's 4-tuple to a per-core queue (rss) "
                       "or funnel everything through queue 0 (single). "
                       "Only meaningful when cores > 1. Default: "
                       "rss."});
        return out;
    }();
    return ref;
}

std::string
configReferenceMarkdown()
{
    std::ostringstream oss;
    oss << "# Safety-configuration reference\n\n";
    oss << "<!-- GENERATED FILE — do not edit. Produced by "
           "`tools/config_doc` from the\n     key tables the parser in "
           "src/core/config.cc dispatches on; regenerate with\n     "
           "`./build/config_doc > docs/config-reference.md`. CI fails "
           "if this file is\n     stale. -->\n\n";
    oss << "The safety configuration is the YAML subset of the paper "
           "(section 3.0):\na `compartments:` section, a `libraries:` "
           "section, and optional\n`boundaries:` and `controller:` "
           "sections, parsed by `SafetyConfig::parse`\nand serialized "
           "back by `SafetyConfig::toText`.\n";

    // '|' inside a table cell must be escaped or it splits the cell.
    auto cell = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            if (c == '|')
                out += "\\|";
            else
                out += c;
        }
        return out;
    };

    const char *section = "";
    for (const ConfigKeyInfo &k : configKeyReference()) {
        if (section != std::string(k.section)) {
            section = k.section;
            oss << "\n## `" << section << "`\n\n";
            oss << "| Key | Values | Description |\n";
            oss << "|-----|--------|-------------|\n";
        }
        oss << "| `" << cell(k.key) << "` | "
            << (k.values[0] ? "`" + cell(k.values) + "`" : "") << " | "
            << cell(k.doc) << " |\n";
    }

    oss << "\n## Enum values\n\n";
    oss << "### Mechanisms\n\n";
    oss << "| Name | Meaning |\n|------|---------|\n";
    struct
    {
        Mechanism m;
        const char *doc;
    } mechs[] = {
        {Mechanism::None, "single protection domain (vanilla Unikraft)"},
        {Mechanism::IntelMpk,
         "Intel protection keys, intra-address-space (paper 4.1)"},
        {Mechanism::VmEpt,
         "one VM per compartment with RPC gates (paper 4.2)"},
        {Mechanism::Cheri, "capability backend sketch (paper 4.3)"},
        {Mechanism::LinuxPt,
         "baseline: page-table isolation via Linux syscalls"},
        {Mechanism::Sel4Ipc, "baseline: seL4/Genode microkernel IPC"},
        {Mechanism::CubicleMpk,
         "baseline: CubicleOS MPK via pkey_mprotect"},
    };
    for (const auto &e : mechs)
        oss << "| `" << mechanismName(e.m) << "` | " << e.doc << " |\n";

    oss << "\n### Hardening\n\n";
    oss << "| Name | Meaning |\n|------|---------|\n";
    struct
    {
        Hardening h;
        const char *doc;
    } hards[] = {
        {Hardening::StackProtector, "stack canaries (+8% work)"},
        {Hardening::Ubsan, "undefined-behaviour sanitizer (+32%)"},
        {Hardening::Kasan, "kernel address sanitizer (+110%)"},
        {Hardening::Asan, "userland address sanitizer (+95%)"},
        {Hardening::Cfi, "forward-edge CFI, gates check entry points "
                         "(+15%)"},
    };
    for (const auto &e : hards)
        oss << "| `" << hardeningName(e.h) << "` | " << e.doc << " |\n";

    oss << "\n### Stack sharing\n\n";
    oss << "| Name | Meaning |\n|------|---------|\n";
    struct
    {
        StackSharing s;
        const char *doc;
    } shares[] = {
        {StackSharing::Heap,
         "convert shared stack variables to shared-heap allocations "
         "(costly; Figure 11a)"},
        {StackSharing::Dss,
         "data shadow stacks: doubled stacks, shadow = &x + "
         "STACK_SIZE (Figure 4)"},
        {StackSharing::SharedStack,
         "share the whole stack (cheapest, weakest)"},
    };
    for (const auto &e : shares)
        oss << "| `" << stackSharingName(e.s) << "` | " << e.doc
            << " |\n";

    oss << "\n### Rate overflow\n\n";
    oss << "| Name | Meaning |\n|------|---------|\n";
    oss << "| `" << rateOverflowName(RateOverflow::Stall)
        << "` | stall the caller until the token bucket refills "
           "(back-pressure) |\n";
    oss << "| `" << rateOverflowName(RateOverflow::Fail)
        << "` | fail the crossing with a ThrottledCrossing error |\n";

    oss << "\n### Gate elision\n\n";
    oss << "| Name | Meaning |\n|------|---------|\n";
    struct
    {
        GateElide e;
        const char *doc;
    } elides[] = {
        {GateElide::None, "never skip a leg (full-strength policy)"},
        {GateElide::Validate,
         "skip the entry-validation charge on same-boundary streaks"},
        {GateElide::Scrub,
         "skip the return-path register scrub on same-boundary "
         "streaks"},
        {GateElide::Both, "skip both legs on same-boundary streaks"},
    };
    for (const auto &e : elides)
        oss << "| `" << elideName(e.e) << "` | " << e.doc << " |\n";

    oss << "\n## Checking a configuration\n\n";
    oss << "`tools/config_lint` parses and validates embedded configs "
           "and runs the static\ncall-graph pass; `tools/boundary_audit` "
           "adds the shared-data escape and\npolicy-safety audits and "
           "suggests a minimal `deny:` ruleset — see\n"
           "[static-analysis.md](static-analysis.md).\n";
    return oss.str();
}

} // namespace flexos
