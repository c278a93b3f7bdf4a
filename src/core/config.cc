#include "core/config.hh"

#include <array>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace flexos {

namespace {

// ------------------------------------------------------------ enum names

/**
 * One value of a config enum: the canonical name toText() prints, its
 * meaning for the generated reference, and up to two aliases the
 * parser also accepts.
 */
template <typename E>
struct EnumName
{
    E value;
    const char *name;
    const char *doc;
    std::array<const char *, 2> aliases{};
};

const EnumName<Mechanism> mechanismNames[] = {
    {Mechanism::None, "none", "single protection domain (vanilla Unikraft)"},
    {Mechanism::IntelMpk, "intel-mpk",
     "Intel protection keys, intra-address-space (paper 4.1)", {"mpk"}},
    {Mechanism::VmEpt, "vm-ept",
     "one VM per compartment with RPC gates (paper 4.2)", {"ept"}},
    {Mechanism::Cheri, "cheri", "capability backend sketch (paper 4.3)"},
    {Mechanism::LinuxPt, "linux-pt",
     "baseline: page-table isolation via Linux syscalls"},
    {Mechanism::Sel4Ipc, "sel4-ipc", "baseline: seL4/Genode microkernel IPC"},
    {Mechanism::CubicleMpk, "cubicle-mpk",
     "baseline: CubicleOS MPK via pkey_mprotect"},
};

const EnumName<Hardening> hardeningNames[] = {
    {Hardening::StackProtector, "stack-protector",
     "stack canaries (+8% work)", {"stackprotector", "sp"}},
    {Hardening::Ubsan, "ubsan", "undefined-behaviour sanitizer (+32%)"},
    {Hardening::Kasan, "kasan", "kernel address sanitizer (+110%)"},
    {Hardening::Asan, "asan", "userland address sanitizer (+95%)"},
    {Hardening::Cfi, "cfi",
     "forward-edge CFI, gates check entry points (+15%)"},
};

const EnumName<StackSharing> stackSharingNames[] = {
    {StackSharing::Heap, "heap",
     "convert shared stack variables to shared-heap allocations "
     "(costly; Figure 11a)"},
    {StackSharing::Dss, "dss",
     "data shadow stacks: doubled stacks, shadow = &x + STACK_SIZE "
     "(Figure 4)"},
    {StackSharing::SharedStack, "shared-stack",
     "share the whole stack (cheapest, weakest)", {"share"}},
};

const EnumName<RateOverflow> overflowNames[] = {
    {RateOverflow::Stall, "stall",
     "stall the caller until the token bucket refills (back-pressure)"},
    {RateOverflow::Fail, "fail",
     "fail the crossing with a ThrottledCrossing error"},
};

const EnumName<MpkGateFlavor> flavorNames[] = {
    {MpkGateFlavor::Light, "light",
     "shared stack and registers; a raw wrpkru pair (ERIM-like)"},
    {MpkGateFlavor::Dss, "dss",
     "full gate: register save/zero and stack switch (HODOR-like)",
     {"full"}},
};

template <typename E, std::size_t N>
const char *
nameOf(const EnumName<E> (&names)[N], E value)
{
    for (const EnumName<E> &n : names)
        if (n.value == value)
            return n.name;
    return "?";
}

/** Canonical names joined by `sep`, in table order. */
template <typename E, std::size_t N>
std::string
joinNames(const EnumName<E> (&names)[N], const char *sep)
{
    std::string out;
    for (const EnumName<E> &n : names) {
        if (!out.empty())
            out += sep;
        out += n.name;
    }
    return out;
}

/**
 * The value named `name` (canonical or alias, any case, surrounding
 * blanks ignored); fatal naming `what` and the accepted names if none
 * matches. `where` prefixes the message, e.g. "config line 7: ".
 */
template <typename E, std::size_t N>
E
valueOf(const EnumName<E> (&names)[N], const std::string &what,
        const std::string &name, const std::string &where = "")
{
    std::string n = toLower(trim(name));
    for (const EnumName<E> &e : names) {
        if (n == e.name)
            return e.value;
        for (const char *alias : e.aliases)
            if (alias && n == alias)
                return e.value;
    }
    fatal(where, "unknown ", what, " '", name, "' (expected one of: ",
          joinNames(names, ", "), ")");
}

} // namespace

Mechanism
mechanismFromName(const std::string &name)
{
    return valueOf(mechanismNames, "isolation mechanism", name);
}

const char *
mechanismName(Mechanism m)
{
    return nameOf(mechanismNames, m);
}

bool
mechanismConsumesProtKey(Mechanism m)
{
    // Only EPT compartments live behind their VM's second-level page
    // tables instead of a protection key; every other mechanism's
    // memory is key-tagged in the region model.
    return m != Mechanism::VmEpt;
}

bool
mechanismReplicatesTcb(Mechanism m)
{
    return m == Mechanism::VmEpt;
}

const char *
flavorName(MpkGateFlavor f)
{
    return nameOf(flavorNames, f);
}

StackSharing
stackSharingFromName(const std::string &name)
{
    return valueOf(stackSharingNames, "stack_sharing", name);
}

const char *
stackSharingName(StackSharing s)
{
    return nameOf(stackSharingNames, s);
}

Hardening
hardeningFromName(const std::string &name)
{
    return valueOf(hardeningNames, "hardening mechanism", name);
}

const char *
hardeningName(Hardening h)
{
    return nameOf(hardeningNames, h);
}

namespace {

// ----------------------------------------------------------- value types

/** Where a config value was read, for error messages. */
struct ValueSite
{
    int lineNo;
    const char *key;
};

std::string
linePrefix(const ValueSite &at)
{
    return "config line " + std::to_string(at.lineNo) + ": ";
}

/** `true|false|yes|no|1|0` in any case; anything else is fatal. */
bool
parseBool(const std::string &text, const ValueSite &at)
{
    std::string v = toLower(trim(text));
    if (v == "true" || v == "yes" || v == "1")
        return true;
    if (v == "false" || v == "no" || v == "0")
        return false;
    fatal(linePrefix(at), at.key, " must be true or false (or yes/no, "
          "1/0), got '", trim(text), "'");
}

/** A positive integer of at most `maxDigits` digits. */
std::uint64_t
parseCount(const std::string &text, const ValueSite &at,
           std::size_t maxDigits)
{
    std::string v = trim(text);
    bool numeric = !v.empty() && v.size() <= maxDigits;
    for (char ch : v)
        numeric = numeric && ch >= '0' && ch <= '9';
    fatal_if(!numeric, linePrefix(at), at.key,
             " must be a positive integer, got '", text, "'");
    std::uint64_t n = std::stoull(v);
    fatal_if(n < 1, linePrefix(at), at.key, " must be >= 1");
    return n;
}

template <typename E, std::size_t N>
E
parseEnum(const EnumName<E> (&names)[N], const std::string &text,
          const ValueSite &at)
{
    return valueOf(names, at.key, text, linePrefix(at));
}

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

/**
 * A config value type: its syntax in the reference, how the parser
 * reads it and how toText() writes it back.
 */
template <typename T>
struct ValueType
{
    std::string syntax;
    std::function<T(const std::string &text, const ValueSite &at)> parse;
    std::function<std::string(const T &)> print;
};

ValueType<bool>
boolean()
{
    return {"true | false", parseBool,
            [](const bool &b) { return std::string(b ? "true" : "false"); }};
}

/** A count shown as `syntax` (e.g. "<vcycles>") in the reference. */
ValueType<std::uint64_t>
count(const char *syntax, std::size_t maxDigits)
{
    return {syntax,
            [maxDigits](const std::string &text, const ValueSite &at) {
                return parseCount(text, at, maxDigits);
            },
            [](const std::uint64_t &n) { return std::to_string(n); }};
}

/** One of an enum's names; the syntax lists them in table order. */
template <typename E, std::size_t N>
ValueType<E>
oneOf(const EnumName<E> (&names)[N])
{
    return {joinNames(names, " | "),
            [&names](const std::string &text, const ValueSite &at) {
                return parseEnum(names, text, at);
            },
            [&names](const E &e) { return std::string(nameOf(names, e)); }};
}

// ---------------------------------------------------------- section keys

/**
 * One `boundaries:` key, the single place it is declared: its name,
 * value syntax and doc line (the generated reference), and, erased
 * from the typed BoundaryRule optional and GatePolicy field it ties
 * together, what the parser, toText() and GateMatrix::build do with
 * it.
 */
struct BoundaryKey
{
    const char *key;
    std::string values;
    const char *doc;
    std::function<bool(const BoundaryRule &)> isSet;
    std::function<void(BoundaryRule &, const std::string &, const ValueSite &)>
        parse;
    std::function<std::string(const BoundaryRule &)> print;
    /** Write the rule's value into the policy; false if already held. */
    std::function<bool(const BoundaryRule &, GatePolicy &)> apply;
};

template <typename T>
BoundaryKey
boundaryKey(const char *key, std::optional<T> BoundaryRule::*rule,
            T GatePolicy::*policy, const ValueType<T> &type,
            const char *doc)
{
    return {key, type.syntax, doc,
            [rule](const BoundaryRule &r) { return (r.*rule).has_value(); },
            [rule, parse = type.parse](BoundaryRule &r,
                                       const std::string &text,
                                       const ValueSite &at) {
                r.*rule = parse(text, at);
            },
            [rule, print = type.print](const BoundaryRule &r) {
                return print(*(r.*rule));
            },
            [rule, policy](const BoundaryRule &r, GatePolicy &p) {
                bool changes = p.*policy != *(r.*rule);
                p.*policy = *(r.*rule);
                return changes;
            }};
}

/** The keys of one `boundaries:` rule, in toText() order. */
const std::vector<BoundaryKey> &
boundaryKeys()
{
    static const std::vector<BoundaryKey> keys = {
        boundaryKey(
            "gate", &BoundaryRule::flavor, &GatePolicy::flavor,
            oneOf(flavorNames),
            "MPK gate flavour of the edge: ERIM-style wrpkru pair (light) "
            "or the full register-scrubbing, stack-switching gate (dss). "
            "Default: dss."),
        boundaryKey(
            "validate", &BoundaryRule::validate, &GatePolicy::validateEntry,
            boolean(),
            "Force caller-side entry-point validation on every crossing of "
            "the edge, whatever the mechanism's own rule. Default: false."),
        boundaryKey(
            "validate_return", &BoundaryRule::validateReturn,
            &GatePolicy::validateReturn, boolean(),
            "Validate the return site when the crossing comes back — the "
            "return-path mirror of `validate`, charged on the return leg "
            "of the gate (entry and return are modelled per direction). "
            "Default: false."),
        boundaryKey(
            "scrub", &BoundaryRule::scrub, &GatePolicy::scrubReturn,
            boolean(),
            "Scrub the register set on the return path (DSS/EPT/CHERI "
            "gates); `false` waives the return-side save/zero on edges "
            "whose returns re-enter trusted state. Default: true."),
        boundaryKey(
            "deny", &BoundaryRule::deny, &GatePolicy::deny, boolean(),
            "Statically forbid the edge (least-privilege call graph): "
            "edges the static call graph needs are rejected at image "
            "build, dynamic crossings raise DeniedCrossing and bump "
            "`gate.denied`. `deny: false` re-allows an edge denied by a "
            "less specific rule. `deny: true` admits no other key in the "
            "same rule. Default: false."),
        boundaryKey(
            "rate", &BoundaryRule::rate, &GatePolicy::rate,
            count("<crossings>", 12),
            "Token-bucket crossing budget of the edge: at most this many "
            "crossings per `window` virtual cycles (gate-storm "
            "containment). Overflow bumps `gate.throttled` and acts per "
            "`overflow`. Default: unlimited."),
        boundaryKey(
            "window", &BoundaryRule::window, &GatePolicy::rateWindow,
            count("<vcycles>", 12),
            "Refill window of the `rate` token bucket, in virtual cycles. "
            "Default: 1000000."),
        boundaryKey(
            "overflow", &BoundaryRule::overflow, &GatePolicy::overflow,
            oneOf(overflowNames),
            "What a crossing beyond the `rate` budget does: stall the "
            "caller until a token refills (back-pressure) or fail with "
            "ThrottledCrossing. Default: stall."),
        boundaryKey(
            "stack_sharing", &BoundaryRule::stackSharing,
            &GatePolicy::stackSharing, oneOf(stackSharingNames),
            "Shared-stack-variable strategy for frames opened behind this "
            "boundary; overrides the image-wide `stack_sharing:` default "
            "(which desugars to a `'*' -> '*'` rule). Default: dss."),
        boundaryKey(
            "adaptive", &BoundaryRule::adaptive, &GatePolicy::adaptive,
            boolean(),
            "Opt the edge into online adaptation by the runtime policy "
            "controller (`controller:` section): its rate / overflow / "
            "validation knobs and gate flavour may be tightened or relaxed "
            "between quiesced matrix swaps. Edges without the opt-in (and "
            "all `deny:` edges) are never touched at runtime. "
            "Default: false."),
    };
    return keys;
}

std::size_t
boundaryKeyIndex(const std::string &key)
{
    const std::vector<BoundaryKey> &keys = boundaryKeys();
    for (std::size_t k = 0; k < keys.size(); ++k)
        if (key == keys[k].key)
            return k;
    panic("no boundary key '", key, "'");
}

/** One key of a `compartments:` item. */
struct CompartmentKey
{
    const char *key;
    std::string values;
    const char *doc;
    void (*apply)(CompartmentSpec &spec, const std::string &value,
                  const ValueSite &at);
};

const std::vector<CompartmentKey> &
compartmentKeys()
{
    static const std::vector<CompartmentKey> keys = {
        {"mechanism", joinNames(mechanismNames, " | "),
         "Isolation mechanism enforcing this compartment's boundary. "
         "Default: intel-mpk.",
         [](CompartmentSpec &c, const std::string &v, const ValueSite &at) {
             c.mechanism = parseEnum(mechanismNames, v, at);
         }},
        {"default", "true | false",
         "Marks the trusted compartment threads start in; exactly one "
         "compartment must set it.",
         [](CompartmentSpec &c, const std::string &v, const ValueSite &at) {
             c.isDefault = parseBool(v, at);
         }},
        {"hardening", "[" + joinNames(hardeningNames, ", ") + "]",
         "Software hardening instrumented into every component placed in "
         "the compartment. Default: none.",
         [](CompartmentSpec &c, const std::string &v, const ValueSite &at) {
             for (const std::string &h : parseList(v))
                 c.hardening.push_back(parseEnum(hardeningNames, h, at));
         }},
        {"servers", "<threads>",
         "RPC server threads the compartment's VM boots with (vm-ept "
         "only; the pool grows elastically under load up to a cap). "
         "Default: 2.",
         [](CompartmentSpec &c, const std::string &v, const ValueSite &at) {
             c.servers = static_cast<int>(parseCount(v, at, 4));
             c.serversExplicit = true;
         }},
    };
    return keys;
}

/**
 * One key of the `controller:` section. The section's presence enables
 * the runtime policy controller; every key is a count with a default.
 */
struct ControllerKey
{
    const char *key;
    const char *values;
    std::size_t maxDigits;
    std::uint64_t ControllerConfig::*field;
    const char *doc;
};

const ControllerKey controllerKeys[] = {
    {"epoch", "<vcycles>", 12, &ControllerConfig::epoch,
     "Sample window of the controller: per-boundary counter deltas "
     "are evaluated once per this many virtual cycles. Default: "
     "1000000."},
    {"storm_threshold", "<crossings>", 12, &ControllerConfig::stormThreshold,
     "Crossings per epoch on one boundary that count as a gate storm: "
     "adaptive edges exceeding it get a `rate` budget imposed (or "
     "halved), escalating to `overflow: fail` and entry/return "
     "validation while the storm persists. Default: 1000."},
    {"calm_epochs", "<epochs>", 6, &ControllerConfig::calmEpochs,
     "Hysteresis: epochs a tightened boundary must stay below the "
     "storm threshold before the controller relaxes it one step back "
     "toward its configured policy. Default: 3."},
    {"deny_alert", "<witnesses>", 9, &ControllerConfig::denyAlert,
     "DeniedCrossing witnesses on one edge within an epoch that raise "
     "a `controller.alerts` alert and harden the offender's outgoing "
     "adaptive edges to the full DSS gate flavour. `deny:` edges "
     "themselves are never relaxed online. Default: 1."},
};

/**
 * The row of a section's key table named `key`; fatal if there is none
 * or if the current item already set it (`seen` collects its keys).
 */
template <typename Rows>
auto
lookupKey(const Rows &rows, const std::string &key,
          std::set<std::string> &seen, const char *section, int lineNo)
    -> decltype(*std::begin(rows))
{
    for (const auto &row : rows) {
        if (key != row.key)
            continue;
        fatal_if(!seen.insert(key).second, "config line ", lineNo, ": ",
                 section, " key '", key, "' given twice");
        return row;
    }
    std::string expected;
    for (const auto &row : rows)
        expected += (expected.empty() ? "" : ", ") + std::string(row.key);
    fatal("config line ", lineNo, ": unknown ", section, " key '", key,
          "' (expected one of: ", expected, ")");
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

/** Parse a boundary rule: key "from -> to", value "{k: v, ...}". */
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
    std::set<std::string> seen;
    for (const std::string &entry : split(v.substr(1, v.size() - 2), ',')) {
        if (trim(entry).empty())
            continue;
        auto colon = entry.find(':');
        fatal_if(colon == std::string::npos, "config line ", lineNo,
                 ": boundary policy entry '", trim(entry),
                 "' is not 'key: value'");
        std::string k = toLower(trim(entry.substr(0, colon)));
        const BoundaryKey &bk =
            lookupKey(boundaryKeys(), k, seen, "boundary", lineNo);
        bk.parse(rule, trim(entry.substr(colon + 1)), {lineNo, bk.key});
    }

    // `deny: true` forbids the edge outright; combining it with knobs
    // that tune how crossings behave is contradictory, so reject it
    // here rather than silently ignoring the other keys.
    if (rule.deny && *rule.deny)
        for (const BoundaryKey &bk : boundaryKeys())
            fatal_if(bk.isSet(rule) && bk.key != std::string("deny"),
                     "config line ", lineNo, ": boundary rule '",
                     rule.edgeName(), "' sets deny: true alongside ",
                     bk.key, " — a denied edge has no gate to tune");
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
        s += std::string("(") + flavorName(flavor) + ")";
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
        if (overflow == RateOverflow::Fail)
            s += ",fail";
        s += ")";
    }
    if (stackSharing != StackSharing::Dss)
        s += std::string("+stack=") + stackSharingName(stackSharing);
    if (adaptive)
        s += "+adaptive";
    return s;
}

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

    // Layer the rules by specificity: ('*','*') 0, (from,'*') 1,
    // ('*',to) 2, exact 3. Callee-side wildcards are more specific than
    // caller-side ones, mirroring callee-side dispatch. Two rules of
    // EQUAL specificity that disagree on a key for the same cell are a
    // user error — there is no silent precedence, and in particular
    // none among deny, rate and the scalar knobs.
    const std::vector<BoundaryKey> &keys = boundaryKeys();
    static const std::size_t denyKey = boundaryKeyIndex("deny");
    static const std::size_t rateKey = boundaryKeyIndex("rate");
    // Which rule last set key k of a cell, and at what layer:
    // setters[cell * keys.size() + k].
    struct Setter
    {
        int layer = -1;
        int rule = -1;
    };
    std::vector<Setter> setters(m.n * m.n * keys.size());

    for (int layer = 0; layer < 4; ++layer) {
        for (std::size_t ri = 0; ri < cfg.boundaries.size(); ++ri) {
            const BoundaryRule &r = cfg.boundaries[ri];
            if ((r.from != "*" ? 1 : 0) + (r.to != "*" ? 2 : 0) != layer)
                continue;
            int fi = r.from == "*" ? -1 : cfg.compartmentIndex(r.from);
            int ti = r.to == "*" ? -1 : cfg.compartmentIndex(r.to);
            fatal_if(r.from != "*" && fi < 0, "boundary rule names ",
                     "unknown compartment '", r.from, "'");
            fatal_if(r.to != "*" && ti < 0, "boundary rule names ",
                     "unknown compartment '", r.to, "'");
            const int rule = static_cast<int>(ri);
            for (std::size_t f = 0; f < m.n; ++f) {
                if (fi >= 0 && f != static_cast<std::size_t>(fi))
                    continue;
                for (std::size_t t = 0; t < m.n; ++t) {
                    if (ti >= 0 && t != static_cast<std::size_t>(ti))
                        continue;
                    GatePolicy &p = m.cells[f * m.n + t];
                    Setter *st = &setters[(f * m.n + t) * keys.size()];

                    // Key k was set at this layer by another rule.
                    auto contested = [&](std::size_t k) {
                        return st[k].layer == layer && st[k].rule != rule;
                    };
                    auto conflict = [&](std::size_t k, const char *detail) {
                        const BoundaryRule &prev = cfg.boundaries
                            [static_cast<std::size_t>(st[k].rule)];
                        fatal("boundary rules '", prev.edgeName(),
                              "' and '", r.edgeName(), "' conflict on ",
                              detail, " for boundary ",
                              cfg.compartments[f].name, " -> ",
                              cfg.compartments[t].name,
                              " at equal specificity — make one rule "
                              "more specific or reconcile them");
                    };
                    // deny and rate have no precedence order between
                    // them: mixing them at one specificity is an error
                    // (a more specific rule may still override either).
                    if (r.deny && *r.deny && contested(rateKey))
                        conflict(rateKey, "deny vs. rate");
                    if (r.rate && contested(denyKey) && p.deny)
                        conflict(denyKey, "deny vs. rate");

                    for (std::size_t k = 0; k < keys.size(); ++k) {
                        if (!keys[k].isSet(r))
                            continue;
                        if (keys[k].apply(r, p) && contested(k))
                            conflict(k, keys[k].key);
                        st[k] = {layer, rule};
                    }
                }
            }
        }
    }
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
    // Keys already set in the current compartment item / controller.
    std::set<std::string> itemKeys, controllerKeysSeen;

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

        fatal_if(section == Section::None, "config line ", lineNo, ": '",
                 key, "' outside any section");

        // The SMP knob, accepted anywhere a top-level key could appear.
        bool topLevel = !isItem && current == nullptr;
        if (topLevel && key == "cores") {
            cfg.cores = static_cast<unsigned>(
                parseCount(value, {lineNo, "cores"}, 3));
            continue;
        }

        if (section == Section::Compartments) {
            if (isItem) {
                fatal_if(!value.empty(), "config line ", lineNo,
                         ": compartment item takes no inline value");
                cfg.compartments.push_back(CompartmentSpec{});
                current = &cfg.compartments.back();
                current->name = key;
                itemKeys.clear();
            } else if (current) {
                const CompartmentKey &ck = lookupKey(
                    compartmentKeys(), key, itemKeys, "compartment", lineNo);
                ck.apply(*current, value, {lineNo, ck.key});
            } else {
                fatal("config line ", lineNo, ": stray key '", key, "'");
            }
        } else if (section == Section::Boundaries) {
            fatal_if(!isItem, "config line ", lineNo,
                     ": boundaries entries are '- from -> to: {...}', "
                     "got '", line, "'");
            cfg.boundaries.push_back(
                parseBoundaryRule(key, value, lineNo));
        } else if (section == Section::Controller) {
            fatal_if(isItem, "config line ", lineNo,
                     ": controller entries are plain 'key: value'");
            const ControllerKey &ck = lookupKey(
                controllerKeys, key, controllerKeysSeen, "controller", lineNo);
            (*cfg.controller).*ck.field =
                parseCount(value, {lineNo, ck.key}, ck.maxDigits);
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
                        cfg.libHardening[key].push_back(parseEnum(
                            hardeningNames, h, {lineNo, "hardening"}));
                }
                cfg.libraries.emplace_back(key, compName);
            } else if (key == "stack_sharing") {
                // Image-wide default; desugars to a ('*','*') rule so
                // it round-trips through toText() and participates in
                // the matrix's specificity layering (a more specific
                // rule overrides it, a conflicting equal-specificity
                // rule is rejected) like any other boundary policy.
                cfg.stackSharing = parseEnum(stackSharingNames, value,
                                             {lineNo, "stack_sharing"});
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
    if (controller) {
        // All keys are serialized explicitly: section presence alone
        // enables the controller, so a default-valued key costs
        // nothing and the round trip stays field-exact.
        oss << "controller:\n";
        for (const ControllerKey &ck : controllerKeys)
            oss << "  " << ck.key << ": " << (*controller).*ck.field
                << "\n";
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
            const char *sep = "";
            for (const BoundaryKey &bk : boundaryKeys()) {
                if (!bk.isSet(r))
                    continue;
                oss << sep << bk.key << ": " << bk.print(r);
                sep = ", ";
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
        for (const CompartmentKey &ck : compartmentKeys())
            out.push_back({"compartments", ck.key, ck.values, ck.doc});
        out.push_back({"libraries",
                       "- <library>: <compartment> [hardening...]",
                       "",
                       "Places a micro-library in a compartment; the "
                       "optional bracket list adds per-component "
                       "hardening on top of the compartment's."});
        out.push_back({"libraries", "stack_sharing",
                       joinNames(stackSharingNames, " | "),
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
        for (const BoundaryKey &bk : boundaryKeys())
            out.push_back({"boundaries", bk.key, bk.values, bk.doc});
        out.push_back({"controller", "controller:", "",
                       "Enables the runtime policy controller; the "
                       "keys below nest under it, each with a usable "
                       "default. Only boundaries opting in with "
                       "`adaptive: true` are ever adapted, and `deny:` "
                       "edges are never relaxed online."});
        for (const ControllerKey &ck : controllerKeys)
            out.push_back({"controller", ck.key, ck.values, ck.doc});
        out.push_back({"(top level)", "cores", "<count>",
                       "Simulated cores the image boots; each gets its "
                       "own run queue, NIC receive queue and poller. "
                       "`cores: 1` is the exact single-core model. "
                       "Default: 1."});
        return out;
    }();
    return ref;
}

namespace {

/** One "Enum values" table of the reference. */
template <typename E, std::size_t N>
void
enumSection(std::ostream &oss, const char *title,
            const EnumName<E> (&names)[N])
{
    oss << "\n### " << title << "\n\n";
    oss << "| Name | Meaning |\n|------|---------|\n";
    for (const EnumName<E> &n : names)
        oss << "| `" << n.name << "` | " << n.doc << " |\n";
}

} // namespace

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

    std::string section;
    for (const ConfigKeyInfo &k : configKeyReference()) {
        if (section != k.section) {
            section = k.section;
            oss << "\n## `" << section << "`\n\n";
            oss << "| Key | Values | Description |\n";
            oss << "|-----|--------|-------------|\n";
        }
        oss << "| `" << cell(k.key) << "` | "
            << (k.values.empty() ? "" : "`" + cell(k.values) + "`")
            << " | " << cell(k.doc) << " |\n";
    }

    oss << "\n## Enum values\n";
    enumSection(oss, "Mechanisms", mechanismNames);
    enumSection(oss, "Hardening", hardeningNames);
    enumSection(oss, "Stack sharing", stackSharingNames);
    enumSection(oss, "Rate overflow", overflowNames);
    enumSection(oss, "MPK gate flavour", flavorNames);

    oss << "\n## Checking a configuration\n\n";
    oss << "`tools/config_lint` parses and validates embedded configs "
           "and runs the static\ncall-graph pass; `tools/boundary_audit` "
           "adds the shared-data escape and\npolicy-safety audits and "
           "suggests a minimal `deny:` ruleset — see\n"
           "[static-analysis.md](static-analysis.md).\n";
    return oss.str();
}

} // namespace flexos
