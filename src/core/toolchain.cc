#include "core/toolchain.hh"

#include <set>
#include <sstream>

#include "base/logging.hh"

namespace flexos {

void
Toolchain::validate(const SafetyConfig &cfg) const
{
    fatal_if(cfg.compartments.empty(), "no compartments declared");

    // Exactly one default compartment.
    int defaults = 0;
    std::set<std::string> compNames;
    for (const CompartmentSpec &c : cfg.compartments) {
        defaults += c.isDefault ? 1 : 0;
        fatal_if(!compNames.insert(c.name).second,
                 "duplicate compartment '", c.name, "'");
    }
    fatal_if(defaults == 0, "no default compartment declared");
    fatal_if(defaults > 1, "multiple default compartments declared");

    // MPK key budget: 15 compartments + 1 shared key (paper 4.1).
    // Only key-consuming compartments count against the budget; with
    // key virtualization, EPT compartments are VM-private (unmapped
    // outside their VM) and take no key at all, so a mixed image may
    // exceed 15 compartments as long as at most 15 of them are keyed.
    std::size_t mpkComps = 0, keyedComps = 0;
    bool allReplicateTcb = true;
    for (const CompartmentSpec &c : cfg.compartments) {
        allReplicateTcb =
            allReplicateTcb && mechanismReplicatesTcb(c.mechanism);
        if (c.mechanism == Mechanism::IntelMpk ||
            c.mechanism == Mechanism::CubicleMpk)
            ++mpkComps;
        if (mechanismConsumesProtKey(c.mechanism))
            ++keyedComps;
        fatal_if(c.serversExplicit && c.mechanism != Mechanism::VmEpt,
                 "compartment '", c.name, "' sets servers: ", c.servers,
                 " but only vm-ept compartments boot an RPC pool");
    }
    fatal_if(mpkComps > numProtKeys - 1, "MPK supports at most ",
             numProtKeys - 1, " compartments");
    fatal_if(keyedComps > numProtKeys - 1,
             "the key-tagged region model supports at most ",
             numProtKeys - 1,
             " key-consuming compartments per image (one key is "
             "reserved for the shared domain; EPT compartments are "
             "VM-private and keyless)");

    // Resolving the matrix validates the boundary rules: it fatals on
    // rules naming unknown compartments.
    (void)GateMatrix::build(cfg);

    // Library assignments.
    std::set<std::string> assigned;
    std::string defaultName;
    for (const CompartmentSpec &c : cfg.compartments)
        if (c.isDefault)
            defaultName = c.name;

    for (const auto &[lib, compName] : cfg.libraries) {
        fatal_if(!reg.contains(lib), "unknown library '", lib, "'");
        fatal_if(!compNames.count(compName), "library '", lib,
                 "' assigned to unknown compartment '", compName, "'");
        fatal_if(!assigned.insert(lib).second, "library '", lib,
                 "' assigned twice");

        // TCB components stay in the trusted compartment unless every
        // mechanism in the image replicates the kernel into its
        // compartments (4.2): callers under any non-replicating
        // mechanism cross into the TCB library's home compartment, so
        // that home must be the trusted one.
        if (reg.get(lib).tcb && !allReplicateTcb) {
            fatal_if(compName != defaultName, "TCB library '", lib,
                     "' must live in the default (trusted) compartment "
                     "when a non-replicating mechanism is present");
        }
    }

    for (const auto &[lib, hardenings] : cfg.libHardening) {
        fatal_if(!assigned.count(lib), "hardening listed for '", lib,
                 "' which is not part of the image");
        (void)hardenings;
    }
}

std::unique_ptr<Image>
Toolchain::build(Machine &m, Scheduler &s, const SafetyConfig &cfg)
{
    validate(cfg);

    auto img = std::make_unique<Image>(m, s, cfg, reg);

    BuildReport rep;

    // --- Gate instantiation (Figure 3, step 3/3') --------------------
    // Walk the static call graph; every edge whose call lands in
    // another compartment gets a backend gate, every other edge stays
    // a function call. Least privilege is checked here for everything
    // the build can see: a `deny:` rule on an edge the static call
    // graph needs is a configuration contradiction, not a runtime
    // surprise.
    for (const auto &[lib, compName] : cfg.libraries) {
        int from = img->compartmentIndexOf(lib);
        for (const std::string &callee : reg.get(lib).callees) {
            int to = img->landingOf(callee, from);
            if (to < 0)
                continue; // not in the image
            std::ostringstream line;
            line << lib << ": flexos_gate(" << callee << ", ...) -> ";
            if (to == from) {
                line << "direct call (same compartment)";
                rep.transformations.push_back(line.str());
                continue;
            }
            const std::string &fromName =
                cfg.compartments[static_cast<std::size_t>(from)].name;
            const std::string &toName =
                cfg.compartments[static_cast<std::size_t>(to)].name;
            // Name the boundary's resolved policy, not just the
            // mechanism: flavour/validate/scrub overrides show up in
            // the transformation record.
            const GatePolicy &pol = img->policyFor(from, to);
            fatal_if(pol.deny, "boundary ", fromName, " -> ", toName,
                     " is denied but the static call graph needs it: ",
                     lib, " calls ", callee,
                     " (re-allow the edge with 'deny: false' or move "
                     "the libraries)");
            line << pol.name() << " gate [" << fromName << " -> " << toName
                 << "]";
            rep.transformations.push_back(line.str());
            ++rep.gatesInserted;
        }
    }

    // --- Shared-data annotation instantiation ------------------------
    // Stack sharing is a per-boundary policy: report the strategy the
    // matrix resolves for each library's home compartment (wildcard
    // rules and the global default all land in the (c, c) cell).
    for (const auto &[lib, compName] : cfg.libraries) {
        const LibraryInfo &info = reg.get(lib);
        if (info.sharedVars == 0)
            continue;
        int comp = img->compartmentIndexOf(lib);
        std::ostringstream line;
        line << lib << ": " << info.sharedVars
             << " __shared annotations -> "
             << stackSharingName(img->stackSharingFor(comp));
        rep.transformations.push_back(line.str());
        rep.annotationsReplaced += info.sharedVars;
    }

    img->boot();
    rep.backendName = img->backendNames();
    rep.linkerScript = img->linkerScript();
    lastReport = std::move(rep);
    return img;
}

} // namespace flexos
