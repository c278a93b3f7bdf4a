/**
 * @file
 * The micro-library registry: FlexOS' view of the system's components.
 *
 * Each Unikraft-style micro-library registers its name, legal entry
 * points (the gate targets the toolchain knows from the control-flow
 * graph, paper 3.1), its static call-graph edges, and its porting
 * metadata (patch size and shared-variable count — Table 1).
 */

#ifndef FLEXOS_CORE_LIBRARY_HH
#define FLEXOS_CORE_LIBRARY_HH

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace flexos {

struct SafetyConfig;

/**
 * Static description of one micro-library.
 */
struct LibraryInfo
{
    std::string name;

    /**
     * Part of the trusted computing base (paper 3.3): boot code, memory
     * manager, scheduler, interrupt context-switch primitives, backend.
     * TCB libraries live in the trusted compartment (and are replicated
     * into every VM under the EPT backend).
     */
    bool tcb = false;

    /**
     * Legal cross-compartment entry points (gate/CFI targets);
     * transparent, so gates look a name up without building a string.
     */
    std::set<std::string, std::less<>> entryPoints;

    /** Libraries this one calls (static call-graph edges). */
    std::set<std::string> callees;

    /**
     * Repo-relative C++ sources implementing the library — the file
     * list the shared-data escape scanner (flexos::analysis) walks,
     * playing the role of the Coccinelle input set in paper 3.1.
     */
    std::vector<std::string> files{};

    /**
     * Whether the library consumes external (network) input. The
     * compartment holding a net-facing library is the attacker-facing
     * root the boundary auditor computes reachability from.
     */
    bool netFacing = false;

    /**
     * Registered shared variables: globals the port explicitly
     * declared shared (the counted shared vars of Table 1). The
     * escape scanner classifies these as registered-shared; mutable
     * globals that are neither registered nor DSS-annotated escape.
     */
    std::set<std::string> sharedData{};

    /** @name Porting metadata (Table 1). @{ */
    int sharedVars = 0;
    int patchAdded = 0;
    int patchRemoved = 0;
    /** @} */
};

/**
 * Registry of every library available to the toolchain.
 */
class LibraryRegistry
{
  public:
    /** Register a library. Duplicate names are a fatal user error. */
    void add(LibraryInfo info);

    /** Look up a library; fatal if unknown. */
    const LibraryInfo &get(std::string_view name) const;

    bool contains(const std::string &name) const;

    /** All names, registration order. */
    const std::vector<std::string> &names() const { return order; }

    /** Whether fn is a legal entry point of lib (fatal if lib unknown). */
    bool isEntryPoint(std::string_view lib, std::string_view fn) const;

    /**
     * The standard FlexOS registry: the kernel micro-libraries this
     * repository implements plus the ported applications, with entry
     * points, call edges and the porting metadata from the paper's
     * Table 1.
     */
    static LibraryRegistry standard();

  private:
    std::map<std::string, LibraryInfo, std::less<>> libs;
    std::vector<std::string> order;
};

/**
 * The compartment a call from compartment `from` into library `callee`
 * lands in: the callee's home compartment, except that a TCB library
 * runs locally when the caller's mechanism replicates the TCB (EPT)
 * and everywhere when it is placed nowhere. -1 when the callee is not
 * in the image (unplaced and not a registered TCB library). The one
 * placement rule: the image's routing table, the toolchain's gate
 * instantiation and the boundary auditor all resolve through it.
 */
int landingCompartment(const SafetyConfig &cfg,
                       const LibraryRegistry &reg,
                       const std::string &callee, int from);

/** One edge of a configured image's static call graph. */
struct StaticCall
{
    std::string lib;    ///< calling library
    std::string callee; ///< called library
    int from = -1;      ///< the caller's home compartment
    int to = -1;        ///< where the call lands (landingCompartment)
};

/**
 * The static call graph of a config: one row per registry dependency
 * of every placed library, in `cfg.libraries` order with callees in
 * set order, each placed by landingCompartment(). A row with
 * `to == from` is a direct call. Callees not in the image, and
 * libraries the registry or the config's compartments do not know,
 * are left out. The one walk of the call graph: the toolchain's gate
 * instantiation, the boundary auditor, the explorer's required edges
 * and the adversary's adjacency all read it.
 */
std::vector<StaticCall> staticCalls(const SafetyConfig &cfg,
                                    const LibraryRegistry &reg);

} // namespace flexos

#endif // FLEXOS_CORE_LIBRARY_HH
