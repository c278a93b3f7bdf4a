/**
 * @file
 * Shared-data escape analysis: FlexOS's Coccinelle-style shared-data
 * discovery (paper 3.1), reimplemented as a lightweight C++ source
 * scanner keyed off the library registry's file lists.
 *
 * For every library placed in a compartment, the scanner walks the
 * library's sources for file-scope (and function-local `static`)
 * mutable data and classifies each datum:
 *
 *  - *constant*: `constexpr`, or a non-pointer `const` — immutable,
 *    no sharing hazard;
 *  - *dss-framed*: annotated `// flexos: dss` — the port materializes
 *    it through a data shadow stack frame;
 *  - *registered-shared*: annotated `// flexos: shared` or listed in
 *    the registry's `sharedData` set — the port deliberately placed
 *    it in the shared domain;
 *  - *escaping*: mutable, unannotated, unregistered — in any
 *    multi-compartment image the datum is reachable across the
 *    boundary without the toolchain knowing (the leakage surface the
 *    audit reports as an error).
 *
 * The scanner also counts cross-boundary pointer-carrying call sites:
 * `gate(...)` / `gateBatch(...)` invocations whose lambda captures by
 * reference (`[&]`), i.e. crossings that hand the callee compartment
 * pointers into the caller's frame.
 */

#ifndef FLEXOS_ANALYSIS_ESCAPE_HH
#define FLEXOS_ANALYSIS_ESCAPE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/callgraph.hh"
#include "analysis/report.hh"
#include "core/config.hh"
#include "core/library.hh"

namespace flexos {
namespace analysis {

/** Classification of one discovered shared datum. */
enum class DatumClass
{
    Constant,
    DssFramed,
    RegisteredShared,
    Escaping,
};

const char *datumClassName(DatumClass c);

/** One file-scope / static datum found in a library's sources. */
struct SharedDatum
{
    std::string name;
    std::string file; ///< repo-relative, as listed in the registry
    std::size_t line = 0;
    DatumClass cls = DatumClass::Escaping;
};

/** The scan result of one library's source files. */
struct EscapeScan
{
    std::vector<SharedDatum> data;
    /** Gate call sites whose lambda captures by reference. */
    int pointerCarryingCalls = 0;
    /** Listed files that could not be read under the source root. */
    std::vector<std::string> missingFiles;
};

/**
 * Scan one library's registered source files under srcRoot. Purely
 * lexical: line-based, comment-aware, brace-scope-tracking — the
 * "lightweight Coccinelle" tradeoff, good enough for the paper-style
 * annotate-and-audit workflow and deliberately dependency-free.
 */
EscapeScan scanLibrarySources(const LibraryInfo &info,
                              const std::string &srcRoot);

/**
 * The escape audit pass over every compartmentalized library of cfg.
 * Findings (only emitted for multi-compartment configurations — in a
 * single protection domain nothing escapes anywhere):
 *
 *  - `escaping-shared-datum` (error) per escaping datum;
 *  - `shared-data-summary` (note) per library with dss-framed or
 *    registered-shared data (k dss-framed, m registered-shared);
 *  - `pointer-carrying-calls` (note) per library with by-reference
 *    gate call sites;
 *  - `missing-source` (note) per unreadable registered file.
 */
void escapePass(const SafetyConfig &cfg, const LibraryRegistry &reg,
                const std::string &srcRoot, AuditReport &report);

} // namespace analysis
} // namespace flexos

#endif // FLEXOS_ANALYSIS_ESCAPE_HH
