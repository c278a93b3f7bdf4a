/**
 * @file
 * Boundary-audit findings: the common currency of the static analyses
 * in flexos::analysis (call-graph, shared-data escape, policy-safety
 * passes). A finding names the pass and a stable kebab-case code, the
 * severity, the boundary / library / datum it is anchored to, and a
 * human-readable message. The report renders to text (the CLI and
 * golden-diff format) and to JSON (the CLI's `--json` output).
 */

#ifndef FLEXOS_ANALYSIS_REPORT_HH
#define FLEXOS_ANALYSIS_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flexos {
namespace analysis {

/**
 * Finding severity. `Error` findings are hard hazards (the image
 * build will reject the config, or data demonstrably escapes a
 * boundary); `Warning` findings are attack-surface weaknesses on
 * reachable boundaries; `Note` findings are informational (unused
 * static edges, per-library scan summaries).
 */
enum class Severity
{
    Note,
    Warning,
    Error,
};

const char *severityName(Severity s);

/** One finding of one pass over one configuration. */
struct Finding
{
    /** Producing pass: "callgraph", "escape" or "policy". */
    std::string pass;
    /** Stable kebab-case finding code, e.g. "escaping-shared-datum". */
    std::string code;
    Severity severity = Severity::Note;
    /** Human-readable one-line description. */
    std::string message;

    /** @name Anchors (empty/0 when not applicable). @{ */
    std::string from; ///< caller compartment of the boundary
    std::string to;   ///< callee compartment of the boundary
    std::string library;
    std::string datum; ///< shared-variable name (escape pass)
    std::string file;  ///< source file (escape pass), repo-relative
    std::size_t line = 0;
    /** @} */

    /** Deterministic report order (pass, code, anchors, message). */
    bool operator<(const Finding &o) const;
};

/** Severity weights of the audit score (lower score = cleaner). */
inline constexpr int errorWeight = 100;
inline constexpr int warningWeight = 10;
inline constexpr int noteWeight = 1;

/**
 * The result of auditing one configuration: every finding plus the
 * suggested minimal `deny:` ruleset (unused static edges the config
 * could reject without losing any statically-needed crossing).
 */
struct AuditReport
{
    /** Where the config came from, e.g. "examples/foo.cpp:34". */
    std::string label;

    std::vector<Finding> findings;

    /** Suggested (from, to) deny rules, compartment names. */
    std::vector<std::pair<std::string, std::string>> suggestedDeny;

    void add(Finding f) { findings.push_back(std::move(f)); }

    /** Sort findings (and the deny set) into deterministic order. */
    void normalize();

    std::size_t countOf(Severity s) const;

    /**
     * Weighted hazard score: errors x 100 + warnings x 10 + notes.
     * The explore hook attaches this per ConfigPoint so sweeps can
     * plot audit outcome against performance.
     */
    int score() const;

    /** Human-readable rendering (the golden-diff format). */
    std::string toText() const;

    /** JSON rendering (one object; the CLI emits an array of them). */
    std::string toJson() const;
};

/** @name Minimal JSON helpers (shared with the CLI). @{ */

/** Escape a string for embedding in a JSON literal. */
std::string jsonEscape(const std::string &s);

/** @} */

} // namespace analysis
} // namespace flexos

#endif // FLEXOS_ANALYSIS_REPORT_HH
