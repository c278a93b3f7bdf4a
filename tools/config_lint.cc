/**
 * @file
 * Config lint: extracts every embedded safety configuration from the
 * given C++ sources (raw-string literals containing both a
 * `compartments:` and a `libraries:` section) and runs it through
 * SafetyConfig::parse + Toolchain::validate against the standard
 * library registry — the CI smoke step that keeps every config in
 * examples/ and tests/ loadable as the config surface evolves.
 *
 * Blocks that are intentionally malformed (rejection tests) opt out
 * with a `lint-skip` marker inside or immediately before the literal.
 *
 * On top of parse + validate, the lint runs the flexos::analysis
 * call-graph pass and reports its warning-or-worse findings: denied
 * static-dependency edges (the image build will reject the config),
 * compartments the deny ruleset severs every transitive path to
 * (including multi-hop forwarding chains), and compartments denied
 * from everywhere. The deeper per-boundary policy and shared-data
 * audits live in `tools/boundary_audit`.
 *
 * Every config must also survive the text round trip: reparsing
 * SafetyConfig::toText() must give the same text, the same
 * `boundaries:` rules and the same resolved GateMatrix. A mismatch
 * counts as a failure, so a printer that drops or respells a key
 * cannot go unnoticed.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/callgraph.hh"
#include "analysis/extract.hh"
#include "core/toolchain.hh"

using namespace flexos;

namespace {

/**
 * Print the call-graph pass findings of one config in the classic
 * lint format.
 *
 * @return number of warning-or-worse findings.
 */
int
lintCallGraph(const char *file, std::size_t line, const SafetyConfig &cfg,
              const LibraryRegistry &reg)
{
    analysis::AuditReport report;
    analysis::CompartmentGraph graph =
        analysis::buildCompartmentGraph(cfg, reg);
    analysis::callGraphPass(graph, report);
    report.normalize();

    int warnings = 0;
    for (const analysis::Finding &f : report.findings) {
        if (f.severity == analysis::Severity::Note)
            continue;
        ++warnings;
        std::fprintf(stderr, "config-lint: %s:%zu: warning: %s\n", file,
                     line, f.message.c_str());
    }
    return warnings;
}

/**
 * Check that parse(toText(cfg)) reproduces cfg.
 *
 * @return what differs after the round trip, or "" if nothing does.
 */
std::string
roundTripMismatch(const SafetyConfig &cfg)
{
    std::string text = cfg.toText();
    SafetyConfig again = SafetyConfig::parse(text);
    if (again.toText() != text)
        return "toText() changes when its output is reparsed";
    if (again.boundaries != cfg.boundaries)
        return "boundaries: rules change when toText() is reparsed";
    if (!(GateMatrix::build(again) == GateMatrix::build(cfg)))
        return "gate matrix changes when toText() is reparsed";
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);

    int checked = 0, failed = 0, warned = 0;
    for (int i = 1; i < argc; ++i) {
        std::ifstream in(argv[i]);
        if (!in) {
            std::fprintf(stderr, "config-lint: cannot read %s\n",
                         argv[i]);
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        for (const analysis::ConfigBlock &b :
             analysis::extractEmbeddedConfigs(ss.str())) {
            ++checked;
            try {
                SafetyConfig cfg = SafetyConfig::parse(b.text);
                tc.validate(cfg);
                std::string mismatch = roundTripMismatch(cfg);
                if (!mismatch.empty()) {
                    ++failed;
                    std::fprintf(stderr,
                                 "config-lint: %s:%zu: round trip: %s\n",
                                 argv[i], b.line, mismatch.c_str());
                }
                warned += lintCallGraph(argv[i], b.line, cfg, reg);
            } catch (const std::exception &e) {
                ++failed;
                std::fprintf(stderr, "config-lint: %s:%zu: %s\n",
                             argv[i], b.line, e.what());
            }
        }
    }
    std::printf("config-lint: %d config(s) checked, %d failed, "
                "%d warning(s)\n",
                checked, failed, warned);
    return failed ? 1 : 0;
}
