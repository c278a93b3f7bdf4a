/**
 * @file
 * Boundary auditor CLI: runs the flexos::analysis passes (call-graph,
 * shared-data escape, policy-safety) over every safety configuration
 * in the given files and renders the findings.
 *
 * Inputs are either C++ sources (`.cc`, `.cpp`, `.hh`, `.hpp`, `.h`)
 * — every embedded raw-string config is audited, with the same
 * extraction and `lint-skip` rules as `tools/config_lint`, and labelled
 * `file#k` for the k-th config in the file — or plain config files,
 * audited as one config.
 *
 * Usage:
 *   boundary_audit [--json] [--src-root DIR] [--no-escape]
 *                  [--exit-zero] <file>...
 *
 *   --json       emit a JSON array of per-config reports instead of
 *                the human-readable text format
 *   --src-root   repository root the registry's source file lists
 *                resolve against (default: current directory)
 *   --no-escape  skip the shared-data escape scan (no source access)
 *   --exit-zero  report findings but exit 0 anyway (golden-diff CI
 *                runs compare output, not exit status)
 *
 * Exit status: 2 on usage or I/O errors, 1 when any config fails to
 * parse/validate or any error-severity finding fires, 0 otherwise.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/extract.hh"
#include "core/toolchain.hh"

using namespace flexos;

namespace {

bool
isCppSource(const std::string &path)
{
    static const char *exts[] = {".cc", ".cpp", ".cxx", ".hh", ".hpp",
                                 ".h"};
    for (const char *ext : exts) {
        std::size_t n = std::strlen(ext);
        if (path.size() > n &&
            path.compare(path.size() - n, n, ext) == 0)
            return true;
    }
    return false;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--json] [--src-root DIR] [--no-escape] "
                 "[--exit-zero] <file>...\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false, exitZero = false;
    analysis::AuditOptions opts;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--no-escape") {
            opts.escape = false;
        } else if (arg == "--exit-zero") {
            exitZero = true;
        } else if (arg == "--src-root") {
            if (++i >= argc)
                return usage(argv[0]);
            opts.srcRoot = argv[i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            files.push_back(std::move(arg));
        }
    }
    if (files.empty())
        return usage(argv[0]);

    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);

    std::vector<analysis::AuditReport> reports;
    int failed = 0;

    auto audit = [&](const std::string &label, const std::string &text) {
        try {
            SafetyConfig cfg = SafetyConfig::parse(text);
            tc.validate(cfg);
            analysis::AuditReport r = analysis::runAudit(cfg, reg, opts);
            r.label = label;
            reports.push_back(std::move(r));
        } catch (const std::exception &e) {
            ++failed;
            std::fprintf(stderr, "boundary-audit: %s: %s\n",
                         label.c_str(), e.what());
        }
    };

    for (const std::string &file : files) {
        std::ifstream in(file);
        if (!in) {
            std::fprintf(stderr, "boundary-audit: cannot read %s\n",
                         file.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        if (isCppSource(file)) {
            // Label each embedded config by its ordinal in the file, not
            // its line, so editing a file moves no other config's label.
            std::size_t k = 0;
            for (const analysis::ConfigBlock &b :
                 analysis::extractEmbeddedConfigs(ss.str()))
                audit(file + "#" + std::to_string(++k), b.text);
        } else {
            audit(file, ss.str());
        }
    }

    std::size_t errors = 0, warnings = 0;
    for (const analysis::AuditReport &r : reports) {
        errors += r.countOf(analysis::Severity::Error);
        warnings += r.countOf(analysis::Severity::Warning);
    }

    if (json) {
        std::printf("[");
        for (std::size_t i = 0; i < reports.size(); ++i)
            std::printf("%s%s", i ? ",\n" : "\n",
                        reports[i].toJson().c_str());
        std::printf("\n]\n");
    } else {
        for (const analysis::AuditReport &r : reports)
            std::printf("%s\n", r.toText().c_str());
        std::printf("boundary-audit: %zu config(s) audited, %d failed, "
                    "%zu error(s), %zu warning(s)\n",
                    reports.size(), failed, errors, warnings);
    }

    if (exitZero)
        return 0;
    return (failed || errors) ? 1 : 0;
}
