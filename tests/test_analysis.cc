/**
 * @file
 * Boundary-auditor tests: embedded-config extraction over the full
 * raw-string grammar, deny-aware transitive reachability on
 * wildcard-layered gate matrices (including multi-hop severing),
 * shared-data escape classification on the leaky fixture library,
 * suggested-deny minimality against the wayfinder's required block
 * edges (and that the suggested ruleset image-builds cleanly), the
 * escaped JSON text, the seeded-violation config's exact findings, and
 * the explore hook's audit score.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "analysis/audit.hh"
#include "analysis/callgraph.hh"
#include "analysis/escape.hh"
#include "analysis/extract.hh"
#include "core/toolchain.hh"
#include "explore/wayfinder.hh"
#include "machine/machine.hh"
#include "uksched/scheduler.hh"

#ifndef FLEXOS_REPO_ROOT
#define FLEXOS_REPO_ROOT "."
#endif

namespace flexos {
namespace {

using analysis::AuditReport;
using analysis::Finding;
using analysis::Severity;

struct AnalysisFixture : ::testing::Test
{
    AnalysisFixture() : reg(LibraryRegistry::standard()), tc(reg) {}

    SafetyConfig
    parse(const std::string &text)
    {
        SafetyConfig cfg = SafetyConfig::parse(text);
        tc.validate(cfg);
        return cfg;
    }

    AuditReport
    audit(const std::string &text, bool escape = false)
    {
        analysis::AuditOptions opts;
        opts.escape = escape;
        opts.srcRoot = FLEXOS_REPO_ROOT;
        return analysis::runAudit(parse(text), reg, opts);
    }

    static std::vector<const Finding *>
    byCode(const AuditReport &r, const std::string &code)
    {
        std::vector<const Finding *> out;
        for (const Finding &f : r.findings)
            if (f.code == code)
                out.push_back(&f);
        return out;
    }

    LibraryRegistry reg;
    Toolchain tc;
};

// ------------------------------------------------ config extraction

TEST(AnalysisExtract, HandlesDelimitedRawStringsAndEscapedParens)
{
    // lint-skip: the fragments below are extraction fodder, not
    // loadable configurations.
    std::string src = R"src(
const char *plain = R"(
compartments:
- a: {default: True}
libraries:
- libredis: a
)";
const char *delimited = R"cfg(
compartments:
- b: {default: True}   # a stray )" does not end a delimited literal
libraries:
- newlib: b
)cfg";
const char *notAConfig = R"(just text)";
)src";

    auto blocks = analysis::extractEmbeddedConfigs(src);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_NE(blocks[0].text.find("- a:"), std::string::npos);
    EXPECT_EQ(blocks[0].line, 2u);
    // The delimited literal survives the embedded `)"` intact.
    EXPECT_NE(blocks[1].text.find("stray )\" does not"),
              std::string::npos);
    EXPECT_NE(blocks[1].text.find("- newlib: b"), std::string::npos);
    EXPECT_EQ(blocks[1].line, 8u);
}

TEST(AnalysisExtract, SkipMarkersAndUnterminatedLiterals)
{
    std::string src =
        "// lint-skip: intentionally invalid\n"
        "const char *bad = R\"(\ncompartments:\nlibraries:\n)\";\n"
        "const char *ok = R\"x(\ncompartments:\n- a: {default: True}\n"
        "libraries:\n- libredis: a\n)x\";\n"
        "const char *hang = R\"(\ncompartments: libraries: never closed";

    auto all = analysis::rawStringLiterals(src);
    ASSERT_EQ(all.size(), 2u); // the unterminated literal is dropped
    EXPECT_TRUE(all[0].skip);
    EXPECT_FALSE(all[1].skip);

    auto cfgs = analysis::extractEmbeddedConfigs(src);
    ASSERT_EQ(cfgs.size(), 1u);
    EXPECT_NE(cfgs[0].text.find("- libredis: a"), std::string::npos);
}

// ------------------------------------------- call-graph reachability

// Three compartments with a proxy topology: a (default, libsqlite +
// uksched + uktime) statically calls b (newlib), which calls both c
// (lwip) and back into a; c calls a. Denying a -> b severs every
// static path out of a — including the two-hop one to c, which no
// deny rule names.
const char *proxyTopology = R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
- c:
    mechanism: intel-mpk
libraries:
- libsqlite: a
- uksched: a
- uktime: a
- newlib: b
- lwip: c
)";

TEST_F(AnalysisFixture, CompartmentGraphProjectsStaticEdges)
{
    auto g = analysis::buildCompartmentGraph(parse(proxyTopology), reg);
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g.defaultComp, 0);
    EXPECT_EQ(g.netComp, 2); // lwip is the net-facing library

    auto edge = [&](int f, int t) { return g.staticEdge(f, t); };
    ASSERT_NE(edge(0, 1), nullptr); // libsqlite -> newlib
    ASSERT_NE(edge(1, 2), nullptr); // newlib -> lwip
    ASSERT_NE(edge(1, 0), nullptr); // newlib -> uksched/uktime
    ASSERT_NE(edge(2, 0), nullptr); // lwip -> uksched/uktime
    EXPECT_EQ(edge(0, 2), nullptr); // nothing in a calls lwip directly
    EXPECT_EQ(edge(2, 1), nullptr);

    const auto &w = edge(0, 1)->witnesses;
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0].lib, "libsqlite");
    EXPECT_EQ(w[0].callee, "newlib");

    // No deny rules: everything is reachable, statically and for an
    // attacker in c.
    EXPECT_TRUE(g.reachable[1] && g.reachable[2]);
    EXPECT_TRUE(g.netReachable[0] && g.netReachable[1]);
}

TEST_F(AnalysisFixture, WildcardLayeredDenyResolvesPerPair)
{
    std::string text = std::string(proxyTopology) + R"(boundaries:
- '*' -> a: {deny: true}
- c -> a: {deny: false}
)";
    auto g = analysis::buildCompartmentGraph(parse(text), reg);
    EXPECT_FALSE(g.edgeAllowed(1, 0)); // wildcard layer applies
    EXPECT_TRUE(g.edgeAllowed(2, 0));  // exact pair overrides it
    EXPECT_TRUE(g.edgeAllowed(0, 1));

    // b -> a is a denied static edge (one finding per severed library
    // dependency: newlib -> uksched and newlib -> uktime); a stays
    // reachable through c.
    AuditReport r;
    analysis::callGraphPass(g, r);
    r.normalize();
    auto denied = byCode(r, "denied-static-edge");
    ASSERT_EQ(denied.size(), 2u);
    EXPECT_EQ(denied[0]->from, "b");
    EXPECT_EQ(denied[0]->to, "a");
    EXPECT_NE(denied[0]->message.find("uksched"), std::string::npos);
    EXPECT_NE(denied[1]->message.find("uktime"), std::string::npos);
    EXPECT_TRUE(byCode(r, "deny-unreachable-compartment").empty());
}

TEST_F(AnalysisFixture, DenySeversTwoHopReachability)
{
    std::string text = std::string(proxyTopology) + R"(boundaries:
- a -> b: {deny: true}
)";
    auto g = analysis::buildCompartmentGraph(parse(text), reg);
    EXPECT_TRUE(g.reachableIgnoringDeny[1]);
    EXPECT_TRUE(g.reachableIgnoringDeny[2]);
    EXPECT_FALSE(g.reachable[1]);
    EXPECT_FALSE(g.reachable[2]); // two hops away; no rule names c

    AuditReport r;
    analysis::callGraphPass(g, r);
    r.normalize();

    auto denied = byCode(r, "denied-static-edge");
    ASSERT_EQ(denied.size(), 1u);
    EXPECT_EQ(denied[0]->severity, Severity::Error);
    EXPECT_NE(denied[0]->message.find("libsqlite"), std::string::npos);

    auto severed = byCode(r, "deny-unreachable-compartment");
    ASSERT_EQ(severed.size(), 2u);
    EXPECT_EQ(severed[0]->to, "b");
    EXPECT_EQ(severed[1]->to, "c");
    EXPECT_EQ(severed[1]->severity, Severity::Warning);
}

// --------------------------------------------- shared-data escape

TEST(AnalysisEscape, ClassifiesLeakyFixtureLibrary)
{
    LibraryInfo leaky;
    leaky.name = "leaky";
    leaky.files = {"tests/fixtures/leaky_lib.cc"};
    leaky.sharedData = {"missCount"};

    analysis::EscapeScan scan =
        analysis::scanLibrarySources(leaky, FLEXOS_REPO_ROOT);
    EXPECT_TRUE(scan.missingFiles.empty());

    auto cls = [&](const std::string &name) {
        for (const analysis::SharedDatum &d : scan.data)
            if (d.name == name)
                return analysis::datumClassName(d.cls);
        return "absent";
    };
    // Constants are never reported.
    EXPECT_STREQ(cls("tableSize"), "absent");
    EXPECT_STREQ(cls("tableShift"), "absent");
    // A const char * is a mutable pointer: it escapes.
    EXPECT_STREQ(cls("banner"), "escaping");
    EXPECT_STREQ(cls("dssCounter"), "dss-framed");
    EXPECT_STREQ(cls("hitCount"), "registered-shared");
    EXPECT_STREQ(cls("missCount"), "registered-shared");
    EXPECT_STREQ(cls("leakedState"), "escaping");
    EXPECT_STREQ(cls("bumpCalls"), "escaping"); // function-local static
    // Comment and raw-string contents never surface as data.
    EXPECT_STREQ(cls("commentedOut"), "absent");
    EXPECT_STREQ(cls("alsoCommented"), "absent");
    EXPECT_STREQ(cls("notADatum"), "absent");
    EXPECT_EQ(scan.data.size(), 6u);

    EXPECT_EQ(scan.pointerCarryingCalls, 1);
}

// -------------------------------------------------- seeded violation

// The paper's section-7 story with every mistake the auditor exists
// to catch: the untrusted parser is compartmentalized but leaks a
// global, and the boundary out of the netstack disables scrubbing and
// validates nothing.
const char *seededViolation = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- jail:
    mechanism: intel-mpk
- net:
    mechanism: intel-mpk
libraries:
- libredis: app
- newlib: app
- uksched: app
- uktime: app
- libopenjpg: jail
- lwip: net
boundaries:
- net -> app: {scrub: false}
)";

TEST_F(AnalysisFixture, SeededViolationConfigReportsAllThreePasses)
{
    AuditReport r = audit(seededViolation, /*escape=*/true);

    auto escaping = byCode(r, "escaping-shared-datum");
    ASSERT_EQ(escaping.size(), 1u);
    EXPECT_EQ(escaping[0]->library, "libopenjpg");
    EXPECT_EQ(escaping[0]->datum, "lastDecodeState");
    EXPECT_EQ(escaping[0]->file, "src/apps/openjpg.cc");
    EXPECT_EQ(escaping[0]->severity, Severity::Error);

    auto unscrubbed = byCode(r, "unscrubbed-net-boundary");
    ASSERT_EQ(unscrubbed.size(), 1u);
    EXPECT_EQ(unscrubbed[0]->from, "net");
    EXPECT_EQ(unscrubbed[0]->to, "app");
    // Every allowed pair is net-reachable and unvalidated.
    EXPECT_EQ(byCode(r, "unvalidated-net-boundary").size(), 6u);
    EXPECT_EQ(byCode(r, "unthrottled-external-edge").size(), 2u);

    EXPECT_EQ(r.countOf(Severity::Error), 2u);

    // The suggested ruleset is exactly the statically-unneeded pairs.
    std::vector<std::pair<std::string, std::string>> want = {
        {"app", "jail"}, {"jail", "net"}, {"net", "jail"}};
    EXPECT_EQ(r.suggestedDeny, want);
}

TEST_F(AnalysisFixture, SuggestedDenyRulesetBuildsCleanlyAndIsMinimal)
{
    AuditReport r = audit(seededViolation);

    // Minimality: a suggested pair never covers a static edge, and
    // every unsuggested, undenied pair does (denying it would starve a
    // dependency) — the set is exactly the complement.
    auto g = analysis::buildCompartmentGraph(parse(seededViolation), reg);
    auto indexOf = [&](const std::string &name) {
        return static_cast<int>(
            std::find(g.comps.begin(), g.comps.end(), name) -
            g.comps.begin());
    };
    std::set<std::pair<std::string, std::string>> suggested(
        r.suggestedDeny.begin(), r.suggestedDeny.end());
    for (const auto &f : g.comps)
        for (const auto &t : g.comps) {
            if (f == t)
                continue;
            bool hasStatic =
                g.staticEdge(indexOf(f), indexOf(t)) != nullptr;
            EXPECT_NE(suggested.count({f, t}) != 0, hasStatic)
                << f << " -> " << t;
        }

    // Applying the suggestion yields a buildable image whose audit
    // has nothing further to suggest.
    std::string tightened = seededViolation;
    for (const auto &[f, t] : r.suggestedDeny)
        tightened += "- " + f + " -> " + t + ": {deny: true}\n";

    Machine mach;
    Scheduler sched(mach);
    SafetyConfig cfg = parse(tightened);
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    EXPECT_NO_THROW(tc.build(mach, sched, cfg));

    AuditReport r2 = audit(tightened);
    EXPECT_TRUE(r2.suggestedDeny.empty());
    EXPECT_TRUE(byCode(r2, "denied-static-edge").empty());
    EXPECT_TRUE(byCode(r2, "unused-static-edge").empty());
}

// ----------------------------------- wayfinder required-edge cross-check

TEST_F(AnalysisFixture, SuggestedDenyMatchesWayfinderRequiredEdges)
{
    // For every Figure 8 partition: the auditor's suggested deny set
    // over the materialized config must be exactly the complement of
    // wayfinder::requiredBlockEdges — the same least-privilege
    // frontier leastPrivilegeSpace() sweeps.
    for (const auto &partition : wayfinder::fig6Partitions()) {
        ConfigPoint p;
        p.partition = partition;
        p.hardening.assign(partition.size(), 0);
        SafetyConfig cfg = wayfinder::toSafetyConfig(p, "libredis");
        tc.validate(cfg);

        analysis::AuditOptions opts;
        opts.escape = false;
        AuditReport r = analysis::runAudit(cfg, reg, opts);

        // Suggested pairs, mapped back to partition block ids
        // (toSafetyConfig names block b "comp{b+1}").
        std::set<std::pair<int, int>> suggested;
        for (const auto &[f, t] : r.suggestedDeny)
            suggested.insert({std::stoi(f.substr(4)) - 1,
                              std::stoi(t.substr(4)) - 1});

        auto required =
            wayfinder::requiredBlockEdges(partition, "libredis");
        std::set<std::pair<int, int>> keep(required.begin(),
                                           required.end());
        int nBlocks = p.compartments();
        std::set<std::pair<int, int>> deniable;
        for (int f = 0; f < nBlocks; ++f)
            for (int t = 0; t < nBlocks; ++t)
                if (f != t && !keep.count({f, t}))
                    deniable.insert({f, t});
        EXPECT_EQ(suggested, deniable);
    }
}

TEST_F(AnalysisFixture, ExploreHookAttachesAuditScore)
{
    ConfigPoint loose;
    loose.partition = {0, 0, 1, 2};
    loose.hardening.assign(4, 0);
    EXPECT_EQ(loose.auditScore, -1);
    wayfinder::attachAuditScore(loose, "libredis");
    ASSERT_GE(loose.auditScore, 0);

    // Denying every deniable edge removes the unused-static-edge
    // notes, so the tightened point scores strictly cleaner.
    ConfigPoint tight = loose;
    auto required =
        wayfinder::requiredBlockEdges(loose.partition, "libredis");
    std::set<std::pair<int, int>> keep(required.begin(),
                                       required.end());
    for (int f = 0; f < 3; ++f)
        for (int t = 0; t < 3; ++t)
            if (f != t && !keep.count({f, t}))
                tight.deniedEdges.push_back({f, t});
    wayfinder::attachAuditScore(tight, "libredis");
    EXPECT_LT(tight.auditScore, loose.auditScore);
}

// ------------------------------------------------------ JSON rendering

TEST(AuditReportJson, QuirkyReportRendersEscapedText)
{
    // Quote, tab, newline and backslash in the label and message all
    // come out as JSON escapes; empty anchors are left out.
    AuditReport quirky;
    quirky.label = "a \"quoted\"\tlabel\nwith\\controls";
    Finding f;
    f.pass = "escape";
    f.code = "escaping-shared-datum";
    f.severity = Severity::Error;
    f.message = "datum \"x\" <tab>\there";
    f.line = 42;
    quirky.add(std::move(f));
    quirky.normalize();
    EXPECT_EQ(quirky.toJson(),
              R"({"config": "a \"quoted\"\tlabel\nwith\\controls", )"
              R"("findings": [{"pass": "escape", )"
              R"("code": "escaping-shared-datum", "severity": "error", )"
              R"("message": "datum \"x\" <tab>\there", "line": 42}], )"
              R"("suggested_deny": [], "score": 100})");
}

} // namespace
} // namespace flexos
