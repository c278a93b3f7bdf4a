/**
 * @file
 * Figure 7 reproduction: Nginx vs. Redis normalized performance for
 * the same 80 configurations, grouped by compartment count — showing
 * that isolating/hardening the same components costs the two
 * applications differently (uneven, hard-to-predict slowdowns).
 *
 * Extended with the per-boundary dimensions of the gate-policy matrix:
 * the mixed-mechanism sweep ({none, mpk, ept, cheri} per block), the
 * per-boundary MPK gate-flavour sweep ({light, dss} per block), an
 * asymmetric-boundary demonstration (EPT->MPK returns skipping the
 * return-side scrub are measurably cheaper), and the closed-loop
 * gate-storm containment demo: the runtime policy controller detects a
 * storming boundary from its counters, tightens it through quiesced
 * matrix swaps until the storm fails fast, and the well-behaved flows
 * recover to near the no-attack baseline.
 *
 * `--controller` runs only the closed-loop section; `--json [path]`
 * additionally writes its measurements to a snapshot file (default
 * BENCH_fig07_controller.json), the regression-tracked artefact.
 *
 * `--attack <class|all>` replaces the storm with the flexos::adversary
 * catalogue: each attack class is mounted round by round against a
 * deliberately attackable config, with one controller epoch between
 * rounds, until the class is fully contained — measuring
 * time-to-containment (controller epochs and vcycles) per class and
 * dumping the controller's decision trace. With `--json` the result
 * goes to BENCH_attack.json.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "adversary/adversary.hh"
#include "apps/deploy.hh"
#include "apps/redis.hh"
#include "explore/wayfinder.hh"

using namespace flexos;

namespace {

/** Measurements of the closed-loop containment demo. */
struct ClosedLoopResult
{
    double baseline = 0;  ///< req/s, no attacker
    double attacked = 0;  ///< req/s, storm + static matrix
    double contained = 0; ///< req/s, storm + controller
    bool containedOk = false; ///< att->sys reached overflow: fail
    std::uint64_t containEpochs = 0; ///< controller epochs to contain
    std::uint64_t swaps = 0;
    std::uint64_t tightens = 0;
    std::uint64_t alerts = 0;
};

/**
 * The demo image: Redis (with the whole network path) in the default
 * compartment, the scheduler in `sys`, and a compromised `att`
 * compartment whose only legitimate channel is the adaptive att -> sys
 * edge. att -> app is denied outright, so the attacker's probe of it
 * is a deny witness the controller alerts on.
 */
std::string
closedLoopConfig(bool withController)
{
    std::string cfg = R"(compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- att:
    mechanism: intel-mpk
libraries:
- libredis: app
- newlib: app
- lwip: app
- uksched: sys
- uktime: att
boundaries:
- att -> sys: {adaptive: true}
- att -> app: {deny: true}
)";
    if (withController) {
        // calm_epochs is set high so containment stays pinned for the
        // whole measurement: the relax path is exercised by the unit
        // tests, this demo is about the tighten half of the loop.
        cfg += "controller:\n"
               "  epoch: 300000\n"
               "  storm_threshold: 100\n"
               "  calm_epochs: 1000\n";
    }
    return cfg;
}

/**
 * The attacker: probe the denied edge once, then storm the att -> sys
 * boundary in bursts, yielding between bursts (a storm that never
 * yields would not even need throttling to be noticed — it would
 * simply hang the machine). Once the controller has escalated the
 * edge to `overflow: fail`, the burst dies fast with ThrottledCrossing
 * and the attacker backs off — freeing the core for the real flows.
 */
void
attackerLoop(Deployment &dep, const bool &stop)
{
    Image &img = dep.image();
    try {
        img.gate("libredis", "redis_handle_conn", [] {});
    } catch (const DeniedCrossing &) {
        // The deny witness the controller's alert rule picks up.
    }
    constexpr std::uint64_t burst = 400;
    while (!stop) {
        try {
            for (std::uint64_t i = 0; i < burst && !stop; ++i)
                img.gate("uksched", "yield", [] {});
        } catch (const ThrottledCrossing &) {
            dep.scheduler().sleepNs(2'000'000);
        }
        dep.scheduler().yield();
    }
}

ClosedLoopResult
runClosedLoop(std::uint64_t requests)
{
    ClosedLoopResult r;
    DeployOptions opts;
    opts.withFs = false;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;

    // No-attack baseline: same image, controller sampling but with
    // nothing to adapt — the number the contained run must recover to.
    {
        Deployment dep(closedLoopConfig(true), opts);
        dep.start();
        r.baseline = runRedisGetBenchmark(dep.image(), dep.libc(),
                                          dep.clientStack(), requests,
                                          1, 50)
                         .requestsPerSec;
        dep.stop();
    }

    // Static matrix under storm: the damage a fixed configuration
    // takes from a boundary it cannot retune.
    {
        Deployment dep(closedLoopConfig(false), opts);
        dep.start();
        bool stop = false;
        dep.image().spawnIn("uktime", "storm",
                            [&] { attackerLoop(dep, stop); });
        r.attacked = runRedisGetBenchmark(dep.image(), dep.libc(),
                                          dep.clientStack(), requests,
                                          1, 50)
                         .requestsPerSec;
        stop = true;
        dep.stop();
    }

    // Closed loop: let the controller observe and contain the storm
    // (escalating att -> sys to overflow: fail through quiesced
    // swaps), then measure what the well-behaved flows get back.
    {
        Deployment dep(closedLoopConfig(true), opts);
        dep.start();
        bool stop = false;
        dep.image().spawnIn("uktime", "storm",
                            [&] { attackerLoop(dep, stop); });
        Image &img = dep.image();
        int att = img.compartmentIndexOf("uktime");
        int sys = img.compartmentIndexOf("uksched");
        PolicyController *ctl = dep.policyController();
        dep.scheduler().runUntil(
            [&] {
                return img.policyFor(att, sys).overflow ==
                           RateOverflow::Fail ||
                       ctl->epochs() >= 20;
            },
            2'000'000);
        r.containedOk = img.policyFor(att, sys).overflow ==
                        RateOverflow::Fail;
        r.containEpochs = ctl->epochs();
        r.contained = runRedisGetBenchmark(dep.image(), dep.libc(),
                                           dep.clientStack(), requests,
                                           1, 50)
                          .requestsPerSec;
        Machine &m = dep.machine();
        r.swaps = m.counter("matrix.swaps");
        r.tightens = m.counter("controller.tightens");
        r.alerts = m.counter("controller.alerts");
        stop = true;
        dep.stop();
    }
    return r;
}

void
emitControllerJson(const char *path, const ClosedLoopResult &r)
{
    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "fig07_scatter: cannot write %s\n", path);
        std::exit(2);
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"fig07_controller_closed_loop\",\n"
        "  \"config\": \"att->sys adaptive, controller epoch 300000, "
        "storm_threshold 100\",\n"
        "  \"baseline_req_per_sec\": %.1f,\n"
        "  \"attacked_req_per_sec\": %.1f,\n"
        "  \"contained_req_per_sec\": %.1f,\n"
        "  \"recovery_ratio\": %.3f,\n"
        "  \"contained\": %s,\n"
        "  \"containment_epochs\": %lu,\n"
        "  \"matrix_swaps\": %lu,\n"
        "  \"controller_tightens\": %lu,\n"
        "  \"controller_alerts\": %lu\n"
        "}\n",
        r.baseline, r.attacked, r.contained,
        r.baseline > 0 ? r.contained / r.baseline : 0.0,
        r.containedOk ? "true" : "false",
        static_cast<unsigned long>(r.containEpochs),
        static_cast<unsigned long>(r.swaps),
        static_cast<unsigned long>(r.tightens),
        static_cast<unsigned long>(r.alerts));
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

void
closedLoopSection(bool jsonMode, const char *jsonPath)
{
    ClosedLoopResult cl = runClosedLoop(300);
    std::printf("\n=== Closed-loop gate-storm containment: runtime "
                "policy controller ===\n");
    std::printf("  no attack (baseline)        : %10.1f req/s\n",
                cl.baseline);
    std::printf("  storm, static matrix        : %10.1f req/s "
                "(%.1f%% of baseline)\n",
                cl.attacked, 100.0 * cl.attacked / cl.baseline);
    std::printf("  storm, controller contained : %10.1f req/s "
                "(%.1f%% of baseline)\n",
                cl.contained, 100.0 * cl.contained / cl.baseline);
    std::printf("  contained to overflow: fail : %s, after %lu "
                "epochs\n",
                cl.containedOk ? "yes" : "NO",
                static_cast<unsigned long>(cl.containEpochs));
    std::printf("  matrix.swaps %lu, controller.tightens %lu, "
                "controller.alerts %lu (deny probe witnessed)\n",
                static_cast<unsigned long>(cl.swaps),
                static_cast<unsigned long>(cl.tightens),
                static_cast<unsigned long>(cl.alerts));
    if (jsonMode)
        emitControllerJson(jsonPath, cl);
}

// --- Adversary closed loop (`--attack`) ------------------------------

/** One attack round's tally, stamped with the controller epoch. */
struct AttackRound
{
    std::uint64_t epoch = 0;
    std::size_t contained = 0;
    std::size_t partial = 0;
    std::size_t breached = 0;
};

/** The closed-loop record of one attack class. */
struct AttackClassRun
{
    adversary::AttackClass cls = adversary::AttackClass::IllegalCrossing;
    std::vector<AttackRound> rounds;
    /** Scenario verdicts of the last round mounted. */
    std::vector<adversary::AttackResult> finalResults;
    bool contained = false; ///< a round reached full containment
    /** Adaptation rounds (controller steps) before containment. */
    std::size_t roundsToContain = 0;
    /**
     * Controller epochs elapsed while the loop ran (the free-running
     * sampler also ticks during the attack itself, so this tracks
     * elapsed virtual time, not adaptation count).
     */
    std::uint64_t epochsElapsed = 0;
    std::uint64_t vcyclesToContain = 0;
    std::vector<PolicyController::TraceEntry> trace;
};

/**
 * The attackable config: Redis and its libc in `app`, the scheduler
 * and clock in `sys`, and the network stack — the compromised
 * compartment — alone in `att`. att -> app is denied (the deny
 * witness the controller alerts on); att -> sys is the adaptive edge
 * the controller hardens. The baseline att -> sys policy is chosen
 * per class so round 0 has something to breach where the class can
 * be closed online:
 *
 *  - info-leak starts from a light, unscrubbed gate (the reg-probe
 *    leaks) — deny-hardening restores DSS + scrub + validation;
 *  - rop-crossing starts without entry validation (gadget jumps
 *    execute) — deny-hardening forces validation on;
 *  - doorbell runs `sys` on vm-ept (the forged-ring surface);
 *  - ret-corrupt and resource are contained by the baseline itself
 *    (DSS frames, netstack bounds): time-to-containment 0.
 */
std::string
attackBenchConfig(adversary::AttackClass cls)
{
    bool ept = cls == adversary::AttackClass::ForgedDoorbell;
    bool leaky = cls == adversary::AttackClass::InfoLeak;
    std::string cfg = "compartments:\n"
                      "- app:\n"
                      "    mechanism: intel-mpk\n"
                      "    default: True\n"
                      "- sys:\n";
    cfg += ept ? "    mechanism: vm-ept\n" : "    mechanism: intel-mpk\n";
    cfg += "- att:\n"
           "    mechanism: intel-mpk\n"
           "libraries:\n"
           "- libredis: app\n"
           "- newlib: app\n"
           "- uksched: sys\n"
           "- uktime: sys\n"
           "- lwip: att\n"
           "boundaries:\n";
    cfg += leaky
               ? "- att -> sys: {adaptive: true, gate: light, scrub: false}\n"
               : "- att -> sys: {adaptive: true}\n";
    cfg += "- att -> app: {deny: true}\n"
           "controller:\n"
           "  epoch: 300000\n"
           "  storm_threshold: 100\n"
           "  calm_epochs: 1000\n"
           "  deny_alert: 1\n";
    return cfg;
}

/**
 * The attacker's probe of the closed edge, mounted once per round
 * (every campaign in this file opens with it — see attackerLoop).
 * The resulting gate.denied witness is what lets the controller pin
 * the breach on `att` and deny-harden its outgoing adaptive edges;
 * without it, classes whose scenarios never touch a denied edge
 * (info-leak) would give the controller nothing to key on.
 */
void
denyProbe(Deployment &dep, const std::string &attackerLib)
{
    Image &img = dep.image();
    bool done = false;
    img.spawnIn(attackerLib, "deny-probe", [&] {
        try {
            img.gate("libredis", "redis_handle_conn", [] {});
        } catch (const DeniedCrossing &) {
        }
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
}

/**
 * Mount one attack class round by round with a controller epoch
 * between rounds, until a round is fully contained (or the round cap
 * trips). Returns the per-round tallies, the converged scorecard,
 * and the controller's decision trace.
 */
AttackClassRun
runAttackClassLoop(adversary::AttackClass cls)
{
    constexpr int maxRounds = 8;
    AttackClassRun run;
    run.cls = cls;

    DeployOptions opts;
    opts.withFs = false;
    opts.withNet = cls == adversary::AttackClass::Resource;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    Deployment dep(attackBenchConfig(cls), opts);
    dep.start();

    adversary::AttackOptions aopts;
    aopts.attackerLib = "lwip";
    aopts.withNet = opts.withNet;

    PolicyController *ctl = dep.policyController();
    Machine &m = dep.machine();
    Cycles start = m.cycles();
    std::uint64_t epoch0 = ctl->epochs();
    for (int round = 0; round < maxRounds; ++round) {
        adversary::AttackScorecard card =
            adversary::runAttackClass(dep, cls, aopts);
        run.rounds.push_back({ctl->epochs() - epoch0, card.contained(),
                              card.partial(), card.breached()});
        run.finalResults = card.results;
        if (card.fullContainment()) {
            run.contained = true;
            run.roundsToContain = static_cast<std::size_t>(round);
            run.epochsElapsed = ctl->epochs() - epoch0;
            run.vcyclesToContain = m.cycles() - start;
            break;
        }
        denyProbe(dep, aopts.attackerLib);
        ctl->step();
    }
    run.trace.assign(ctl->trace().begin(), ctl->trace().end());
    dep.stop();
    return run;
}

void
emitAttackJson(const char *path, const std::vector<AttackClassRun> &runs)
{
    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "fig07_scatter: cannot write %s\n", path);
        std::exit(2);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig07_attack_closed_loop\",\n"
                 "  \"attacker\": \"att/lwip\",\n"
                 "  \"classes\": [\n");
    for (std::size_t c = 0; c < runs.size(); ++c) {
        const AttackClassRun &r = runs[c];
        std::fprintf(f,
                     "    {\n"
                     "      \"class\": \"%s\",\n"
                     "      \"contained\": %s,\n"
                     "      \"adaptation_rounds_to_containment\": %zu,\n"
                     "      \"controller_epochs_elapsed\": %lu,\n"
                     "      \"vcycles_to_containment\": %lu,\n"
                     "      \"rounds\": [\n",
                     adversary::attackClassName(r.cls),
                     r.contained ? "true" : "false",
                     r.roundsToContain,
                     static_cast<unsigned long>(r.epochsElapsed),
                     static_cast<unsigned long>(r.vcyclesToContain));
        for (std::size_t i = 0; i < r.rounds.size(); ++i)
            std::fprintf(f,
                         "        {\"epoch\": %lu, \"contained\": %zu, "
                         "\"partial\": %zu, \"breached\": %zu}%s\n",
                         static_cast<unsigned long>(r.rounds[i].epoch),
                         r.rounds[i].contained, r.rounds[i].partial,
                         r.rounds[i].breached,
                         i + 1 < r.rounds.size() ? "," : "");
        std::fprintf(f,
                     "      ],\n"
                     "      \"final_scenarios\": [\n");
        for (std::size_t i = 0; i < r.finalResults.size(); ++i) {
            const adversary::AttackResult &s = r.finalResults[i];
            std::fprintf(
                f,
                "        {\"scenario\": \"%s\", \"outcome\": \"%s\", "
                "\"witness\": \"%s\", \"detection_vcycles\": %lu, "
                "\"bits_leaked\": %u, \"entropy_defeated\": %u}%s\n",
                s.scenario.c_str(), adversary::outcomeName(s.outcome),
                s.witness.c_str(),
                static_cast<unsigned long>(s.detectionCycles),
                s.bitsLeaked, s.entropyDefeated,
                i + 1 < r.finalResults.size() ? "," : "");
        }
        std::fprintf(f,
                     "      ],\n"
                     "      \"controller_trace\": [\n");
        for (std::size_t i = 0; i < r.trace.size(); ++i)
            std::fprintf(
                f,
                "        {\"epoch\": %lu, \"rule\": \"%s\", "
                "\"edge\": \"%s\", \"level\": %d}%s\n",
                static_cast<unsigned long>(r.trace[i].epoch),
                r.trace[i].rule.c_str(), r.trace[i].edge.c_str(),
                r.trace[i].level, i + 1 < r.trace.size() ? "," : "");
        std::fprintf(f,
                     "      ]\n"
                     "    }%s\n",
                     c + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ]\n"
                 "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

int
attackSection(const std::vector<adversary::AttackClass> &classes,
              bool jsonMode, const char *jsonPath)
{
    std::vector<AttackClassRun> runs;
    bool allContained = true;
    for (adversary::AttackClass cls : classes) {
        AttackClassRun run = runAttackClassLoop(cls);
        std::printf("\n=== Adversary closed loop: %s (attacker: "
                    "att/lwip) ===\n",
                    adversary::attackClassName(cls));
        for (std::size_t i = 0; i < run.rounds.size(); ++i)
            std::printf("  round %zu (epoch %lu): %zu contained, %zu "
                        "partial, %zu breached\n",
                        i,
                        static_cast<unsigned long>(run.rounds[i].epoch),
                        run.rounds[i].contained, run.rounds[i].partial,
                        run.rounds[i].breached);
        if (run.contained)
            std::printf("  contained after %zu adaptation round(s), "
                        "%lu vcycles\n",
                        run.roundsToContain,
                        static_cast<unsigned long>(
                            run.vcyclesToContain));
        else
            std::printf("  NOT contained within the round cap\n");
        std::printf("  final scenarios:\n");
        for (const adversary::AttackResult &s : run.finalResults)
            std::printf("    %-26s %-9s %s\n", s.scenario.c_str(),
                        adversary::outcomeName(s.outcome),
                        s.witness.c_str());
        std::printf("  controller trace (%zu decision(s)):\n",
                    run.trace.size());
        for (const PolicyController::TraceEntry &t : run.trace)
            std::printf("    epoch %-3lu %-12s %-10s level %d\n",
                        static_cast<unsigned long>(t.epoch),
                        t.rule.c_str(), t.edge.c_str(), t.level);
        allContained = allContained && run.contained;
        runs.push_back(std::move(run));
    }
    if (jsonMode)
        emitAttackJson(jsonPath, runs);
    if (!allContained) {
        std::printf("\nFAIL: some attack class was not contained\n");
        return 1;
    }
    std::printf("\nevery attack class contained by the closed loop\n");
    return 0;
}

/** One per-boundary dimension of the configuration space to scatter. */
struct Scatter
{
    const char *dimension; ///< section title
    const char *points;    ///< what the points are, after their count
    std::vector<ConfigPoint> space;
};

/**
 * Measure every point of each space with Redis and print it normalized
 * to the space's own fastest point.
 */
void
scatterSections(const std::vector<Scatter> &sections)
{
    for (const Scatter &sec : sections) {
        std::vector<double> redis;
        double redisMax = 0;
        for (const ConfigPoint &p : sec.space) {
            redis.push_back(wayfinder::measureRedis(p, 150));
            redisMax = std::max(redisMax, redis.back());
        }
        std::printf("\n=== %s dimension: Redis, %zu %s ===\n",
                    sec.dimension, sec.space.size(), sec.points);
        std::printf("%-6s %-14s %s\n", "comps", "redis (norm)",
                    "configuration");
        for (std::size_t i = 0; i < sec.space.size(); ++i) {
            std::printf("%-6d %-14.3f %s\n", sec.space[i].compartments(),
                        redis[i] / redisMax,
                        wayfinder::pointLabel(sec.space[i], "app").c_str());
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // `--controller` runs only the closed-loop containment demo;
    // `--json [path]` also writes its snapshot file (and implies
    // `--controller`, matching the fig06 convention). `--attack
    // <class|all>` swaps the storm for the adversary catalogue and
    // changes the default snapshot path to BENCH_attack.json.
    bool controllerOnly = false;
    bool jsonMode = false;
    bool attackMode = false;
    const char *jsonPath = nullptr;
    std::vector<adversary::AttackClass> attackClasses;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--controller") == 0) {
            controllerOnly = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            controllerOnly = true;
            jsonMode = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--attack") == 0) {
            controllerOnly = true;
            attackMode = true;
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "fig07_scatter: --attack needs a class "
                             "name or 'all'\n");
                return 2;
            }
            std::string name = argv[++i];
            if (name == "all") {
                attackClasses = adversary::allAttackClasses();
            } else {
                adversary::AttackClass c;
                if (!adversary::parseAttackClass(name, c)) {
                    std::fprintf(stderr,
                                 "fig07_scatter: unknown attack class "
                                 "'%s' (classes:",
                                 name.c_str());
                    for (adversary::AttackClass k :
                         adversary::allAttackClasses())
                        std::fprintf(stderr, " %s",
                                     adversary::attackClassName(k));
                    std::fprintf(stderr, ", or all)\n");
                    return 2;
                }
                attackClasses.push_back(c);
            }
        } else {
            std::fprintf(stderr,
                         "fig07_scatter: invalid argument '%s' "
                         "(usage: [--controller] [--json [path]] "
                         "[--attack <class|all>])\n",
                         argv[i]);
            return 2;
        }
    }
    if (!jsonPath)
        jsonPath = attackMode ? "BENCH_attack.json"
                              : "BENCH_fig07_controller.json";
    if (attackMode)
        return attackSection(attackClasses, jsonMode, jsonPath);
    if (controllerOnly) {
        closedLoopSection(jsonMode, jsonPath);
        return 0;
    }
    std::vector<ConfigPoint> space = wayfinder::fig6Space();
    std::vector<double> redis, nginx;
    double redisMax = 0, nginxMax = 0;
    for (const ConfigPoint &p : space) {
        redis.push_back(wayfinder::measureRedis(p, 300));
        nginx.push_back(wayfinder::measureNginx(p, 200));
        redisMax = std::max(redisMax, redis.back());
        nginxMax = std::max(nginxMax, nginx.back());
    }

    std::printf("=== Figure 7: Nginx vs Redis normalized performance "
                "===\n");
    std::printf("%-6s %-14s %-14s %s\n", "comps", "redis (norm)",
                "nginx (norm)", "configuration");
    for (std::size_t i = 0; i < space.size(); ++i) {
        std::printf("%-6d %-14.3f %-14.3f %s\n",
                    space[i].compartments(), redis[i] / redisMax,
                    nginx[i] / nginxMax,
                    wayfinder::pointLabel(space[i], "app").c_str());
    }

    // The paper's distribution claim: more Nginx configurations stay
    // within 20%/45% overhead than Redis ones.
    auto countWithin = [&](const std::vector<double> &v, double maxV,
                           double overhead) {
        int n = 0;
        for (double x : v)
            if (x >= maxV * (1 - overhead))
                ++n;
        return n;
    };
    std::printf("\nconfigs within 20%% of peak: nginx %d vs redis %d "
                "(paper: 9 vs 2)\n",
                countWithin(nginx, nginxMax, 0.20),
                countWithin(redis, redisMax, 0.20));
    std::printf("configs within 45%% of peak: nginx %d vs redis %d "
                "(paper: 32 vs 20)\n",
                countWithin(nginx, nginxMax, 0.45),
                countWithin(redis, redisMax, 0.45));

    // --- Per-boundary dimensions -------------------------------------
    // Mechanism: each block picks from {none, mpk, ept, cheri}, so
    // keeping only the network boundary on EPT buys VM-grade isolation
    // where it matters at a fraction of the all-EPT cost. Gate flavour:
    // each block's boundary picks light (ERIM-style) or dss
    // (HODOR-style), so a hot trusted boundary can run the cheap gate
    // while an attacker-facing one keeps the register-scrubbing one.
    // Vectored crossings: batch width is performance-only (every call
    // still passes entry checks and rate enforcement), the elided set
    // orders points by subset in the poset.
    scatterSections(
        {{"Mixed-mechanism", "per-block mechanism assignments",
          wayfinder::mixedMechanismSpace()},
         {"Gate-flavour",
          "per-block flavour assignments (light < dss per boundary)",
          wayfinder::gateFlavorSpace()},
         {"Vectored-crossing",
          "batch/elide points (batch perf-only, elide subset-ordered)",
          wayfinder::batchingSpace()}});

    // --- Pruned product sweep ----------------------------------------
    // mechanism x flavour x deny x elide x batch for one partition,
    // enumerated lazily with monotone budget pruning: once a point
    // misses the budget, everything safety-dominating it is skipped
    // unevaluated — the full product is never materialized.
    {
        std::vector<int> partition = {0, 0, 0, 1}; // lwip split
        std::vector<ConfigPoint> accepted;
        // Tight enough that the weaker-performing (safer) corners of
        // the product miss it, so the pruning actually fires.
        double budget = 0.8 * redisMax;
        std::size_t evaluated = wayfinder::prunedBoundarySweep(
            partition, "libredis",
            [](ConfigPoint &p) {
                return wayfinder::measureRedis(p, 100);
            },
            budget, accepted);
        std::size_t blocks = 2; // lwip split has two blocks
        std::size_t deniable =
            blocks * blocks - blocks -
            wayfinder::requiredBlockEdges(partition, "libredis").size();
        std::size_t product = 16 * 4 * 4 * 3; // mech x flav x elide x batch
        for (std::size_t i = 0; i < deniable; ++i)
            product *= 2;
        std::printf("\n=== Pruned boundary sweep (lwip split): "
                    "mechanism x flavour x deny x elide x batch ===\n");
        std::printf("  budget %.1f req/s: evaluated %zu of %zu points "
                    "(%zu pruned unevaluated), %zu met the budget\n",
                    budget, evaluated, product, product - evaluated,
                    accepted.size());
        std::sort(accepted.begin(), accepted.end(),
                  [](const ConfigPoint &a, const ConfigPoint &b) {
                      return a.perf > b.perf;
                  });
        std::size_t show = std::min<std::size_t>(accepted.size(), 12);
        for (std::size_t i = 0; i < show; ++i)
            std::printf("  %10.1f req/s  %s\n", accepted[i].perf,
                        wayfinder::pointLabel(accepted[i], "app")
                            .c_str());
    }

    // --- Asymmetric boundary policies --------------------------------
    // With a full (from, to) matrix, a crossing's cost can depend on
    // both endpoints. Canonical case: calls from an EPT VM into an MPK
    // compartment return into the caller's own trusted VM state, so
    // the return-side register scrub can be waived (`scrub: false` on
    // the net -> * edge) without weakening what the *callee* boundary
    // protects. Measure the raw EPT->MPK gate round trip both ways.
    auto eptToMpkGateCost = [](bool skipReturnScrub) {
        std::string cfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
- net:
    mechanism: vm-ept
libraries:
- libredis: app
- newlib: sys
- uksched: sys
- lwip: net
)";
        if (skipReturnScrub)
            cfg += "boundaries:\n- net -> '*': {scrub: false}\n";
        DeployOptions opts;
        opts.withNet = false;
        opts.withFs = false;
        Deployment dep(cfg, opts);
        constexpr std::uint64_t iters = 2000;
        Cycles measured = 0;
        bool done = false;
        // Spawn inside the EPT VM and gate into the MPK sys
        // compartment: the (net -> sys) cell of the matrix.
        dep.image().spawnIn("lwip", "ept-caller", [&] {
            Machine &m = dep.machine();
            Cycles before = m.cycles();
            for (std::uint64_t i = 0; i < iters; ++i)
                dep.image().gate("uksched", "yield", [] {});
            measured = m.cycles() - before;
            done = true;
        });
        dep.scheduler().runUntil([&] { return done; });
        return static_cast<double>(measured) /
               static_cast<double>(iters);
    };
    double symmetric = eptToMpkGateCost(false);
    double asymmetric = eptToMpkGateCost(true);
    std::printf("\n=== Asymmetric boundary: EPT->MPK return policy "
                "===\n");
    std::printf("  net -> sys, full dss gate          : %7.1f "
                "vcycles/crossing\n",
                symmetric);
    std::printf("  net -> sys, scrub: false on return : %7.1f "
                "vcycles/crossing (%.1f%% cheaper)\n",
                asymmetric, 100.0 * (symmetric - asymmetric) / symmetric);

    // --- Least-privilege dimension -----------------------------------
    // deny: rules prune the reachable call graph per boundary. The
    // wayfinder enumerates only subsets of edges the static call graph
    // can spare — a point denying a required edge would be rejected at
    // image build, so denied edges are never swept as reachable.
    scatterSections({{"Least-privilege",
                      "deny-rule subsets over the Figure 8 partitions",
                      wayfinder::leastPrivilegeSpace()}});

    // --- Denied and throttled boundaries under load ------------------
    // A rate-limited boundary back-pressures gate storms (stall) and
    // a denied edge refuses dynamic crossings the static graph never
    // promised. Both show up in the stats: gate.throttled with the
    // stalled vcycles, gate.denied per refused crossing.
    {
        const char *cfg = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- sys:
    mechanism: intel-mpk
libraries:
- libredis: app
- uksched: sys
- uktime: sys
boundaries:
- app -> sys: {rate: 50, window: 1000000, overflow: stall}
- sys -> app: {deny: true}
)";
        DeployOptions opts;
        opts.withNet = false;
        opts.withFs = false;
        Deployment dep(cfg, opts);
        Machine &m = dep.machine();
        constexpr std::uint64_t crossings = 200;
        Cycles spent = 0;
        std::uint64_t denied = 0;
        bool done = false;
        dep.image().spawnIn("libredis", "storm", [&] {
            Cycles before = m.cycles();
            for (std::uint64_t i = 0; i < crossings; ++i)
                dep.image().gate("uksched", "yield", [] {});
            spent = m.cycles() - before;
            // The reverse edge is denied outright.
            dep.image().gate("uksched", "yield", [&] {
                try {
                    dep.image().gate("libredis", "redis_handle_conn",
                                     [] {});
                } catch (const DeniedCrossing &) {
                    ++denied;
                }
            });
            done = true;
        });
        dep.scheduler().runUntil([&] { return done; });
        std::printf("\n=== Gate-storm containment: rate-limited and "
                    "denied boundaries ===\n");
        std::printf("  app -> sys rate 50/1M vcycles, %lu crossings: "
                    "%7.1f vcycles/crossing\n",
                    static_cast<unsigned long>(crossings),
                    static_cast<double>(spent) /
                        static_cast<double>(crossings));
        std::printf("  gate.throttled       : %10lu\n",
                    static_cast<unsigned long>(
                        m.counter("gate.throttled")));
        std::printf("  machine.stallCycles  : %10lu\n",
                    static_cast<unsigned long>(
                        m.counter("machine.stallCycles")));
        std::printf("  gate.denied (sys -> app attempts): %lu "
                    "(DeniedCrossing raised %lu)\n",
                    static_cast<unsigned long>(m.counter("gate.denied")),
                    static_cast<unsigned long>(denied));
    }

    // --- Closed-loop containment -------------------------------------
    // The static containment above needs the rate written into the
    // config up front; the runtime policy controller derives it online
    // from the counters and applies it through quiesced matrix swaps.
    closedLoopSection(jsonMode, jsonPath);
    return 0;
}
