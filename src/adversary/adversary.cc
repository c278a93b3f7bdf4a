#include "adversary/adversary.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/deploy.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "core/hardening.hh"
#include "core/image.hh"
#include "machine/machine.hh"
#include "net/nic.hh"
#include "net/tcp.hh"
#include "uksched/scheduler.hh"

namespace flexos {
namespace adversary {

namespace {

std::string
hex16(std::uint64_t v)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%04llx",
                  static_cast<unsigned long long>(v & 0xffff));
    return buf;
}

/** Permissiveness rank of a stack-sharing strategy (higher = looser). */
int
sharingRank(StackSharing s)
{
    switch (s) {
    case StackSharing::Heap:
        return 0;
    case StackSharing::Dss:
        return 1;
    case StackSharing::SharedStack:
        return 2;
    }
    return 0;
}

/**
 * The attack harness: one compromised compartment, a live deployment,
 * and the scenario catalogue. Scenarios run on attacker fibers spawned
 * inside the compromised compartment — every probe goes through the
 * same gates, MMU checks and backends legitimate code uses, so what
 * the scorecard measures is what the deployed mechanisms enforce.
 *
 * Must run in driver context (it drives the scheduler with runUntil).
 */
class Harness
{
  public:
    Harness(Deployment &d, const AttackOptions &o)
        : dep(d), img(d.image()), m(d.machine()), sched(d.scheduler()),
          opts(o), rng(o.seed)
    {
        attackerComp = compIndexOfLib(opts.attackerLib);
        fatal_if(attackerComp < 0, "adversary: attacker library '",
                 opts.attackerLib, "' is not in the configuration");
        attackerName = compName(attackerComp);
        // Crossings outside the static call graph are what a ROP
        // pivot must forge.
        talksTo.assign(img.compartmentCount(), false);
        for (const StaticCall &c : staticCalls(img.config(), img.registry()))
            if (c.from == attackerComp)
                talksTo[static_cast<std::size_t>(c.to)] = true;
    }

    void illegalCrossings(std::vector<AttackResult> &out);
    void returnCorruption(std::vector<AttackResult> &out);
    void forgedDoorbells(std::vector<AttackResult> &out);
    void infoLeaks(std::vector<AttackResult> &out);
    void resourceAttacks(std::vector<AttackResult> &out);

  private:
    const std::string &
    compName(int c) const
    {
        return img.config()
            .compartments[static_cast<std::size_t>(c)]
            .name;
    }

    int
    compIndexOfLib(const std::string &lib) const
    {
        const SafetyConfig &cfg = img.config();
        for (const auto &[l, compName] : cfg.libraries) {
            if (l != lib)
                continue;
            for (std::size_t i = 0; i < cfg.compartments.size(); ++i)
                if (cfg.compartments[i].name == compName)
                    return static_cast<int>(i);
        }
        return -1;
    }

    /**
     * The library a scenario impersonates calls to in a target
     * compartment: the first configured non-TCB library living there
     * (TCB libraries may be replicated into the caller's compartment
     * under EPT, which would turn the probe into a local call and
     * misscore it). Empty if the compartment has no such library.
     */
    std::string
    repLibOf(int c) const
    {
        const SafetyConfig &cfg = img.config();
        const std::string &want = compName(c);
        std::string fallback;
        for (const auto &[lib, comp] : cfg.libraries) {
            if (comp != want)
                continue;
            if (!img.registry().get(lib).tcb)
                return lib;
            if (fallback.empty())
                fallback = lib;
        }
        return fallback;
    }

    /** First legal entry point of a library ("" if it exports none). */
    std::string
    entryOf(const std::string &lib) const
    {
        const auto &eps = img.registry().get(lib).entryPoints;
        return eps.empty() ? std::string() : *eps.begin();
    }

    /**
     * Run fn on a fiber inside the compromised compartment and drive
     * the scheduler until it finishes. Fibers that wedge are cancelled
     * so one stuck scenario never hangs the scorecard.
     */
    bool
    runAsAttacker(const std::string &name, std::function<void()> fn)
    {
        bool done = false;
        Thread *t = img.spawnIn(opts.attackerLib, name,
                                [&done, fn = std::move(fn)] {
                                    fn();
                                    done = true;
                                });
        bool ok = sched.runUntil([&done] { return done; });
        if (!ok && t->state() != Thread::State::Finished)
            sched.cancel(t);
        return done;
    }

    /**
     * The loosest stack-sharing strategy any allowed inbound boundary
     * imposes on a victim compartment — the layout an attacker can
     * count on finding the victim's frames under.
     */
    StackSharing
    loosestSharingInto(int v) const
    {
        StackSharing s = img.stackSharingFor(v);
        int n = static_cast<int>(img.compartmentCount());
        for (int f = 0; f < n; ++f) {
            if (f == v)
                continue;
            const GatePolicy &p = img.policyFor(f, v);
            if (p.deny)
                continue;
            if (sharingRank(p.stackSharing) > sharingRank(s))
                s = p.stackSharing;
        }
        return s;
    }

    /**
     * Park a fiber in compartment `v` with its simulated stack built
     * under the loosest reachable sharing strategy, so attack fibers
     * can aim at a live victim frame. Returns false if the victim
     * never came up (no library to host it).
     */
    struct Victim
    {
        Thread *thread = nullptr;
        char *stackBase = nullptr; ///< private half of the sim stack
        StackSharing sharing = StackSharing::Dss;
        /** Secret the victim itself writes into its frame before
         *  parking (the plant must run *inside* the compartment: under
         *  EPT the stack is vm-private and nothing else can seed it). */
        std::size_t plantOffset = 0;
        std::uint64_t plantValue = 0;
        bool ready = false;
        bool release = false;
        bool finished = false;
    };

    bool
    parkVictim(int v, Victim &vic)
    {
        std::string vlib = repLibOf(v);
        if (vlib.empty())
            return false;
        vic.sharing = loosestSharingInto(v);
        vic.thread = img.spawnIn(
            vlib, "victim-" + compName(v), [this, v, &vic] {
                SimStack &vs = img.simStackFor(
                    sched.current()->id(), v, vic.sharing);
                vic.stackBase = vs.mem.get();
                img.store(reinterpret_cast<std::uint64_t *>(
                              vic.stackBase + vic.plantOffset),
                          vic.plantValue);
                vic.ready = true;
                while (!vic.release)
                    sched.yield();
                vic.finished = true;
            });
        sched.runUntil([&vic] { return vic.ready; });
        if (!vic.ready) {
            dismissVictim(vic);
            return false;
        }
        return true;
    }

    void
    dismissVictim(Victim &vic)
    {
        vic.release = true;
        sched.runUntil([&vic] { return vic.finished; });
        if (!vic.finished && vic.thread &&
            vic.thread->state() != Thread::State::Finished)
            sched.cancel(vic.thread);
    }

    /**
     * Mount one forged gate from the attacker fiber and classify what
     * stopped it (or didn't). The containment witnesses are the
     * counters the runtime controller alerts on, so a contained attack
     * here is also a visible attack there.
     */
    AttackResult
    mountGate(AttackClass cls, const std::string &scenario,
              const std::string &lib, const std::string &fnName, int to)
    {
        AttackResult r;
        r.cls = cls;
        r.scenario = scenario;
        std::string edge = attackerName + "->" + compName(to);
        bool executed = false;
        runAsAttacker("adv-gate", [&] {
            Cycles start = m.cycles();
            try {
                img.gate(img.site(lib, fnName), [&] { executed = true; });
            } catch (const DeniedCrossing &) {
                r.outcome = Outcome::Contained;
                r.witness = "gate.denied." + edge;
                r.detectionCycles = m.cycles() - start;
            } catch (const ThrottledCrossing &) {
                r.outcome = Outcome::Partial;
                r.witness = "gate.throttled";
                r.detectionCycles = m.cycles() - start;
            } catch (const HardeningViolation &) {
                // Entry-point validation (CFI) refused the target.
                r.outcome = Outcome::Contained;
                r.witness = "gate.validate.reject." + edge;
                r.detectionCycles = m.cycles() - start;
            } catch (const ProtectionFault &) {
                r.outcome = Outcome::Contained;
                r.witness = "mmu.violations";
                r.detectionCycles = m.cycles() - start;
            }
        });
        if (executed) {
            r.outcome = Outcome::Breached;
            r.witness.clear();
            r.detectionCycles = 0;
        }
        return r;
    }

    Deployment &dep;
    Image &img;
    Machine &m;
    Scheduler &sched;
    AttackOptions opts;
    Rng rng;
    int attackerComp = -1;
    std::string attackerName;
    /** Compartments some static call of the attacker's lands in. */
    std::vector<bool> talksTo;
};

void
Harness::illegalCrossings(std::vector<AttackResult> &out)
{
    int n = static_cast<int>(img.compartmentCount());
    for (int to = 0; to < n; ++to) {
        if (to == attackerComp)
            continue;
        std::string lib = repLibOf(to);
        if (lib.empty() || img.registry().get(lib).tcb)
            continue;
        std::string edge = attackerName + "->" + compName(to);

        // (a) Pivot to a *legal* entry point of a compartment the
        // static call graph says we never talk to. Least privilege
        // (deny) is the only thing standing between a compromised
        // compartment and every API the image exports.
        std::string entry = entryOf(lib);
        if (!talksTo[static_cast<std::size_t>(to)] && !entry.empty())
            out.push_back(mountGate(AttackClass::IllegalCrossing,
                                    "rop-cross:" + edge, lib, entry,
                                    to));

        // (b) Pivot into the middle of the callee: a gate aimed at a
        // symbol the library never exported. Entry-point validation
        // (or a backend that always checks) must refuse it; a
        // non-validating boundary executes the gadget.
        std::string gadget = "gadget_" + hex16(rng.next());
        out.push_back(mountGate(AttackClass::IllegalCrossing,
                                "rop-gadget:" + edge, lib, gadget, to));
    }
}

void
Harness::returnCorruption(std::vector<AttackResult> &out)
{
    int n = static_cast<int>(img.compartmentCount());
    for (int v = 0; v < n; ++v) {
        if (v == attackerComp)
            continue;
        AttackResult r;
        r.cls = AttackClass::ReturnCorruption;
        r.scenario = "ret-corrupt:" + compName(v);

        // The victim's frame holds a (simulated) return address in its
        // private stack half. DSS keeps that half under the victim's
        // key — only the shadow area is shared — so the write must
        // fault; a shared-stack boundary hands the attacker the frame.
        const std::uint64_t planted = 0x4e7addc0ffee0000ull;
        const std::uint64_t forged = 0xbadc0de000000000ull;
        Victim vic;
        vic.plantOffset = 256;
        vic.plantValue = planted;
        if (!parkVictim(v, vic)) {
            r.outcome = Outcome::NotApplicable;
            out.push_back(r);
            continue;
        }
        auto *slot = reinterpret_cast<std::uint64_t *>(
            vic.stackBase + 256);
        bool wrote = false;
        runAsAttacker("adv-smash", [&] {
            Cycles start = m.cycles();
            try {
                img.store(slot, forged);
                wrote = true;
            } catch (const ProtectionFault &) {
                r.witness = "mmu.violations";
                r.detectionCycles = m.cycles() - start;
            } catch (const HardeningViolation &) {
                r.witness = "hardening";
                r.detectionCycles = m.cycles() - start;
            }
        });
        r.outcome = wrote && *slot == forged ? Outcome::Breached
                                             : Outcome::Contained;
        if (r.outcome == Outcome::Breached) {
            r.witness.clear();
            r.detectionCycles = 0;
        }
        dismissVictim(vic);
        out.push_back(r);
    }
}

void
Harness::forgedDoorbells(std::vector<AttackResult> &out)
{
    int n = static_cast<int>(img.compartmentCount());
    bool anyRing = false;
    for (int v = 0; v < n; ++v) {
        if (v == attackerComp)
            continue;
        if (img.compartmentAt(static_cast<std::size_t>(v))
                .spec.mechanism != Mechanism::VmEpt)
            continue;
        std::string vlib = repLibOf(v);
        if (vlib.empty())
            continue;
        anyRing = true;
        IsolationBackend &be = img.backendFor(v);
        using FRO = IsolationBackend::ForgedRpcOutcome;

        // (a) Forged slot naming a gadget: the server's entry-point
        // re-validation is the last line once ring memory is writable.
        {
            AttackResult r;
            r.cls = AttackClass::ForgedDoorbell;
            r.scenario = "doorbell-gadget:" + compName(v);
            runAsAttacker("adv-ring", [&] {
                Cycles start = m.cycles();
                FRO oc = be.injectForgedRpc(
                    img, v, img.site(vlib, "gadget_ring"), [] {});
                r.detectionCycles = m.cycles() - start;
                switch (oc) {
                case FRO::Rejected:
                    r.outcome = Outcome::Contained;
                    r.witness = "gate.ept.forgedRejected";
                    break;
                case FRO::Executed:
                    r.outcome = Outcome::Breached;
                    r.witness.clear();
                    r.detectionCycles = 0;
                    break;
                case FRO::NoRing:
                    r.outcome = Outcome::NotApplicable;
                    break;
                }
            });
            out.push_back(r);
        }

        // (b) Replayed slot naming a *legal* entry point: server-side
        // validation passes by construction, so what the forgery
        // gained depends on whether the caller-side matrix would have
        // allowed the edge at all.
        {
            AttackResult r;
            r.cls = AttackClass::ForgedDoorbell;
            r.scenario = "doorbell-replay:" + compName(v);
            std::string entry = entryOf(vlib);
            if (entry.empty()) {
                r.outcome = Outcome::NotApplicable;
                out.push_back(r);
            } else {
                bool ran = false;
                runAsAttacker("adv-replay", [&] {
                    Cycles start = m.cycles();
                    FRO oc = be.injectForgedRpc(
                        img, v, img.site(vlib, entry),
                        [&ran] { ran = true; });
                    r.detectionCycles = m.cycles() - start;
                    bool denied =
                        img.policyFor(attackerComp, v).deny;
                    if (oc == FRO::Executed && ran && denied) {
                        // The ring write bypassed a denied edge —
                        // bounded (only the exported API surface is
                        // reachable) but a real policy hole.
                        r.outcome = Outcome::Partial;
                        r.witness = "gate.ept.forgedRpcs";
                    } else if (oc == FRO::Executed) {
                        // Edge is allowed anyway: the forgery bought
                        // nothing a legitimate gate wouldn't.
                        r.outcome = Outcome::Contained;
                        r.witness = "gate.ept.forgedRpcs";
                    } else if (oc == FRO::Rejected) {
                        r.outcome = Outcome::Contained;
                        r.witness = "gate.ept.forgedRejected";
                    } else {
                        r.outcome = Outcome::NotApplicable;
                    }
                });
                out.push_back(r);
            }
        }

        // (c) Doorbell with no slot behind it: the server must absorb
        // the spurious wake (count it, not crash or spin).
        {
            AttackResult r;
            r.cls = AttackClass::ForgedDoorbell;
            r.scenario = "doorbell-spurious:" + compName(v);
            std::uint64_t before =
                m.counter(Counter::GateEptSpuriousDoorbells);
            bool rang = false;
            runAsAttacker("adv-bell", [&] {
                Cycles start = m.cycles();
                rang = be.injectSpuriousDoorbell(img, v);
                r.detectionCycles = m.cycles() - start;
            });
            // Let the woken server run, find nothing, and re-sleep.
            sched.runUntil([] { return false; }, 200);
            if (!rang) {
                r.outcome = Outcome::NotApplicable;
            } else {
                r.outcome = Outcome::Contained;
                r.witness = "gate.ept.spuriousDoorbells";
                panic_if(m.counter(Counter::GateEptSpuriousDoorbells) <=
                             before,
                         "spurious doorbell not witnessed");
            }
            out.push_back(r);
        }
    }
    if (!anyRing) {
        AttackResult r;
        r.cls = AttackClass::ForgedDoorbell;
        r.scenario = "doorbell";
        r.outcome = Outcome::NotApplicable;
        out.push_back(r);
    }
}

void
Harness::infoLeaks(std::vector<AttackResult> &out)
{
    int n = static_cast<int>(img.compartmentCount());
    for (int v = 0; v < n; ++v) {
        if (v == attackerComp)
            continue;
        std::string vlib = repLibOf(v);
        if (vlib.empty())
            continue;
        Compartment &vc = img.compartmentAt(static_cast<std::size_t>(v));

        // --- Scratch-register probe -----------------------------------
        // Secrets (among them a section pointer, i.e. the ASLR slide)
        // left in the scratch register file across a crossing. Gate
        // entry/return scrub legs are what stand between them and the
        // other side.
        {
            AttackResult r;
            r.cls = AttackClass::InfoLeak;
            const std::uint64_t base =
                0x5ec7e7ba5e000000ull ^ vc.layoutSlide;
            unsigned leaked = 0;
            const GatePolicy &fwd = img.policyFor(attackerComp, v);
            const GatePolicy &rev = img.policyFor(v, attackerComp);
            std::string ventry = entryOf(vlib);
            std::string aentry = entryOf(opts.attackerLib);
            if (!fwd.deny && !ventry.empty()) {
                // Call in, plant in callee context, read after return:
                // the return-side scrub leg is under test.
                r.scenario = "reg-probe:" + attackerName + "->" +
                             compName(v);
                runAsAttacker("adv-regprobe", [&] {
                    try {
                        img.gate(img.site(vlib, ventry), [&] {
                            for (std::size_t i = 0; i < m.scratch.size();
                                 ++i)
                                m.scratch[i] = base + i;
                        });
                    } catch (const ThrottledCrossing &) {
                        return; // never crossed: nothing to read
                    }
                    for (std::size_t i = 0; i < m.scratch.size(); ++i)
                        if (m.scratch[i] == base + i)
                            ++leaked;
                });
            } else if (!rev.deny && !aentry.empty()) {
                // Victim calls into us; the entry-side scrub leg is
                // under test.
                r.scenario = "reg-probe:" + compName(v) + "->" +
                             attackerName;
                bool done = false;
                Thread *vt = img.spawnIn(
                    vlib, "victim-caller", [&] {
                        for (std::size_t i = 0; i < m.scratch.size();
                             ++i)
                            m.scratch[i] = base + i;
                        try {
                            img.gate(img.site(opts.attackerLib, aentry),
                                     [&] {
                                         for (std::size_t i = 0;
                                              i < m.scratch.size(); ++i)
                                             if (m.scratch[i] ==
                                                 base + i)
                                                 ++leaked;
                                     });
                        } catch (const ThrottledCrossing &) {
                        }
                        done = true;
                    });
                sched.runUntil([&done] { return done; });
                if (!done && vt->state() != Thread::State::Finished)
                    sched.cancel(vt);
            } else {
                r.scenario = "reg-probe:" + attackerName + "<->" +
                             compName(v);
                r.outcome = Outcome::Contained;
                r.witness = "gate.denied (no channel)";
                out.push_back(r);
                leaked = 0;
            }
            if (!r.scenario.empty() &&
                r.witness != "gate.denied (no channel)") {
                if (leaked > 0) {
                    r.outcome = Outcome::Breached;
                    r.bitsLeaked = leaked * 64;
                    // Register 0 carried a section pointer: reading
                    // any slide-xored value back defeats the whole
                    // per-compartment ASLR budget at once.
                    r.entropyDefeated = vc.layoutEntropyBits;
                } else {
                    r.outcome = Outcome::Contained;
                    r.witness = "gate scrub leg";
                }
                out.push_back(r);
            }
        }

        // --- Stack scan -----------------------------------------------
        // Linear read sweep over the victim's private stack half,
        // hunting a planted secret (again slide-xored: finding it
        // also de-randomizes the compartment).
        {
            AttackResult r;
            r.cls = AttackClass::InfoLeak;
            r.scenario = "stack-scan:" + compName(v);
            const std::uint64_t secret =
                0x0de5c0de5ca90000ull ^ vc.layoutSlide;
            Victim vic;
            vic.plantOffset = 192;
            vic.plantValue = secret;
            if (!parkVictim(v, vic)) {
                r.outcome = Outcome::NotApplicable;
                out.push_back(r);
                continue;
            }
            bool found = false;
            runAsAttacker("adv-scan", [&] {
                Cycles start = m.cycles();
                try {
                    for (std::size_t off = 0;
                         off < SimStack::stackBytes;
                         off += sizeof(std::uint64_t)) {
                        auto *p =
                            reinterpret_cast<const std::uint64_t *>(
                                vic.stackBase + off);
                        if (img.load(p) == secret) {
                            found = true;
                            break;
                        }
                    }
                } catch (const ProtectionFault &) {
                    r.witness = "mmu.violations";
                    r.detectionCycles = m.cycles() - start;
                } catch (const HardeningViolation &) {
                    r.witness = "hardening";
                    r.detectionCycles = m.cycles() - start;
                }
            });
            if (found) {
                r.outcome = Outcome::Breached;
                r.bitsLeaked = 64;
                r.entropyDefeated = vc.layoutEntropyBits;
                r.witness.clear();
                r.detectionCycles = 0;
            } else {
                r.outcome = Outcome::Contained;
                if (r.witness.empty())
                    r.witness = "stack layout (nothing shared)";
            }
            dismissVictim(vic);
            out.push_back(r);
        }
    }
}

void
Harness::resourceAttacks(std::vector<AttackResult> &out)
{
    if (!opts.withNet || !dep.nicLink()) {
        AttackResult r;
        r.cls = AttackClass::Resource;
        r.scenario = "resource";
        r.outcome = Outcome::NotApplicable;
        out.push_back(r);
        return;
    }
    NetStack &srv = dep.serverStack();
    NetStack &cli = dep.clientStack();

    // --- Flow-table churn ---------------------------------------------
    // Rapid connect/abort cycles: contained when the server's flow
    // table returns to baseline (no leaked flow state per churned
    // connection).
    {
        AttackResult r;
        r.cls = AttackClass::Resource;
        r.scenario = "flow-churn";
        const std::uint16_t port = 9610;
        TcpSocket *lst = srv.listen(port, 16);
        std::size_t baseFlows = srv.flowCount();
        bool stopAccept = false;
        Thread *acceptor = sched.spawn("churn-acceptor", [&] {
            while (!stopAccept) {
                TcpSocket *c = lst->accept();
                if (!c)
                    break;
                c->abort();
            }
        });
        bool churnDone = false;
        Cycles start = m.cycles();
        Thread *client = sched.spawn("churn-client", [&] {
            for (int i = 0; i < 24; ++i) {
                TcpSocket *c = cli.connect(srv.ip(), port);
                if (c)
                    c->abort();
            }
            churnDone = true;
        });
        sched.runUntil([&churnDone] { return churnDone; });
        bool drained = sched.runUntil([&] {
            return srv.flowCount() <= baseFlows + 1;
        });
        r.outcome = churnDone && drained ? Outcome::Contained
                                         : Outcome::Breached;
        if (r.outcome == Outcome::Contained) {
            r.witness = "tcp flow reclaim";
            r.detectionCycles = m.cycles() - start;
        }
        stopAccept = true;
        if (client->state() != Thread::State::Finished)
            sched.cancel(client);
        if (acceptor->state() != Thread::State::Finished)
            sched.cancel(acceptor);
        lst->close();
        sched.runUntil([] { return false; }, 500);
        out.push_back(r);
    }

    // --- Out-of-order queue exhaustion --------------------------------
    // Drop one in-flight frame on the server NIC so everything behind
    // it lands out of order, then pour data in: the reassembly queue
    // must evict (tcp.oooEvicted) instead of growing without bound.
    {
        AttackResult r;
        r.cls = AttackClass::Resource;
        r.scenario = "ooo-exhaust";
        const std::uint16_t port = 9611;
        TcpSocket *lst = srv.listen(port, 8);
        TcpSocket *child = nullptr;
        TcpSocket *peer = nullptr;
        Thread *acc = sched.spawn("ooo-acceptor",
                                  [&] { child = lst->accept(); });
        Thread *con = sched.spawn("ooo-connector", [&] {
            peer = cli.connect(srv.ip(), port);
        });
        sched.runUntil([&] { return child && peer; });
        if (!child || !peer) {
            r.outcome = Outcome::NotApplicable;
            if (acc->state() != Thread::State::Finished)
                sched.cancel(acc);
            if (con->state() != Thread::State::Finished)
                sched.cancel(con);
            lst->close();
            out.push_back(r);
        } else {
            child->oooLimit = 2048;
            std::uint64_t evBase = m.counter(Counter::TcpOooEvicted);
            NicEndpoint &srvNic = dep.nicLink()->endA();
            bool droppedOne = false;
            srvNic.rxFilter = [&droppedOne](NetBuf &f) {
                if (!droppedOne && f.size() > 600) {
                    droppedOne = true;
                    return false; // swallow one data frame
                }
                return true;
            };
            bool sendDone = false;
            Cycles start = m.cycles();
            Thread *sender = sched.spawn("ooo-sender", [&] {
                std::vector<char> buf(1024, 'A');
                for (int i = 0; i < 8; ++i)
                    peer->send(buf.data(), buf.size());
                sendDone = true;
            });
            bool evicted = sched.runUntil([&] {
                return m.counter(Counter::TcpOooEvicted) > evBase;
            });
            r.detectionCycles = m.cycles() - start;
            bool bounded =
                child->oooQueuedBytes() <= child->oooLimit;
            if (!bounded)
                r.outcome = Outcome::Breached;
            else if (evicted) {
                r.outcome = Outcome::Contained;
                r.witness = "tcp.oooEvicted";
            } else {
                // Queue stayed bounded without needing eviction: the
                // attack fizzled against the window, still contained.
                r.outcome = Outcome::Contained;
                r.witness = "ooo bound";
            }
            srvNic.rxFilter = nullptr;
            sched.runUntil([&sendDone] { return sendDone; });
            if (sender->state() != Thread::State::Finished)
                sched.cancel(sender);
            peer->abort();
            child->abort();
            lst->close();
            sched.runUntil([] { return false; }, 500);
            out.push_back(r);
        }
    }

    // --- SYN flood (last: cancelled connects may strand client flows)
    // More handshakes than the listener backlog admits: containment is
    // the drop counter firing while the accept queue stays within the
    // configured bound.
    {
        AttackResult r;
        r.cls = AttackClass::Resource;
        r.scenario = "syn-flood";
        const std::uint16_t port = 9612;
        const std::size_t backlog = 2;
        TcpSocket *lst = srv.listen(port, backlog);
        std::uint64_t dropBase = m.counter(Counter::TcpBacklogDrops);
        std::vector<Thread *> flood;
        std::vector<TcpSocket *> floodSocks;
        Cycles start = m.cycles();
        for (int i = 0; i < 12; ++i)
            flood.push_back(
                sched.spawn("flood-" + std::to_string(i), [&] {
                    TcpSocket *c = cli.connect(srv.ip(), port);
                    if (c)
                        floodSocks.push_back(c);
                }));
        bool dropped = sched.runUntil([&] {
            return m.counter(Counter::TcpBacklogDrops) > dropBase;
        });
        r.detectionCycles = m.cycles() - start;
        bool boundHeld = lst->pendingAccepts() <= backlog;
        if (dropped && boundHeld) {
            r.outcome = Outcome::Contained;
            r.witness = "tcp.backlogDrops";
        } else if (boundHeld) {
            r.outcome = Outcome::Partial;
            r.witness = "backlog bound (no drop witnessed)";
        } else {
            r.outcome = Outcome::Breached;
            r.detectionCycles = 0;
        }
        for (Thread *t : flood)
            if (t->state() != Thread::State::Finished)
                sched.cancel(t);
        bool reaped = false;
        Thread *reaper = sched.spawn("flood-reaper", [&] {
            while (lst->pendingAccepts() > 0) {
                TcpSocket *c = lst->accept();
                if (!c)
                    break;
                c->abort();
            }
            reaped = true;
        });
        sched.runUntil([&reaped] { return reaped; }, 200'000);
        if (reaper->state() != Thread::State::Finished)
            sched.cancel(reaper);
        for (TcpSocket *c : floodSocks)
            c->abort();
        lst->close();
        sched.runUntil([] { return false; }, 500);
        out.push_back(r);
    }
}

} // namespace

const char *
attackClassName(AttackClass c)
{
    switch (c) {
    case AttackClass::IllegalCrossing:
        return "rop-crossing";
    case AttackClass::ReturnCorruption:
        return "ret-corrupt";
    case AttackClass::ForgedDoorbell:
        return "doorbell";
    case AttackClass::InfoLeak:
        return "info-leak";
    case AttackClass::Resource:
        return "resource";
    }
    return "?";
}

bool
parseAttackClass(const std::string &name, AttackClass &out)
{
    for (AttackClass c : allAttackClasses()) {
        if (name == attackClassName(c)) {
            out = c;
            return true;
        }
    }
    return false;
}

const std::vector<AttackClass> &
allAttackClasses()
{
    static const std::vector<AttackClass> all = {
        AttackClass::IllegalCrossing, AttackClass::ReturnCorruption,
        AttackClass::ForgedDoorbell, AttackClass::InfoLeak,
        AttackClass::Resource,
    };
    return all;
}

const char *
outcomeName(Outcome o)
{
    switch (o) {
    case Outcome::Contained:
        return "contained";
    case Outcome::Partial:
        return "partial";
    case Outcome::Breached:
        return "breached";
    case Outcome::NotApplicable:
        return "n/a";
    }
    return "?";
}

std::size_t
AttackScorecard::contained() const
{
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(), [](const auto &r) {
            return r.outcome == Outcome::Contained;
        }));
}

std::size_t
AttackScorecard::partial() const
{
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(), [](const auto &r) {
            return r.outcome == Outcome::Partial;
        }));
}

std::size_t
AttackScorecard::breached() const
{
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(), [](const auto &r) {
            return r.outcome == Outcome::Breached;
        }));
}

unsigned
AttackScorecard::bitsLeaked() const
{
    unsigned total = 0;
    for (const AttackResult &r : results)
        total += r.bitsLeaked;
    return total;
}

unsigned
AttackScorecard::entropyDefeated() const
{
    unsigned total = 0;
    for (const AttackResult &r : results)
        total += r.entropyDefeated;
    return total;
}

bool
AttackScorecard::fullContainment() const
{
    return breached() == 0 && partial() == 0;
}

int
AttackScorecard::score() const
{
    return static_cast<int>(breached()) * 10 +
           static_cast<int>(partial()) * 3;
}

std::string
AttackScorecard::summary() const
{
    return std::to_string(results.size()) + " scenarios: " +
           std::to_string(contained()) + " contained, " +
           std::to_string(partial()) + " partial, " +
           std::to_string(breached()) + " breached (" +
           std::to_string(bitsLeaked()) + " bits leaked, " +
           std::to_string(entropyDefeated()) +
           " entropy bits defeated), score " + std::to_string(score());
}

AttackScorecard
runAttackClass(Deployment &dep, AttackClass cls,
               const AttackOptions &opts)
{
    Harness h(dep, opts);
    AttackScorecard card;
    switch (cls) {
    case AttackClass::IllegalCrossing:
        h.illegalCrossings(card.results);
        break;
    case AttackClass::ReturnCorruption:
        h.returnCorruption(card.results);
        break;
    case AttackClass::ForgedDoorbell:
        h.forgedDoorbells(card.results);
        break;
    case AttackClass::InfoLeak:
        h.infoLeaks(card.results);
        break;
    case AttackClass::Resource:
        h.resourceAttacks(card.results);
        break;
    }
    return card;
}

AttackScorecard
runScorecard(Deployment &dep, const AttackOptions &opts)
{
    Harness h(dep, opts);
    AttackScorecard card;
    h.illegalCrossings(card.results);
    h.returnCorruption(card.results);
    h.forgedDoorbells(card.results);
    h.infoLeaks(card.results);
    h.resourceAttacks(card.results);
    return card;
}

} // namespace adversary
} // namespace flexos
