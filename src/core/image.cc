#include "core/image.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace flexos {

namespace {

/**
 * splitmix64 of a compartment name: the deterministic "ASLR seed" the
 * linker script draws layout slides from. A real loader would use a
 * boot-time random source; the simulation keys off the name so every
 * run of the same config produces the same (reproducible) layout while
 * distinct compartments still land on unrelated slides.
 */
std::uint64_t
layoutSeed(const std::string &name)
{
    std::uint64_t z = 0x9e3779b97f4a7c15ull;
    for (unsigned char ch : name)
        z = (z ^ ch) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

unsigned
layoutEntropyBits(Mechanism m)
{
    switch (m) {
      case Mechanism::None:
        return 0; // one domain, one load address: nothing to slide
      case Mechanism::IntelMpk:
      case Mechanism::CubicleMpk:
        return 12; // shared address space: section-level shuffle only
      case Mechanism::VmEpt:
        return 28; // whole guest-physical map per compartment
      case Mechanism::Cheri:
        return 14; // bounded caps let the loader scatter sections
      case Mechanism::LinuxPt:
        return 22; // per-process mmap ASLR
      case Mechanism::Sel4Ipc:
        return 16; // per-server vspace layout
    }
    return 0;
}

Image::Image(Machine &m, Scheduler &s, SafetyConfig config,
             const LibraryRegistry &registry)
    : mach(m), sched(s), cfg(std::move(config)), reg(registry),
      quiesceWait(s)
{
    // Build compartment objects (memory comes later, at boot()).
    // Key virtualization: only key-consuming compartments take a
    // protection key; EPT compartments are VM-private (their memory is
    // unmapped outside the VM) and stay off the key budget, lifting
    // the 15-compartment cap for mixed images.
    ProtKey nextKey = 0;
    for (std::size_t i = 0; i < cfg.compartments.size(); ++i) {
        auto c = std::make_unique<Compartment>();
        c->id = static_cast<int>(i);
        c->spec = cfg.compartments[i];
        c->hardenMultiplier =
            hardeningMultiplier(c->spec.hardening, mach.timing);
        if (mechanismConsumesProtKey(c->spec.mechanism)) {
            fatal_if(nextKey >= sharedProtKey,
                     "the key-tagged region model supports at most ",
                     numProtKeys - 1,
                     " key-consuming compartments per image (one key "
                     "is reserved for the shared domain)");
            c->key = nextKey++;
            c->domain = Pkru::allowing({c->key, sharedProtKey});
        } else {
            // VM-private: no key; inside the VM only its own memory
            // (via the VM token) and the shared domain are reachable.
            c->vmPrivate = true;
            c->key = sharedProtKey;
            c->domain = Pkru::allowing({sharedProtKey});
        }
        // Page-aligned layout slide, masked to the mechanism's entropy
        // budget (an info leak of any section pointer reveals it all).
        c->layoutEntropyBits = flexos::layoutEntropyBits(c->spec.mechanism);
        c->layoutSlide = c->layoutEntropyBits == 0
                             ? 0
                             : (layoutSeed(c->spec.name) &
                                ((1ull << c->layoutEntropyBits) - 1))
                                   << 12;
        comps.push_back(std::move(c));
    }

    // Routing table: one row per placed library and per registry TCB
    // library, resolved here once through landingCompartment(). A
    // row's multiplier is its compartment's hardening plus the
    // component's own set (Figure 6 hardens per component); a TCB
    // library placed nowhere runs in its caller and inherits no extra
    // instrumentation.
    auto addRoute = [&](const std::string &lib, int home) {
        LibraryRoute &r = routes[lib];
        r.home = home;
        for (std::size_t from = 0; from < comps.size(); ++from)
            r.landing.push_back(
                landingCompartment(cfg, reg, lib, static_cast<int>(from)));
        if (home < 0)
            return;
        std::vector<Hardening> set =
            cfg.compartments[static_cast<std::size_t>(home)].hardening;
        auto it = cfg.libHardening.find(lib);
        if (it != cfg.libHardening.end())
            set.insert(set.end(), it->second.begin(), it->second.end());
        r.mult = hardeningMultiplier(set, mach.timing);
    };
    for (const auto &[lib, compName] : cfg.libraries)
        addRoute(lib, cfg.compartmentIndex(compName));
    for (const std::string &lib : reg.names())
        if (reg.get(lib).tcb && !routes.count(lib))
            addRoute(lib, -1);

    // One backend per distinct mechanism; each boundary's crossing is
    // enforced under the gate matrix's resolved (from, to) policy.
    gates = GateMatrix::build(cfg);
    gateBuckets.resize(comps.size() * comps.size());
    boundaryLedger.resize(comps.size() * comps.size());
    compLastCore.assign(comps.size(), -1);
    for (Mechanism m : cfg.mechanisms())
        backends.push_back(makeBackend(m));
    compBackends.resize(comps.size(), nullptr);
    for (std::size_t i = 0; i < comps.size(); ++i) {
        for (auto &b : backends)
            if (b->mechanism() == comps[i]->spec.mechanism)
                compBackends[i] = b.get();
        panic_if(!compBackends[i], "compartment without a backend");
    }
}

void
Image::enforceBoundary(int from, int to, const GatePolicy &pol)
{
    std::size_t cell = boundaryIndex(from, to);
    if (pol.deny) {
        mach.bump("gate.denied");
        // Per-edge witness: the runtime controller's deny-alert rule
        // needs to know WHICH edge is being probed, not just that
        // some denied crossing happened somewhere.
        ++boundaryLedger[cell].denied;
        throw DeniedCrossing(
            cfg.compartments[static_cast<std::size_t>(from)].name,
            cfg.compartments[static_cast<std::size_t>(to)].name);
    }
    if (!pol.rate)
        return;

    // Token bucket in virtual time: `rate` tokens per `rateWindow`
    // vcycles, starting full. The refill is fractional so a budget of
    // N/window behaves identically to k*N/(k*window). The policy's QoS
    // weight scales the edge's effective budget, so boundaries
    // inheriting one wildcard `rate:` can be biased per caller.
    GateBucket &b = gateBuckets[cell];
    Cycles now = mach.cycles();
    double rate = static_cast<double>(pol.rate * pol.weight);
    if (!b.primed) {
        b.tokens = rate;
        b.primed = true;
    } else if (now > b.lastRefill) {
        double refill = static_cast<double>(now - b.lastRefill) * rate /
                        static_cast<double>(pol.rateWindow);
        b.tokens = std::min(rate, b.tokens + refill);
    }
    b.lastRefill = now;

    if (b.tokens < 1.0) {
        mach.bump("gate.throttled");
        // Per-edge breakdown: who is being back-pressured matters for
        // QoS tuning (which `weight:` to raise).
        ++boundaryLedger[cell].throttled;
        if (pol.overflow == RateOverflow::Fail)
            throw ThrottledCrossing(
                cfg.compartments[static_cast<std::size_t>(from)].name,
                cfg.compartments[static_cast<std::size_t>(to)].name);
        // Stall: back-pressure the caller until the next token
        // refills. Waiting is not work, so the virtual clock advances
        // without the hardening multiplier (machine.stallCycles).
        auto wait = static_cast<Cycles>(
            (1.0 - b.tokens) * static_cast<double>(pol.rateWindow) /
                rate +
            1.0);
        mach.stall(wait);
        b.tokens = 1.0;
        b.lastRefill = mach.cycles();
    }
    b.tokens -= 1.0;
}

bool
Image::noteBoundaryStreak(int from, int to)
{
    Thread *t = sched.current();
    int id = t ? t->id() : -1;
    auto key = std::make_pair(from, to);
    auto [it, inserted] = lastBoundary.try_emplace(id, key);
    if (inserted)
        return false;
    bool same = it->second == key;
    it->second = key;
    return same;
}

const GatePolicy &
Image::applyElision(int from, int to, const GatePolicy &pol,
                    GatePolicy &scratch)
{
    bool streak = noteBoundaryStreak(from, to);
    if (pol.validateEntry) {
        if (streak && elidesValidate(pol.elide)) {
            mach.bump("gate.elided.validate");
        } else {
            // Policy-forced caller-side entry validation: one probe
            // of the callee's export table, whatever the mechanism's
            // own rule (the functional check is in checkEntry).
            mach.consume(mach.timing.entryValidate);
            mach.bump("gate.validate");
        }
    }
    if (streak && elidesScrub(pol.elide) && pol.scrubReturn) {
        scratch = pol;
        scratch.scrubReturn = false;
        mach.bump("gate.elided.scrub");
        return scratch;
    }
    return pol;
}

void
Image::crossChunk(const std::string &calleeLib, const char *fnName,
                  int from, int to, double calleeMult,
                  const std::function<void()> *bodies, std::size_t k)
{
    // A pending quiesced matrix swap wins over NEW crossings: yielding
    // here — before any policy reference is taken — lets the swapper
    // flip at the next drained instant instead of being starved by a
    // crossing storm. Charge-free when no swap is pending, so static
    // images are untouched.
    if (swapWaiters > 0 && sched.current())
        yieldForSwap();
    // Per-boundary dispatch: the (from, to) cell of the gate matrix
    // decides how this crossing is enforced — mechanism, MPK flavour,
    // entry validation, return-side scrubbing, and the least-privilege
    // rules checked before any gate cost is charged. Enforcement is
    // per LOGICAL call: a chunk of k debits the token bucket k times
    // (and a denied edge rejects the whole chunk before any work).
    const GatePolicy &pol = policyFor(from, to);
    for (std::size_t j = 0; j < k; ++j)
        enforceBoundary(from, to, pol);
    GatePolicy scratch;
    const GatePolicy &eff = applyElision(from, to, pol, scratch);
    checkEntry(calleeLib, fnName, from, to, pol);
    noteCoreMigration(to);
    IsolationBackend &be = backendOf(pol.mech);
    // `pol`/`eff` reference cells of the live matrix; the scope keeps
    // swapGateMatrix from replacing it while the crossing (which may
    // suspend inside an EPT ring RPC) is in flight.
    CrossingScope xing(*this);
    if (k > 1) {
        mach.bump("gate.batched");
        mach.bump("gate.batchedCalls", k);
    }
    // Every call past enforcement counts once, here, whichever backend
    // carries it — also the calls of a vector a throwing body aborts.
    boundaryLedger[boundaryIndex(from, to)].crossings += k;
    be.crossCall(*this, to, eff, calleeLib, fnName, calleeMult, bodies,
                 k);
    noteReturn(pol);
}

void
Image::gateBatch(const std::string &calleeLib, const char *fnName,
                 const std::vector<std::function<void()>> &bodies)
{
    int from = currentCompartment();
    const LibraryRoute &r = route(calleeLib);
    int to = r.landing[static_cast<std::size_t>(from)];
    if (from == to) {
        for (const auto &body : bodies)
            gate(calleeLib, fnName, body);
        return;
    }
    const auto width = static_cast<std::size_t>(
        std::max<std::uint64_t>(policyFor(from, to).batch, 1));
    for (std::size_t i = 0; i < bodies.size(); i += width)
        crossChunk(calleeLib, fnName, from, to, r.mult, &bodies[i],
                   std::min(width, bodies.size() - i));
}

IsolationBackend &
Image::backendFor(int comp) const
{
    panic_if(comp < 0 ||
                 static_cast<std::size_t>(comp) >= compBackends.size(),
             "compartment index out of range");
    return *compBackends[static_cast<std::size_t>(comp)];
}

IsolationBackend &
Image::backendOf(Mechanism m) const
{
    for (const auto &b : backends)
        if (b->mechanism() == m)
            return *b;
    fatal("image instantiates no '", mechanismName(m), "' backend");
}

std::string
Image::backendNames() const
{
    std::string out;
    for (const auto &b : backends) {
        if (!out.empty())
            out += "+";
        out += b->name();
    }
    return out;
}

Image::~Image()
{
    shutdown();
}

void
Image::boot()
{
    panic_if(booted, "image booted twice");

    // ukboot: carve out per-compartment memory and the shared heap.
    for (auto &c : comps) {
        c->heapArena.resize(cfg.heapBytes);
        c->dataSection.resize(64 * 1024);
        c->rawHeap = std::make_unique<TlsfAllocator>(
            mach, c->heapArena.data(), c->heapArena.size());
        bool wantKasan = c->spec.hardenedWith(Hardening::Kasan) ||
                         c->spec.hardenedWith(Hardening::Asan);
        if (wantKasan) {
            c->kasanHeap = std::make_unique<KasanHeap>(*c->rawHeap);
            c->heap = c->kasanHeap.get();
        } else {
            c->heap = c->rawHeap.get();
        }

        // Functional hardening is active when the compartment, or any
        // component placed in it, enables the mechanism.
        auto anyLibWants = [&](Hardening h) {
            for (const auto &[lib, r] : routes) {
                if (r.home != c->id)
                    continue;
                auto it = cfg.libHardening.find(lib);
                if (it == cfg.libHardening.end())
                    continue;
                for (Hardening x : it->second)
                    if (x == h)
                        return true;
            }
            return false;
        };
        if (!wantKasan && (anyLibWants(Hardening::Kasan) ||
                           anyLibWants(Hardening::Asan))) {
            wantKasan = true;
            c->kasanHeap = std::make_unique<KasanHeap>(*c->rawHeap);
            c->heap = c->kasanHeap.get();
        }

        c->hardening.kasan = wantKasan;
        c->hardening.ubsan = c->spec.hardenedWith(Hardening::Ubsan) ||
                             anyLibWants(Hardening::Ubsan);
        c->hardening.cfi = c->spec.hardenedWith(Hardening::Cfi) ||
                           anyLibWants(Hardening::Cfi);
        c->hardening.stackProtector =
            c->spec.hardenedWith(Hardening::StackProtector) ||
            anyLibWants(Hardening::StackProtector);
        c->hardening.kasanHeap = c->kasanHeap.get();
        c->hardening.cfiRegistry = &c->cfiRegistry;
    }

    sharedArena.resize(cfg.sharedHeapBytes);
    sharedHeapAlloc = std::make_unique<TlsfAllocator>(
        mach, sharedArena.data(), sharedArena.size());

    registerRegions();
    for (auto &b : backends)
        b->boot(*this);

    // Reap a thread's simulated compartment stacks the moment it
    // finishes; long-running images would otherwise leak one memMap
    // region pair per (thread, compartment) ever seen.
    threadExitListener = sched.addThreadExitListener(
        [this](Thread &t) { reapSimStacks(t.id()); });

    // Boot-time cost: section protection, key setup, backend init.
    mach.consume(50'000 + 10'000 * comps.size());
    mach.bump("image.boots");
    booted = true;
}

void
Image::shutdown()
{
    if (!booted)
        return;
    // Tear the backends down in reverse boot order; each only touches
    // the compartments it owns (EPT stops its RPC servers, etc.).
    for (auto it = backends.rbegin(); it != backends.rend(); ++it)
        (*it)->shutdown(*this);
    sched.removeThreadExitListener(threadExitListener);
    threadExitListener = -1;
    lastBoundary.clear();
    unregisterRegions();
    booted = false;
}

void
Image::registerRegions()
{
    auto addRegion = [&](const void *base, std::size_t size, ProtKey key,
                         std::string name) {
        mach.memMap.add(base, size, key, std::move(name));
        registeredRegions.push_back(base);
    };

    auto addVmRegion = [&](const void *base, std::size_t size, int vm,
                           std::string name) {
        mach.memMap.addVmPrivate(base, size, vm, std::move(name));
        registeredRegions.push_back(base);
    };

    for (auto &c : comps) {
        if (c->vmPrivate) {
            // EPT: the compartment's memory lives in its VM's
            // second-level page tables, unmapped for everyone else —
            // no protection key consumed.
            addVmRegion(c->heapArena.data(), c->heapArena.size(), c->id,
                        c->spec.name + ".heap");
            addVmRegion(c->dataSection.data(), c->dataSection.size(),
                        c->id, c->spec.name + ".data");
        } else {
            addRegion(c->heapArena.data(), c->heapArena.size(), c->key,
                      c->spec.name + ".heap");
            addRegion(c->dataSection.data(), c->dataSection.size(),
                      c->key, c->spec.name + ".data");
        }
    }
    addRegion(sharedArena.data(), sharedArena.size(), sharedProtKey,
              "shared.heap");
}

void
Image::unregisterRegions()
{
    // Sim stacks were registered lazily; drop those regions too. Each
    // stack's own recorded sharing mode decides whether a separate
    // DSS-half region exists (the mode is per boundary, not global).
    for (auto &[key, stack] : simStacks) {
        mach.memMap.remove(stack.mem.get());
        if (stack.sharing == StackSharing::Dss)
            mach.memMap.remove(stack.mem.get() + SimStack::stackBytes);
    }
    simStacks.clear();
    for (const void *base : registeredRegions)
        mach.memMap.remove(base);
    registeredRegions.clear();
}

Compartment &
Image::compartmentAt(std::size_t idx)
{
    panic_if(idx >= comps.size(), "compartment index out of range");
    return *comps[idx];
}

const Image::LibraryRoute &
Image::route(const std::string &lib) const
{
    auto it = routes.find(lib);
    fatal_if(it == routes.end(), "library '", lib, "' not in the image");
    return it->second;
}

int
Image::landingOf(const std::string &lib, int from) const
{
    auto it = routes.find(lib);
    if (it == routes.end())
        return -1;
    return it->second.landing[static_cast<std::size_t>(from)];
}

int
Image::compartmentIndexOf(const std::string &lib) const
{
    auto it = routes.find(lib);
    fatal_if(it == routes.end() || it->second.home < 0, "library '", lib,
             "' not assigned to any compartment");
    return it->second.home;
}

Compartment &
Image::compartmentOf(const std::string &lib)
{
    return *comps[static_cast<std::size_t>(compartmentIndexOf(lib))];
}

int
Image::currentCompartment() const
{
    Thread *t = sched.current();
    if (!t)
        return static_cast<int>(cfg.defaultCompartment());
    return t->currentCompartment;
}

const HardeningContext &
Image::currentHardening() const
{
    return comps[static_cast<std::size_t>(currentCompartment())]
        ->hardening;
}

void
Image::checkEntry(const std::string &lib, const char *fnName, int from,
                  int to, const GatePolicy &pol)
{
    bool enforce = pol.validateEntry ||
                   backendOf(pol.mech).checksEntryPoints() ||
                   comps[static_cast<std::size_t>(to)]->spec.hardenedWith(
                       Hardening::Cfi);
    if (!enforce)
        return;
    if (!reg.isEntryPoint(lib, fnName)) {
        // Witness the rejection per attacked edge before raising, so
        // the adversary scorecard (and the controller's deny-witness
        // pass) can attribute the forged entry to its boundary.
        mach.bump("gate.validate.reject");
        ++boundaryLedger[boundaryIndex(from, to)].rejected;
        throw CfiViolation(std::string("gate to non-entry-point ") + lib +
                           "." + fnName);
    }
}

Thread *
Image::spawnIn(const std::string &lib, std::string name,
               std::function<void()> entry)
{
    int comp = compartmentIndexOf(lib);
    Compartment &c = *comps[static_cast<std::size_t>(comp)];
    Thread *t = sched.spawn(std::move(name), std::move(entry));
    t->currentCompartment = comp;
    t->pkru = c.domain;
    t->vm = c.vmPrivate ? comp : -1;
    t->workMult = route(lib).mult;
    return t;
}

void *
Image::sharedAlloc(std::size_t n)
{
    return sharedHeapAlloc->alloc(n);
}

void
Image::sharedFree(void *p)
{
    sharedHeapAlloc->free(p);
}

Allocator &
Image::heapOf(const std::string &lib)
{
    return *compartmentOf(lib).heap;
}

SimStack &
Image::simStackFor(int threadId, int comp, StackSharing sharing)
{
    auto key = std::make_pair(threadId, comp);
    auto it = simStacks.find(key);
    if (it != simStacks.end())
        return it->second;

    SimStack stack;
    stack.mem = std::make_unique<char[]>(2 * SimStack::stackBytes);
    stack.sharing = sharing;
    char *base = stack.mem.get();
    Compartment &c = *comps[static_cast<std::size_t>(comp)];

    // Private halves of a VM-private (EPT) compartment's stacks live
    // inside the VM, not behind a key.
    auto addPrivate = [&](char *p, std::size_t n, std::string tag) {
        if (c.vmPrivate)
            mach.memMap.addVmPrivate(p, n, comp, std::move(tag));
        else
            mach.memMap.add(p, n, c.key, std::move(tag));
    };

    std::string tag = "stack-t" + std::to_string(threadId) + "-c" +
                      std::to_string(comp);
    switch (sharing) {
      case StackSharing::Dss:
        // Lower half private, upper half (the DSS) in the shared domain.
        addPrivate(base, SimStack::stackBytes, tag);
        mach.memMap.add(base + SimStack::stackBytes, SimStack::stackBytes,
                        sharedProtKey, tag + ".dss");
        break;
      case StackSharing::SharedStack:
        // The whole stack is shared: cheap but weakest isolation.
        mach.memMap.add(base, 2 * SimStack::stackBytes, sharedProtKey,
                        tag + ".shared");
        break;
      case StackSharing::Heap:
        // Stack stays fully private; shared variables go to the heap.
        addPrivate(base, 2 * SimStack::stackBytes, tag);
        break;
    }
    auto [pos, inserted] = simStacks.emplace(key, std::move(stack));
    return pos->second;
}

void
Image::reapSimStacks(int threadId)
{
    // (threadId, comp) keys sort by thread id first, so a thread's
    // stacks are one contiguous map range.
    auto it = simStacks.lower_bound({threadId, 0});
    while (it != simStacks.end() && it->first.first == threadId) {
        mach.memMap.remove(it->second.mem.get());
        if (it->second.sharing == StackSharing::Dss)
            mach.memMap.remove(it->second.mem.get() +
                               SimStack::stackBytes);
        it = simStacks.erase(it);
        mach.bump("image.simStackReaps");
    }
    lastBoundary.erase(threadId);
}

std::string
Image::linkerScript() const
{
    std::ostringstream oss;
    oss << "/* FlexOS generated linker script (backends: "
        << backendNames() << ") */\n";
    oss << "SECTIONS\n{\n";
    oss << "    /* gate-policy matrix (from -> to : policy) */\n";
    for (const auto &f : comps) {
        for (const auto &t : comps) {
            if (f->id == t->id)
                continue;
            oss << "    /*   " << f->spec.name << " -> " << t->spec.name
                << " : " << policyFor(f->id, t->id).name() << " */\n";
        }
    }
    for (const auto &c : comps) {
        const std::string &n = c->spec.name;
        oss << "    /* compartment " << c->id << " '" << n << "' ";
        if (c->vmPrivate)
            oss << "vm-private (no key)";
        else
            oss << "key " << int(c->key);
        oss << " mechanism " << mechanismName(c->spec.mechanism)
            << " gate " << backendFor(c->id).name() << " */\n";
        oss << "    /*   aslr slide 0x" << std::hex << c->layoutSlide
            << std::dec << " (" << c->layoutEntropyBits
            << " bits entropy)"
            << (c->layoutEntropyBits == 0 ? " -- fixed layout" : "")
            << " */\n";
        std::string prot = c->vmPrivate
                               ? "ept vm " + std::to_string(c->id)
                               : "pkey " + std::to_string(int(c->key));
        oss << "    .text." << n << "    : { *(.text." << n << ") }\n";
        oss << "    .rodata." << n << "  : { *(.rodata." << n << ") }\n";
        oss << "    .data." << n << "    : { *(.data." << n
            << ") } /* " << c->dataSection.size() << " bytes, " << prot
            << " */\n";
        oss << "    .bss." << n << "     : { *(.bss." << n << ") }\n";
        oss << "    .heap." << n << "    : { . += " << cfg.heapBytes
            << "; } /* " << prot << " */\n";
    }
    oss << "    /* shared communication domain, pkey "
        << int(sharedProtKey) << " */\n";
    oss << "    .heap.shared   : { . += " << cfg.sharedHeapBytes
        << "; }\n";
    oss << "    .dss           : { /* per-thread doubled stacks, "
        << SimStack::stackBytes << " B halves */ }\n";
    oss << "}\n";
    return oss.str();
}

void
Image::yieldForSwap()
{
    // Kept out of the header's hot path: a plain cooperative yield —
    // the swapper is runnable (or will be woken by the next drained
    // crossing) and flips the matrix before this thread runs again.
    mach.bump("matrix.swapYields");
    sched.yield();
}

bool
Image::swapGateMatrix(GateMatrix next)
{
    panic_if(next.size() != gates.size(),
             "swapGateMatrix: matrix shape mismatch (", next.size(),
             " compartments vs ", gates.size(), ")");

    // Policy-identical swap: detected before any quiesce machinery
    // engages, so it is charge-free and counter-free — the regression
    // pin that a no-op swap is bit-identical to no swap at all.
    if (next == gates)
        return false;

    Thread *self = sched.current();
    int tid = self ? self->id() : -1;
    panic_if(crossingDepth.count(tid),
             "swapGateMatrix called from inside a gated crossing");

    // Quiesce: wait until no thread holds references into the live
    // matrix (a crossing blocked in an EPT ring RPC does). New
    // crossings park at the gate()-side barrier while swapWaiters > 0.
    ++swapWaiters;
    if (activeCrossings_ > 0)
        mach.bump("matrix.quiesceWaits");
    while (activeCrossings_ > 0) {
        if (self) {
            quiesceWait.wait(); // woken by the last CrossingScope
        } else {
            // Driver context: run the scheduler until the in-flight
            // crossings drain on their own.
            sched.runUntil([&] { return activeCrossings_ == 0; });
            panic_if(activeCrossings_ > 0,
                     "swapGateMatrix could not quiesce: a crossing is "
                     "blocked forever (execution dried up with ",
                     activeCrossings_, " crossings in flight)");
        }
    }
    --swapWaiters;

    GateMatrix old = std::move(gates);
    gates = std::move(next);
    gates.setEpoch(old.epoch() + 1);

    // Re-prime only the buckets whose budget actually changed: an
    // untouched boundary keeps its token level and refill timestamp
    // across the epoch, so a swap elsewhere cannot hand it a free
    // burst of freshly-primed tokens.
    std::size_t n = comps.size();
    for (std::size_t f = 0; f < n; ++f) {
        for (std::size_t t = 0; t < n; ++t) {
            const GatePolicy &np =
                gates.at(static_cast<int>(f), static_cast<int>(t));
            const GatePolicy &op =
                old.at(static_cast<int>(f), static_cast<int>(t));
            if (np.rate != op.rate || np.rateWindow != op.rateWindow ||
                np.weight != op.weight)
                gateBuckets[f * n + t] = GateBucket{};
        }
    }

    // Elision streaks are a same-policy-run optimisation; they do not
    // survive an epoch whose policies may differ.
    lastBoundary.clear();

    ackCoresAfterSwap();

    for (auto &b : backends)
        b->policyChanged(*this);

    mach.bump("matrix.swaps");
    mach.bump("matrix.epoch");
    return true;
}

void
Image::ackCoresAfterSwap()
{
    // A core acknowledges the new epoch by dispatching a thread after
    // the flip (every dispatch is a policy-safe point: the thread it
    // resumes is outside any crossing, by quiescence). Cores with no
    // runnable work are idle — trivially at a safe point.
    Thread *self = sched.current();
    int selfCore = self ? mach.activeCore() : -1;
    std::size_t cores = mach.coreCount();
    std::vector<std::uint64_t> mark(cores);
    for (std::size_t c = 0; c < cores; ++c)
        mark[c] = sched.dispatchesOn(static_cast<int>(c));
    for (std::size_t c = 0; c < cores; ++c) {
        int core = static_cast<int>(c);
        if (core == selfCore) {
            // The swapper's own core acks by running this code.
            mach.bump("matrix.coreAcks");
            continue;
        }
        if (self) {
            while (sched.coreHasRunnable(core) &&
                   sched.dispatchesOn(core) == mark[c])
                sched.yield();
        } else if (sched.coreHasRunnable(core)) {
            sched.runUntil([&] {
                return !sched.coreHasRunnable(core) ||
                       sched.dispatchesOn(core) != mark[c];
            });
        }
        mach.bump("matrix.coreAcks");
    }
}

Image::StatsSnapshot
Image::snapshotStats() const
{
    return mach.counters();
}

Image::StatsSnapshot
Image::statsDelta(const StatsSnapshot &before, const StatsSnapshot &now)
{
    StatsSnapshot out;
    for (const auto &[key, value] : now) {
        auto it = before.find(key);
        std::uint64_t prev = it == before.end() ? 0 : it->second;
        if (value > prev)
            out[key] = value - prev;
    }
    return out;
}

std::map<std::pair<int, int>, std::uint64_t>
Image::gateCrossings() const
{
    std::map<std::pair<int, int>, std::uint64_t> out;
    int n = static_cast<int>(comps.size());
    for (int f = 0; f < n; ++f)
        for (int t = 0; t < n; ++t)
            if (std::uint64_t c = ledgerAt(f, t).crossings)
                out.emplace(std::make_pair(f, t), c);
    return out;
}

std::map<std::pair<int, int>, Image::BoundaryStat>
Image::boundaryStats() const
{
    std::map<std::pair<int, int>, BoundaryStat> out;
    for (const auto &[pair, count] : gateCrossings()) {
        BoundaryStat s;
        s.from = comps[static_cast<std::size_t>(pair.first)]->spec.name;
        s.to = comps[static_cast<std::size_t>(pair.second)]->spec.name;
        s.policy = policyFor(pair.first, pair.second).name();
        s.count = count;
        out.emplace(pair, std::move(s));
    }
    return out;
}

} // namespace flexos
