#include "machine/machine.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"

namespace flexos {

namespace {

std::string
describeFault(const void *addr, ProtKey key, AccessType at,
              const std::string &region)
{
    std::ostringstream oss;
    oss << "protection fault: "
        << (at == AccessType::Write ? "write"
            : at == AccessType::Read ? "read" : "exec")
        << " to " << addr << " in region '" << region << "' (key "
        << int(key) << ") denied by PKRU";
    return oss.str();
}

} // namespace

ProtectionFault::ProtectionFault(const void *addr, ProtKey key,
                                 AccessType at, const std::string &region)
    : std::runtime_error(describeFault(addr, key, at, region)),
      addr(addr), key(key), access(at), region(region)
{
}

Machine::Machine(TimingModel tm, unsigned cores) : timing(tm)
{
    panic_if(cores == 0, "a machine needs at least one core");
    cores_.resize(cores);
}

Machine::~Machine() = default;

double
Machine::seconds() const
{
    return static_cast<double>(cycleCount) / (timing.cpuGhz * 1e9);
}

std::uint64_t
Machine::nanoseconds() const
{
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(cycleCount) / timing.cpuGhz));
}

void
Machine::setActiveCore(int core)
{
    panic_if(core < 0 || unsigned(core) >= cores_.size(), "core ", core,
             " out of range (machine has ", cores_.size(), ")");
    if (core == active_)
        return;

    CoreContext &prev = cores_[active_];
    prev.cycleCount = cycleCount;
    prev.pkru = pkru;
    prev.currentVm = currentVm;
    prev.workMultiplier = workMultiplier;
    prev.chargingEnabled = chargingEnabled;
    prev.scratch = scratch;

    const CoreContext &next = cores_[core];
    cycleCount = next.cycleCount;
    pkru = next.pkru;
    currentVm = next.currentVm;
    workMultiplier = next.workMultiplier;
    chargingEnabled = next.chargingEnabled;
    scratch = next.scratch;
    active_ = core;
}

Cycles
Machine::coreCycles(int core) const
{
    panic_if(core < 0 || unsigned(core) >= cores_.size(), "core ", core,
             " out of range (machine has ", cores_.size(), ")");
    return core == active_ ? cycleCount : cores_[core].cycleCount;
}

Cycles
Machine::wallCycles() const
{
    Cycles wall = cycleCount;
    for (int c = 0; c < int(cores_.size()); ++c)
        wall = std::max(wall, coreCycles(c));
    return wall;
}

void
Machine::advanceCoreTo(int core, Cycles target)
{
    Cycles now = coreCycles(core);
    if (target <= now)
        return;
    chargeCore(core, target - now);
    bump(Counter::MachineIdleCycles, target - now);
}

void
Machine::chargeCore(int core, Cycles c)
{
    if (core == active_)
        cycleCount += c;
    else
        cores_[core].cycleCount += c;
}

void
Machine::checkAccess(const void *p, std::size_t size, AccessType at)
{
    if (enforcement == Enforcement::Off)
        return;

    // Every registered region the access touches must be permitted;
    // real paging faults on the first offending page even when the
    // access *starts* in unregistered (or permitted) memory and only
    // extends into a denied region. Unregistered bytes are
    // simulator-internal and pass. VM-private regions (EPT key
    // virtualization) bypass the PKRU entirely: they are mapped only
    // inside their owning VM's second-level page tables.
    const MemRegion *denied = nullptr;
    memMap.forEachOverlap(p, size, [&](const MemRegion &r) {
        if (denied)
            return;
        bool ok = r.vmOwner >= 0 ? currentVm == r.vmOwner
                                 : pkru.permits(r.key, at);
        if (!ok)
            denied = &r;
    });
    if (!denied)
        return;

    ++violations;
    bump(Counter::MmuViolations);
    if (enforcement == Enforcement::Enforcing)
        throw ProtectionFault(p, denied->key, at, denied->name);
}

std::uint64_t
Machine::counter(std::string_view name) const
{
    std::optional<Counter> c = counterNamed(name);
    return c ? counter(*c) : 0;
}

std::map<std::string, std::uint64_t>
Machine::counters() const
{
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < counterCount; ++i)
        if (touched[i])
            out.emplace(counterTable[i].name, counts[i]);
    return out;
}

} // namespace flexos
