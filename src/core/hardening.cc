#include "core/hardening.hh"

#include <sstream>

#include "base/logging.hh"
#include "machine/timing.hh"

namespace flexos {

KasanHeap::KasanHeap(Allocator &innerAlloc)
    : Allocator(innerAlloc.machine()), inner(innerAlloc)
{
}

KasanHeap::~KasanHeap()
{
    // Return quarantined blocks to the inner allocator so arena-level
    // leak accounting stays exact.
    for (void *q : quarantine) {
        auto addr = reinterpret_cast<std::uintptr_t>(q);
        slots.erase(addr);
        inner.free(static_cast<char *>(q) - redzone);
    }
}

void *
KasanHeap::alloc(std::size_t size)
{
    void *raw = inner.alloc(size + 2 * redzone);
    if (!raw)
        return nullptr;
    void *user = static_cast<char *>(raw) + redzone;
    slots[reinterpret_cast<std::uintptr_t>(user)] = Slot{size, true};

    ++stats_.allocs;
    stats_.liveBytes += size;
    if (stats_.liveBytes > stats_.peakBytes)
        stats_.peakBytes = stats_.liveBytes;
    return user;
}

void
KasanHeap::free(void *p)
{
    if (!p)
        return;
    auto addr = reinterpret_cast<std::uintptr_t>(p);
    auto it = slots.find(addr);
    if (it == slots.end()) {
        ++reportCount;
        throw KasanViolation("invalid free of unknown pointer");
    }
    if (!it->second.live) {
        ++reportCount;
        throw KasanViolation("double free");
    }
    it->second.live = false;
    ++stats_.frees;
    stats_.liveBytes -= it->second.userSize;

    // Quarantine delays reuse so use-after-free is detectable.
    quarantine.push_back(p);
    quarantineBytes += it->second.userSize;
    flushQuarantine();
}

void
KasanHeap::flushQuarantine()
{
    while (quarantineBytes > quarantineLimit && !quarantine.empty()) {
        void *victim = quarantine.front();
        quarantine.pop_front();
        auto addr = reinterpret_cast<std::uintptr_t>(victim);
        auto it = slots.find(addr);
        panic_if(it == slots.end(), "quarantine lost a slot");
        quarantineBytes -= it->second.userSize;
        slots.erase(it);
        inner.free(static_cast<char *>(victim) - redzone);
    }
}

std::size_t
KasanHeap::blockSize(const void *p) const
{
    auto it = slots.find(reinterpret_cast<std::uintptr_t>(
        const_cast<void *>(p)));
    panic_if(it == slots.end(), "blockSize of unknown pointer");
    return it->second.userSize;
}

void
KasanHeap::check(const void *p, std::size_t n) const
{
    auto addr = reinterpret_cast<std::uintptr_t>(p);

    // Find the slot whose user range or redzones could cover addr.
    auto it = slots.upper_bound(addr);
    if (it != slots.begin()) {
        auto prev = std::prev(it);
        std::uintptr_t start = prev->first;
        std::size_t size = prev->second.userSize;
        bool live = prev->second.live;
        if (addr >= start - redzone && addr < start + size + redzone) {
            if (!live) {
                ++reportCount;
                throw KasanViolation("use-after-free");
            }
            if (addr < start || addr + n > start + size) {
                ++reportCount;
                std::ostringstream oss;
                oss << "heap-buffer-overflow: " << n << "-byte access at "
                    << p;
                throw KasanViolation(oss.str());
            }
            return; // fully inside a live allocation: fine
        }
    }
    // Not heap memory we manage: out of KASan's jurisdiction.
}

unsigned
hardeningCostPct(Hardening h, const TimingModel &tm)
{
    switch (h) {
      case Hardening::StackProtector:
        return tm.hardenStackProtectorPct;
      case Hardening::Ubsan:
        return tm.hardenUbsanPct;
      case Hardening::Kasan:
        return tm.hardenKasanPct;
      case Hardening::Asan:
        return tm.hardenAsanPct;
      case Hardening::Cfi:
        return tm.hardenCfiPct;
    }
    return 0;
}

double
hardeningMultiplier(const std::vector<Hardening> &set,
                    const TimingModel &tm)
{
    unsigned pct = 0;
    for (Hardening h : set)
        pct += hardeningCostPct(h, tm);
    return 1.0 + static_cast<double>(pct) / 100.0;
}

} // namespace flexos
