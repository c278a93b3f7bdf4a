/**
 * @file
 * Software hardening (paper 4.5): functional analogues of the hardening
 * mechanisms FlexOS can enable per compartment.
 *
 * - KASan/ASan: a redzone+quarantine wrapper around the compartment's
 *   allocator that detects heap overflow and use-after-free on checked
 *   accesses.
 * - UBSan: checked integer arithmetic and bounds helpers.
 * - CFI: call gates validate entry points against the library registry;
 *   indirect calls validate targets against a registered set.
 * - Stack protector: canaries on DSS frames.
 *
 * Each mechanism also carries a work-multiplier cost (timing.hh) that
 * the gates apply to the instrumented compartment.
 */

#ifndef FLEXOS_CORE_HARDENING_HH
#define FLEXOS_CORE_HARDENING_HH

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "core/config.hh"
#include "ukalloc/allocator.hh"

namespace flexos {

/** Base class of all hardening-detected violations. */
class HardeningViolation : public std::runtime_error
{
  public:
    HardeningViolation(const std::string &kind, const std::string &what)
        : std::runtime_error(kind + ": " + what), kind(kind)
    {
    }

    std::string kind;
};

/** KASan report: heap overflow / use-after-free / invalid free. */
class KasanViolation : public HardeningViolation
{
  public:
    explicit KasanViolation(const std::string &what)
        : HardeningViolation("kasan", what)
    {
    }
};

/** UBSan report: overflow, bad shift, out-of-bounds index. */
class UbsanViolation : public HardeningViolation
{
  public:
    explicit UbsanViolation(const std::string &what)
        : HardeningViolation("ubsan", what)
    {
    }
};

/** CFI report: illegal entry point or indirect-call target. */
class CfiViolation : public HardeningViolation
{
  public:
    explicit CfiViolation(const std::string &what)
        : HardeningViolation("cfi", what)
    {
    }
};

/** Stack-protector report: smashed canary. */
class CanaryViolation : public HardeningViolation
{
  public:
    explicit CanaryViolation(const std::string &what)
        : HardeningViolation("stack-protector", what)
    {
    }
};

/**
 * KASan-style allocator wrapper: pads every allocation with redzones,
 * tracks liveness, quarantines frees to catch use-after-free, and
 * validates checked accesses.
 */
class KasanHeap : public Allocator
{
  public:
    static constexpr std::size_t redzone = 16;
    static constexpr std::size_t quarantineLimit = 256 * 1024;

    explicit KasanHeap(Allocator &inner);
    ~KasanHeap() override;

    void *alloc(std::size_t size) override;
    void free(void *p) override;
    std::size_t blockSize(const void *p) const override;

    /**
     * Validate an access of n bytes at p. Throws KasanViolation on a
     * redzone hit or freed block; unknown addresses pass (they belong
     * to other memory, e.g. stacks, which KASan shadows separately).
     */
    void check(const void *p, std::size_t n) const;

    /** Number of violations that would have been reported. */
    std::uint64_t reports() const { return reportCount; }

  private:
    struct Slot
    {
        std::size_t userSize;
        bool live;
    };

    void flushQuarantine();

    Allocator &inner;
    /** user pointer -> slot info (live and quarantined). */
    std::map<std::uintptr_t, Slot> slots;
    std::deque<void *> quarantine;
    std::size_t quarantineBytes = 0;
    mutable std::uint64_t reportCount = 0;
};

/** UBSan-style checked arithmetic. All throw UbsanViolation. */
namespace ubsan {

template <typename T>
T
addChecked(T a, T b)
{
    T out;
    if (__builtin_add_overflow(a, b, &out))
        throw UbsanViolation("signed integer overflow in addition");
    return out;
}

} // namespace ubsan

/**
 * The per-compartment hardening context handed to library code: a
 * single object carrying which mechanisms are live plus their runtime
 * state. Checks degrade to no-ops when the mechanism is off, so library
 * code is written once (the "porting" state) and the build-time config
 * decides what actually executes — mirroring the paper's build-time
 * instantiation.
 */
struct HardeningContext
{
    bool kasan = false;
    bool ubsan = false;
    bool stackProtector = false;

    KasanHeap *kasanHeap = nullptr;

    /** Checked memory access (no-op unless kasan). */
    void
    checkAccess(const void *p, std::size_t n) const
    {
        if (kasan && kasanHeap)
            kasanHeap->check(p, n);
    }

    /** Checked addition (plain add unless ubsan). */
    template <typename T>
    T
    add(T a, T b) const
    {
        return ubsan ? ubsan::addChecked(a, b) : static_cast<T>(a + b);
    }
};

/** Extra work (percent) a hardening mechanism costs, from the model. */
unsigned hardeningCostPct(Hardening h, const struct TimingModel &tm);

/** Combined multiplier for a hardening set. */
double hardeningMultiplier(const std::vector<Hardening> &set,
                           const struct TimingModel &tm);

} // namespace flexos

#endif // FLEXOS_CORE_HARDENING_HH
