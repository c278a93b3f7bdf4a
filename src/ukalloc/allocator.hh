/**
 * @file
 * Allocator interface for compartment heaps.
 *
 * Every compartment owns at least one allocator instance over a private
 * arena; one more instance serves the shared heap (paper 4.1). Allocators
 * charge their *actual* internal work (search/split/coalesce steps) to the
 * virtual clock, so allocator-behaviour differences between systems (e.g.
 * TLSF vs. the Lea allocator, paper 6.4) emerge from the implementations.
 */

#ifndef FLEXOS_UKALLOC_ALLOCATOR_HH
#define FLEXOS_UKALLOC_ALLOCATOR_HH

#include <cstddef>
#include <cstdint>

namespace flexos {

class Machine;

/** Live statistics kept by every allocator. */
struct AllocStats
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t failed = 0;
    /** Internal work steps performed (used for cycle charging). */
    std::uint64_t steps = 0;
    std::size_t liveBytes = 0;
    std::size_t peakBytes = 0;
};

/**
 * Abstract heap allocator over a fixed arena.
 */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /**
     * Allocate size bytes, 16-byte aligned.
     * @return nullptr when the arena is exhausted.
     */
    virtual void *alloc(std::size_t size) = 0;

    /** Release a block previously returned by alloc(). */
    virtual void free(void *p) = 0;

    /** Usable size of an allocated block (>= requested). */
    virtual std::size_t blockSize(const void *p) const = 0;

    /** Allocator family name for reports. */
    virtual const char *name() const = 0;

    const AllocStats &stats() const { return stats_; }

    /** The machine whose clock this allocator's work charges. */
    Machine &machine() const { return mach; }

  protected:
    /** @param m the machine whose clock this allocator's work charges */
    explicit Allocator(Machine &m) : mach(m) {}

    /** Record one operation's step count and charge the virtual clock. */
    void charge(std::uint64_t steps);

    AllocStats stats_;

  private:
    Machine &mach;
};

/** Standard allocation alignment (Unikraft uses 16 on x86-64). */
inline constexpr std::size_t allocAlign = 16;

/** Round up to the allocation alignment. */
constexpr std::size_t
alignUp(std::size_t n)
{
    return (n + allocAlign - 1) & ~(allocAlign - 1);
}

} // namespace flexos

#endif // FLEXOS_UKALLOC_ALLOCATOR_HH
