/**
 * @file
 * TLSF (two-level segregated fit) allocator — Unikraft's default
 * general-purpose allocator (Masmano et al., ECRTS'04).
 *
 * O(1) malloc and free: a first-level bitmap indexes power-of-two size
 * classes, a second-level bitmap subdivides each class linearly, and each
 * (fl, sl) bucket heads a doubly-linked free list. Blocks carry boundary
 * tags (physical-neighbour links) for immediate coalescing.
 */

#ifndef FLEXOS_UKALLOC_TLSF_HH
#define FLEXOS_UKALLOC_TLSF_HH

#include <cstdint>
#include <memory>

#include "ukalloc/allocator.hh"

namespace flexos {

/**
 * TLSF allocator over a caller-provided or self-owned arena.
 */
class TlsfAllocator : public Allocator
{
  public:
    /** Build over an owned arena of arenaSize bytes. */
    TlsfAllocator(Machine &m, std::size_t arenaSize);

    /** Build over external storage (e.g. a compartment heap region). */
    TlsfAllocator(Machine &m, void *arena, std::size_t arenaSize);

    ~TlsfAllocator() override;

    void *alloc(std::size_t size) override;
    void free(void *p) override;
    std::size_t blockSize(const void *p) const override;
    const char *name() const override { return "tlsf"; }

    /** Arena base (for region registration by the image). */
    void *arenaBase() const { return arena; }
    std::size_t arenaSize() const { return arenaBytes; }

    /** Walk the heap checking invariants; panics on corruption. */
    void checkConsistency() const;

  private:
    struct Block;

    static constexpr unsigned slCountLog2 = 4;          // 16 subclasses
    static constexpr unsigned slCount = 1u << slCountLog2;
    static constexpr unsigned flMax = 32;               // up to 4 GiB
    static constexpr std::size_t smallThreshold = 256;  // linear classes

    void init();
    void mapping(std::size_t size, unsigned &fl, unsigned &sl) const;
    void mappingSearch(std::size_t size, unsigned &fl, unsigned &sl,
                       std::uint64_t &steps) const;
    Block *findSuitable(unsigned &fl, unsigned &sl,
                        std::uint64_t &steps) const;
    void insertFree(Block *b, std::uint64_t &steps);
    void removeFree(Block *b, std::uint64_t &steps);
    Block *splitBlock(Block *b, std::size_t size, std::uint64_t &steps);
    Block *mergePrev(Block *b, std::uint64_t &steps);
    Block *mergeNext(Block *b, std::uint64_t &steps);

    std::unique_ptr<char[]> owned;
    char *arena = nullptr;
    std::size_t arenaBytes = 0;

    std::uint32_t flBitmap = 0;
    std::uint32_t slBitmap[flMax] = {};
    Block *freeLists[flMax][slCount] = {};
};

} // namespace flexos

#endif // FLEXOS_UKALLOC_TLSF_HH
