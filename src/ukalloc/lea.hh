/**
 * @file
 * Lea-style allocator (dlmalloc family) — the allocator CubicleOS links
 * (paper 6.4, which observes it beats TLSF on the SQLite workload).
 *
 * Boundary-tag chunks with PINUSE/CINUSE bits, 64 exact-fit small bins
 * with a bin bitmap, a sorted large-chunk list, a designated-victim chunk
 * (the remainder of the most recent split, tried first), and a wilderness
 * "top" chunk. The designated victim gives very cheap repeated same-size
 * alloc/free cycles, which is exactly the SQLite pattern.
 */

#ifndef FLEXOS_UKALLOC_LEA_HH
#define FLEXOS_UKALLOC_LEA_HH

#include <cstdint>
#include <memory>

#include "ukalloc/allocator.hh"

namespace flexos {

/**
 * dlmalloc-style allocator over a fixed arena.
 */
class LeaAllocator : public Allocator
{
  public:
    LeaAllocator(Machine &m, std::size_t arenaSize);
    ~LeaAllocator() override;

    void *alloc(std::size_t size) override;
    void free(void *p) override;
    std::size_t blockSize(const void *p) const override;

    /** Walk the heap checking invariants; panics on corruption. */
    void checkConsistency() const;

  private:
    struct Chunk;

    static constexpr unsigned smallBinCount = 64;
    static constexpr std::size_t minChunkSize = 32;
    static constexpr std::size_t maxSmallSize =
        minChunkSize + (smallBinCount - 1) * allocAlign;

    void init();
    unsigned binIndex(std::size_t chunkSize) const;
    void insertChunk(Chunk *c, std::uint64_t &steps);
    void unlinkChunk(Chunk *c, std::uint64_t &steps);
    void *finishAlloc(Chunk *c, std::size_t need, std::uint64_t &steps);
    void setFooter(Chunk *c);

    std::unique_ptr<char[]> owned;
    char *arena = nullptr;
    std::size_t arenaBytes = 0;

    std::uint64_t binMap = 0;
    Chunk *bins[smallBinCount] = {};
    Chunk *largeHead = nullptr; ///< sorted ascending by size
    Chunk *dv = nullptr;        ///< designated victim
    Chunk *top = nullptr;       ///< wilderness chunk
};

} // namespace flexos

#endif // FLEXOS_UKALLOC_LEA_HH
