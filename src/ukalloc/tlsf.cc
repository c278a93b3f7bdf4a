#include "ukalloc/tlsf.hh"

#include <bit>
#include <cstring>
#include <set>

#include "base/logging.hh"

namespace flexos {

namespace {

constexpr std::size_t freeFlag = 0x1;
constexpr std::size_t flagMask = 0x1;

/** Index of the most significant set bit. @pre v != 0 */
unsigned
msbIndex(std::size_t v)
{
    return 63 - std::countl_zero(static_cast<std::uint64_t>(v));
}

} // namespace

/**
 * Block header. 'size' covers the whole block including this header.
 * Free blocks additionally thread through (nextFree, prevFree), stored in
 * the payload area, which bounds the minimum block size.
 */
struct TlsfAllocator::Block
{
    Block *prevPhys;
    std::size_t sizeAndFlags;

    // Valid only while free:
    Block *nextFree;
    Block *prevFree;

    std::size_t size() const { return sizeAndFlags & ~flagMask; }
    bool isFree() const { return sizeAndFlags & freeFlag; }
    void setSize(std::size_t s) { sizeAndFlags = s | (sizeAndFlags & flagMask); }
    void markFree() { sizeAndFlags |= freeFlag; }
    void markUsed() { sizeAndFlags &= ~freeFlag; }

    Block *
    nextPhys()
    {
        return reinterpret_cast<Block *>(
            reinterpret_cast<char *>(this) + size());
    }

    void *payload() { return reinterpret_cast<char *>(this) + headerSize; }

    static constexpr std::size_t headerSize = 2 * sizeof(void *);

    static Block *
    fromPayload(void *p)
    {
        return reinterpret_cast<Block *>(
            static_cast<char *>(p) - headerSize);
    }
};

namespace {
constexpr std::size_t minBlockSize = 48; // header + two list links, aligned
} // namespace

TlsfAllocator::TlsfAllocator(Machine &m, std::size_t arenaSize)
    : Allocator(m), owned(new char[arenaSize]), arena(owned.get()),
      arenaBytes(arenaSize)
{
    init();
}

TlsfAllocator::TlsfAllocator(Machine &m, void *arenaMem,
                             std::size_t arenaSize)
    : Allocator(m), arena(static_cast<char *>(arenaMem)),
      arenaBytes(arenaSize)
{
    init();
}

TlsfAllocator::~TlsfAllocator() = default;

void
TlsfAllocator::init()
{
    fatal_if(arenaBytes < 4 * minBlockSize, "TLSF arena too small");

    // Align the arena window.
    auto base = reinterpret_cast<std::uintptr_t>(arena);
    std::uintptr_t aligned = (base + allocAlign - 1) & ~(allocAlign - 1);
    std::size_t usable =
        (arenaBytes - (aligned - base)) & ~(allocAlign - 1);

    // Layout: [ first free block ........ ][ sentinel header ]
    auto *first = reinterpret_cast<Block *>(aligned);
    std::size_t sentinelSize = alignUp(Block::headerSize);
    first->prevPhys = nullptr;
    first->sizeAndFlags = (usable - sentinelSize) | freeFlag;

    Block *sentinel = first->nextPhys();
    sentinel->prevPhys = first;
    sentinel->sizeAndFlags = 0; // used, size 0: terminates coalescing

    std::uint64_t steps = 0;
    insertFree(first, steps);
}

void
TlsfAllocator::mapping(std::size_t size, unsigned &fl, unsigned &sl) const
{
    if (size < smallThreshold) {
        fl = 0;
        sl = static_cast<unsigned>(size / (smallThreshold / slCount));
    } else {
        unsigned msb = msbIndex(size);
        fl = msb - msbIndex(smallThreshold) + 1;
        sl = static_cast<unsigned>(
            (size >> (msb - slCountLog2)) - slCount);
    }
    panic_if(fl >= flMax || sl >= slCount, "TLSF mapping out of range");
}

void
TlsfAllocator::mappingSearch(std::size_t size, unsigned &fl, unsigned &sl,
                             std::uint64_t &steps) const
{
    if (size >= smallThreshold) {
        // Round up so any block in the found bucket is large enough.
        size += (std::size_t(1) << (msbIndex(size) - slCountLog2)) - 1;
    }
    ++steps;
    mapping(size, fl, sl);
}

TlsfAllocator::Block *
TlsfAllocator::findSuitable(unsigned &fl, unsigned &sl,
                            std::uint64_t &steps) const
{
    ++steps;
    std::uint32_t slMap = slBitmap[fl] & (~0u << sl);
    if (!slMap) {
        std::uint32_t flMap =
            (fl + 1 < flMax) ? (flBitmap & (~0u << (fl + 1))) : 0;
        if (!flMap)
            return nullptr; // out of memory
        fl = std::countr_zero(flMap);
        slMap = slBitmap[fl];
        ++steps;
    }
    panic_if(!slMap, "TLSF bitmap inconsistency");
    sl = std::countr_zero(slMap);
    return freeLists[fl][sl];
}

void
TlsfAllocator::insertFree(Block *b, std::uint64_t &steps)
{
    unsigned fl, sl;
    mapping(b->size(), fl, sl);
    b->markFree();
    b->prevFree = nullptr;
    b->nextFree = freeLists[fl][sl];
    if (b->nextFree)
        b->nextFree->prevFree = b;
    freeLists[fl][sl] = b;
    flBitmap |= 1u << fl;
    slBitmap[fl] |= 1u << sl;
    steps += 2;
}

void
TlsfAllocator::removeFree(Block *b, std::uint64_t &steps)
{
    unsigned fl, sl;
    mapping(b->size(), fl, sl);
    if (b->prevFree)
        b->prevFree->nextFree = b->nextFree;
    else
        freeLists[fl][sl] = b->nextFree;
    if (b->nextFree)
        b->nextFree->prevFree = b->prevFree;
    if (!freeLists[fl][sl]) {
        slBitmap[fl] &= ~(1u << sl);
        if (!slBitmap[fl])
            flBitmap &= ~(1u << fl);
    }
    steps += 2;
}

TlsfAllocator::Block *
TlsfAllocator::splitBlock(Block *b, std::size_t size, std::uint64_t &steps)
{
    if (b->size() < size + minBlockSize)
        return nullptr; // remainder too small, keep whole block

    std::size_t restSize = b->size() - size;
    b->setSize(size);

    Block *rest = b->nextPhys();
    rest->prevPhys = b;
    rest->sizeAndFlags = restSize | freeFlag;
    rest->nextPhys()->prevPhys = rest;
    ++steps;
    return rest;
}

TlsfAllocator::Block *
TlsfAllocator::mergePrev(Block *b, std::uint64_t &steps)
{
    Block *prev = b->prevPhys;
    if (!prev || !prev->isFree())
        return b;
    removeFree(prev, steps);
    prev->setSize(prev->size() + b->size());
    prev->nextPhys()->prevPhys = prev;
    ++steps;
    return prev;
}

TlsfAllocator::Block *
TlsfAllocator::mergeNext(Block *b, std::uint64_t &steps)
{
    Block *next = b->nextPhys();
    if (!next->isFree())
        return b;
    removeFree(next, steps);
    b->setSize(b->size() + next->size());
    b->nextPhys()->prevPhys = b;
    ++steps;
    return b;
}

void *
TlsfAllocator::alloc(std::size_t size)
{
    std::uint64_t steps = 0;
    std::size_t need = alignUp(size) + Block::headerSize;
    if (need < minBlockSize)
        need = minBlockSize;

    unsigned fl, sl;
    mappingSearch(need, fl, sl, steps);
    Block *b = findSuitable(fl, sl, steps);
    if (!b) {
        ++stats_.failed;
        charge(steps);
        return nullptr;
    }

    removeFree(b, steps);
    Block *rest = splitBlock(b, need, steps);
    if (rest)
        insertFree(rest, steps);
    b->markUsed();

    ++stats_.allocs;
    stats_.liveBytes += b->size();
    if (stats_.liveBytes > stats_.peakBytes)
        stats_.peakBytes = stats_.liveBytes;
    charge(steps);
    return b->payload();
}

void
TlsfAllocator::free(void *p)
{
    if (!p)
        return;
    std::uint64_t steps = 0;
    Block *b = Block::fromPayload(p);
    panic_if(b->isFree(), "TLSF double free of ", p);

    ++stats_.frees;
    stats_.liveBytes -= b->size();

    b->markFree();
    b = mergeNext(b, steps);
    b = mergePrev(b, steps);
    insertFree(b, steps);
    charge(steps);
}

std::size_t
TlsfAllocator::blockSize(const void *p) const
{
    const Block *b = Block::fromPayload(const_cast<void *>(p));
    return b->size() - Block::headerSize;
}

void
TlsfAllocator::checkConsistency() const
{
    // Gather all free-listed blocks.
    std::set<const Block *> freeSet;
    for (unsigned fl = 0; fl < flMax; ++fl) {
        for (unsigned sl = 0; sl < slCount; ++sl) {
            for (Block *b = freeLists[fl][sl]; b; b = b->nextFree) {
                panic_if(!b->isFree(), "used block on free list");
                unsigned mfl, msl;
                mapping(b->size(), mfl, msl);
                panic_if(mfl != fl || msl != sl,
                         "block in wrong TLSF bucket");
                freeSet.insert(b);
            }
        }
    }

    // Walk the physical chain.
    auto base = reinterpret_cast<std::uintptr_t>(arena);
    std::uintptr_t aligned = (base + allocAlign - 1) & ~(allocAlign - 1);
    const Block *b = reinterpret_cast<const Block *>(aligned);
    const Block *prev = nullptr;
    bool prevFree = false;
    while (b->size() != 0) {
        panic_if(b->prevPhys != prev, "broken physical chain");
        panic_if(prevFree && b->isFree(), "uncoalesced free neighbours");
        panic_if(b->isFree() && !freeSet.count(b),
                 "free block missing from free lists");
        prevFree = b->isFree();
        prev = b;
        b = const_cast<Block *>(b)->nextPhys();
    }
}

} // namespace flexos
