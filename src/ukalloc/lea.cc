#include "ukalloc/lea.hh"

#include <bit>
#include <set>

#include "base/logging.hh"

namespace flexos {

namespace {

constexpr std::size_t cinuse = 0x1; ///< this chunk is in use
constexpr std::size_t pinuse = 0x2; ///< the previous chunk is in use
constexpr std::size_t flagMask = cinuse | pinuse;

} // namespace

/**
 * Boundary-tag chunk. 'prevSize' is the *footer of the previous chunk*:
 * it is only valid when the previous chunk is free (PINUSE clear), the
 * classic dlmalloc overlay trick.
 */
struct LeaAllocator::Chunk
{
    std::size_t prevSize;
    std::size_t head;

    // Free-list links, valid while free:
    Chunk *fd;
    Chunk *bk;

    std::size_t size() const { return head & ~flagMask; }
    bool inUse() const { return head & cinuse; }
    bool prevInUse() const { return head & pinuse; }

    void
    setSize(std::size_t s)
    {
        head = s | (head & flagMask);
    }

    Chunk *
    next()
    {
        return reinterpret_cast<Chunk *>(
            reinterpret_cast<char *>(this) + size());
    }

    Chunk *
    prev()
    {
        panic_if(prevInUse(), "prev() on chunk with PINUSE");
        return reinterpret_cast<Chunk *>(
            reinterpret_cast<char *>(this) - prevSize);
    }

    void *payload() { return reinterpret_cast<char *>(this) + overhead; }

    static constexpr std::size_t overhead = 2 * sizeof(std::size_t);

    static Chunk *
    fromPayload(void *p)
    {
        return reinterpret_cast<Chunk *>(
            static_cast<char *>(p) - overhead);
    }
};

LeaAllocator::LeaAllocator(Machine &m, std::size_t arenaSize)
    : Allocator(m), owned(new char[arenaSize]), arena(owned.get()),
      arenaBytes(arenaSize)
{
    init();
}

LeaAllocator::~LeaAllocator() = default;

void
LeaAllocator::init()
{
    fatal_if(arenaBytes < 8 * minChunkSize, "Lea arena too small");

    auto base = reinterpret_cast<std::uintptr_t>(arena);
    std::uintptr_t aligned = (base + allocAlign - 1) & ~(allocAlign - 1);
    std::size_t usable = (arenaBytes - (aligned - base)) & ~(allocAlign - 1);

    // Layout: [ top chunk ......................... ][ fence header ]
    std::size_t fenceSize = alignUp(Chunk::overhead);
    top = reinterpret_cast<Chunk *>(aligned);
    top->head = (usable - fenceSize) | pinuse; // free, prev "in use"

    Chunk *fence = top->next();
    fence->head = 0 | cinuse; // size 0, in use: stops coalescing
    fence->prevSize = top->size();
}

unsigned
LeaAllocator::binIndex(std::size_t chunkSize) const
{
    return static_cast<unsigned>((chunkSize - minChunkSize) / allocAlign);
}

void
LeaAllocator::setFooter(Chunk *c)
{
    c->next()->prevSize = c->size();
}

void
LeaAllocator::insertChunk(Chunk *c, std::uint64_t &steps)
{
    ++steps;
    std::size_t sz = c->size();
    if (sz <= maxSmallSize) {
        unsigned idx = binIndex(sz);
        c->fd = bins[idx];
        c->bk = nullptr;
        if (c->fd)
            c->fd->bk = c;
        bins[idx] = c;
        binMap |= std::uint64_t(1) << idx;
    } else {
        // Keep the large list sorted ascending by size.
        Chunk *at = largeHead;
        Chunk *prev = nullptr;
        while (at && at->size() < sz) {
            prev = at;
            at = at->fd;
            ++steps;
        }
        c->fd = at;
        c->bk = prev;
        if (at)
            at->bk = c;
        if (prev)
            prev->fd = c;
        else
            largeHead = c;
    }
}

void
LeaAllocator::unlinkChunk(Chunk *c, std::uint64_t &steps)
{
    ++steps;
    std::size_t sz = c->size();
    if (sz <= maxSmallSize) {
        unsigned idx = binIndex(sz);
        if (c->bk)
            c->bk->fd = c->fd;
        else
            bins[idx] = c->fd;
        if (c->fd)
            c->fd->bk = c->bk;
        if (!bins[idx])
            binMap &= ~(std::uint64_t(1) << idx);
    } else {
        if (c->bk)
            c->bk->fd = c->fd;
        else
            largeHead = c->fd;
        if (c->fd)
            c->fd->bk = c->bk;
    }
}

/**
 * Mark c (of at least 'need' bytes) used, splitting the remainder into
 * the designated victim when large enough.
 */
void *
LeaAllocator::finishAlloc(Chunk *c, std::size_t need, std::uint64_t &steps)
{
    std::size_t rest = c->size() - need;
    if (rest >= minChunkSize) {
        c->setSize(need);
        Chunk *r = c->next();
        r->head = rest | pinuse; // free; previous (c) becomes used below
        setFooter(r);

        // The remainder becomes the new designated victim; the previous
        // victim, if any, retires into a regular bin.
        if (dv)
            insertChunk(dv, steps);
        dv = r;
        ++steps;
    }
    c->head |= cinuse;
    Chunk *n = c->next();
    n->head |= pinuse;

    ++stats_.allocs;
    stats_.liveBytes += c->size();
    if (stats_.liveBytes > stats_.peakBytes)
        stats_.peakBytes = stats_.liveBytes;
    charge(steps);
    return c->payload();
}

void *
LeaAllocator::alloc(std::size_t size)
{
    std::uint64_t steps = 0;
    std::size_t need = alignUp(size) + Chunk::overhead;
    if (need < minChunkSize)
        need = minChunkSize;

    if (need <= maxSmallSize) {
        // Exact-fit small bin.
        unsigned idx = binIndex(need);
        std::uint64_t map = binMap >> idx;
        ++steps;
        if (map & 1) {
            Chunk *c = bins[idx];
            unlinkChunk(c, steps);
            return finishAlloc(c, need, steps);
        }

        // Designated victim next: the common fast path.
        if (dv && dv->size() >= need) {
            Chunk *c = dv;
            dv = nullptr;
            return finishAlloc(c, need, steps);
        }

        // Any larger small bin via the bitmap.
        if (map >> 1) {
            unsigned next = idx + 1 + std::countr_zero(map >> 1);
            Chunk *c = bins[next];
            unlinkChunk(c, steps);
            return finishAlloc(c, need, steps);
        }
    } else if (dv && dv->size() >= need) {
        Chunk *c = dv;
        dv = nullptr;
        return finishAlloc(c, need, steps);
    }

    // Best fit from the sorted large list (first fit == best fit).
    for (Chunk *c = largeHead; c; c = c->fd) {
        ++steps;
        if (c->size() >= need) {
            unlinkChunk(c, steps);
            return finishAlloc(c, need, steps);
        }
    }

    // Carve from the wilderness.
    if (top && top->size() >= need + minChunkSize) {
        Chunk *c = top;
        std::size_t rest = c->size() - need;
        c->setSize(need);
        Chunk *newTop = c->next();
        newTop->head = rest | pinuse;
        setFooter(newTop);
        top = newTop;
        c->head |= cinuse;

        ++stats_.allocs;
        stats_.liveBytes += c->size();
        if (stats_.liveBytes > stats_.peakBytes)
            stats_.peakBytes = stats_.liveBytes;
        charge(steps + 1);
        return c->payload();
    }

    ++stats_.failed;
    charge(steps);
    return nullptr;
}

void
LeaAllocator::free(void *p)
{
    if (!p)
        return;
    std::uint64_t steps = 0;
    Chunk *c = Chunk::fromPayload(p);
    panic_if(!c->inUse(), "Lea double free of ", p);

    ++stats_.frees;
    stats_.liveBytes -= c->size();
    c->head &= ~cinuse;

    bool wasDv = false;

    // Coalesce with the previous chunk.
    if (!c->prevInUse()) {
        Chunk *pr = c->prev();
        if (pr == dv) {
            dv = nullptr;
            wasDv = true;
        } else if (pr == top) {
            // Top is always the last chunk; cannot precede c.
            panic("top chunk found before a freed chunk");
        } else {
            unlinkChunk(pr, steps);
        }
        pr->setSize(pr->size() + c->size());
        c = pr;
        ++steps;
    }

    // Coalesce with the next chunk (or merge into top).
    Chunk *n = c->next();
    if (n == top) {
        c->setSize(c->size() + top->size());
        c->head &= ~cinuse;
        top = c;
        setFooter(top);
        if (wasDv)
            dv = nullptr;
        charge(steps + 1);
        return;
    }
    if (!n->inUse()) {
        if (n == dv) {
            dv = nullptr;
            wasDv = true;
        } else {
            unlinkChunk(n, steps);
        }
        c->setSize(c->size() + n->size());
        ++steps;
    }

    setFooter(c);
    c->next()->head &= ~pinuse;

    if (wasDv) {
        dv = c; // the merged block inherits designated-victim status
        ++steps;
    } else {
        insertChunk(c, steps);
    }
    charge(steps);
}

std::size_t
LeaAllocator::blockSize(const void *p) const
{
    const Chunk *c = Chunk::fromPayload(const_cast<void *>(p));
    return c->size() - Chunk::overhead;
}

void
LeaAllocator::checkConsistency() const
{
    // Collect every chunk tracked as free.
    std::set<const Chunk *> freeSet;
    for (unsigned i = 0; i < smallBinCount; ++i) {
        for (Chunk *c = bins[i]; c; c = c->fd) {
            panic_if(c->inUse(), "used chunk in small bin");
            panic_if(binIndex(c->size()) != i, "chunk in wrong bin");
            freeSet.insert(c);
        }
    }
    std::size_t prevSz = 0;
    for (Chunk *c = largeHead; c; c = c->fd) {
        panic_if(c->inUse(), "used chunk in large list");
        panic_if(c->size() < prevSz, "large list not sorted");
        prevSz = c->size();
        freeSet.insert(c);
    }
    if (dv)
        freeSet.insert(dv);
    if (top)
        freeSet.insert(top);

    // Physical walk.
    auto base = reinterpret_cast<std::uintptr_t>(arena);
    std::uintptr_t aligned = (base + allocAlign - 1) & ~(allocAlign - 1);
    const Chunk *c = reinterpret_cast<const Chunk *>(aligned);
    bool prevUse = true;
    while (c->size() != 0) {
        panic_if(c->prevInUse() != prevUse, "PINUSE bit inconsistent");
        if (!c->inUse()) {
            panic_if(!freeSet.count(c), "orphan free chunk");
            panic_if(const_cast<Chunk *>(c)->next()->prevSize != c->size(),
                     "bad footer");
        }
        prevUse = c->inUse();
        c = const_cast<Chunk *>(c)->next();
    }
}

} // namespace flexos
