#include "vfs/ramfs.hh"

#include <algorithm>
#include <cstring>

#include "base/asan.hh"
#include "base/logging.hh"
#include "machine/machine.hh"

#ifdef FLEXOS_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace flexos {

namespace {

/** Blocks needed to hold size bytes. */
std::size_t
blocksFor(std::uint64_t size)
{
    return static_cast<std::size_t>((size + RamfsNode::blockSize - 1) /
                                    RamfsNode::blockSize);
}

} // namespace

RamfsNode::RamfsNode(Machine &m, VnodeType t, Allocator *allocator)
    : mach(m), nodeType(t), alloc(allocator)
{
}

RamfsNode::~RamfsNode()
{
    releaseBlocks();
}

char *
RamfsNode::allocBlock()
{
    char *b = alloc ? static_cast<char *>(alloc->alloc(blockSize))
                    : new char[blockSize];
#ifdef FLEXOS_ASAN
    if (b)
        ASAN_POISON_MEMORY_REGION(b, blockSize);
#endif
    return b;
}

void
RamfsNode::freeBlock(char *b)
{
#ifdef FLEXOS_ASAN
    ASAN_UNPOISON_MEMORY_REGION(b, blockSize);
#endif
    if (alloc)
        alloc->free(b);
    else
        delete[] b;
}

void
RamfsNode::releaseBlocks()
{
    for (char *b : blocks)
        freeBlock(b);
    blocks.clear();
    fileSize = 0;
}

void
RamfsNode::chargeOp(std::size_t bytes) const
{
    mach.consume(mach.timing.ramfsOpBase);
    mach.consumePerByte(bytes, mach.timing.fsCopyPer16B);
    mach.bump(Counter::RamfsOps);
}

template <typename F>
void
RamfsNode::eachPiece(std::uint64_t off, std::size_t n, F &&fn) const
{
    std::size_t done = 0;
    while (done < n) {
        std::size_t blk = static_cast<std::size_t>((off + done) / blockSize);
        std::size_t at = static_cast<std::size_t>((off + done) % blockSize);
        std::size_t chunk = std::min(n - done, blockSize - at);
        fn(blocks[blk] + at, chunk, done);
        done += chunk;
    }
}

bool
RamfsNode::ensureCapacity(std::uint64_t newSize)
{
    std::size_t needed = blocksFor(newSize);
    while (blocks.size() < needed) {
        char *b = allocBlock();
        if (!b)
            return false;
        blocks.push_back(b);
    }
    return true;
}

void
RamfsNode::grow(std::uint64_t from, std::uint64_t newSize)
{
    if (newSize <= fileSize)
        return;
#ifdef FLEXOS_ASAN
    eachPiece(fileSize, static_cast<std::size_t>(newSize - fileSize),
              [](char *p, std::size_t len, std::size_t) {
                  ASAN_UNPOISON_MEMORY_REGION(p, len);
              });
#endif
    if (from > fileSize)
        eachPiece(fileSize, static_cast<std::size_t>(from - fileSize),
                  [](char *p, std::size_t len, std::size_t) {
                      std::memset(p, 0, len);
                  });
    fileSize = newSize;
}

long
RamfsNode::read(std::uint64_t off, void *buf, std::size_t n)
{
    if (nodeType != VnodeType::Regular)
        return vfsIsDir;
    if (off >= fileSize)
        return 0;
    std::size_t todo =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, fileSize - off));
    chargeOp(todo);

    char *out = static_cast<char *>(buf);
    eachPiece(off, todo, [out](char *p, std::size_t len, std::size_t done) {
        std::memcpy(out + done, p, len);
    });
    return static_cast<long>(todo);
}

long
RamfsNode::write(std::uint64_t off, const void *buf, std::size_t n)
{
    if (nodeType != VnodeType::Regular)
        return vfsIsDir;
    if (!ensureCapacity(off + n))
        return vfsNoSpace;
    chargeOp(n);

    grow(off, off + n);
    const char *in = static_cast<const char *>(buf);
    eachPiece(off, n, [in](char *p, std::size_t len, std::size_t done) {
        std::memcpy(p, in + done, len);
    });
    return static_cast<long>(n);
}

int
RamfsNode::truncate(std::uint64_t newSize)
{
    if (nodeType != VnodeType::Regular)
        return vfsIsDir;
    chargeOp(0);
    if (newSize >= fileSize) {
        if (!ensureCapacity(newSize))
            return vfsNoSpace;
        grow(newSize, newSize);
        return vfsOk;
    }
    std::size_t keep = blocksFor(newSize);
    while (blocks.size() > keep) {
        freeBlock(blocks.back());
        blocks.pop_back();
    }
#ifdef FLEXOS_ASAN
    std::uint64_t end = std::min<std::uint64_t>(fileSize, keep * blockSize);
    eachPiece(newSize, static_cast<std::size_t>(end - newSize),
              [](char *p, std::size_t len, std::size_t) {
                  ASAN_POISON_MEMORY_REGION(p, len);
              });
#endif
    fileSize = newSize;
    return vfsOk;
}

int
RamfsNode::sync()
{
    // ramfs has no backing store; model the flush barrier cost only.
    chargeOp(0);
    return vfsOk;
}

std::shared_ptr<Vnode>
RamfsNode::lookup(std::string_view name)
{
    if (nodeType != VnodeType::Directory)
        return nullptr;
    auto it = children.find(name);
    return it == children.end() ? nullptr : it->second;
}

std::shared_ptr<Vnode>
RamfsNode::create(std::string_view name, VnodeType t)
{
    if (nodeType != VnodeType::Directory || name.empty())
        return nullptr;
    if (children.find(name) != children.end())
        return nullptr;
    chargeOp(0);
    if (t == VnodeType::Regular && spare) {
        spare.key().assign(name);
        return children.insert(std::move(spare)).position->second;
    }
    auto node = std::make_shared<RamfsNode>(mach, t, alloc);
    children.emplace(name, node);
    return node;
}

int
RamfsNode::unlink(std::string_view name)
{
    if (nodeType != VnodeType::Directory)
        return vfsNotDir;
    chargeOp(0);
    auto it = children.find(name);
    if (it == children.end())
        return vfsNotFound;
    Children::node_type entry = children.extract(it);
    RamfsNode &node = *entry.mapped();
    if (node.nodeType == VnodeType::Regular &&
        entry.mapped().use_count() == 1) {
        // Freed where destroying the node would have freed them.
        node.releaseBlocks();
        spare = std::move(entry);
    }
    return vfsOk;
}

std::vector<std::string>
RamfsNode::list()
{
    std::vector<std::string> names;
    names.reserve(children.size());
    for (const auto &[name, node] : children)
        names.push_back(name);
    return names;
}

std::shared_ptr<RamfsNode>
makeRamfs(Machine &m, Allocator *alloc)
{
    return std::make_shared<RamfsNode>(m, VnodeType::Directory, alloc);
}

} // namespace flexos
