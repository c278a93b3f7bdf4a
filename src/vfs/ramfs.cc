#include "vfs/ramfs.hh"

#include <cstring>

#include "base/logging.hh"
#include "machine/machine.hh"

namespace flexos {

RamfsNode::RamfsNode(Machine &m, VnodeType t, Allocator *allocator)
    : mach(m), nodeType(t), alloc(allocator)
{
}

RamfsNode::~RamfsNode()
{
    for (char *b : blocks)
        freeBlock(b);
}

char *
RamfsNode::allocBlock()
{
    if (alloc)
        return static_cast<char *>(alloc->alloc(blockSize));
    return new char[blockSize];
}

void
RamfsNode::freeBlock(char *b)
{
    if (alloc)
        alloc->free(b);
    else
        delete[] b;
}

void
RamfsNode::chargeOp(std::size_t bytes) const
{
    mach.consume(mach.timing.ramfsOpBase);
    mach.consumePerByte(bytes, mach.timing.fsCopyPer16B);
    mach.bump("ramfs.ops");
}

bool
RamfsNode::ensureCapacity(std::uint64_t newSize)
{
    std::size_t needed =
        static_cast<std::size_t>((newSize + blockSize - 1) / blockSize);
    while (blocks.size() < needed) {
        char *b = allocBlock();
        if (!b)
            return false;
        std::memset(b, 0, blockSize);
        blocks.push_back(b);
    }
    return true;
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
    std::size_t done = 0;
    while (done < todo) {
        std::size_t blk = static_cast<std::size_t>((off + done) / blockSize);
        std::size_t in = static_cast<std::size_t>((off + done) % blockSize);
        std::size_t chunk = std::min(todo - done, blockSize - in);
        std::memcpy(out + done, blocks[blk] + in, chunk);
        done += chunk;
    }
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

    const char *in = static_cast<const char *>(buf);
    std::size_t done = 0;
    while (done < n) {
        std::size_t blk = static_cast<std::size_t>((off + done) / blockSize);
        std::size_t at = static_cast<std::size_t>((off + done) % blockSize);
        std::size_t chunk = std::min(n - done, blockSize - at);
        std::memcpy(blocks[blk] + at, in + done, chunk);
        done += chunk;
    }
    if (off + n > fileSize)
        fileSize = off + n;
    return static_cast<long>(n);
}

int
RamfsNode::truncate(std::uint64_t newSize)
{
    if (nodeType != VnodeType::Regular)
        return vfsIsDir;
    chargeOp(0);
    if (newSize < fileSize) {
        std::size_t keep =
            static_cast<std::size_t>((newSize + blockSize - 1) / blockSize);
        while (blocks.size() > keep) {
            freeBlock(blocks.back());
            blocks.pop_back();
        }
        // Zero the tail of the last kept block so regrowth reads zeros.
        if (!blocks.empty() && newSize % blockSize != 0) {
            std::size_t at = static_cast<std::size_t>(newSize % blockSize);
            std::memset(blocks.back() + at, 0, blockSize - at);
        }
    } else if (!ensureCapacity(newSize)) {
        return vfsNoSpace;
    }
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
RamfsNode::lookup(const std::string &name)
{
    if (nodeType != VnodeType::Directory)
        return nullptr;
    auto it = children.find(name);
    return it == children.end() ? nullptr : it->second;
}

std::shared_ptr<Vnode>
RamfsNode::create(const std::string &name, VnodeType t)
{
    if (nodeType != VnodeType::Directory || name.empty())
        return nullptr;
    if (children.count(name))
        return nullptr;
    chargeOp(0);
    auto node = std::make_shared<RamfsNode>(mach, t, alloc);
    children.emplace(name, node);
    return node;
}

int
RamfsNode::unlink(const std::string &name)
{
    if (nodeType != VnodeType::Directory)
        return vfsNotDir;
    chargeOp(0);
    return children.erase(name) ? vfsOk : vfsNotFound;
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
