/**
 * @file
 * ramfs: an in-memory filesystem whose file data lives in 4 KiB blocks
 * drawn from a compartment allocator.
 *
 * Routing block storage through the allocator matters for the Figure 10
 * reproduction: filesystem-intensive workloads exercise the compartment's
 * allocator on every growing write, so allocator behaviour differences
 * (TLSF vs. Lea) surface in end-to-end numbers exactly as in the paper.
 */

#ifndef FLEXOS_VFS_RAMFS_HH
#define FLEXOS_VFS_RAMFS_HH

#include <map>
#include <memory>

#include "ukalloc/allocator.hh"
#include "vfs/vfs.hh"

namespace flexos {

/**
 * A ramfs node: either a regular file (block list) or a directory
 * (name -> node map).
 */
class RamfsNode : public Vnode,
                  public std::enable_shared_from_this<RamfsNode>
{
  public:
    static constexpr std::size_t blockSize = 4096;

    /**
     * Create a node whose operations charge m's clock; alloc may be
     * null (fall back to new[]).
     */
    RamfsNode(Machine &m, VnodeType t, Allocator *alloc);
    ~RamfsNode() override;

    VnodeType type() const override { return nodeType; }
    std::uint64_t size() const override { return fileSize; }

    long read(std::uint64_t off, void *buf, std::size_t n) override;
    long write(std::uint64_t off, const void *buf, std::size_t n) override;
    int truncate(std::uint64_t newSize) override;
    int sync() override;

    std::shared_ptr<Vnode> lookup(const std::string &name) override;
    std::shared_ptr<Vnode> create(const std::string &name,
                                  VnodeType t) override;
    int unlink(const std::string &name) override;
    std::vector<std::string> list() override;

  private:
    char *allocBlock();
    void freeBlock(char *b);
    /** Grow the block list to cover newSize bytes. @return success */
    bool ensureCapacity(std::uint64_t newSize);
    void chargeOp(std::size_t bytes) const;

    Machine &mach;
    VnodeType nodeType;
    Allocator *alloc;

    // Regular files:
    std::vector<char *> blocks;
    std::uint64_t fileSize = 0;

    // Directories:
    std::map<std::string, std::shared_ptr<RamfsNode>> children;
};

/** Build a fresh ramfs and return its root directory. */
std::shared_ptr<RamfsNode> makeRamfs(Machine &m,
                                     Allocator *alloc = nullptr);

} // namespace flexos

#endif // FLEXOS_VFS_RAMFS_HH
