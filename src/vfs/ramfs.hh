/**
 * @file
 * ramfs: an in-memory filesystem whose file data lives in 4 KiB blocks
 * drawn from a compartment allocator.
 *
 * Routing block storage through the allocator matters for the Figure 10
 * reproduction: filesystem-intensive workloads exercise the compartment's
 * allocator on every growing write, so allocator behaviour differences
 * (TLSF vs. Lea) surface in end-to-end numbers exactly as in the paper.
 *
 * Bytes at or past a file's size are unspecified: blocks come from the
 * allocator uninitialised, and any growth (a write past EOF or a
 * truncate up) zero-fills exactly the hole between the old size and
 * the new data. Under AddressSanitizer those bytes are poisoned, so a
 * read of one the file never wrote or zero-filled is reported.
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
class RamfsNode : public Vnode
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

    std::shared_ptr<Vnode> lookup(std::string_view name) override;
    std::shared_ptr<Vnode> create(std::string_view name,
                                  VnodeType t) override;
    int unlink(std::string_view name) override;
    std::vector<std::string> list() override;

  private:
    using Children =
        std::map<std::string, std::shared_ptr<RamfsNode>, std::less<>>;

    char *allocBlock();
    void freeBlock(char *b);
    /** Free every block, first to last, leaving an empty file. */
    void releaseBlocks();
    /** Grow the block list to cover newSize bytes. @return success */
    bool ensureCapacity(std::uint64_t newSize);
    /**
     * Grow fileSize to newSize (its blocks allocated), zero-filling
     * the bytes between the old size and from (<= newSize), where new
     * data starts.
     */
    void grow(std::uint64_t from, std::uint64_t newSize);
    /** Call fn(bytes, len, done) on each block piece of [off, off+n). */
    template <typename F>
    void eachPiece(std::uint64_t off, std::size_t n, F &&fn) const;
    void chargeOp(std::size_t bytes) const;

    Machine &mach;
    VnodeType nodeType;
    Allocator *alloc;

    // Regular files:
    std::vector<char *> blocks;
    std::uint64_t fileSize = 0;

    // Directories:
    Children children;
    /**
     * The entry of the last regular file unlinked while nothing else
     * held it, its blocks freed: the next create() of a regular file
     * reuses its node, name and block list, so a file created and
     * unlinked over and over (a rollback journal) allocates nothing.
     */
    Children::node_type spare;
};

/** Build a fresh ramfs and return its root directory. */
std::shared_ptr<RamfsNode> makeRamfs(Machine &m,
                                     Allocator *alloc = nullptr);

} // namespace flexos

#endif // FLEXOS_VFS_RAMFS_HH
