/**
 * @file
 * vfscore: the virtual filesystem micro-library.
 *
 * A vnode-based VFS with a POSIX-flavoured descriptor API. In the paper's
 * experiments the filesystem (ramfs+vfscore, ported as one component —
 * they are too entangled to split profitably, paper 4.4) is one of the
 * compartmentalized components (Figure 10).
 */

#ifndef FLEXOS_VFS_VFS_HH
#define FLEXOS_VFS_VFS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace flexos {

class Machine;

/** VFS error codes (negative values returned by descriptor calls). */
enum VfsError : int
{
    vfsOk = 0,
    vfsNotFound = -2,  // ENOENT
    vfsIo = -5,        // EIO
    vfsBadFd = -9,     // EBADF
    vfsExists = -17,   // EEXIST
    vfsNotDir = -20,   // ENOTDIR
    vfsIsDir = -21,    // EISDIR
    vfsInval = -22,    // EINVAL
    vfsNoSpace = -28,  // ENOSPC
    vfsNotEmpty = -39, // ENOTEMPTY
};

/** Node types. */
enum class VnodeType { Regular, Directory };

/** Open flags (subset of POSIX). */
enum OpenFlags : unsigned
{
    oRdOnly = 0x0,
    oWrOnly = 0x1,
    oRdWr = 0x2,
    oCreat = 0x40,
    oTrunc = 0x200,
    oAppend = 0x400,
};

/** Whence values for lseek. */
enum class SeekWhence { Set, Cur, End };

/** File metadata. */
struct VfsStat
{
    VnodeType type = VnodeType::Regular;
    std::uint64_t size = 0;
};

/**
 * A filesystem node. Concrete filesystems (ramfs) subclass this.
 */
class Vnode
{
  public:
    virtual ~Vnode() = default;

    virtual VnodeType type() const = 0;
    virtual std::uint64_t size() const = 0;

    /** @name Regular-file operations. @{ */
    virtual long read(std::uint64_t off, void *buf, std::size_t n) = 0;
    virtual long write(std::uint64_t off, const void *buf,
                       std::size_t n) = 0;
    virtual int truncate(std::uint64_t newSize) = 0;
    /** Flush to "stable storage" (charges the sync cost). */
    virtual int sync() = 0;
    /** @} */

    /** @name Directory operations. @{ */
    virtual std::shared_ptr<Vnode> lookup(const std::string &name) = 0;
    virtual std::shared_ptr<Vnode> create(const std::string &name,
                                          VnodeType t) = 0;
    virtual int unlink(const std::string &name) = 0;
    virtual std::vector<std::string> list() = 0;
    /** @} */
};

/**
 * The VFS layer: path resolution plus a file-descriptor table.
 */
class Vfs
{
  public:
    /** Mount a filesystem root; operations charge m's clock. */
    Vfs(Machine &m, std::shared_ptr<Vnode> root);

    /** @name POSIX-flavoured API. Negative returns are VfsError. @{ */
    int open(const std::string &path, unsigned flags);
    int close(int fd);
    long read(int fd, void *buf, std::size_t n);
    long write(int fd, const void *buf, std::size_t n);
    long pread(int fd, void *buf, std::size_t n, std::uint64_t off);
    long pwrite(int fd, const void *buf, std::size_t n, std::uint64_t off);
    long lseek(int fd, long off, SeekWhence whence);
    int fsync(int fd);
    int ftruncate(int fd, std::uint64_t size);
    int unlink(const std::string &path);
    int mkdir(const std::string &path);
    int rmdir(const std::string &path);
    int stat(const std::string &path, VfsStat &out);
    int readdir(const std::string &path, std::vector<std::string> &out);
    /** @} */

    /** Number of open descriptors (leak checks in tests). */
    std::size_t openCount() const;

  private:
    struct OpenFile
    {
        std::shared_ptr<Vnode> node;
        std::uint64_t offset = 0;
        unsigned flags = 0;
    };

    /** Resolve a path to its vnode; null with err set on failure. */
    std::shared_ptr<Vnode> resolve(const std::string &path, int &err);

    /** Resolve the parent directory of path; sets leaf name. */
    std::shared_ptr<Vnode> resolveParent(const std::string &path,
                                         std::string &leaf, int &err);

    OpenFile *file(int fd);

    /** Charge the fixed VFS entry cost for one operation. */
    void chargeOp() const;

    Machine &mach;
    std::shared_ptr<Vnode> root;
    std::vector<std::unique_ptr<OpenFile>> fds;
};

} // namespace flexos

#endif // FLEXOS_VFS_VFS_HH
