#include "vfs/vfs.hh"

#include <algorithm>

#include "base/logging.hh"
#include "machine/machine.hh"

namespace flexos {

Vfs::Vfs(Machine &m, std::shared_ptr<Vnode> rootNode)
    : mach(m), root(std::move(rootNode))
{
    fatal_if(!root, "VFS mounted without a root");
    fatal_if(root->type() != VnodeType::Directory,
             "VFS root must be a directory");
}

void
Vfs::chargeOp() const
{
    mach.consume(mach.timing.vfsOpBase);
    mach.bump(Counter::VfsOps);
}

namespace {

/**
 * The next non-empty '/'-separated component of path at or after at,
 * which moves past it; empty once none is left.
 */
std::string_view
nextComponent(std::string_view path, std::size_t &at)
{
    at = std::min(path.find_first_not_of('/', at), path.size());
    std::size_t end = std::min(path.find('/', at), path.size());
    std::string_view part = path.substr(at, end - at);
    at = end;
    return part;
}

} // namespace

std::shared_ptr<Vnode>
Vfs::resolve(std::string_view path, int &err)
{
    std::shared_ptr<Vnode> node = root;
    std::size_t at = 0;
    for (std::string_view part = nextComponent(path, at); !part.empty();
         part = nextComponent(path, at)) {
        if (node->type() != VnodeType::Directory) {
            err = vfsNotDir;
            return nullptr;
        }
        node = node->lookup(part);
        if (!node) {
            err = vfsNotFound;
            return nullptr;
        }
    }
    err = vfsOk;
    return node;
}

std::shared_ptr<Vnode>
Vfs::resolveParent(std::string_view path, std::string_view &leaf, int &err)
{
    std::size_t end = path.find_last_not_of('/');
    if (end == std::string_view::npos) {
        err = vfsInval;
        return nullptr;
    }
    std::size_t start = path.find_last_of('/', end);
    start = start == std::string_view::npos ? 0 : start + 1;
    leaf = path.substr(start, end + 1 - start);

    std::shared_ptr<Vnode> node = resolve(path.substr(0, start), err);
    if (node && node->type() != VnodeType::Directory) {
        err = vfsNotDir;
        return nullptr;
    }
    return node;
}

Vfs::OpenFile *
Vfs::file(int fd)
{
    if (fd < 0 || static_cast<std::size_t>(fd) >= fds.size() ||
        !fds[fd].node)
        return nullptr;
    return &fds[fd];
}

int
Vfs::open(std::string_view path, unsigned flags)
{
    chargeOp();
    int err;
    std::shared_ptr<Vnode> node = resolve(path, err);
    if (!node) {
        if (err != vfsNotFound || !(flags & oCreat))
            return err;
        std::string_view leaf;
        std::shared_ptr<Vnode> parent = resolveParent(path, leaf, err);
        if (!parent)
            return err;
        node = parent->create(leaf, VnodeType::Regular);
        if (!node)
            return vfsNoSpace;
    }
    if (node->type() == VnodeType::Directory &&
        (flags & (oWrOnly | oRdWr)))
        return vfsIsDir;
    if ((flags & oTrunc) && node->type() == VnodeType::Regular)
        node->truncate(0);

    // Reuse the lowest free slot, POSIX-style.
    std::size_t fd = 0;
    while (fd < fds.size() && fds[fd].node)
        ++fd;
    if (fd == fds.size())
        fds.emplace_back();
    fds[fd] = OpenFile{std::move(node), 0, flags};
    return static_cast<int>(fd);
}

int
Vfs::close(int fd)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    *f = OpenFile{};
    return vfsOk;
}

long
Vfs::read(int fd, void *buf, std::size_t n)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    if (f->node->type() != VnodeType::Regular)
        return vfsIsDir;
    long got = f->node->read(f->offset, buf, n);
    if (got > 0)
        f->offset += static_cast<std::uint64_t>(got);
    return got;
}

long
Vfs::write(int fd, const void *buf, std::size_t n)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    if (f->node->type() != VnodeType::Regular)
        return vfsIsDir;
    if (f->flags & oAppend)
        f->offset = f->node->size();
    long put = f->node->write(f->offset, buf, n);
    if (put > 0)
        f->offset += static_cast<std::uint64_t>(put);
    return put;
}

long
Vfs::pread(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    return f->node->read(off, buf, n);
}

long
Vfs::pwrite(int fd, const void *buf, std::size_t n, std::uint64_t off)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    return f->node->write(off, buf, n);
}

long
Vfs::lseek(int fd, long off, SeekWhence whence)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    long base = 0;
    switch (whence) {
      case SeekWhence::Set:
        base = 0;
        break;
      case SeekWhence::Cur:
        base = static_cast<long>(f->offset);
        break;
      case SeekWhence::End:
        base = static_cast<long>(f->node->size());
        break;
    }
    long target = base + off;
    if (target < 0)
        return vfsInval;
    f->offset = static_cast<std::uint64_t>(target);
    return target;
}

int
Vfs::fsync(int fd)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    return f->node->sync();
}

int
Vfs::ftruncate(int fd, std::uint64_t size)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    return f->node->truncate(size);
}

int
Vfs::unlink(std::string_view path)
{
    chargeOp();
    int err;
    std::string_view leaf;
    std::shared_ptr<Vnode> parent = resolveParent(path, leaf, err);
    if (!parent)
        return err;
    std::shared_ptr<Vnode> victim = parent->lookup(leaf);
    if (!victim)
        return vfsNotFound;
    if (victim->type() == VnodeType::Directory)
        return vfsIsDir;
    // Unless a descriptor holds the file, the directory entry keeps
    // the last reference, and the unlink frees its blocks.
    victim.reset();
    return parent->unlink(leaf);
}

int
Vfs::mkdir(std::string_view path)
{
    chargeOp();
    int err;
    std::string_view leaf;
    std::shared_ptr<Vnode> parent = resolveParent(path, leaf, err);
    if (!parent)
        return err;
    if (parent->lookup(leaf))
        return vfsExists;
    return parent->create(leaf, VnodeType::Directory) ? vfsOk : vfsNoSpace;
}

int
Vfs::rmdir(std::string_view path)
{
    chargeOp();
    int err;
    std::string_view leaf;
    std::shared_ptr<Vnode> parent = resolveParent(path, leaf, err);
    if (!parent)
        return err;
    std::shared_ptr<Vnode> victim = parent->lookup(leaf);
    if (!victim)
        return vfsNotFound;
    if (victim->type() != VnodeType::Directory)
        return vfsNotDir;
    if (!victim->list().empty())
        return vfsNotEmpty;
    return parent->unlink(leaf);
}

int
Vfs::stat(std::string_view path, VfsStat &out)
{
    chargeOp();
    int err;
    std::shared_ptr<Vnode> node = resolve(path, err);
    if (!node)
        return err;
    out.type = node->type();
    out.size = node->size();
    return vfsOk;
}

int
Vfs::readdir(std::string_view path, std::vector<std::string> &out)
{
    chargeOp();
    int err;
    std::shared_ptr<Vnode> node = resolve(path, err);
    if (!node)
        return err;
    if (node->type() != VnodeType::Directory)
        return vfsNotDir;
    out = node->list();
    return vfsOk;
}

std::size_t
Vfs::openCount() const
{
    std::size_t n = 0;
    for (const OpenFile &f : fds) {
        if (f.node)
            ++n;
    }
    return n;
}

} // namespace flexos
