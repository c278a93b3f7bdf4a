#include "vfs/vfs.hh"

#include "base/logging.hh"
#include "base/strutil.hh"
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

std::shared_ptr<Vnode>
Vfs::resolve(const std::string &path, int &err)
{
    std::shared_ptr<Vnode> node = root;
    for (const std::string &part : split(path, '/')) {
        if (part.empty())
            continue;
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
Vfs::resolveParent(const std::string &path, std::string &leaf, int &err)
{
    std::vector<std::string> parts;
    for (const std::string &part : split(path, '/')) {
        if (!part.empty())
            parts.push_back(part);
    }
    if (parts.empty()) {
        err = vfsInval;
        return nullptr;
    }
    leaf = parts.back();

    std::shared_ptr<Vnode> node = root;
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        if (node->type() != VnodeType::Directory) {
            err = vfsNotDir;
            return nullptr;
        }
        node = node->lookup(parts[i]);
        if (!node) {
            err = vfsNotFound;
            return nullptr;
        }
    }
    if (node->type() != VnodeType::Directory) {
        err = vfsNotDir;
        return nullptr;
    }
    err = vfsOk;
    return node;
}

Vfs::OpenFile *
Vfs::file(int fd)
{
    if (fd < 0 || static_cast<std::size_t>(fd) >= fds.size())
        return nullptr;
    return fds[fd].get();
}

int
Vfs::open(const std::string &path, unsigned flags)
{
    chargeOp();
    int err;
    std::shared_ptr<Vnode> node = resolve(path, err);
    if (!node) {
        if (err != vfsNotFound || !(flags & oCreat))
            return err;
        std::string leaf;
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
    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (!fds[i]) {
            fds[i] = std::make_unique<OpenFile>(
                OpenFile{node, 0, flags});
            return static_cast<int>(i);
        }
    }
    fds.push_back(std::make_unique<OpenFile>(OpenFile{node, 0, flags}));
    return static_cast<int>(fds.size() - 1);
}

int
Vfs::close(int fd)
{
    chargeOp();
    OpenFile *f = file(fd);
    if (!f)
        return vfsBadFd;
    fds[fd].reset();
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
Vfs::unlink(const std::string &path)
{
    chargeOp();
    int err;
    std::string leaf;
    std::shared_ptr<Vnode> parent = resolveParent(path, leaf, err);
    if (!parent)
        return err;
    std::shared_ptr<Vnode> victim = parent->lookup(leaf);
    if (!victim)
        return vfsNotFound;
    if (victim->type() == VnodeType::Directory)
        return vfsIsDir;
    return parent->unlink(leaf);
}

int
Vfs::mkdir(const std::string &path)
{
    chargeOp();
    int err;
    std::string leaf;
    std::shared_ptr<Vnode> parent = resolveParent(path, leaf, err);
    if (!parent)
        return err;
    if (parent->lookup(leaf))
        return vfsExists;
    return parent->create(leaf, VnodeType::Directory) ? vfsOk : vfsNoSpace;
}

int
Vfs::rmdir(const std::string &path)
{
    chargeOp();
    int err;
    std::string leaf;
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
Vfs::stat(const std::string &path, VfsStat &out)
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
Vfs::readdir(const std::string &path, std::vector<std::string> &out)
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
    for (const auto &f : fds) {
        if (f)
            ++n;
    }
    return n;
}

} // namespace flexos
