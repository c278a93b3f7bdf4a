#include "apps/libc.hh"

#include "base/logging.hh"
#include "core/dss.hh"

namespace flexos {

LibcApi::LibcApi(Image &image, NetStack *netstack, Vfs *filesystem)
    : img(image), net(netstack), vfs(filesystem)
{
}

void
LibcApi::schedTouch(const char *what)
{
    img.gate("uksched", what, [&] {
        img.machine().consume(schedWork);
    });
}

TcpSocket *
LibcApi::listen(std::uint16_t port)
{
    panic_if(!net, "no network stack in this image");
    return img.gate("newlib", "socket_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("lwip", "listen", [&] { return net->listen(port); });
    });
}

TcpSocket *
LibcApi::accept(TcpSocket *listener)
{
    return img.gate("newlib", "socket_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("lwip", "accept", [&] {
            if (listener->pendingAccepts() == 0)
                schedTouch("thread_join"); // block until a SYN arrives
            TcpSocket *s = listener->accept();
            schedTouch("yield"); // wakeup path
            return s;
        });
    });
}

TcpSocket *
LibcApi::connect(std::uint32_t ip, std::uint16_t port)
{
    return img.gate("newlib", "socket_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("lwip", "connect",
                        [&] { return net->connect(ip, port); });
    });
}

long
LibcApi::recv(TcpSocket *s, void *buf, std::size_t n)
{
    return img.gate("newlib", "socket_call", [&] {
        img.machine().consume(newlibWork);
        // Two stack variables cross the gate by reference (the length
        // and the status word) — `__shared` annotations in the port,
        // materialized per the configured stack-sharing strategy.
        DssFrame frame(img);
        long *sharedLen = frame.var<long>();
        int *sharedStatus = frame.var<int>();
        *frame.shadow(sharedLen) = static_cast<long>(n);
        *frame.shadow(sharedStatus) = 0;
        // Blocking happens at the application/libc level: the calling
        // thread parks in the scheduler until data arrives. (lwip does
        // not talk to the scheduler on this hot path — paper 6.1, the
        // "isolation for free" effect when grouping lwip with uksched.)
        if (s->available() == 0 && !s->peerHasClosed()) {
            schedTouch("sleep"); // enqueue on the wait queue
            schedTouch("yield"); // dispatch away
        }
        long got = img.gate("lwip", "recv",
                            [&] { return s->recv(buf, n); });
        schedTouch("yield"); // wakeup bookkeeping
        return got;
    });
}

long
LibcApi::send(TcpSocket *s, const void *buf, std::size_t n)
{
    return img.gate("newlib", "socket_call", [&] {
        img.machine().consume(newlibWork);
        DssFrame frame(img);
        long *sharedLen = frame.var<long>();
        *frame.shadow(sharedLen) = static_cast<long>(n);
        return img.gate("lwip", "send",
                        [&] { return s->send(buf, n); });
    });
}

void
LibcApi::closeSocket(TcpSocket *s)
{
    img.gate("newlib", "socket_call", [&] {
        img.machine().consume(newlibWork);
        img.gate("lwip", "close", [&] { s->close(); });
    });
}

int
LibcApi::open(const std::string &path, unsigned flags)
{
    panic_if(!vfs, "no filesystem in this image");
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "open",
                        [&] { return vfs->open(path, flags); });
    });
}

int
LibcApi::close(int fd)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "close", [&] { return vfs->close(fd); });
    });
}

long
LibcApi::read(int fd, void *buf, std::size_t n)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "read",
                        [&] { return vfs->read(fd, buf, n); });
    });
}

long
LibcApi::write(int fd, const void *buf, std::size_t n)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "write",
                        [&] { return vfs->write(fd, buf, n); });
    });
}

long
LibcApi::pread(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "pread",
                        [&] { return vfs->pread(fd, buf, n, off); });
    });
}

long
LibcApi::pwrite(int fd, const void *buf, std::size_t n,
                std::uint64_t off)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "pwrite",
                        [&] { return vfs->pwrite(fd, buf, n, off); });
    });
}

long
LibcApi::lseek(int fd, long off, SeekWhence whence)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "lseek",
                        [&] { return vfs->lseek(fd, off, whence); });
    });
}

int
LibcApi::fsync(int fd)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "fsync", [&] { return vfs->fsync(fd); });
    });
}

int
LibcApi::ftruncate(int fd, std::uint64_t size)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "ftruncate",
                        [&] { return vfs->ftruncate(fd, size); });
    });
}

int
LibcApi::unlink(const std::string &path)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "unlink",
                        [&] { return vfs->unlink(path); });
    });
}

int
LibcApi::stat(const std::string &path, VfsStat &out)
{
    return img.gate("newlib", "fs_call", [&] {
        img.machine().consume(newlibWork);
        return img.gate("vfscore", "stat",
                        [&] { return vfs->stat(path, out); });
    });
}

std::uint64_t
LibcApi::clockNs()
{
    return img.gate("newlib", "time_call", [&] {
        img.machine().consume(newlibWork / 3);
        return img.gate("uktime", "clock_gettime", [&] {
            img.machine().consume(20); // clock read + conversion
            return img.machine().nanoseconds();
        });
    });
}

void
LibcApi::yield()
{
    schedTouch("yield");
}

void
LibcApi::lock()
{
    schedTouch("mutex_lock");
}

void
LibcApi::unlock()
{
    schedTouch("mutex_unlock");
}

void *
LibcApi::malloc(std::size_t n)
{
    // Per-compartment allocator (paper 4.5): local fast path, no gate.
    Thread *t = img.scheduler().current();
    int comp = t ? t->currentCompartment : 0;
    return img.compartmentAt(static_cast<std::size_t>(comp)).heap->alloc(n);
}

void
LibcApi::free(void *p)
{
    Thread *t = img.scheduler().current();
    int comp = t ? t->currentCompartment : 0;
    img.compartmentAt(static_cast<std::size_t>(comp)).heap->free(p);
}

const HardeningContext &
LibcApi::hardening() const
{
    return img.currentHardening();
}

} // namespace flexos
