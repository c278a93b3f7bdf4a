#include "apps/libc.hh"

#include "base/logging.hh"
#include "core/dss.hh"

namespace flexos {

LibcApi::LibcApi(Image &image, NetStack *netstack, Vfs *filesystem)
    : img(image), net(netstack), vfs(filesystem),
      socketCall(image.site("newlib", "socket_call")),
      fsCall(image.site("newlib", "fs_call")),
      timeCall(image.site("newlib", "time_call")),
      netListen(image.site("lwip", "listen")),
      netAccept(image.site("lwip", "accept")),
      netRecv(image.site("lwip", "recv")),
      netSend(image.site("lwip", "send")),
      netClose(image.site("lwip", "close")),
      fsOpen(image.site("vfscore", "open")),
      fsClose(image.site("vfscore", "close")),
      fsRead(image.site("vfscore", "read")),
      fsWrite(image.site("vfscore", "write")),
      fsPread(image.site("vfscore", "pread")),
      fsPwrite(image.site("vfscore", "pwrite")),
      fsFsync(image.site("vfscore", "fsync")),
      fsFtruncate(image.site("vfscore", "ftruncate")),
      fsUnlink(image.site("vfscore", "unlink")),
      fsStat(image.site("vfscore", "stat")),
      clockGettime(image.site("uktime", "clock_gettime")),
      schedJoin(image.site("uksched", "thread_join")),
      schedYield(image.site("uksched", "yield")),
      schedSleep(image.site("uksched", "sleep")),
      schedLock(image.site("uksched", "mutex_lock")),
      schedUnlock(image.site("uksched", "mutex_unlock"))
{
}

void
LibcApi::schedTouch(const GateSite &what)
{
    img.gate(what, [&] {
        img.machine().consume(schedWork);
    });
}

TcpSocket *
LibcApi::listen(std::uint16_t port)
{
    panic_if(!net, "no network stack in this image");
    return img.gate(socketCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(netListen, [&] { return net->listen(port); });
    });
}

TcpSocket *
LibcApi::accept(TcpSocket *listener)
{
    return img.gate(socketCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(netAccept, [&] {
            if (listener->pendingAccepts() == 0)
                schedTouch(schedJoin); // block until a SYN arrives
            TcpSocket *s = listener->accept();
            schedTouch(schedYield); // wakeup path
            return s;
        });
    });
}

long
LibcApi::recv(TcpSocket *s, void *buf, std::size_t n)
{
    return img.gate(socketCall, [&] {
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
            schedTouch(schedSleep); // enqueue on the wait queue
            schedTouch(schedYield); // dispatch away
        }
        long got = img.gate(netRecv,
                            [&] { return s->recv(buf, n); });
        schedTouch(schedYield); // wakeup bookkeeping
        return got;
    });
}

long
LibcApi::send(TcpSocket *s, const void *buf, std::size_t n)
{
    return img.gate(socketCall, [&] {
        img.machine().consume(newlibWork);
        DssFrame frame(img);
        long *sharedLen = frame.var<long>();
        *frame.shadow(sharedLen) = static_cast<long>(n);
        return img.gate(netSend,
                        [&] { return s->send(buf, n); });
    });
}

void
LibcApi::closeSocket(TcpSocket *s)
{
    img.gate(socketCall, [&] {
        img.machine().consume(newlibWork);
        img.gate(netClose, [&] { s->close(); });
    });
}

int
LibcApi::open(const std::string &path, unsigned flags)
{
    panic_if(!vfs, "no filesystem in this image");
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsOpen,
                        [&] { return vfs->open(path, flags); });
    });
}

int
LibcApi::close(int fd)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsClose, [&] { return vfs->close(fd); });
    });
}

long
LibcApi::read(int fd, void *buf, std::size_t n)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsRead,
                        [&] { return vfs->read(fd, buf, n); });
    });
}

long
LibcApi::write(int fd, const void *buf, std::size_t n)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsWrite,
                        [&] { return vfs->write(fd, buf, n); });
    });
}

long
LibcApi::pread(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsPread,
                        [&] { return vfs->pread(fd, buf, n, off); });
    });
}

long
LibcApi::pwrite(int fd, const void *buf, std::size_t n,
                std::uint64_t off)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsPwrite,
                        [&] { return vfs->pwrite(fd, buf, n, off); });
    });
}

int
LibcApi::fsync(int fd)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsFsync, [&] { return vfs->fsync(fd); });
    });
}

int
LibcApi::ftruncate(int fd, std::uint64_t size)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsFtruncate,
                        [&] { return vfs->ftruncate(fd, size); });
    });
}

int
LibcApi::unlink(const std::string &path)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsUnlink,
                        [&] { return vfs->unlink(path); });
    });
}

int
LibcApi::stat(const std::string &path, VfsStat &out)
{
    return img.gate(fsCall, [&] {
        img.machine().consume(newlibWork);
        return img.gate(fsStat,
                        [&] { return vfs->stat(path, out); });
    });
}

std::uint64_t
LibcApi::clockNs()
{
    return img.gate(timeCall, [&] {
        img.machine().consume(newlibWork / 3);
        return img.gate(clockGettime, [&] {
            img.machine().consume(20); // clock read + conversion
            return img.machine().nanoseconds();
        });
    });
}

void
LibcApi::lock()
{
    schedTouch(schedLock);
}

void
LibcApi::unlock()
{
    schedTouch(schedUnlock);
}

const HardeningContext &
LibcApi::hardening() const
{
    return img.currentHardening();
}

} // namespace flexos
