/**
 * @file
 * newlib: the libc facade ported applications link against.
 *
 * Every OS service an application touches flows through here, and every
 * call is made through FLEXOS call gates — first into newlib, then into
 * the owning kernel component (lwip, vfscore, uktime, uksched). When
 * the configuration co-locates those components the gates collapse into
 * plain calls; when it isolates them, the crossings (and the paper's
 * communication-pattern effects, 6.1) appear automatically.
 *
 * Blocking socket calls also gate into uksched for the block + wakeup
 * pair, reproducing the scheduler-heavy pattern that makes isolating
 * uksched expensive for Redis (43%) but cheap for Nginx (6%).
 */

#ifndef FLEXOS_APPS_LIBC_HH
#define FLEXOS_APPS_LIBC_HH

#include <string>

#include "core/image.hh"
#include "net/tcp.hh"
#include "uktime/clock.hh"
#include "vfs/vfs.hh"

namespace flexos {

/**
 * The POSIX-ish API handed to an application library.
 */
class LibcApi
{
  public:
    /**
     * @param img the image this app runs in
     * @param net network stack (may be null for disk-only apps)
     * @param vfs filesystem (may be null for network-only apps)
     */
    LibcApi(Image &img, NetStack *net, Vfs *vfs);

    /** @name Sockets (app -> newlib -> lwip [-> uksched]). @{ */
    TcpSocket *listen(std::uint16_t port);
    TcpSocket *accept(TcpSocket *listener);
    long recv(TcpSocket *s, void *buf, std::size_t n);
    long send(TcpSocket *s, const void *buf, std::size_t n);
    void closeSocket(TcpSocket *s);
    /** @} */

    /** @name Files (app -> newlib -> vfscore). @{ */
    int open(const std::string &path, unsigned flags);
    int close(int fd);
    long read(int fd, void *buf, std::size_t n);
    long write(int fd, const void *buf, std::size_t n);
    long pread(int fd, void *buf, std::size_t n, std::uint64_t off);
    long pwrite(int fd, const void *buf, std::size_t n,
                std::uint64_t off);
    int fsync(int fd);
    int ftruncate(int fd, std::uint64_t size);
    int unlink(const std::string &path);
    int stat(const std::string &path, VfsStat &out);
    /** @} */

    /** @name Time (app -> newlib -> uktime). @{ */
    std::uint64_t clockNs();
    /** @} */

    /** @name Scheduler services (app -> uksched). @{ */
    /** Mutex acquire/release (thread-per-connection servers). */
    void lock();
    void unlock();
    /** @} */

    /** The hardening context of the caller's compartment. */
    const HardeningContext &hardening() const;

    Image &image() { return img; }
    NetStack *netstack() { return net; }

  private:
    /** One scheduler interaction (block or wakeup) through a gate. */
    void schedTouch(const GateSite &what);

    Image &img;
    NetStack *net;
    Vfs *vfs;

    /** @name Gate sites, resolved against the image at construction.
     *  @{ */
    GateSite socketCall, fsCall, timeCall; ///< app -> newlib
    GateSite netListen, netAccept, netRecv, netSend, netClose;
    GateSite fsOpen, fsClose, fsRead, fsWrite, fsPread, fsPwrite, fsFsync,
        fsFtruncate, fsUnlink, fsStat;
    GateSite clockGettime;
    GateSite schedJoin, schedYield, schedSleep, schedLock, schedUnlock;
    /** @} */

    /** Modelled per-call work inside newlib itself (arg shuffling,
     *  errno handling, small copies). */
    static constexpr Cycles newlibWork = 30;
    /** Modelled scheduler work per block/wakeup interaction. */
    static constexpr Cycles schedWork = 90;
};

} // namespace flexos

#endif // FLEXOS_APPS_LIBC_HH
