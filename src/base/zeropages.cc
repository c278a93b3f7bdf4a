#include "base/zeropages.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "base/logging.hh"

namespace flexos {

ZeroPages::ZeroPages(std::size_t n) : bytes(n)
{
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t usable = (n + page - 1) / page * page;
    mapped = usable + page;
    void *p = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    panic_if(p == MAP_FAILED, "mmap of ", mapped,
             " bytes failed: ", std::strerror(errno));
    base = static_cast<char *>(p);
    panic_if(::mprotect(base + usable, page, PROT_NONE) != 0,
             "guard page mprotect failed: ", std::strerror(errno));
}

ZeroPages::~ZeroPages()
{
    release();
}

ZeroPages::ZeroPages(ZeroPages &&other) noexcept
    : base(std::exchange(other.base, nullptr)),
      bytes(std::exchange(other.bytes, 0)),
      mapped(std::exchange(other.mapped, 0))
{
}

ZeroPages &
ZeroPages::operator=(ZeroPages &&other) noexcept
{
    if (this != &other) {
        release();
        base = std::exchange(other.base, nullptr);
        bytes = std::exchange(other.bytes, 0);
        mapped = std::exchange(other.mapped, 0);
    }
    return *this;
}

void
ZeroPages::release() noexcept
{
    if (base)
        ::munmap(base, mapped);
}

} // namespace flexos
