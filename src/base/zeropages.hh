/**
 * @file
 * Zero-filled memory the kernel provides on first touch.
 *
 * Simulated memory (compartment heaps, data sections, the shared heap)
 * must read zero at boot, but most of it is never touched: a simulated
 * 8 MB heap typically sees a few hundred KB of allocations. An
 * anonymous mapping gives that contract for free — the kernel maps a
 * zero page when a page is first touched — where a zero-filled
 * std::vector writes every byte up front.
 */

#ifndef FLEXOS_BASE_ZEROPAGES_HH
#define FLEXOS_BASE_ZEROPAGES_HH

#include <cstddef>

namespace flexos {

/**
 * n bytes of page-aligned, zero-filled memory from an anonymous mmap,
 * returned with munmap. The bytes are rounded up to whole pages and
 * followed by one PROT_NONE guard page, so running off the end of the
 * last page faults in every build (AddressSanitizer does not watch
 * mmap'd memory). Move-only; a default-constructed ZeroPages holds
 * nothing.
 */
class ZeroPages
{
  public:
    ZeroPages() = default;
    explicit ZeroPages(std::size_t n);
    ~ZeroPages();

    ZeroPages(ZeroPages &&other) noexcept;
    ZeroPages &operator=(ZeroPages &&other) noexcept;
    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    char *data() const { return base; }
    std::size_t size() const { return bytes; }

  private:
    void release() noexcept;

    char *base = nullptr;
    std::size_t bytes = 0;
    std::size_t mapped = 0; ///< whole pages plus the guard page
};

} // namespace flexos

#endif // FLEXOS_BASE_ZEROPAGES_HH
