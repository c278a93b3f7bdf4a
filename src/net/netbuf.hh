/**
 * @file
 * NetBuf: a packet buffer with headroom, in the spirit of Unikraft's
 * uknetbuf / lwIP's pbuf. Payload is written once; protocol layers
 * prepend their headers into the headroom without copying.
 *
 * NetBufView is the zero-copy companion: a non-owning [ptr, len) window
 * into a NetBuf (or any byte range) that protocol layers pass down the
 * receive path instead of raw pointer+length pairs. Views are cheap to
 * slice and trim, so reassembly can clip overlapping segments without
 * copying them first.
 */

#ifndef FLEXOS_NET_NETBUF_HH
#define FLEXOS_NET_NETBUF_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/logging.hh"

namespace flexos {

/**
 * A non-owning view of a contiguous byte range inside a NetBuf. The
 * underlying buffer must outlive the view; the receive path upholds
 * this by keeping the frame alive for the duration of segment
 * processing.
 */
class NetBufView
{
  public:
    constexpr NetBufView() = default;
    constexpr NetBufView(const std::uint8_t *p, std::size_t n)
        : ptr(p), len(n)
    {
    }

    const std::uint8_t *data() const { return ptr; }
    std::size_t size() const { return len; }
    bool empty() const { return len == 0; }

    const std::uint8_t *begin() const { return ptr; }
    const std::uint8_t *end() const { return ptr + len; }

    std::uint8_t
    operator[](std::size_t i) const
    {
        panic_if(i >= len, "netbuf view index out of range");
        return ptr[i];
    }

    /** Sub-view of [off, off + n); n is clamped to the remainder. */
    NetBufView
    sub(std::size_t off, std::size_t n = SIZE_MAX) const
    {
        panic_if(off > len, "netbuf view slice beyond data");
        return NetBufView(ptr + off, std::min(n, len - off));
    }

    /** Drop n bytes from the front (header pull). */
    void
    pull(std::size_t n)
    {
        panic_if(n > len, "netbuf view pull beyond data");
        ptr += n;
        len -= n;
    }

    /** Drop n bytes from the back (trailer trim). */
    void
    trimBack(std::size_t n)
    {
        panic_if(n > len, "netbuf view trim beyond data");
        len -= n;
    }

  private:
    const std::uint8_t *ptr = nullptr;
    std::size_t len = 0;
};

/**
 * A single frame buffer. Capacity is fixed at construction; data occupies
 * [dataOff, dataOff + dataLen) within the storage.
 *
 * Move semantics are explicit: the moved-from buffer is left empty
 * (size() == 0, headroom() == 0) rather than with stale offsets over an
 * emptied vector, so accidentally reusing it panics cleanly instead of
 * corrupting the heap.
 */
class NetBuf
{
  public:
    /** Standard Ethernet-ish frame capacity with headroom. */
    static constexpr std::size_t defaultCapacity = 2048;
    static constexpr std::size_t defaultHeadroom = 64;

    explicit NetBuf(std::size_t capacity = defaultCapacity,
                    std::size_t headroom = defaultHeadroom)
        : storage(capacity), dataOff(headroom), dataLen(0)
    {
        panic_if(headroom > capacity, "headroom exceeds capacity");
    }

    NetBuf(const NetBuf &) = default;
    NetBuf &operator=(const NetBuf &) = default;

    NetBuf(NetBuf &&other) noexcept
        : storage(std::move(other.storage)), dataOff(other.dataOff),
          dataLen(other.dataLen)
    {
        other.dataOff = 0;
        other.dataLen = 0;
    }

    NetBuf &
    operator=(NetBuf &&other) noexcept
    {
        if (this != &other) {
            storage = std::move(other.storage);
            dataOff = other.dataOff;
            dataLen = other.dataLen;
            other.dataOff = 0;
            other.dataLen = 0;
        }
        return *this;
    }

    /**
     * Return the buffer to its freshly-constructed state: no data,
     * headroom restored (clamped to the capacity). Useful for reusing a
     * buffer — including a moved-from one, which has zero capacity until
     * reallocated elsewhere.
     */
    void
    reset(std::size_t headroom = defaultHeadroom)
    {
        dataOff = std::min(headroom, storage.size());
        dataLen = 0;
    }

    /** Pointer to the first data byte. */
    std::uint8_t *data() { return storage.data() + dataOff; }
    const std::uint8_t *data() const { return storage.data() + dataOff; }

    /** Bytes of live data. */
    std::size_t size() const { return dataLen; }

    /** Total storage capacity (0 for a moved-from buffer). */
    std::size_t capacity() const { return storage.size(); }

    /** Remaining headroom for prepending headers. */
    std::size_t headroom() const { return dataOff; }

    /** Remaining tailroom for appending payload. */
    std::size_t
    tailroom() const
    {
        return storage.size() - dataOff - dataLen;
    }

    /** Non-owning view of the live data. */
    NetBufView view() const { return NetBufView(data(), dataLen); }

    /** Non-owning view of [off, off + n) within the live data. */
    NetBufView
    view(std::size_t off, std::size_t n = SIZE_MAX) const
    {
        return view().sub(off, n);
    }

    /** Prepend n bytes (header push). @return pointer to the new front */
    std::uint8_t *
    push(std::size_t n)
    {
        panic_if(n > dataOff, "netbuf headroom exhausted");
        dataOff -= n;
        dataLen += n;
        return data();
    }

    /** Drop n bytes from the front (header pull). */
    void
    pull(std::size_t n)
    {
        panic_if(n > dataLen, "netbuf pull beyond data");
        dataOff += n;
        dataLen -= n;
    }

    /** Append payload bytes at the tail. */
    void
    append(const void *src, std::size_t n)
    {
        panic_if(n > tailroom(), "netbuf tailroom exhausted");
        std::memcpy(storage.data() + dataOff + dataLen, src, n);
        dataLen += n;
    }

  private:
    std::vector<std::uint8_t> storage;
    std::size_t dataOff;
    std::size_t dataLen;
};

} // namespace flexos

#endif // FLEXOS_NET_NETBUF_HH
