/**
 * @file
 * NetBuf: a packet buffer with headroom, in the spirit of Unikraft's
 * uknetbuf / lwIP's pbuf. Payload is written once; protocol layers
 * prepend their headers into the headroom without copying. FramePool
 * recycles frame storage so the data path allocates nothing per frame.
 *
 * NetBufView is the zero-copy companion: a non-owning [ptr, len) window
 * into a NetBuf (or any byte range) that protocol layers pass down the
 * receive path instead of raw pointer+length pairs. Views are cheap to
 * slice and trim, so reassembly can clip overlapping segments without
 * copying them first.
 */

#ifndef FLEXOS_NET_NETBUF_HH
#define FLEXOS_NET_NETBUF_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "base/asan.hh"
#include "base/logging.hh"

// Idle pooled frames are poisoned under AddressSanitizer, so a view
// or pointer kept past a frame's recycling is reported on use.
#ifdef FLEXOS_ASAN
#include <sanitizer/asan_interface.h>
#endif

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
 * Storage is uninitialised: only the bytes written through push(),
 * put() or append() are live, and nothing reads outside the live range.
 * A copy allocates the same capacity and copies only the live range.
 *
 * Move semantics are explicit: the moved-from buffer is left empty
 * (size() == 0, headroom() == 0, no storage) rather than with stale
 * offsets, so accidentally reusing it panics cleanly instead of
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
        : NetBuf(std::unique_ptr<std::uint8_t[]>(new std::uint8_t[capacity]),
                 capacity, headroom)
    {
    }

    /** Adopt `capacity` bytes of storage (a recycled frame's). */
    NetBuf(std::unique_ptr<std::uint8_t[]> bytes, std::size_t capacity,
           std::size_t headroom)
        : storage(std::move(bytes)), cap(capacity), dataOff(headroom),
          dataLen(0)
    {
        panic_if(headroom > capacity, "headroom exceeds capacity");
    }

    NetBuf(const NetBuf &other) : NetBuf(other.cap, other.dataOff)
    {
        if (other.dataLen)
            std::memcpy(data(), other.data(), other.dataLen);
        dataLen = other.dataLen;
    }

    NetBuf &
    operator=(const NetBuf &other)
    {
        if (this != &other)
            *this = NetBuf(other);
        return *this;
    }

    NetBuf(NetBuf &&other) noexcept
        : storage(std::move(other.storage)), cap(other.cap),
          dataOff(other.dataOff), dataLen(other.dataLen)
    {
        other.cap = 0;
        other.dataOff = 0;
        other.dataLen = 0;
    }

    NetBuf &
    operator=(NetBuf &&other) noexcept
    {
        if (this != &other) {
            storage = std::move(other.storage);
            cap = other.cap;
            dataOff = other.dataOff;
            dataLen = other.dataLen;
            other.cap = 0;
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
        dataOff = std::min(headroom, cap);
        dataLen = 0;
    }

    /** Give up the storage, leaving the buffer as a moved-from one. */
    std::unique_ptr<std::uint8_t[]>
    release()
    {
        cap = 0;
        dataOff = 0;
        dataLen = 0;
        return std::move(storage);
    }

    /** Pointer to the first data byte. */
    std::uint8_t *data() { return storage.get() + dataOff; }
    const std::uint8_t *data() const { return storage.get() + dataOff; }

    /** Bytes of live data. */
    std::size_t size() const { return dataLen; }

    /** Total storage capacity (0 for a moved-from buffer). */
    std::size_t capacity() const { return cap; }

    /** Remaining headroom for prepending headers. */
    std::size_t headroom() const { return dataOff; }

    /** Remaining tailroom for appending payload. */
    std::size_t tailroom() const { return cap - dataOff - dataLen; }

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

    /**
     * Extend the data by n bytes at the tail, which the caller must
     * write. @return pointer to the first of them
     */
    std::uint8_t *
    put(std::size_t n)
    {
        panic_if(n > tailroom(), "netbuf tailroom exhausted");
        std::uint8_t *tail = data() + dataLen;
        dataLen += n;
        return tail;
    }

    /** Append payload bytes at the tail. */
    void
    append(const void *src, std::size_t n)
    {
        std::memcpy(put(n), src, n);
    }

  private:
    std::unique_ptr<std::uint8_t[]> storage;
    std::size_t cap;
    std::size_t dataOff;
    std::size_t dataLen;
};

/**
 * Recycled frame storage, in the spirit of lwIP's pbuf pools and DPDK's
 * mempools: a free list of defaultCapacity-byte buffers. take() hands
 * one out uninitialised; give() keeps a consumed frame's storage for
 * the next take(), so once the list has grown to the most frames ever
 * in flight at once, frames cost no heap traffic. Storage is owned by
 * whichever NetBuf holds it, so a frame that never comes back (kept by
 * a test, dropped with a queue) is simply freed.
 */
class FramePool
{
  public:
    /** A frame with the default capacity and headroom and no data. */
    NetBuf
    take()
    {
        if (free.empty())
            return NetBuf();
        std::unique_ptr<std::uint8_t[]> bytes = std::move(free.back());
        free.pop_back();
#ifdef FLEXOS_ASAN
        ASAN_UNPOISON_MEMORY_REGION(bytes.get(), NetBuf::defaultCapacity);
#endif
        return NetBuf(std::move(bytes), NetBuf::defaultCapacity,
                      NetBuf::defaultHeadroom);
    }

    /** Keep a consumed frame's storage; other capacities are freed. */
    void
    give(NetBuf &&frame)
    {
        if (frame.capacity() != NetBuf::defaultCapacity)
            return;
        free.push_back(frame.release());
#ifdef FLEXOS_ASAN
        ASAN_POISON_MEMORY_REGION(free.back().get(), NetBuf::defaultCapacity);
#endif
    }

    /** Buffers waiting for take(). */
    std::size_t idle() const { return free.size(); }

  private:
    std::vector<std::unique_ptr<std::uint8_t[]>> free;
};

} // namespace flexos

#endif // FLEXOS_NET_NETBUF_HH
