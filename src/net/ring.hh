/**
 * @file
 * Ring: a FIFO over one power-of-two array, for TCP's byte queues and
 * the NIC's RX queues. It grows on demand (doubling, keeping the order)
 * and never shrinks, so a queue that has reached its peak depth pushes
 * and pops without touching the heap. Slots outside the live range are
 * uninitialised storage.
 *
 * Byte rings (trivially copyable elements) move data in bulk: write()
 * appends, read() copies out any range of the live data without
 * consuming it (TCP gathers a segment's payload straight into its
 * frame), and discard() drops from the front.
 */

#ifndef FLEXOS_NET_RING_HH
#define FLEXOS_NET_RING_HH

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "base/logging.hh"

namespace flexos {

template <class T>
class Ring
{
  public:
    Ring() = default;
    ~Ring() { release(); }

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    Ring(Ring &&other) noexcept
        : slots(std::exchange(other.slots, nullptr)),
          cap(std::exchange(other.cap, 0)),
          head(std::exchange(other.head, 0)),
          count(std::exchange(other.count, 0))
    {
    }

    Ring &
    operator=(Ring &&other) noexcept
    {
        if (this != &other) {
            release();
            slots = std::exchange(other.slots, nullptr);
            cap = std::exchange(other.cap, 0);
            head = std::exchange(other.head, 0);
            count = std::exchange(other.count, 0);
        }
        return *this;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Slots allocated (0 until the first push). */
    std::size_t capacity() const { return cap; }

    T &
    front()
    {
        panic_if(count == 0, "front() of an empty ring");
        return slots[head];
    }

    void
    push_back(T &&v)
    {
        reserve(count + 1);
        std::construct_at(slots + ((head + count) & (cap - 1)),
                          std::move(v));
        ++count;
    }

    void
    pop_front()
    {
        panic_if(count == 0, "pop_front() of an empty ring");
        std::destroy_at(slots + head);
        head = (head + 1) & (cap - 1);
        --count;
    }

    /** Append n elements. */
    void
    write(const T *src, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        reserve(count + n);
        std::size_t at = (head + count) & (cap - 1);
        std::size_t first = std::min(n, cap - at);
        copy(slots + at, src, first);
        copy(slots, src + first, n - first);
        count += n;
    }

    /** Copy out the n elements at [off, off + n) of the live data. */
    void
    read(std::size_t off, T *dst, std::size_t n) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        panic_if(off + n > count, "ring read beyond data");
        std::size_t at = (head + off) & (cap - 1);
        std::size_t first = std::min(n, cap - at);
        copy(dst, slots + at, first);
        copy(dst + first, slots, n - first);
    }

    /** Drop n elements from the front. */
    void
    discard(std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        panic_if(n > count, "ring discard beyond data");
        if (n)
            head = (head + n) & (cap - 1);
        count -= n;
    }

  private:
    static constexpr std::size_t minCapacity = 16;

    static void
    copy(T *dst, const T *src, std::size_t n)
    {
        if (n)
            std::memcpy(dst, src, n * sizeof(T));
    }

    /** Grow to hold at least n elements, preserving their order. */
    void
    reserve(std::size_t n)
    {
        if (n <= cap)
            return;
        std::size_t grown = std::bit_ceil(std::max(n, minCapacity));
        T *fresh = std::allocator<T>().allocate(grown);
        if constexpr (std::is_trivially_copyable_v<T>) {
            std::size_t first = std::min(count, cap - head);
            copy(fresh, slots + head, first);
            copy(fresh + first, slots, count - first);
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                T &from = slots[(head + i) & (cap - 1)];
                std::construct_at(fresh + i, std::move(from));
                std::destroy_at(&from);
            }
        }
        if (slots)
            std::allocator<T>().deallocate(slots, cap);
        slots = fresh;
        cap = grown;
        head = 0;
    }

    void
    release()
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            while (count)
                pop_front();
        if (slots)
            std::allocator<T>().deallocate(slots, cap);
        slots = nullptr;
        cap = 0;
        head = 0;
        count = 0;
    }

    T *slots = nullptr;
    std::size_t cap = 0; ///< 0 or a power of two
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace flexos

#endif // FLEXOS_NET_RING_HH
