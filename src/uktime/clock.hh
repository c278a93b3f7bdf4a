/**
 * @file
 * uktime: the time micro-library (virtual clock + timer queue).
 *
 * One of the components compartmentalized in the paper's SQLite
 * experiment (Figure 10, MPK3/PT3 isolate the time subsystem). It shares
 * no data with the outside world (Table 1: 0 shared variables), which is
 * why its port took 10 minutes in the paper.
 */

#ifndef FLEXOS_UKTIME_CLOCK_HH
#define FLEXOS_UKTIME_CLOCK_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "machine/machine.hh"

namespace flexos {

/**
 * Virtual wall clock over the machine cycle counter.
 */
class Clock
{
  public:
    explicit Clock(Machine &m) : mach(m) {}

    /** Monotonic nanoseconds since machine start. */
    std::uint64_t
    monotonicNs() const
    {
        return mach.nanoseconds();
    }

    /** Monotonic microseconds. */
    std::uint64_t monotonicUs() const { return monotonicNs() / 1000; }

    /** Seconds as a double (for reports). */
    double seconds() const { return mach.seconds(); }

  private:
    Machine &mach;
};

/**
 * Deadline-ordered timer queue; polled by whoever owns it (the network
 * stack polls it on every loop iteration for TCP retransmissions).
 *
 * Cancelling is O(1): it drops the callback and leaves the heap entry
 * in place, and poll() skips entries whose callback is gone. Until
 * poll() passes a cancelled deadline, nextDeadlineNs() and empty()
 * still count it — the network poller wakes at it, which is part of
 * the simulated timeline.
 */
class TimerQueue
{
  public:
    using Callback = std::function<void()>;

    explicit TimerQueue(Machine &m) : mach(m) {}

    /** Arm a timer; returns an id usable with cancel(). */
    std::uint64_t
    arm(std::uint64_t delayNs, Callback cb)
    {
        std::uint64_t id = nextId++;
        pending.push(Entry{mach.nanoseconds() + delayNs, id});
        callbacks.emplace(id, std::move(cb));
        return id;
    }

    /** Cancel a timer by id (no-op if already fired or cancelled). */
    void cancel(std::uint64_t id) { callbacks.erase(id); }

    /** Fire every timer whose deadline has passed. @return fired count */
    std::size_t
    poll()
    {
        std::size_t fired = 0;
        while (!pending.empty() &&
               pending.top().deadlineNs <= mach.nanoseconds()) {
            auto it = callbacks.find(pending.top().id);
            pending.pop();
            if (it == callbacks.end())
                continue; // cancelled
            Callback cb = std::move(it->second);
            callbacks.erase(it);
            cb();
            ++fired;
        }
        return fired;
    }

    /**
     * Absolute deadline (machine nanoseconds) of the earliest heap
     * entry, cancelled or not, or UINT64_MAX if the heap is empty.
     */
    std::uint64_t
    nextDeadlineNs() const
    {
        return pending.empty() ? UINT64_MAX : pending.top().deadlineNs;
    }

    /** Whether the heap is empty (cancelled entries count until polled). */
    bool empty() const { return pending.empty(); }

  private:
    struct Entry
    {
        std::uint64_t deadlineNs;
        std::uint64_t id;
    };

    /**
     * Deadline only. Equal deadlines pop in heap order, which is part
     * of the simulated timeline: adding a tie-break moves it.
     */
    struct Order
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.deadlineNs > b.deadlineNs;
        }
    };

    Machine &mach;
    std::priority_queue<Entry, std::vector<Entry>, Order> pending;
    std::unordered_map<std::uint64_t, Callback> callbacks;
    std::uint64_t nextId = 1;
};

} // namespace flexos

#endif // FLEXOS_UKTIME_CLOCK_HH
