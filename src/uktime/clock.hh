/**
 * @file
 * uktime: the time micro-library (the retransmit timer queue over the
 * machine's virtual clock).
 *
 * One of the components compartmentalized in the paper's SQLite
 * experiment (Figure 10, MPK3/PT3 isolate the time subsystem). It shares
 * no data with the outside world (Table 1: 0 shared variables), which is
 * why its port took 10 minutes in the paper.
 */

#ifndef FLEXOS_UKTIME_CLOCK_HH
#define FLEXOS_UKTIME_CLOCK_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "machine/machine.hh"

namespace flexos {

/**
 * One timer, embedded in its owner (a TCP socket holds its retransmit
 * timer). Every arm and cancel bumps gen, which retires whatever heap
 * entry the slot had before, so the queue needs no ids and no lookup.
 */
struct TimerSlot
{
    std::uint64_t gen = 0;
    bool armed = false; ///< a live heap entry carries gen
};

/**
 * Deadline-ordered timer queue; polled by whoever owns it (the network
 * stack polls it on every loop iteration for TCP retransmissions).
 *
 * Cancelling is O(1): it bumps the slot's generation and leaves the
 * heap entry in place, and poll() skips entries whose generation is
 * stale. Until poll() passes a cancelled deadline, nextDeadlineNs() and
 * empty() still count it — the network poller wakes at it, which is
 * part of the simulated timeline.
 */
class TimerQueue
{
  public:
    explicit TimerQueue(Machine &m) : mach(m) {}

    /** Arm s to fire delayNs from now; re-arming retires the old
     *  deadline. s must stay alive until poll() passes the entry. */
    void
    arm(TimerSlot &s, std::uint64_t delayNs)
    {
        s.armed = true;
        pending.push(Entry{mach.nanoseconds() + delayNs, ++s.gen, &s});
    }

    /** Disarm s (no-op if it already fired or was cancelled). */
    void
    cancel(TimerSlot &s)
    {
        ++s.gen;
        s.armed = false;
    }

    /**
     * Disarm every slot whose deadline has passed and hand it to
     * fire(TimerSlot &), in deadline order; fire may arm and cancel.
     * @return fired count
     */
    template <typename Fire>
    std::size_t
    poll(Fire &&fire)
    {
        std::size_t fired = 0;
        while (!pending.empty() &&
               pending.top().deadlineNs <= mach.nanoseconds()) {
            Entry e = pending.top();
            pending.pop();
            if (e.gen != e.slot->gen)
                continue; // cancelled or re-armed
            e.slot->armed = false;
            fire(*e.slot);
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
        std::uint64_t gen;
        TimerSlot *slot;
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
};

} // namespace flexos

#endif // FLEXOS_UKTIME_CLOCK_HH
