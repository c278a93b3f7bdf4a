/**
 * @file
 * uksched: the cooperative scheduler micro-library.
 *
 * All simulated concurrency (application threads, EPT RPC server pools,
 * network pollers) runs as fibers multiplexed on the single host thread,
 * round-robin, switching only at explicit yield/block points. A switch
 * is a few saved registers and a stack-pointer swap (no syscall).
 * This makes every run deterministic and lets the virtual clock be exact.
 *
 * The scheduler's loop (run(), runUntil()) takes one step per dispatch:
 * evaluate runUntil's predicate, spend one unit of its switch budget,
 * service sleepers, steal work, pick the next thread. A suspending
 * thread takes that step itself, on its own fiber, and switches
 * straight to the thread it picks (a direct switch, as in L4); only the
 * loop's start and end, a finishing thread and cancellation go through
 * the scheduler's host stack. The predicate therefore runs on whichever
 * fiber is suspending: it must not suspend, nor call run(), runUntil(),
 * cancel() or cancelAll() (they panic).
 *
 * The scheduler is part of FlexOS' trusted computing base (paper 3.3).
 * It has no backend hook API: each thread carries its protection domain
 * (PKRU value, EPT VM) and hardening multiplier. A switch-out saves the
 * machine's current values into the thread and a switch-in installs
 * them again, so a gate only has to change the machine's domain, and a
 * backend that spawns its own fibers (the EPT RPC servers) sets theirs
 * on the Thread before they first run.
 *
 * A run *dries up* when no thread is Ready and every pending timed
 * wait is a heartbeat (heartbeatFor()): a wait whose timeout only
 * re-polls, such as an idle network poller's. With nothing else alive,
 * firing a heartbeat would move a clock forward and find nothing to
 * do, so run() and runUntil() return false at that point instead,
 * without moving any clock. While any other timed wait (sleepNs(),
 * blockFor()) is pending, heartbeats fire exactly like blockFor()
 * timeouts.
 */

#ifndef FLEXOS_UKSCHED_SCHEDULER_HH
#define FLEXOS_UKSCHED_SCHEDULER_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "machine/machine.hh"

namespace flexos {

class Scheduler;
class ThreadQueue;
class WaitQueue;

/**
 * Thrown inside a fiber at its next suspension point when the scheduler
 * is tearing down, unwinding the fiber's stack so its locals are
 * destroyed instead of abandoned. Deliberately not a std::exception so
 * application-level catch(const std::exception&) handlers cannot
 * swallow it.
 */
struct ThreadCancelled
{
};

/**
 * A cooperative thread (fiber).
 */
class Thread
{
  public:
    using Entry = std::function<void()>;

    enum class State { Ready, Running, Blocked, Sleeping, Finished };

    int id() const { return id_; }
    const std::string &name() const { return name_; }
    State state() const { return state_; }

    /** Error text if the thread terminated with an exception. */
    const std::string &error() const { return error_; }
    bool failed() const { return !error_.empty(); }

    /** Whether the thread still owns its fiber stack (given back once
     *  it has finished). */
    bool holdsStack() const { return stack != nullptr; }

    /** Saved protection-key register (installed on every switch). */
    Pkru pkru;

    /**
     * VM the thread executes in (-1 outside any VM): threads living in
     * an EPT compartment see its VM-private memory, which is unmapped
     * for everyone else (key virtualization). Swapped like pkru.
     */
    int vm = -1;

    /**
     * Compartment the thread is currently executing in; maintained by
     * call gates. Compartment 0 is the default compartment.
     */
    int currentCompartment = 0;

    /** Saved hardening work multiplier (swapped on context switch). */
    double workMult = 1.0;

    /**
     * Free-running threads execute without charging virtual cycles;
     * used for client-side load generators (the paper pins clients to
     * dedicated host cores that never bottleneck the measurement).
     */
    bool freeRunning = false;

    /** Core the thread runs on (its run-queue home). */
    int core = 0;

    /**
     * Pinned threads never migrate: work stealing skips them and
     * Scheduler::pin() is the only way to move them. Used for per-core
     * NIC pollers and EPT servers whose state is core-sharded.
     */
    bool pinned = false;

    ~Thread();
    Thread(const Thread &) = delete;
    Thread &operator=(const Thread &) = delete;

  private:
    friend class Scheduler;
    friend class ThreadQueue;

    Thread(int id, std::string name, Entry entry, std::size_t stackBytes);

    /** Leave whichever queue the thread sits in (no-op if none). */
    void unlink();

    int id_;
    std::string name_;
    State state_ = State::Ready;
    std::string error_;
    Entry entry;
    void *sp = nullptr; ///< saved stack pointer while switched out
    /** Fiber stack, uninitialised: the fiber writes before it reads. */
    std::unique_ptr<char[]> stack;
    std::size_t stackBytes;
    std::uint64_t wakeAtCycles = 0;
    /**
     * Earliest cycle (on the thread's own core) it may run: stamped
     * with the waker's clock so cross-core wakeups stay causal, and
     * with the wake deadline for sleepers woken by an idle jump.
     */
    std::uint64_t readyAtCycles = 0;
    /** Generation counter invalidating stale sleeper-heap entries. */
    std::uint64_t sleepGen = 0;
    /** Wait queue a blockFor() caller sits in (null otherwise). */
    WaitQueue *timedWaitQueue = nullptr;
    /** Whether the last blockFor() ended by timeout. */
    bool timedOut = false;
    /** Whether the current timed wait is a heartbeat. */
    bool heartbeat = false;
    /**
     * The thread's one queue link: a run queue while Ready, a wait
     * queue while blocked on one, no queue otherwise.
     */
    ThreadQueue *queue = nullptr;
    Thread *queuePrev = nullptr;
    Thread *queueNext = nullptr;
    void *asanFakeStack = nullptr; ///< ASan fiber-switch save slot
    bool started_ = false;         ///< has ever run on its own stack
};

/**
 * An intrusive FIFO of threads, threaded through Thread's queue link:
 * run queues and wait queues alike. A thread sits in at most one queue
 * and leaves it in O(1); whichever of a queue and its threads dies
 * first unlinks the other.
 */
class ThreadQueue
{
  public:
    ThreadQueue() = default;
    ~ThreadQueue();

    ThreadQueue(const ThreadQueue &) = delete;
    ThreadQueue &operator=(const ThreadQueue &) = delete;

    bool empty() const { return !head; }
    std::size_t size() const { return count; }
    Thread *front() const { return head; }
    Thread *back() const { return tail; }

    /** Append t; panics if t already sits in a queue. */
    void push(Thread *t);
    /** Unlink t, which must sit in this queue. */
    void remove(Thread *t);

  private:
    Thread *head = nullptr;
    Thread *tail = nullptr;
    std::size_t count = 0;
};

/**
 * Cooperative scheduler over a Machine's virtual clocks: one run queue
 * per simulated core, round-robin across cores and FIFO within one,
 * with work stealing for unpinned threads. Cross-core wakeups charge an
 * IPI and stamp the wakee with the waker's clock so causality holds
 * across per-core timelines. On a 1-core machine this degenerates to
 * exactly the original single-queue round-robin.
 */
class Scheduler
{
  public:
    explicit Scheduler(Machine &m);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Set the hook that runs once whenever a thread finishes (returns,
     * fails, or is cancelled), on the dying fiber's own stack, so it
     * may not suspend. The booted Image sets it to reap the thread's
     * simulated compartment stacks, and clears it (nullptr) before its
     * captured state dies. One image owns the hook at a time: setting
     * it while another is set panics.
     */
    void setThreadExitHook(std::function<void(Thread &)> hook);

    /**
     * Create a thread; it becomes runnable immediately. Unpinned
     * threads are placed round-robin across the machine's cores (on a
     * 1-core machine that is always core 0) and may later be migrated
     * by work stealing.
     */
    Thread *spawn(std::string name, Thread::Entry entry,
                  std::size_t stackBytes = 256 * 1024);

    /**
     * Create a thread on a specific core. Pinned (the default) means
     * work stealing will never migrate it — per-core pollers and
     * core-sharded backend servers rely on this.
     */
    Thread *spawnOn(int core, std::string name, Thread::Entry entry,
                    std::size_t stackBytes = 256 * 1024,
                    bool pinned = true);

    /**
     * Pin a thread to a core, migrating its run-queue entry if it is
     * currently ready. Used by flow-steering drivers to home a
     * connection's worker on the core its RSS queue is polled from.
     */
    void pin(Thread *t, int core);

    /**
     * Run until no thread is Ready or Sleeping, or the run dries up.
     * @return true if every thread finished; false if only Blocked
     *         threads remain (deadlock, or the run dried up with only
     *         heartbeat waits pending — the caller decides what to do).
     */
    bool run();

    /**
     * Run until pred() holds, checked before every dispatch. It is
     * evaluated on the fiber that is suspending (on the caller's stack
     * only before the first dispatch and after a thread finishes), with
     * no thread current, so it must neither suspend nor call run(),
     * runUntil() or cancel(); an exception it throws is rethrown here.
     * @return true if the predicate was met; false if the switch
     *         budget ran out or the run dried up (no thread Ready and
     *         no timed wait pending but heartbeats).
     */
    bool runUntil(const std::function<bool()> &pred,
                  std::uint64_t maxSwitches = 50'000'000);

    /** @name Calls made from inside threads. @{ */
    /** Cooperatively give up the CPU (stay runnable). */
    void yield();
    /** Block the calling thread on a wait queue. */
    void block(WaitQueue &q);
    /**
     * Block on a wait queue with a timeout of ns virtual nanoseconds.
     * @return true if woken through the queue, false on timeout (the
     *         thread has been removed from the queue).
     */
    bool blockFor(WaitQueue &q, std::uint64_t ns);
    /**
     * blockFor() whose timeout is a heartbeat: it only re-polls, so it
     * fires only while some other timed wait keeps the run alive (see
     * the file comment). @return as blockFor().
     */
    bool heartbeatFor(WaitQueue &q, std::uint64_t ns);
    /**
     * Block the calling thread on no queue at all: it stays Blocked
     * until some thread holding its pointer calls wake(). Callers loop
     * on their own completion flag, as with any wait.
     */
    void park();
    /** Sleep the calling thread for ns virtual nanoseconds. */
    void sleepNs(std::uint64_t ns);
    /** @} */

    /** Make a blocked thread runnable, taking it off its wait queue. */
    void wake(Thread *t);

    /**
     * Turn every heartbeat wait on q into an ordinary timed wait with
     * the same deadline: its re-poll now has work to find (the network
     * stack calls this when it arms a timer its poller drives).
     */
    void promoteHeartbeats(WaitQueue &q);

    /**
     * Cancel and unwind every unfinished fiber (their next suspension
     * point throws ThreadCancelled). Called automatically on
     * destruction; owners should call it earlier, while objects the
     * fibers' locals reference are still alive.
     */
    void cancelAll();

    /**
     * Cancel and unwind one fiber: it is resumed with the cancellation
     * flag set so its next suspension point throws ThreadCancelled.
     * Unlike cancelAll() the thread-exit hook stays set, so
     * per-thread teardown still runs. Must be called from the scheduler
     * context, not from inside a fiber.
     */
    void cancel(Thread *t);

    /** The thread currently executing, or null in the scheduler itself. */
    Thread *current() { return running; }

    /** The machine this scheduler drives. */
    Machine &machine() { return mach; }

    /** Number of context switches performed. */
    std::uint64_t switches() const { return switchCount; }

    /**
     * Dispatches onto one core since boot: every dispatch of a
     * thread homed there counts. A dispatch is a policy-safe point —
     * the thread passed through the scheduler — so quiesced epoch
     * swaps (Image::swapGateMatrix) use the counter as the per-core
     * acknowledgement that a core has observed the new state.
     */
    std::uint64_t dispatchesOn(int core) const;

    /** Whether a core's run queue holds a Ready thread right now. */
    bool coreHasRunnable(int core) const;

  private:
    friend class WaitQueue;

    /** A run()/runUntil() loop in progress, on the driver's stack. */
    struct Loop
    {
        const std::function<bool()> *pred = nullptr; ///< runUntil only
        std::uint64_t budget = 0; ///< switches left (runUntil only)
        bool over = false;        ///< nothing more to pick
        bool met = false;         ///< over because pred() held
        std::exception_ptr error; ///< thrown by pickNext() on a fiber
    };

    /** Run a loop on the driver's stack until it is over. */
    void drive(Loop &l);

    /**
     * One step of the active loop, up to the choice: evaluate the
     * predicate and spend one unit of the budget (runUntil only),
     * service sleepers, steal, then take a thread off its run queue:
     * round-robin over cores, preferring work that is already due on
     * its core's clock; otherwise idle-jump the core owning the
     * earliest future-ready thread. It never switches, so it runs on
     * the driver's stack or on the suspending fiber alike.
     * @return the thread to dispatch, or null with the loop over.
     */
    Thread *pickNext();

    /** Make t the running thread on its core: count and charge the
     *  dispatch and install t's domain. No stack switch. */
    void dispatch(Thread *t);
    /** Dispatch t from the driver's stack and switch to its fiber. */
    void switchTo(Thread *t);
    /** Suspend the running thread and take the loop's next step. */
    void switchOut();
    /** switchOut() for a timed wait, counted in timedWaits unless a
     *  heartbeat. */
    void switchOutTimed(Thread *self, bool heartbeat);
    bool timedBlock(WaitQueue &q, std::uint64_t ns, bool heartbeat);
    void threadMain();
    static void trampoline(Scheduler *sched);

    /**
     * Move due sleepers to their run queues. If all is idle, force-wake
     * the earliest one, unless only heartbeats wait (the run dried up).
     */
    void serviceSleepers();

    /** Migrate ready unpinned threads from loaded cores to idle ones. */
    void stealWork();

    /** Whether any core's run queue is non-empty. */
    bool anyQueued() const;

    Machine &mach;
    std::vector<std::unique_ptr<Thread>> threads;
    /** One run queue per machine core (never resized). */
    std::vector<ThreadQueue> runQueues;
    /** Per-core dispatch counters (epoch-ack safe points). */
    std::vector<std::uint64_t> coreDispatches;
    std::function<void(Thread &)> exitHook;

    /**
     * Sleeper-heap entry: a copy of the deadline plus the arming
     * generation, so entries orphaned by an early wake (or re-armed
     * sleeps) are recognised as stale and dropped.
     */
    struct SleeperEntry
    {
        std::uint64_t at;
        std::uint64_t gen;
        Thread *t;
    };
    struct SleeperOrder
    {
        bool
        operator()(const SleeperEntry &a, const SleeperEntry &b) const
        {
            return a.at > b.at;
        }
    };
    std::priority_queue<SleeperEntry, std::vector<SleeperEntry>,
                        SleeperOrder>
        sleepers;

    unsigned spawnRR = 0;         ///< round-robin core for spawn()
    unsigned nextDispatchCore = 0; ///< round-robin dispatch cursor

    Thread *running = nullptr;
    Loop *loop = nullptr; ///< the active loop (null outside run/runUntil)
    void *schedSp = nullptr; ///< scheduler stack pointer while a fiber runs
    int nextId = 1;
    std::uint64_t switchCount = 0;
    /** Suspended timed waits that are not heartbeats. */
    std::size_t timedWaits = 0;
    bool cancelling = false; ///< teardown: suspension points throw
    /** ASan: the fiber being entered was switched to by another fiber,
     *  not out of the scheduler stack. */
    bool asanFromFiber = false;
};

/**
 * A queue of blocked threads (the primitive under socket waits, RPC
 * rings and quiesce barriers).
 */
class WaitQueue
{
  public:
    explicit WaitQueue(Scheduler &s) : sched(s) {}

    /** Block the calling thread until woken. */
    void wait() { sched.block(*this); }

    /** Wake the longest-waiting thread, if any. @return woken thread */
    Thread *wakeOne();

    /** Wake everyone. @return number woken */
    std::size_t wakeAll();

  private:
    friend class Scheduler;

    Scheduler &sched;
    ThreadQueue waiters;
};

} // namespace flexos

#endif // FLEXOS_UKSCHED_SCHEDULER_HH
