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
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "machine/machine.hh"

namespace flexos {

class Scheduler;
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

    /** Opaque per-thread backend state (e.g. MPK stack registry). */
    std::shared_ptr<void> backendData;

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

  private:
    friend class Scheduler;

    Thread(int id, std::string name, Entry entry, std::size_t stackBytes);

    int id_;
    std::string name_;
    State state_ = State::Ready;
    std::string error_;
    Entry entry;
    void *sp = nullptr; ///< saved stack pointer while switched out
    std::vector<char> stack;
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
    std::vector<Thread *> joiners;
    void *asanFakeStack = nullptr; ///< ASan fiber-switch save slot
    bool started_ = false;         ///< has ever run on its own stack
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

    /** @name Thread-exit listeners. @{ */
    /**
     * Register fn to run once whenever a thread finishes (returns,
     * fails, or is cancelled), on the dying fiber's own stack. Images
     * hook this to reap per-thread resources (simulated compartment
     * stacks). Multiple listeners may coexist (several images on one
     * scheduler); each must unregister with the returned id before its
     * captured state dies. @return the listener id.
     */
    int addThreadExitListener(std::function<void(Thread &)> fn);

    /** Remove a listener by id (no-op for unknown/already-removed). */
    void removeThreadExitListener(int id);
    /** @} */

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
     * Run until pred() holds, checked after every thread switch-out.
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
    /** Sleep the calling thread for ns virtual nanoseconds. */
    void sleepNs(std::uint64_t ns);
    /** Wait for another thread to finish. */
    void join(Thread *t);
    /** @} */

    /** Make a blocked thread runnable. */
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
     * Unlike cancelAll() the thread-exit listeners stay registered, so
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
     * Dispatches onto one core since boot: every switchTo() of a
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

    void switchTo(Thread *t);
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
    bool serviceSleepers(bool mayAdvanceClock);

    /** Drop run-queue entries whose thread is no longer Ready. */
    void pruneStale();

    /** Migrate ready unpinned threads from loaded cores to idle ones. */
    void stealWork();

    /**
     * Dispatch one thread: round-robin over cores, preferring work
     * that is already due on its core's clock; otherwise idle-jump the
     * core owning the earliest future-ready thread.
     * @return false if no Ready thread is queued anywhere.
     */
    bool dispatchOne();

    /** Whether any core's run queue is non-empty. */
    bool anyQueued() const;

    void notifyThreadExit(Thread &t);

    Machine &mach;
    std::vector<std::unique_ptr<Thread>> threads;
    /** One run queue per machine core. */
    std::vector<std::deque<Thread *>> runQueues;
    /** Per-core dispatch counters (epoch-ack safe points). */
    std::vector<std::uint64_t> coreDispatches;
    std::vector<std::pair<int, std::function<void(Thread &)>>>
        exitListeners;
    int nextListenerId = 1;

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
    void *schedSp = nullptr; ///< scheduler stack pointer while a fiber runs
    int nextId = 1;
    std::uint64_t switchCount = 0;
    /** Suspended timed waits that are not heartbeats. */
    std::size_t timedWaits = 0;
    bool cancelling = false; ///< teardown: suspension points throw
};

/**
 * A queue of blocked threads (the primitive under mutexes, semaphores,
 * socket waits and RPC rings).
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

    bool empty() const { return waiters.empty(); }
    std::size_t size() const { return waiters.size(); }

  private:
    friend class Scheduler;

    Scheduler &sched;
    std::deque<Thread *> waiters;
};

/** Cooperative mutex. */
class Mutex
{
  public:
    explicit Mutex(Scheduler &s) : sched(s), waiters(s) {}

    void lock();
    void unlock();
    bool tryLock();
    bool heldByCaller() const;

  private:
    Scheduler &sched;
    Thread *owner = nullptr;
    WaitQueue waiters;
};

/** RAII lock guard for Mutex. */
class LockGuard
{
  public:
    explicit LockGuard(Mutex &m) : mtx(m) { mtx.lock(); }
    ~LockGuard() { mtx.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mtx;
};

/** Counting semaphore. */
class Semaphore
{
  public:
    Semaphore(Scheduler &s, unsigned initial = 0)
        : sched(s), waiters(s), count(initial)
    {
    }

    void post();
    void wait();
    bool tryWait();
    unsigned value() const { return count; }

  private:
    Scheduler &sched;
    WaitQueue waiters;
    unsigned count;
};

} // namespace flexos

#endif // FLEXOS_UKSCHED_SCHEDULER_HH
