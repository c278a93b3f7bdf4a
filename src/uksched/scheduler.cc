#include "uksched/scheduler.hh"

#include <algorithm>
#include <cstring>
#include <exception>

#include "base/logging.hh"

// AddressSanitizer must be told about fiber switches or it attributes
// fiber stacks to the host thread, producing false stack-buffer-overflow
// reports (e.g. on exception unwinds inside a fiber). The annotations
// are no-ops without ASan.
#if defined(__SANITIZE_ADDRESS__)
#define FLEXOS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLEXOS_ASAN_FIBERS 1
#endif
#endif

#ifdef FLEXOS_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "port flexos_fiber_switch/flexos_fiber_start to this architecture"
#endif

/*
 * The fiber switch. flexos_fiber_switch(save, load) pushes the
 * callee-saved registers of the System V ABI (rbp, rbx, r12-r15) and
 * the callee-saved control state (MXCSR, x87 control word) onto the
 * current stack, stores the stack pointer to *save, loads `load` and
 * pops the same frame off the other stack. Everything else is
 * caller-saved, so the compiler has already spilled it around the
 * call. Unlike glibc swapcontext it does not save the signal mask,
 * which costs an rt_sigprocmask syscall per switch; no fiber changes
 * the mask.
 *
 * A new fiber's stack holds a frame built by Scheduler::spawnOn whose
 * return address is flexos_fiber_start: it calls r13 (the trampoline)
 * with r12 (the scheduler) as argument. Its CFI marks the return
 * address undefined, which ends unwinder walks at the fiber's base.
 *
 * Not compatible with CET shadow stacks: the `ret` returns onto a
 * different stack than the matching `call` came from.
 */
extern "C" {
void flexos_fiber_switch(void **save, void *load);
void flexos_fiber_start();
}

asm(R"(
    .pushsection .text
    .p2align 4
    .globl flexos_fiber_switch
    .hidden flexos_fiber_switch
    .type flexos_fiber_switch, @function
flexos_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size flexos_fiber_switch, .-flexos_fiber_switch

    .p2align 4
    .globl flexos_fiber_start
    .hidden flexos_fiber_start
    .type flexos_fiber_start, @function
flexos_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    callq *%r13
    ud2
    .cfi_endproc
    .size flexos_fiber_start, .-flexos_fiber_start
    .popsection
)");

namespace flexos {

namespace {

#ifdef FLEXOS_ASAN_FIBERS
/**
 * Host (scheduler) stack bounds, learned on the first fiber entry. Per
 * host thread: schedulers on different threads run on different stacks.
 */
thread_local const void *hostStackBottom = nullptr; // flexos: shared
thread_local std::size_t hostStackSize = 0;         // flexos: shared
/** The scheduler context's saved ASan fake stack. */
thread_local void *schedFakeStack = nullptr; // flexos: shared

void
asanEnterFiber(void *fiberFakeStack)
{
    __sanitizer_finish_switch_fiber(fiberFakeStack, &hostStackBottom,
                                    &hostStackSize);
}

void
asanLeaveFiber(void **fiberFakeStackSave)
{
    __sanitizer_start_switch_fiber(fiberFakeStackSave, hostStackBottom,
                                   hostStackSize);
}
#endif

/**
 * Lay out a fresh fiber's first frame at the top of its stack, in the
 * order flexos_fiber_switch pops it: control word, r15, r14, r13, r12,
 * rbx, rbp, return address. @return the stack pointer to switch to.
 */
void *
initialFrame(std::vector<char> &stack, Scheduler *sched,
             void (*entry)(Scheduler *))
{
    // The fiber inherits the spawner's MXCSR and x87 control word, as
    // a new POSIX thread inherits its creator's floating-point modes.
    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fcw));

    // A 16-byte-aligned top: once the frame is popped, the start stub
    // calls the trampoline with rsp aligned as the ABI requires.
    auto top = reinterpret_cast<std::uintptr_t>(stack.data()) + stack.size();
    top &= ~std::uintptr_t(15);
    std::uint64_t frame[8] = {
        mxcsr | std::uint64_t(fcw) << 32,
        0,                                      // r15
        0,                                      // r14
        reinterpret_cast<std::uint64_t>(entry), // r13
        reinterpret_cast<std::uint64_t>(sched), // r12
        0,                                      // rbx
        0,                                      // rbp: ends fp walks
        reinterpret_cast<std::uint64_t>(&flexos_fiber_start),
    };
    void *sp = reinterpret_cast<void *>(top - sizeof frame);
    std::memcpy(sp, frame, sizeof frame);
    return sp;
}

} // namespace

Thread::Thread(int id, std::string name, Entry entry,
               std::size_t stackBytes)
    : id_(id), name_(std::move(name)), entry(std::move(entry)),
      stack(stackBytes)
{
}

Scheduler::Scheduler(Machine &m) : mach(m)
{
    runQueues.resize(m.coreCount());
    coreDispatches.assign(m.coreCount(), 0);
}

Scheduler::~Scheduler()
{
    cancelAll();
}

void
Scheduler::cancelAll()
{
    // Unwind every unfinished fiber so its locals are destroyed rather
    // than abandoned with the stack (which LeakSanitizer rightly
    // reports). Each started fiber is resumed with `cancelling` set;
    // its next suspension point throws ThreadCancelled through the
    // fiber's frames. Owners whose fibers hold locals with non-trivial
    // destructors (gate state, DSS frames) should call this while the
    // rest of the world is still alive; the destructor's own call is a
    // last-resort backstop where only Machine and the threads are
    // guaranteed live. Exit listeners are dropped either way.
    exitListeners.clear();
    for (auto &t : threads)
        cancel(t.get());
}

int
Scheduler::addThreadExitListener(std::function<void(Thread &)> fn)
{
    int id = nextListenerId++;
    exitListeners.emplace_back(id, std::move(fn));
    return id;
}

void
Scheduler::removeThreadExitListener(int id)
{
    for (auto it = exitListeners.begin(); it != exitListeners.end();
         ++it) {
        if (it->first == id) {
            exitListeners.erase(it);
            return;
        }
    }
}

void
Scheduler::notifyThreadExit(Thread &t)
{
    // Listener order: most-recently registered first, and robust
    // against a listener unregistering others from within the call.
    for (std::size_t i = exitListeners.size(); i-- > 0;) {
        if (i >= exitListeners.size())
            continue;
        exitListeners[i].second(t);
    }
}

void
Scheduler::cancel(Thread *t)
{
    panic_if(running, "Scheduler::cancel from inside a fiber");
    if (t->state_ == Thread::State::Finished)
        return;
    if (!t->started_) {
        t->state_ = Thread::State::Finished; // nothing on its stack
        notifyThreadExit(*t);
        return;
    }
    bool wasCancelling = cancelling;
    cancelling = true;
    // A fiber may swallow the cancellation with catch(...) and
    // suspend again; bound the retries to avoid livelock.
    for (int tries = 0;
         t->state_ != Thread::State::Finished && tries < 8; ++tries)
        switchTo(t);
    cancelling = wasCancelling;
}

Thread *
Scheduler::spawn(std::string name, Thread::Entry entry,
                 std::size_t stackBytes)
{
    int core = int(spawnRR++ % runQueues.size());
    return spawnOn(core, std::move(name), std::move(entry), stackBytes,
                   /*pinned=*/false);
}

Thread *
Scheduler::spawnOn(int core, std::string name, Thread::Entry entry,
                   std::size_t stackBytes, bool pinned)
{
    panic_if(core < 0 || unsigned(core) >= runQueues.size(), "core ",
             core, " out of range (machine has ", runQueues.size(), ")");
    auto t = std::unique_ptr<Thread>(
        new Thread(nextId++, std::move(name), std::move(entry),
                   stackBytes));
    Thread *raw = t.get();
    threads.push_back(std::move(t));
    raw->core = core;
    raw->pinned = pinned;

    raw->sp = initialFrame(raw->stack, this, &Scheduler::trampoline);
    runQueues[core].push_back(raw);
    return raw;
}

void
Scheduler::pin(Thread *t, int core)
{
    panic_if(core < 0 || unsigned(core) >= runQueues.size(), "core ",
             core, " out of range (machine has ", runQueues.size(), ")");
    if (t->core != core && t->state_ == Thread::State::Ready) {
        auto &q = runQueues[t->core];
        auto it = std::find(q.begin(), q.end(), t);
        if (it != q.end()) {
            q.erase(it);
            runQueues[core].push_back(t);
        }
    }
    t->core = core;
    t->pinned = true;
}

void
Scheduler::trampoline(Scheduler *sched)
{
#ifdef FLEXOS_ASAN_FIBERS
    asanEnterFiber(nullptr); // first entry: no fake stack to restore
#endif
    sched->threadMain();
}

void
Scheduler::threadMain()
{
    Thread *self = running;
    self->started_ = true;
    try {
        self->entry();
    } catch (const ThreadCancelled &) {
        // Scheduler teardown unwound this fiber; not an error.
    } catch (const std::exception &e) {
        self->error_ = e.what();
    } catch (...) {
        self->error_ = "unknown exception";
    }
    self->state_ = Thread::State::Finished;
    // Per-thread teardown (still on this fiber's stack, so listeners
    // may not suspend): images reap the thread's simulated stacks here.
    notifyThreadExit(*self);
    for (Thread *j : self->joiners)
        wake(j);
    self->joiners.clear();
#ifdef FLEXOS_ASAN_FIBERS
    // Dying fiber: null save slot tells ASan to free its fake stack.
    __sanitizer_start_switch_fiber(nullptr, hostStackBottom,
                                   hostStackSize);
#endif
    flexos_fiber_switch(&self->sp, schedSp);
    panic("resumed a finished thread");
}

void
Scheduler::switchTo(Thread *t)
{
    // Bank the outgoing core's register window and make the thread's
    // home core the machine's active context (no-op on 1 core).
    mach.setActiveCore(t->core);

    running = t;
    t->state_ = Thread::State::Running;
    ++switchCount;
    ++coreDispatches[static_cast<std::size_t>(t->core)];
    if (!t->freeRunning)
        mach.consume(mach.timing.contextSwitch);
    mach.chargingEnabled = !t->freeRunning;

    // Install the incoming thread's protection domain and hardening
    // multiplier.
    mach.pkru = t->pkru;
    mach.currentVm = t->vm;
    mach.workMultiplier = t->workMult;

#ifdef FLEXOS_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&schedFakeStack, t->stack.data(),
                                   t->stack.size());
#endif
    flexos_fiber_switch(&schedSp, t->sp);
#ifdef FLEXOS_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(schedFakeStack, nullptr, nullptr);
#endif

    // Back in the scheduler (TCB): run unrestricted and charged. This
    // also covers threads that returned without passing switchOut() —
    // they bypass the running=nullptr reset, so clear the stale
    // pointer here.
    if (running == t && t->state_ == Thread::State::Finished)
        running = nullptr;
    mach.pkru = Pkru(Pkru::allowAllValue);
    mach.currentVm = -1;
    mach.chargingEnabled = true;
    mach.workMultiplier = 1.0;
}

void
Scheduler::switchOut()
{
    Thread *self = running;
    panic_if(!self, "switchOut outside a thread");
    // Save the thread's protection-domain state; the scheduler itself
    // runs with an unrestricted PKRU (it is TCB).
    self->pkru = mach.pkru;
    self->vm = mach.currentVm;
    self->workMult = mach.workMultiplier;
    running = nullptr;
    mach.pkru = Pkru(Pkru::allowAllValue);
    mach.currentVm = -1;
    mach.chargingEnabled = true;
    mach.workMultiplier = 1.0;
#ifdef FLEXOS_ASAN_FIBERS
    asanLeaveFiber(&self->asanFakeStack);
#endif
    flexos_fiber_switch(&self->sp, schedSp);
#ifdef FLEXOS_ASAN_FIBERS
    asanEnterFiber(self->asanFakeStack);
#endif
    if (cancelling)
        throw ThreadCancelled{};
}

bool
Scheduler::anyQueued() const
{
    for (const auto &q : runQueues) {
        if (!q.empty())
            return true;
    }
    return false;
}

void
Scheduler::pruneStale()
{
    // Queue entries can outlive their thread's readiness (cancel()
    // finishes a queued thread in place); drop them before the idle
    // checks below so a queue of corpses doesn't look like work.
    for (auto &q : runQueues) {
        q.erase(std::remove_if(q.begin(), q.end(),
                               [](Thread *t) {
                                   return t->state() !=
                                          Thread::State::Ready;
                               }),
                q.end());
    }
}

bool
Scheduler::serviceSleepers(bool mayAdvanceClock)
{
    bool woke = false;
    while (!sleepers.empty()) {
        SleeperEntry e = sleepers.top();
        // An entry is live while its generation matches the thread's
        // current arming and the thread is still in the armed state:
        // Sleeping for sleepNs(), Blocked for blockFor(). Anything
        // else (woken early, cancelled, re-armed) is a stale copy.
        bool live = e.gen == e.t->sleepGen &&
                    (e.t->state_ == Thread::State::Sleeping ||
                     (e.t->state_ == Thread::State::Blocked &&
                      e.t->timedWaitQueue));
        if (!live) {
            sleepers.pop();
            continue;
        }
        bool due = e.at <= mach.wallCycles();
        if (!due && mayAdvanceClock && !anyQueued()) {
            // Event-driven idle: everything is waiting, so the next
            // wakeup defines the passage of time. The woken thread
            // carries its deadline in readyAtCycles; dispatch jumps
            // its core's clock forward to it. If only heartbeats wait,
            // their re-polls would find nothing: the run has dried up
            // and no clock moves.
            if (timedWaits == 0)
                break;
            due = true;
            mach.bump("sched.idleJumps");
        }
        if (!due)
            break;
        sleepers.pop();
        Thread *t = e.t;
        if (t->state_ == Thread::State::Sleeping) {
            t->state_ = Thread::State::Ready;
            t->readyAtCycles = e.at;
            runQueues[t->core].push_back(t);
            woke = true;
        } else if (t->state_ == Thread::State::Blocked &&
                   t->timedWaitQueue) {
            // blockFor() timeout: leave the wait queue empty-handed.
            auto &ws = t->timedWaitQueue->waiters;
            auto it = std::find(ws.begin(), ws.end(), t);
            if (it != ws.end())
                ws.erase(it);
            t->timedOut = true;
            t->state_ = Thread::State::Ready;
            t->readyAtCycles = e.at;
            runQueues[t->core].push_back(t);
            woke = true;
        }
    }
    return woke;
}

void
Scheduler::stealWork()
{
    unsigned n = unsigned(runQueues.size());
    if (n < 2)
        return;
    for (unsigned thief = 0; thief < n; ++thief) {
        if (!runQueues[thief].empty())
            continue;
        // Steal from the most loaded queue that can spare a thread.
        unsigned victim = n;
        std::size_t most = 1;
        for (unsigned v = 0; v < n; ++v) {
            if (runQueues[v].size() > most) {
                victim = v;
                most = runQueues[v].size();
            }
        }
        if (victim == n)
            continue;
        auto &vq = runQueues[victim];
        // Newest-first: the oldest entries are about to run hot on the
        // victim; the tail has waited least and migrates cheapest.
        for (auto it = vq.rbegin(); it != vq.rend(); ++it) {
            Thread *t = *it;
            if (t->pinned || t->state_ != Thread::State::Ready)
                continue;
            vq.erase(std::next(it).base());
            t->core = int(thief);
            // The thread was living on the victim's timeline; it
            // cannot start on the thief before the moment it left.
            t->readyAtCycles = std::max(
                t->readyAtCycles, mach.coreCycles(int(victim)));
            mach.chargeCore(int(thief), mach.timing.stealMigration);
            mach.bump("sched.steals");
            runQueues[thief].push_back(t);
            break;
        }
    }
}

bool
Scheduler::dispatchOne()
{
    unsigned n = unsigned(runQueues.size());

    // Pass 1: round-robin across cores, dispatching the first thread
    // already due on its own core's clock.
    for (unsigned i = 0; i < n; ++i) {
        unsigned c = (nextDispatchCore + i) % n;
        for (Thread *t : runQueues[c]) {
            if (t->readyAtCycles > mach.coreCycles(int(c)))
                continue;
            auto &q = runQueues[c];
            q.erase(std::find(q.begin(), q.end(), t));
            nextDispatchCore = (c + 1) % n;
            switchTo(t);
            return true;
        }
    }

    // Pass 2: only future-ready work remains (cross-core wakes or
    // idle-jump sleepers). The earliest event wins; its core idles
    // forward to the event time.
    Thread *next = nullptr;
    for (unsigned c = 0; c < n; ++c) {
        for (Thread *t : runQueues[c]) {
            if (!next || t->readyAtCycles < next->readyAtCycles)
                next = t;
        }
    }
    if (!next)
        return false;
    auto &q = runQueues[next->core];
    q.erase(std::find(q.begin(), q.end(), next));
    mach.advanceCoreTo(next->core, next->readyAtCycles);
    nextDispatchCore = (unsigned(next->core) + 1) % n;
    switchTo(next);
    return true;
}

bool
Scheduler::run()
{
    while (true) {
        pruneStale();
        serviceSleepers(true);
        stealWork();
        if (!dispatchOne())
            break;
    }

    for (const auto &t : threads) {
        if (t->state_ != Thread::State::Finished)
            return false; // blocked threads remain: deadlock
    }
    return true;
}

bool
Scheduler::runUntil(const std::function<bool()> &pred,
                    std::uint64_t maxSwitches)
{
    std::uint64_t budget = maxSwitches;
    while (!pred()) {
        if (budget-- == 0)
            return false;
        pruneStale();
        serviceSleepers(true);
        stealWork();
        if (!dispatchOne())
            return false;
    }
    return true;
}

void
Scheduler::yield()
{
    Thread *self = running;
    panic_if(!self, "yield outside a thread");
    self->state_ = Thread::State::Ready;
    runQueues[self->core].push_back(self);
    switchOut();
}

void
Scheduler::block(WaitQueue &q)
{
    Thread *self = running;
    panic_if(!self, "block outside a thread");
    self->state_ = Thread::State::Blocked;
    q.waiters.push_back(self);
    switchOut();
}

void
Scheduler::sleepNs(std::uint64_t ns)
{
    Thread *self = running;
    panic_if(!self, "sleep outside a thread");
    self->state_ = Thread::State::Sleeping;
    self->wakeAtCycles =
        mach.cycles() +
        static_cast<std::uint64_t>(static_cast<double>(ns) *
                                   mach.timing.cpuGhz);
    sleepers.push({self->wakeAtCycles, ++self->sleepGen, self});
    switchOutTimed(self, false);
}

void
Scheduler::switchOutTimed(Thread *self, bool heartbeat)
{
    // Count the wait for exactly as long as the fiber is suspended,
    // a cancellation unwind included. promoteHeartbeats() may turn a
    // heartbeat into a counted wait meanwhile.
    self->heartbeat = heartbeat;
    if (!heartbeat)
        ++timedWaits;
    struct Uncount
    {
        Scheduler &sched;
        Thread *t;
        ~Uncount()
        {
            if (!t->heartbeat)
                --sched.timedWaits;
            t->heartbeat = false;
        }
    } uncount{*this, self};
    switchOut();
}

bool
Scheduler::blockFor(WaitQueue &q, std::uint64_t ns)
{
    return timedBlock(q, ns, false);
}

bool
Scheduler::heartbeatFor(WaitQueue &q, std::uint64_t ns)
{
    return timedBlock(q, ns, true);
}

bool
Scheduler::timedBlock(WaitQueue &q, std::uint64_t ns, bool heartbeat)
{
    Thread *self = running;
    panic_if(!self, "blockFor outside a thread");
    self->state_ = Thread::State::Blocked;
    q.waiters.push_back(self);
    self->wakeAtCycles =
        mach.cycles() +
        static_cast<std::uint64_t>(static_cast<double>(ns) *
                                   mach.timing.cpuGhz);
    self->timedWaitQueue = &q;
    self->timedOut = false;
    sleepers.push({self->wakeAtCycles, ++self->sleepGen, self});
    switchOutTimed(self, heartbeat);
    self->timedWaitQueue = nullptr;
    ++self->sleepGen; // retire the timeout entry if woken normally
    return !self->timedOut;
}

void
Scheduler::join(Thread *t)
{
    Thread *self = running;
    panic_if(!self, "join outside a thread");
    panic_if(t == self, "thread joining itself");
    if (t->state_ == Thread::State::Finished)
        return;
    t->joiners.push_back(self);
    self->state_ = Thread::State::Blocked;
    switchOut();
}

void
Scheduler::wake(Thread *t)
{
    if (t->state_ != Thread::State::Blocked)
        return;
    // Cross-core wakeup: the waker pays an IPI, and the wakee cannot
    // observe the event before the waker's clock reads now — stamp
    // readyAtCycles so the target core idles forward if it is behind.
    // Free-running threads live outside the timing model: they neither
    // pay nor transfer clock causality in either direction.
    bool timedWaker = running && !running->freeRunning;
    if (timedWaker && !t->freeRunning && running->core != t->core) {
        mach.consume(mach.timing.ipi);
        mach.bump("sched.ipis");
    }
    t->state_ = Thread::State::Ready;
    t->readyAtCycles = (timedWaker && !t->freeRunning)
                           ? mach.cycles()
                           : mach.coreCycles(t->core);
    runQueues[t->core].push_back(t);
}

void
Scheduler::promoteHeartbeats(WaitQueue &q)
{
    for (Thread *t : q.waiters) {
        if (t->heartbeat && t->timedWaitQueue == &q) {
            t->heartbeat = false;
            ++timedWaits;
        }
    }
}

std::uint64_t
Scheduler::dispatchesOn(int core) const
{
    panic_if(core < 0 ||
                 static_cast<std::size_t>(core) >= coreDispatches.size(),
             "core ", core, " out of range");
    return coreDispatches[static_cast<std::size_t>(core)];
}

bool
Scheduler::coreHasRunnable(int core) const
{
    panic_if(core < 0 ||
                 static_cast<std::size_t>(core) >= runQueues.size(),
             "core ", core, " out of range");
    for (const Thread *t : runQueues[static_cast<std::size_t>(core)]) {
        if (t->state() == Thread::State::Ready)
            return true;
    }
    return false;
}

Thread *
WaitQueue::wakeOne()
{
    while (!waiters.empty()) {
        Thread *t = waiters.front();
        waiters.pop_front();
        if (t->state() == Thread::State::Blocked) {
            sched.wake(t);
            return t;
        }
    }
    return nullptr;
}

std::size_t
WaitQueue::wakeAll()
{
    std::size_t n = 0;
    while (wakeOne())
        ++n;
    return n;
}

void
Mutex::lock()
{
    Thread *self = sched.current();
    panic_if(!self, "Mutex::lock outside a thread");
    panic_if(owner == self, "recursive Mutex::lock");
    while (owner)
        waiters.wait();
    owner = self;
}

void
Mutex::unlock()
{
    panic_if(owner != sched.current(), "unlock by non-owner");
    owner = nullptr;
    waiters.wakeOne();
}

bool
Mutex::tryLock()
{
    Thread *self = sched.current();
    panic_if(!self, "Mutex::tryLock outside a thread");
    if (owner)
        return false;
    owner = self;
    return true;
}

bool
Mutex::heldByCaller() const
{
    return owner && owner == sched.current();
}

void
Semaphore::post()
{
    ++count;
    waiters.wakeOne();
}

void
Semaphore::wait()
{
    while (count == 0)
        waiters.wait();
    --count;
}

bool
Semaphore::tryWait()
{
    if (count == 0)
        return false;
    --count;
    return true;
}

} // namespace flexos
