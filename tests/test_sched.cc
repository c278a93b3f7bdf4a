/**
 * @file
 * Unit tests for uksched: spawn/join/yield ordering, blocking,
 * virtual-time sleep, heartbeat waits and the run drying up,
 * mutex/semaphore semantics, the per-thread protection domain
 * installed on a switch, the free-running (uncharged) thread mode, and
 * the fiber switch itself (per-fiber floating-point control state,
 * exceptions, deep stacks, spawn/teardown churn).
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "uksched/scheduler.hh"

namespace flexos {
namespace {

struct SchedFixture : ::testing::Test
{
    Machine mach;
    Scheduler sched{mach};
};

TEST_F(SchedFixture, RunsSingleThreadToCompletion)
{
    bool ran = false;
    sched.spawn("t", [&] { ran = true; });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(ran);
}

TEST_F(SchedFixture, RoundRobinInterleavesAtYields)
{
    std::vector<std::string> log;
    sched.spawn("a", [&] {
        log.push_back("a1");
        sched.yield();
        log.push_back("a2");
    });
    sched.spawn("b", [&] {
        log.push_back("b1");
        sched.yield();
        log.push_back("b2");
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST_F(SchedFixture, JoinWaitsForTarget)
{
    std::vector<int> order;
    Thread *worker = sched.spawn("worker", [&] {
        sched.yield();
        sched.yield();
        order.push_back(1);
    });
    sched.spawn("joiner", [&] {
        sched.join(worker);
        order.push_back(2);
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SchedFixture, JoinFinishedThreadReturnsImmediately)
{
    Thread *t = sched.spawn("quick", [] {});
    sched.spawn("j", [&] { sched.join(t); });
    EXPECT_TRUE(sched.run());
}

TEST_F(SchedFixture, DeadlockDetectedAsFalse)
{
    WaitQueue q(sched);
    sched.spawn("stuck", [&] { q.wait(); });
    EXPECT_FALSE(sched.run());
}

TEST_F(SchedFixture, SleepAdvancesVirtualClock)
{
    std::uint64_t woke = 0;
    sched.spawn("sleeper", [&] {
        sched.sleepNs(1'000'000); // 1 ms
        woke = mach.nanoseconds();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_GE(woke, 1'000'000u);
    // Idle jump: not far past the deadline either.
    EXPECT_LT(woke, 1'200'000u);
}

TEST_F(SchedFixture, SleepersWakeInDeadlineOrder)
{
    std::vector<std::string> order;
    sched.spawn("late", [&] {
        sched.sleepNs(2'000'000);
        order.push_back("late");
    });
    sched.spawn("early", [&] {
        sched.sleepNs(1'000'000);
        order.push_back("early");
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST_F(SchedFixture, ThreadExceptionIsCaptured)
{
    Thread *t = sched.spawn("boom", [] {
        throw std::runtime_error("exploded");
    });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(t->failed());
    EXPECT_NE(t->error().find("exploded"), std::string::npos);
}

TEST_F(SchedFixture, WaitQueueWakeOneFifo)
{
    WaitQueue q(sched);
    std::vector<int> order;
    sched.spawn("w1", [&] {
        q.wait();
        order.push_back(1);
    });
    sched.spawn("w2", [&] {
        q.wait();
        order.push_back(2);
    });
    sched.spawn("waker", [&] {
        sched.yield(); // let both block
        q.wakeOne();
        q.wakeOne();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SchedFixture, MutexProvidesExclusion)
{
    Mutex mtx(sched);
    int inside = 0;
    int maxInside = 0;
    auto body = [&] {
        for (int i = 0; i < 10; ++i) {
            LockGuard g(mtx);
            ++inside;
            maxInside = std::max(maxInside, inside);
            sched.yield(); // try to interleave within the section
            --inside;
        }
    };
    sched.spawn("m1", body);
    sched.spawn("m2", body);
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(maxInside, 1);
}

TEST_F(SchedFixture, MutexUnlockByNonOwnerPanics)
{
    Mutex mtx(sched);
    Thread *t = sched.spawn("bad", [&] { mtx.unlock(); });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(t->failed());
}

TEST_F(SchedFixture, SemaphoreCountsPermits)
{
    Semaphore sem(sched, 0);
    std::vector<int> order;
    sched.spawn("consumer", [&] {
        sem.wait();
        order.push_back(1);
        sem.wait();
        order.push_back(2);
    });
    sched.spawn("producer", [&] {
        order.push_back(0);
        sem.post();
        sched.yield();
        sem.post();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(SchedFixture, ContextSwitchChargesCycles)
{
    sched.spawn("t", [&] { sched.yield(); });
    Cycles before = mach.cycles();
    sched.run();
    EXPECT_GE(mach.cycles() - before, 2 * mach.timing.contextSwitch);
}

TEST_F(SchedFixture, FreeRunningThreadChargesNothing)
{
    Thread *t = sched.spawn("client", [&] {
        mach.consume(1'000'000);
        sched.yield();
        mach.consume(1'000'000);
    });
    t->freeRunning = true;
    sched.run();
    EXPECT_EQ(mach.cycles(), 0u);
}

TEST_F(SchedFixture, ChargedThreadNextToFreeRunningStillCharges)
{
    Thread *c = sched.spawn("client", [&] {
        mach.consume(500);
        sched.yield();
    });
    c->freeRunning = true;
    sched.spawn("server", [&] {
        mach.consume(100);
        sched.yield();
    });
    sched.run();
    // Only server work + its context switches are on the clock.
    EXPECT_GE(mach.cycles(), 100u);
    EXPECT_LT(mach.cycles(), 500u);
}

TEST_F(SchedFixture, SwitchInstallsThreadPkru)
{
    // The MPK backend relies on this (paper 3.2): the switch itself
    // installs the thread's protection domain.
    Pkru seen;
    Thread *t = sched.spawn("domain", [&] { seen = mach.pkru; });
    t->pkru = Pkru::allowing({5});
    sched.run();
    EXPECT_TRUE(seen.permits(5, AccessType::Write));
    EXPECT_FALSE(seen.permits(1, AccessType::Read));
    // Back in the scheduler, the TCB runs unrestricted.
    EXPECT_EQ(mach.pkru, Pkru(Pkru::allowAllValue));
}

TEST_F(SchedFixture, RunUntilStopsAtPredicate)
{
    int progress = 0;
    sched.spawn("worker", [&] {
        for (int i = 0; i < 100; ++i) {
            ++progress;
            sched.yield();
        }
    });
    EXPECT_TRUE(sched.runUntil([&] { return progress >= 5; }));
    EXPECT_GE(progress, 5);
    EXPECT_LT(progress, 100);
}

TEST_F(SchedFixture, RunUntilReturnsFalseWhenWorkDriesUp)
{
    sched.spawn("short", [] {});
    EXPECT_FALSE(sched.runUntil([] { return false; }, 1000));
}

TEST(SchedHeartbeat, OnlyHeartbeatWaitsLeftDryUpWithoutMovingClocks)
{
    Machine mach(TimingModel{}, 2);
    Scheduler sched(mach);
    WaitQueue q0(sched), q1(sched);
    int waiting = 0;
    auto poll = [&](WaitQueue *q) {
        while (true) {
            ++waiting;
            sched.heartbeatFor(*q, 1'000'000);
            --waiting;
        }
    };
    sched.spawnOn(0, "hb0", [&] { poll(&q0); });
    sched.spawnOn(1, "hb1", [&] { poll(&q1); });
    ASSERT_TRUE(sched.runUntil([&] { return waiting == 2; }));

    std::uint64_t switches = sched.switches();
    Cycles core0 = mach.coreCycles(0);
    Cycles core1 = mach.coreCycles(1);
    EXPECT_FALSE(sched.runUntil([] { return false; }, 1000));
    EXPECT_FALSE(sched.run());
    EXPECT_EQ(sched.switches(), switches);
    EXPECT_EQ(mach.coreCycles(0), core0);
    EXPECT_EQ(mach.coreCycles(1), core1);
    EXPECT_EQ(mach.counter("sched.idleJumps"), 0u);
}

TEST_F(SchedFixture, HeartbeatBesideOrdinaryWaitsFiresInDeadlineOrder)
{
    WaitQueue hbq(sched), q(sched);
    std::vector<std::string> log;
    auto stamp = [&](const char *what) {
        log.push_back(what + std::to_string(mach.nanoseconds() /
                                            1'000'000));
    };
    sched.spawn("hb", [&] {
        while (true) {
            if (!sched.heartbeatFor(hbq, 1'000'000))
                stamp("hb@");
        }
    });
    sched.spawn("worker", [&] {
        sched.sleepNs(3'500'000);
        stamp("slept@");
        if (!sched.blockFor(q, 1'000'000))
            stamp("timeout@");
    });
    // The worker keeps the run alive, so the heartbeat fires by idle
    // jumps in deadline order; once the worker is done, it dries up.
    EXPECT_FALSE(sched.run());
    EXPECT_EQ(log, (std::vector<std::string>{"hb@1", "hb@2", "hb@3",
                                             "slept@3", "hb@4",
                                             "timeout@4"}));
    EXPECT_EQ(mach.counter("sched.idleJumps"), 6u);
    EXPECT_LT(mach.nanoseconds(), 5'000'000u);
}

TEST_F(SchedFixture, PromotedHeartbeatKeepsTheRunAlive)
{
    WaitQueue q(sched);
    bool timedOut = false;
    sched.spawn("hb", [&] { timedOut = !sched.heartbeatFor(q, 1'000'000); });
    sched.spawn("arm", [&] { sched.promoteHeartbeats(q); });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(timedOut);
    EXPECT_GE(mach.nanoseconds(), 1'000'000u);
}

TEST_F(SchedFixture, CancelInsideTimedWaitsKeepsAccountingBalanced)
{
    WaitQueue hbq(sched), promoted(sched);
    int waiting = 0;
    sched.spawn("hb", [&] {
        ++waiting;
        while (true)
            sched.heartbeatFor(hbq, 1'000'000);
    });
    sched.spawn("sleeper", [&] {
        ++waiting;
        sched.sleepNs(1'000'000'000);
    });
    sched.spawn("promoted", [&] {
        ++waiting;
        sched.heartbeatFor(promoted, 1'000'000'000);
    });
    ASSERT_TRUE(sched.runUntil([&] { return waiting == 3; }));
    sched.promoteHeartbeats(promoted);
    sched.cancelAll();

    // The unwound waits no longer count: a fresh heartbeat-only state
    // dries up at once instead of idle-jumping to the budget.
    bool parked = false;
    sched.spawn("hb2", [&] {
        while (true) {
            parked = true;
            sched.heartbeatFor(hbq, 1'000'000);
        }
    });
    ASSERT_TRUE(sched.runUntil([&] { return parked; }));
    std::uint64_t switches = sched.switches();
    Cycles now = mach.cycles();
    EXPECT_FALSE(sched.runUntil([] { return false; }, 1000));
    EXPECT_EQ(sched.switches(), switches);
    EXPECT_EQ(mach.cycles(), now);
}

/** 1/3 in double precision under the current SSE rounding mode. */
double
oneThird()
{
    volatile double one = 1.0;
    volatile double three = 3.0;
    return one / three;
}

TEST_F(SchedFixture, RoundingModeIsPerFiber)
{
    const double nearest = oneThird();
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    std::vector<std::string> failures;
    sched.spawn("upward", [&] {
        std::fesetround(FE_UPWARD);
        const double up = oneThird();
        if (up <= nearest)
            failures.push_back("FE_UPWARD did not round 1/3 up");
        for (int i = 0; i < 4; ++i) {
            sched.yield();
            // x87 control word (fegetround) and MXCSR (SSE division)
            // both survive the switch.
            if (std::fegetround() != FE_UPWARD || oneThird() != up)
                failures.push_back("upward lost its mode");
        }
    });
    sched.spawn("nearest", [&] {
        for (int i = 0; i < 4; ++i) {
            if (std::fegetround() != FE_TONEAREST ||
                oneThird() != nearest)
                failures.push_back("mode leaked into another fiber");
            sched.yield();
        }
    });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(failures.empty()) << failures.front();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(oneThird(), nearest);
}

[[noreturn]] void
throwAt(int depth)
{
    if (depth == 0)
        throw std::runtime_error("deep");
    throwAt(depth - 1);
}

TEST_F(SchedFixture, ExceptionCaughtInsideFiberAfterInterleavedYields)
{
    std::vector<std::string> log;
    for (const char *name : {"a", "b", "c"}) {
        sched.spawn(name, [&, name] {
            for (int i = 0; i < 5; ++i)
                sched.yield();
            try {
                throwAt(8);
            } catch (const std::runtime_error &e) {
                log.push_back(std::string(name) + ":" + e.what());
            }
            sched.yield();
            log.push_back(std::string(name) + ":after");
        });
    }
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(log, (std::vector<std::string>{"a:deep", "b:deep", "c:deep",
                                             "a:after", "b:after",
                                             "c:after"}));
}

/** How deep recurseDeep() went. */
struct DeepRun
{
    std::size_t bytesUsed = 0; ///< base to the deepest frame's buffer
    int frames = 0;
};

/**
 * Recurse with 1 KiB buffers until the fiber has used at least `want`
 * bytes below `base`, yield at the bottom, and return a checksum that
 * depends on every frame's buffer surviving the switch.
 */
std::uint64_t
recurseDeep(Scheduler &s, std::uintptr_t base, std::size_t want,
            int depth, DeepRun &run)
{
    volatile unsigned char buf[1024];
    for (auto &b : buf)
        b = static_cast<unsigned char>(depth);
    std::uint64_t below = 0;
    auto here = reinterpret_cast<std::uintptr_t>(&buf[0]);
    if (base - here < want) {
        below = recurseDeep(s, base, want, depth + 1, run);
    } else {
        run.bytesUsed = base - here;
        run.frames = depth + 1;
        s.yield();
    }
    std::uint64_t sum = 0;
    for (auto &b : buf)
        sum += b;
    return below + sum;
}

TEST_F(SchedFixture, FiberRecursesThroughMostOfItsStack)
{
    constexpr std::size_t stackBytes = 128 * 1024;
    std::uint64_t sum = 0;
    DeepRun run;
    sched.spawn(
        "deep",
        [&] {
            volatile char anchor = 0;
            auto base = reinterpret_cast<std::uintptr_t>(&anchor);
            // Stop at 5/8 of the stack: more than half, with room for
            // the deepest frame and the yield beneath it.
            sum = recurseDeep(sched, base, stackBytes * 5 / 8, 0, run);
        },
        stackBytes);
    sched.spawn("other", [&] {
        for (int i = 0; i < 3; ++i)
            sched.yield();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_GT(run.bytesUsed, stackBytes / 2);
    std::uint64_t expected = 0;
    for (int d = 0; d < run.frames; ++d)
        expected += 1024u * static_cast<unsigned char>(d);
    EXPECT_EQ(sum, expected);
}

/** Counts live instances, so tests can see fiber locals destroyed. */
struct LiveCounter
{
    explicit LiveCounter(int &n) : live(n) { ++live; }
    ~LiveCounter() { --live; }
    LiveCounter(const LiveCounter &) = delete;
    LiveCounter &operator=(const LiveCounter &) = delete;
    int &live;
};

TEST_F(SchedFixture, SpawnChurnThenCancelUnwindsParkedFibers)
{
    // 10 000 spawn/finish cycles, in rounds on fresh schedulers so the
    // finished threads' stacks are freed between rounds.
    constexpr std::size_t stackBytes = 32 * 1024;
    int finished = 0;
    for (int round = 0; round < 100; ++round) {
        Scheduler s(mach);
        for (int i = 0; i < 100; ++i) {
            s.spawn("churn", [&] {
                s.yield();
                ++finished;
            }, stackBytes);
        }
        ASSERT_TRUE(s.run());
    }
    EXPECT_EQ(finished, 10'000);

    // Park fibers every way a fiber can be suspended, then cancel.
    int live = 0;
    WaitQueue q(sched);
    std::vector<Thread *> parked;
    parked.push_back(sched.spawn("blocked", [&] {
        LiveCounter c(live);
        q.wait();
    }));
    parked.push_back(sched.spawn("sleeping", [&] {
        LiveCounter c(live);
        sched.sleepNs(1'000'000'000);
    }));
    parked.push_back(sched.spawn("timed", [&] {
        LiveCounter c(live);
        sched.blockFor(q, 1'000'000'000);
    }));
    EXPECT_TRUE(sched.runUntil([&] { return live == 3; }));
    ASSERT_EQ(live, 3);
    sched.cancelAll();
    EXPECT_EQ(live, 0);
    for (Thread *t : parked) {
        EXPECT_EQ(t->state(), Thread::State::Finished) << t->name();
        EXPECT_FALSE(t->failed()) << t->name();
    }
}

} // namespace
} // namespace flexos
