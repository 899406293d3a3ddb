/**
 * @file
 * Tests of the zero-event wake-up rule (DESIGN.md §13): a timed op
 * continues inline at its wake tick, with no event, only while the
 * event loop is resuming its coroutine and nothing else is due by
 * then. Every schedule here is compared against the all-events
 * schedule, forced by a callback that keeps an event due every tick.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <utility>
#include <vector>

#include "runtime/machine.hh"
#include "runtime/memif.hh"
#include "runtime/thread_context.hh"

namespace hmtx::runtime
{
namespace
{

/** (root, tick) after every op, in completion order. */
using Trace = std::vector<std::pair<int, Tick>>;

/** One machine, the (root, tick) trace of its ops and the count of
 *  live roots (the all-events ticker stops at zero). */
struct SimRun
{
    Machine m{sim::MachineConfig{}};
    Trace trace;
    int live = 0;

    void
    note(int root)
    {
        trace.emplace_back(root, m.now());
    }
};

/** Keeps a callback event due every tick while roots are live, so no
 *  wake-up can skip the queue: the all-events schedule. */
void
forceEvents(SimRun& r)
{
    r.m.eq().scheduleIn(1, [&r] {
        if (r.live > 0)
            forceEvents(r);
    });
}

sim::Task<void>
computeFirst(SimRun& r, int id)
{
    DirectMem mem(r.m.ctx(0));
    co_await mem.compute(5);
    r.note(id);
    co_await mem.store(0x1000, 7);
    r.note(id);
    co_await mem.load(0x1000);
    r.note(id);
    co_await mem.branch(0x40, true);
    r.note(id);
    co_await mem.compute(3);
    r.note(id);
    --r.live;
}

sim::Task<void>
loadFirst(SimRun& r, int id)
{
    DirectMem mem(r.m.ctx(1));
    co_await mem.load(0x1000);
    r.note(id);
    co_await mem.compute(2);
    r.note(id);
    co_await mem.store(0x2000, 9);
    r.note(id);
    co_await mem.load(0x1000);
    r.note(id);
    --r.live;
}

Trace
twoRoots(bool allEvents)
{
    SimRun r;
    r.live = 2;
    if (allEvents)
        forceEvents(r); // before spawn(): its first ops queue too
    r.m.spawn(computeFirst(r, 0));
    r.m.spawn(loadFirst(r, 1));
    r.m.run();
    return r.trace;
}

TEST(ZeroEventWakeup, RootsStartedBySpawnKeepTheAllEventsSchedule)
{
    // spawn() runs each root's first slice outside the event loop. A
    // wake-up taken there would run the compute-first root to its end
    // before the load-first root even exists.
    const Trace got = twoRoots(false);
    const Trace ref = twoRoots(true);
    EXPECT_EQ(got, ref);
    ASSERT_EQ(got.size(), 9u);
    EXPECT_EQ(got.front(), (std::pair<int, Tick>{0, 5}));
}

/** Suspends until someone resumes the stored handle by hand. */
struct Park
{
    std::coroutine_handle<>& slot;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { slot = h; }
    void await_resume() const noexcept {}
};

sim::Task<void>
parked(Machine& m, std::coroutine_handle<>& h, Tick& done)
{
    co_await Park{h};
    co_await m.ctx(0).compute(3);
    done = m.now();
}

TEST(ZeroEventWakeup, CallbackEventResumeDoesNotJump)
{
    Machine m{sim::MachineConfig{}};
    std::coroutine_handle<> h;
    Tick done = 0;
    Tick afterResume = 0;
    m.spawn(parked(m, h, done));
    ASSERT_TRUE(h);
    m.eq().schedule(10, [&] {
        h.resume();
        afterResume = m.now();
    });
    m.run();
    EXPECT_EQ(afterResume, 10u); // the callback's own tick
    EXPECT_EQ(done, 13u);
    EXPECT_EQ(m.eq().executed(), 2u); // the callback + the wake-up
}

sim::Task<void>
soloRoot(SimRun& r, unsigned n)
{
    DirectMem mem(r.m.ctx(0));
    for (unsigned i = 0; i < n; ++i) {
        co_await mem.load(0x4000 + 64 * (i % 8));
        co_await mem.compute(1 + i % 4);
        r.note(0);
    }
    --r.live;
}

TEST(ZeroEventWakeup, SingleContextRunTakesAtMostOneEvent)
{
    constexpr unsigned kOps = 64;
    SimRun fast;
    fast.live = 1;
    fast.m.spawn(soloRoot(fast, kOps));
    fast.m.run();
    // Only the wake-up of the op issued by spawn() is queued.
    EXPECT_LE(fast.m.eq().executed(), 1u);

    SimRun ref;
    ref.live = 1;
    forceEvents(ref);
    ref.m.spawn(soloRoot(ref, kOps));
    ref.m.run();
    EXPECT_EQ(fast.trace, ref.trace);
    EXPECT_GT(ref.m.eq().executed(), 2 * kOps);
}

sim::Task<void>
longAfterShort(SimRun& r)
{
    co_await r.m.ctx(0).compute(2);
    co_await r.m.ctx(0).compute(100);
    r.note(0);
}

sim::Task<void>
middle(SimRun& r)
{
    co_await r.m.ctx(1).compute(50);
    r.note(1);
}

TEST(ZeroEventWakeup, OtherContextDueFirstStillSchedules)
{
    SimRun r;
    r.m.spawn(longAfterShort(r));
    r.m.spawn(middle(r));
    r.m.run();
    // At tick 2 the 100-cycle op must queue: context 1 is due at 50.
    EXPECT_EQ(r.trace, (Trace{{1, 50}, {0, 102}}));
    EXPECT_EQ(r.m.eq().executed(), 3u);
}

sim::Task<void>
abortedLoad(Machine& m, bool& threw)
{
    DirectMem mem(m.ctx(0));
    m.ctx(0).beginMtx(1);
    co_await mem.store(0x3000, 1);
    m.sys().abortAll();
    try {
        co_await mem.load(0x3000);
    } catch (const sim::TxAborted&) {
        threw = true;
    }
}

TEST(ZeroEventWakeup, AbortStillThrowsAtTheAwait)
{
    Machine m{sim::MachineConfig{}};
    bool threw = false;
    m.spawn(abortedLoad(m, threw));
    m.run();
    EXPECT_TRUE(threw);
}

} // namespace
} // namespace hmtx::runtime
