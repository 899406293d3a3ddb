/**
 * @file
 * Tests of Machine, SimAllocator and Signal.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/machine.hh"
#include "runtime/signal.hh"
#include "runtime/thread_context.hh"

namespace hmtx::runtime
{
namespace
{

sim::MachineConfig
cfg()
{
    sim::MachineConfig c;
    c.l2SizeKB = 256;
    return c;
}

TEST(SimAllocator, AlignmentAndDisjointness)
{
    SimAllocator a(0x1000);
    Addr x = a.alloc(10, 8);
    Addr y = a.alloc(1, 64);
    Addr z = a.allocLines(2);
    EXPECT_EQ(x % 8, 0u);
    EXPECT_EQ(y % 64, 0u);
    EXPECT_EQ(z % 64, 0u);
    EXPECT_GE(y, x + 10);
    EXPECT_GE(z, y + 1);
    EXPECT_EQ(a.allocWords(4) % 8, 0u);
}

TEST(Machine, ContextsAreBoundToCores)
{
    Machine m(cfg());
    for (CoreId c = 0; c < m.config().numCores; ++c)
        EXPECT_EQ(m.ctx(c).core(), c);
}

sim::Task<void>
blockForever(Machine& m, Signal& s)
{
    (void)m;
    co_await s.wait();
}

TEST(Machine, ReportsDeadlockedTasks)
{
    Machine m(cfg());
    Signal s(m.eq());
    m.spawn(blockForever(m, s));
    EXPECT_THROW(m.run(), std::logic_error);
}

sim::Task<void>
waiter(Signal& s, int& wakes)
{
    co_await s.wait();
    ++wakes;
    co_await s.wait();
    ++wakes;
}

sim::Task<void>
notifier(Machine& m, Signal& s)
{
    co_await m.ctx(0).compute(10);
    s.notifyAll();
    co_await m.ctx(0).compute(10);
    s.notifyAll();
}

TEST(Signal, BroadcastWakesAllWaitersEachTime)
{
    Machine m(cfg());
    Signal s(m.eq());
    int w1 = 0, w2 = 0;
    m.spawn(waiter(s, w1));
    m.spawn(waiter(s, w2));
    m.spawn(notifier(m, s));
    m.run();
    EXPECT_EQ(w1, 2);
    EXPECT_EQ(w2, 2);
}

sim::Task<void>
oneTick(Machine& m, Tick& end)
{
    co_await m.ctx(0).compute(25);
    end = m.now();
}

TEST(Machine, RunDrivesSimulatedTime)
{
    Machine m(cfg());
    Tick end = 0;
    m.spawn(oneTick(m, end));
    m.run();
    EXPECT_EQ(end, 25u);
    EXPECT_GE(m.now(), 25u);
}

/** Stores to and loads back a heap word in a transaction on core
 *  @p c, with branches for the predictor, then computes. */
sim::Task<void>
busyCore(Machine& m, CoreId c, Addr a)
{
    ThreadContext& tc = m.ctx(c);
    tc.beginMtx(1 + c);
    co_await tc.store(a, 7 + c);
    co_await tc.load(a);
    for (int i = 0; i < 20; ++i)
        co_await tc.branch(0x400 + 4 * c, true);
    co_await tc.commitMtx(1 + c);
    co_await tc.compute(30);
}

/** Runs busyCore on cores 0 and 1 of @p m; returns the final tick. */
Tick
runBusy(Machine& m)
{
    const Addr a = m.heap().allocLines(2);
    m.spawn(busyCore(m, 0, a));
    m.spawn(busyCore(m, 1, a + kLineBytes));
    m.run();
    return m.now();
}

TEST(Machine, ResetReturnsToTheBuiltState)
{
    Machine m(cfg());
    const Addr base = m.heap().used();
    const Tick fresh = runBusy(m);
    ASSERT_GT(fresh, 0u);
    ASSERT_GT(m.heap().used(), base);
    ASSERT_GT(m.ctx(0).instructions(), 0u);
    ASSERT_GT(m.ctx(1).predictor().branches(), 0u);
    ASSERT_FALSE(m.sys().stats() == sim::SysStats{});
    // A root blocked forever is dropped by the reset, not run.
    Signal s(m.eq());
    m.spawn(blockForever(m, s));

    m.reset(cfg());
    EXPECT_EQ(m.now(), 0u);
    EXPECT_TRUE(m.eq().empty());
    EXPECT_EQ(m.heap().used(), base);
    EXPECT_TRUE(m.sys().stats() == sim::SysStats{});
    EXPECT_TRUE(m.sys().indexStats() == sim::IndexStats{});
    for (CoreId c = 0; c < m.config().numCores; ++c) {
        const ThreadContext& tc = m.ctx(c);
        EXPECT_EQ(tc.core(), c);
        EXPECT_EQ(tc.vid(), kNonSpecVid);
        EXPECT_EQ(tc.instructions(), 0u);
        EXPECT_EQ(tc.predictor().branches(), 0u);
        EXPECT_EQ(tc.predictor().mispredicts(), 0u);
        EXPECT_EQ(tc.slaUnit().size(), 0u);
        // Untrained: predicts the trained branch as a fresh one does.
        sim::BranchPredictor bp = tc.predictor();
        sim::BranchPredictor untrained;
        EXPECT_EQ(bp.predict(0x400 + 4 * c, true),
                  untrained.predict(0x400 + 4 * c, true));
    }
    // The same work runs the same on the reset machine.
    EXPECT_EQ(runBusy(m), fresh);
    Machine built(cfg());
    runBusy(built);
    EXPECT_TRUE(m.sys().stats() == built.sys().stats());
}

TEST(Machine, ResetTakesAnotherPolicy)
{
    sim::MachineConfig eager = cfg();
    eager.txMode = TxMode::EagerHmtx;
    Machine m(cfg());
    runBusy(m);
    m.reset(eager);
    EXPECT_EQ(m.config().txMode, TxMode::EagerHmtx);
    const Tick t = runBusy(m);
    Machine built(eager);
    EXPECT_EQ(runBusy(built), t);
    EXPECT_TRUE(m.sys().stats() == built.sys().stats());
}

TEST(Machine, ResetRejectsAnotherStructureAndStaysUsable)
{
    Machine m(cfg());
    const Tick fresh = runBusy(m);
    const Addr used = m.heap().used();
    sim::MachineConfig bigger = cfg();
    bigger.l2SizeKB *= 2;
    EXPECT_THROW(m.reset(bigger), std::invalid_argument);
    sim::MachineConfig contradictory = cfg();
    contradictory.txMode = TxMode::BestEffort;
    contradictory.unboundedSpecSets = true;
    EXPECT_THROW(m.reset(contradictory), std::invalid_argument);
    // Untouched: still the finished run.
    EXPECT_EQ(m.now(), fresh);
    EXPECT_EQ(m.heap().used(), used);
    EXPECT_EQ(m.config().l2SizeKB, cfg().l2SizeKB);
    m.reset(cfg());
    EXPECT_EQ(runBusy(m), fresh);
}

} // namespace
} // namespace hmtx::runtime
