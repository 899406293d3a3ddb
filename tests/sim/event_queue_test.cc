/**
 * @file
 * Tests of the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace hmtx::sim
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 6u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(15, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

// --- a queue that never scheduled an event --------------------------
//
// The wheel's buckets are allocated by the first push, so each case
// below runs on a fresh queue and on one that already scheduled and
// drained an event at tick 0 (wheel allocated, current bucket drained
// but not yet retired). Both must behave identically.

/** (tick, id) of every fired event, in firing order. */
using Firings = std::vector<std::pair<Tick, int>>;

/** Schedules one event at tick 0 and drains it. */
void
warmUp(EventQueue& eq)
{
    eq.schedule(0, [] {});
    eq.run();
    ASSERT_EQ(eq.curTick(), 0u);
    ASSERT_TRUE(eq.empty());
}

/**
 * Runs @p scenario on a fresh and on a warmed-up queue, checks they
 * fire the same events in the same order and end at the same tick,
 * and returns the firings.
 */
template <class Scenario>
Firings
sameAsWarm(Scenario scenario)
{
    EventQueue fresh, warm;
    warmUp(warm);
    Firings a = scenario(fresh);
    Firings b = scenario(warm);
    EXPECT_EQ(a, b);
    EXPECT_EQ(fresh.curTick(), warm.curTick());
    EXPECT_EQ(fresh.pending(), warm.pending());
    EXPECT_EQ(fresh.executed() + 1, warm.executed());
    return a;
}

/** Schedules event @p id at @p when, recording its firing. */
void
at(EventQueue& eq, Firings& out, Tick when, int id)
{
    eq.schedule(when, [&eq, &out, id] {
        out.emplace_back(eq.curTick(), id);
    });
}

TEST(EventQueueUnscheduled, IsEmptyAndStepsNothing)
{
    sameAsWarm([](EventQueue& eq) {
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.pending(), 0u);
        EXPECT_FALSE(eq.step());
        eq.run();
        EXPECT_EQ(eq.curTick(), 0u);
        return Firings{};
    });
}

TEST(EventQueueUnscheduled, RunUntilMovesTimeToLimit)
{
    sameAsWarm([](EventQueue& eq) {
        eq.runUntil(50);
        EXPECT_EQ(eq.curTick(), 50u);
        EXPECT_TRUE(eq.empty());
        EXPECT_FALSE(eq.step());
        return Firings{};
    });
}

TEST(EventQueueUnscheduled, TryBypassJumpsWithoutEvents)
{
    sameAsWarm([](EventQueue& eq) {
        EXPECT_TRUE(eq.tryBypass(100));
        EXPECT_EQ(eq.curTick(), 100u);
        EXPECT_FALSE(eq.tryBypass(99)); // the past
        EXPECT_TRUE(eq.tryBypass(100)); // the present
        EXPECT_TRUE(eq.empty());
        EXPECT_FALSE(eq.step());
        EXPECT_EQ(eq.curTick(), 100u);
        return Firings{};
    });
}

TEST(EventQueueUnscheduled, FirstEventAfterBypass)
{
    const Firings f = sameAsWarm([](EventQueue& eq) {
        Firings out;
        EXPECT_TRUE(eq.tryBypass(100));
        at(eq, out, 105, 0);
        at(eq, out, 100, 1); // delay 0
        at(eq, out, 105, 2);
        at(eq, out, 100 + 4095, 3); // last wheel tick
        at(eq, out, 100 + 4096, 4); // first far tick
        eq.run();
        return out;
    });
    EXPECT_EQ(f, (Firings{{100, 1}, {105, 0}, {105, 2}, {4195, 3},
                          {4196, 4}}));
}

TEST(EventQueueUnscheduled, FirstEventFarAheadMigratesIntoWheel)
{
    const Firings f = sameAsWarm([](EventQueue& eq) {
        Firings out;
        // Only far-heap events: the first push must still allocate
        // the wheel they migrate into.
        eq.schedule(5000, [&eq, &out] {
            out.emplace_back(eq.curTick(), 0);
            at(eq, out, 5000, 2); // delay 0, behind #1 in the bucket
            at(eq, out, 5100, 3);
        });
        at(eq, out, 5000, 1);
        at(eq, out, 4096, 4); // exactly the first far tick
        eq.run();
        return out;
    });
    EXPECT_EQ(f, (Firings{{4096, 4}, {5000, 0}, {5000, 1}, {5000, 2},
                          {5100, 3}}));
}

TEST(EventQueueUnscheduled, FarAndNearFirstEventsKeepScheduleOrder)
{
    const Firings f = sameAsWarm([](EventQueue& eq) {
        Firings out;
        at(eq, out, 5000, 0); // >= 4096 ahead: far heap
        at(eq, out, 10, 1);
        at(eq, out, 5000, 2); // far heap, after #0
        eq.schedule(1000, [&eq, &out] {
            out.emplace_back(eq.curTick(), 3);
            at(eq, out, 5000, 4); // now near: straight into the wheel
        });
        at(eq, out, 9000, 5); // still far after #0/#2 migrate
        eq.run();
        return out;
    });
    // The wheel-resident #4 was scheduled after the far #0/#2, so it
    // fires after them once they migrate into its bucket.
    EXPECT_EQ(f, (Firings{{10, 1}, {1000, 3}, {5000, 0}, {5000, 2},
                          {5000, 4}, {9000, 5}}));
}

// --- the bounded due check behind tryBypass() -----------------------
//
// A bypass to `wake` is refused exactly when some pending event is due
// at or before `wake`, wherever it sits: the current bucket's
// undrained tail, a wheel bucket in (now, wake], or the far heap.

/** Wheel span of the queue (EventQueue::kWheelTicks). */
constexpr Tick kWheel = 4096;

TEST(EventQueueDue, EventExactlyAtWakeRefuses)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_FALSE(eq.tryBypass(10));
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueueDue, EventOneTickLaterAccepts)
{
    EventQueue eq;
    Firings out;
    at(eq, out, 11, 0);
    EXPECT_TRUE(eq.tryBypass(10));
    EXPECT_EQ(eq.curTick(), 10u);
    eq.run();
    EXPECT_EQ(out, (Firings{{11, 0}}));
}

TEST(EventQueueDue, SpanAcrossManyOccupancyWords)
{
    EventQueue eq;
    eq.schedule(500, [] {}); // an inner word of the range [1, 1000]
    EXPECT_FALSE(eq.tryBypass(1000));
    EXPECT_TRUE(eq.tryBypass(499));
    EXPECT_FALSE(eq.tryBypass(500));
}

TEST(EventQueueDue, WakeAtLeastAWheelAhead)
{
    EventQueue eq;
    eq.schedule(kWheel - 1, [] {}); // the last wheel tick
    EXPECT_FALSE(eq.tryBypass(kWheel + 5));
    EXPECT_FALSE(eq.tryBypass(kWheel - 1));
    EXPECT_TRUE(eq.tryBypass(kWheel - 2));
    eq.run();
    EXPECT_EQ(eq.curTick(), kWheel - 1);
    // Nothing pending: any distance is fine.
    EXPECT_TRUE(eq.tryBypass(eq.curTick() + 3 * kWheel));
}

TEST(EventQueueDue, FarHeapEventAtOrBeforeWakeRefuses)
{
    EventQueue eq;
    Firings out;
    at(eq, out, kWheel + 904, 0); // >= a wheel ahead: far heap
    EXPECT_FALSE(eq.tryBypass(kWheel + 904));
    EXPECT_FALSE(eq.tryBypass(2 * kWheel));
    EXPECT_TRUE(eq.tryBypass(kWheel + 903));
    eq.run();
    EXPECT_EQ(out, (Firings{{kWheel + 904, 0}}));
}

TEST(EventQueueDue, RangeWrappingPastTheWheelEnd)
{
    EventQueue eq;
    EXPECT_TRUE(eq.tryBypass(4000));
    eq.schedule(4100, [] {}); // bucket 4, after the wrap
    EXPECT_FALSE(eq.tryBypass(4200));
    EXPECT_FALSE(eq.tryBypass(4100));
    EXPECT_TRUE(eq.tryBypass(4099));
}

TEST(EventQueueDue, UndrainedCurrentTickRefuses)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.schedule(5, [] {});
    ASSERT_TRUE(eq.step()); // one of the two tick-5 events left
    EXPECT_FALSE(eq.tryBypass(5));
    EXPECT_FALSE(eq.tryBypass(6));
}

TEST(EventQueueDue, StaleOccupancyBitOnCurrentBucketIsIgnored)
{
    EventQueue eq;
    Firings out;
    eq.schedule(5, [] {});
    at(eq, out, 5 + kWheel - 1, 0); // bucket 4: one behind bucket 5
    ASSERT_TRUE(eq.step());
    // Bucket 5 is drained but its bit stays set until it retires; the
    // range (5, 5 + kWheel - 2] wraps around every other bucket but 4.
    EXPECT_FALSE(eq.tryBypass(5 + kWheel - 1));
    EXPECT_TRUE(eq.tryBypass(5 + kWheel - 2));
    eq.run();
    EXPECT_EQ(out, (Firings{{5 + kWheel - 1, 0}}));
}

TEST(EventQueueDue, NeverScheduledQueueAlwaysBypasses)
{
    // The lane driver's use: the queue only keeps the clock.
    EventQueue eq;
    EXPECT_TRUE(eq.tryBypass(7));
    EXPECT_TRUE(eq.tryBypass(7 + 5 * kWheel));
    EXPECT_FALSE(eq.tryBypass(6));
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDue, MatchesEarliestPendingTickOnRandomSchedules)
{
    std::mt19937_64 rng(12345);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        std::vector<Tick> pending; // ticks of scheduled, unfired events
        for (int op = 0; op < 2000; ++op) {
            const Tick now = eq.curTick();
            const unsigned pick = rng() % 8;
            if (pick < 3) {
                const Tick d = rng() % 2 ? rng() % 300 : rng() % 9000;
                const Tick when = now + d;
                eq.schedule(when, [&pending, &eq] {
                    auto it = std::find(pending.begin(), pending.end(),
                                        eq.curTick());
                    ASSERT_NE(it, pending.end());
                    pending.erase(it);
                });
                pending.push_back(when);
            } else if (pick < 5) {
                eq.step();
            } else {
                const Tick wake =
                    now + (rng() % 2 ? rng() % 200 : rng() % 10000);
                const bool due =
                    !pending.empty() &&
                    *std::min_element(pending.begin(),
                                      pending.end()) <= wake;
                ASSERT_EQ(eq.tryBypass(wake), !due)
                    << "round " << round << " op " << op << " now "
                    << now << " wake " << wake;
                EXPECT_EQ(eq.curTick(), due ? now : wake);
            }
        }
        eq.run();
        EXPECT_TRUE(pending.empty());
    }
}

} // namespace
} // namespace hmtx::sim
