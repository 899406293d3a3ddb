/**
 * @file
 * Tests of the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <coroutine>
#include <exception>
#include <map>
#include <memory>
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
// Each case below runs on a fresh queue and on one that already
// scheduled and drained an event at tick 0 (its heap storage
// allocated, now empty). Both must behave identically.

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
        at(eq, out, 100 + 4095, 3); // just under kSpan ahead
        at(eq, out, 100 + 4096, 4); // exactly kSpan ahead
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
        // Only events at least kSpan ahead, one of them scheduling
        // at its own tick.
        eq.schedule(5000, [&eq, &out] {
            out.emplace_back(eq.curTick(), 0);
            at(eq, out, 5000, 2); // delay 0, after #1 (scheduled earlier)
            at(eq, out, 5100, 3);
        });
        at(eq, out, 5000, 1);
        at(eq, out, 4096, 4); // exactly kSpan ahead
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
        at(eq, out, 5000, 0); // >= kSpan ahead
        at(eq, out, 10, 1);
        at(eq, out, 5000, 2); // >= kSpan ahead, after #0
        eq.schedule(1000, [&eq, &out] {
            out.emplace_back(eq.curTick(), 3);
            at(eq, out, 5000, 4); // now < kSpan ahead
        });
        at(eq, out, 9000, 5); // >= kSpan ahead
        eq.run();
        return out;
    });
    // #4 was scheduled after #0/#2 from much closer, and still fires
    // after them: same-tick order is schedule order, whatever the
    // distance each event was scheduled from.
    EXPECT_EQ(f, (Firings{{10, 1}, {1000, 3}, {5000, 0}, {5000, 2},
                          {5000, 4}, {9000, 5}}));
}

// --- the due check behind tryBypass() -------------------------------
//
// A bypass to `wake` is refused exactly when some pending event is due
// at or before `wake`: one still at the current tick, one in
// (now, wake], or one scheduled from kSpan or more ticks away.

/** The distance, in ticks, that the cases schedule around. */
constexpr Tick kSpan = 4096;

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
    eq.schedule(500, [] {}); // inside the range [1, 1000]
    EXPECT_FALSE(eq.tryBypass(1000));
    EXPECT_TRUE(eq.tryBypass(499));
    EXPECT_FALSE(eq.tryBypass(500));
}

TEST(EventQueueDue, WakeAtLeastAWheelAhead)
{
    EventQueue eq;
    eq.schedule(kSpan - 1, [] {}); // just under kSpan ahead
    EXPECT_FALSE(eq.tryBypass(kSpan + 5));
    EXPECT_FALSE(eq.tryBypass(kSpan - 1));
    EXPECT_TRUE(eq.tryBypass(kSpan - 2));
    eq.run();
    EXPECT_EQ(eq.curTick(), kSpan - 1);
    // Nothing pending: any distance is fine.
    EXPECT_TRUE(eq.tryBypass(eq.curTick() + 3 * kSpan));
}

TEST(EventQueueDue, FarHeapEventAtOrBeforeWakeRefuses)
{
    EventQueue eq;
    Firings out;
    at(eq, out, kSpan + 904, 0); // more than kSpan ahead
    EXPECT_FALSE(eq.tryBypass(kSpan + 904));
    EXPECT_FALSE(eq.tryBypass(2 * kSpan));
    EXPECT_TRUE(eq.tryBypass(kSpan + 903));
    eq.run();
    EXPECT_EQ(out, (Firings{{kSpan + 904, 0}}));
}

TEST(EventQueueDue, RangeWrappingPastTheWheelEnd)
{
    EventQueue eq;
    EXPECT_TRUE(eq.tryBypass(4000));
    eq.schedule(4100, [] {}); // 4100 mod kSpan = 4: wraps a span
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
    at(eq, out, 5 + kSpan - 1, 0); // 4 mod kSpan: one behind 5
    ASSERT_TRUE(eq.step());
    // Tick 5 is drained; the range (5, 5 + kSpan - 2] covers every
    // tick mod kSpan but 4 and the current 5.
    EXPECT_FALSE(eq.tryBypass(5 + kSpan - 1));
    EXPECT_TRUE(eq.tryBypass(5 + kSpan - 2));
    eq.run();
    EXPECT_EQ(out, (Firings{{5 + kSpan - 1, 0}}));
}

TEST(EventQueueDue, NeverScheduledQueueAlwaysBypasses)
{
    // The lane driver's use: the queue only keeps the clock.
    EventQueue eq;
    EXPECT_TRUE(eq.tryBypass(7));
    EXPECT_TRUE(eq.tryBypass(7 + 5 * kSpan));
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

TEST(EventQueue, ScheduleAtTheTickRunUntilIdledTo)
{
    // runUntil() moves an empty queue's clock past the tick its last
    // event fired at; an event then scheduled at the new tick is due
    // there and fires there.
    EventQueue eq;
    Firings out;
    at(eq, out, 5, 0);
    ASSERT_TRUE(eq.step());
    eq.runUntil(10);
    EXPECT_EQ(eq.curTick(), 10u);
    at(eq, out, 10, 1);
    EXPECT_FALSE(eq.tryBypass(10));
    eq.run();
    EXPECT_EQ(out, (Firings{{5, 0}, {10, 1}}));
    EXPECT_EQ(eq.executed(), 2u);
}

// --- firing order against a reference ------------------------------
//
// Random mixes of coroutine and callback events, fired by step() and
// run(), with tryBypass() probes in between. A
// std::map keyed by (tick, schedule order) is the reference: every
// event must fire at the first key's tick with the first key's id.

/** A coroutine that suspends once, then records its firing. */
struct FireOnce
{
    struct promise_type
    {
        FireOnce
        get_return_object()
        {
            return {std::coroutine_handle<promise_type>::from_promise(
                *this)};
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    std::coroutine_handle<promise_type> h;
};

/** Drives one queue and its reference through a random schedule. */
class ReferenceRun
{
  public:
    explicit ReferenceRun(std::uint64_t seed) : rng_(seed) {}

    ~ReferenceRun()
    {
        for (std::coroutine_handle<> h : frames_)
            h.destroy();
    }

    /**
     * Schedules one event: at the current tick, up to 3 * kSpan
     * ahead, or at a tick already past (which push() clamps to now).
     */
    void
    scheduleRandom()
    {
        const Tick now = eq_.curTick();
        Tick when = now;
        switch (rng_() % 4) {
        case 0: break; // delay 0
        case 1: when = now + 1 + rng_() % 64; break;
        case 2: when = now + rng_() % (3 * kSpan + 1); break;
        default: when = now - rng_() % (now + 1); break; // past
        }
        const int id = nextId_++;
        ref_.emplace(std::pair{std::max(when, now), seq_++}, id);
        if (rng_() % 2) {
            FireOnce c = fire(id);
            frames_.push_back(c.h);
            eq_.scheduleResume(when, c.h);
        } else {
            eq_.schedule(when, [this, id] {
                record(id);
                // 0, 0, 1 or 2 children: the event tree stays finite.
                for (unsigned n = rng_() % 4; n > 1; --n)
                    scheduleRandom();
            });
        }
    }

    /** One random operation: schedule, step or a bypass probe. */
    void
    op()
    {
        const Tick now = eq_.curTick();
        switch (rng_() % 6) {
        case 0:
        case 1: scheduleRandom(); break;
        case 2:
        case 3: EXPECT_EQ(eq_.step(), !ref_.empty()); break;
        default: {
            // Mostly ahead, sometimes up to two ticks in the past.
            const Tick back = std::min<Tick>(now, rng_() % 3);
            const Tick ahead =
                rng_() % 2 ? rng_() % 100 : rng_() % (3 * kSpan);
            const Tick wake = now - back + ahead;
            const bool ok = wake >= now &&
                (ref_.empty() || ref_.begin()->first.first > wake);
            EXPECT_EQ(eq_.tryBypass(wake), ok) << "now " << now
                                               << " wake " << wake;
            EXPECT_EQ(eq_.curTick(), ok ? wake : now);
            break;
        }
        }
        EXPECT_EQ(eq_.pending(), ref_.size());
    }

    /** Drains the queue; @return (fired, expected) firings. */
    std::pair<Firings, Firings>
    finish()
    {
        eq_.run();
        EXPECT_TRUE(ref_.empty());
        EXPECT_EQ(eq_.executed(), got_.size());
        return {got_, want_};
    }

  private:
    FireOnce
    fire(int id)
    {
        record(id);
        co_return;
    }

    void
    record(int id)
    {
        ASSERT_FALSE(ref_.empty()) << "event " << id << " fired twice";
        want_.emplace_back(ref_.begin()->first.first,
                           ref_.begin()->second);
        ref_.erase(ref_.begin());
        got_.emplace_back(eq_.curTick(), id);
    }

    EventQueue eq_;
    std::mt19937_64 rng_;
    /** (tick after the clamp, schedule order) -> event id. */
    std::map<std::pair<Tick, std::uint64_t>, int> ref_;
    std::uint64_t seq_ = 0;
    int nextId_ = 0;
    Firings got_, want_;
    std::vector<std::coroutine_handle<>> frames_;
};

TEST(EventQueue, FiringOrderMatchesReferenceOnRandomSchedules)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ReferenceRun r(seed);
        for (int i = 0; i < 3000; ++i)
            r.op();
        const auto [got, want] = r.finish();
        EXPECT_EQ(got, want) << "seed " << seed;
        EXPECT_GT(got.size(), 500u) << "seed " << seed;
    }
}

// --- callback ownership ----------------------------------------------
//
// The queue owns every pending callback: reset() and the destructor
// destroy them unrun, with everything they captured. Each test holds a
// shared token the callbacks capture, so a leaked or doubly destroyed
// callback shows in its use count (and to the asan-ubsan preset).

/** A capture too large for std::function's inline storage, so the
 *  callback's state is its own heap allocation. */
using BigCapture = std::array<std::uint64_t, 16>;

TEST(EventQueueOwnership, ResetDestroysPendingCallbacksUnrun)
{
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    int fired = 0;
    eq.schedule(5, [&fired, token] { ++fired; });
    eq.schedule(9, [&fired, token, big = BigCapture{}] {
        fired += 1 + static_cast<int>(big[0]);
    });
    FireOnce waiter = [](int& n) -> FireOnce {
        ++n;
        co_return;
    }(fired);
    eq.scheduleResume(7, waiter.h);
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(token.use_count(), 2);

    eq.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_FALSE(waiter.h.done());

    // The reset queue runs like a fresh one, reusing its storage.
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        eq.schedule(2, [&order, i, token] { order.push_back(i); });
    eq.schedule(1, [&order] { order.push_back(-1); });
    EXPECT_EQ(token.use_count(), 4);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
    EXPECT_EQ(eq.curTick(), 2u);
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(token.use_count(), 1);
    waiter.h.destroy();
}

TEST(EventQueueOwnership, DestroyingAQueueDestroysPendingCallbacks)
{
    auto token = std::make_shared<int>(0);
    int fired = 0;
    {
        EventQueue eq;
        eq.schedule(4, [&fired, token] { ++fired; });
        eq.schedule(6, [&fired, token, big = BigCapture{}] {
            fired += 1 + static_cast<int>(big[0]);
        });
        eq.schedule(3, [&eq, &fired, token] {
            ++fired;
            eq.scheduleIn(10, [&fired, token] { ++fired; });
        });
        ASSERT_TRUE(eq.step()); // tick 3 schedules tick 13
        ASSERT_TRUE(eq.step()); // tick 4
        EXPECT_EQ(fired, 2);
        EXPECT_EQ(eq.pending(), 2u);
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueOwnership, FiredCallbackIsDestroyedOnceItRan)
{
    // A callback (and what it captured) is destroyed as soon as it has
    // run, not when its box is next reused.
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
        eq.scheduleIn(1, [&fired, token] { ++fired; });
        EXPECT_EQ(token.use_count(), 2);
        ASSERT_TRUE(eq.step());
        EXPECT_EQ(token.use_count(), 1);
    }
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.curTick(), 100u);
}

} // namespace
} // namespace hmtx::sim
