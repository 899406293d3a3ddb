/**
 * @file
 * Discrete-event simulation kernel.
 */

#ifndef HMTX_SIM_EVENT_QUEUE_HH
#define HMTX_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "core/types.hh"

namespace hmtx::sim
{

/**
 * A deterministic discrete-event queue.
 *
 * Every timed behaviour in the simulator (memory latencies, bus
 * occupancy, core compute delays, coroutine wake-ups) is an event.
 * Events at the same tick fire in schedule order, so a run is fully
 * deterministic for a given workload and seed.
 *
 * Storage is a calendar wheel: events due within the next kWheelTicks
 * cycles go into a per-tick bucket (O(1) push/pop, appends are already
 * in schedule order), and the rare far-future event (saturated-fabric
 * wake-ups, bulk-walk occupancy) waits in an overflow heap until its
 * tick comes up. Firing order is exactly the (when, seq) order the
 * classic binary-heap implementation produced: a bucket that receives
 * migrated overflow events is re-sorted by sequence number before it
 * drains.
 *
 * The wheel's buckets are allocated by the first push(): a queue that
 * only tracks the clock (curTick()/tryBypass(), as the differential
 * cells and kv_serve's direct drive do) never pays for them.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick curTick() const { return now_; }

    /** True when no events are pending. */
    bool empty() const { return pending() == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return wheelCount_ + far_.size(); }

    /** Total events ever executed. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedules @p cb to run at absolute tick @p when.
     * @pre when >= curTick()
     */
    void
    schedule(Tick when, Callback cb)
    {
        push(Event{when, seq_++, {},
                   std::make_unique<Callback>(std::move(cb))});
    }

    /** Schedules @p cb to run @p delay cycles from now. */
    void
    scheduleIn(Cycles delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedules a coroutine resumption at absolute tick @p when.
     * Equivalent to `schedule(when, [h] { h.resume(); })` but stores
     * the handle directly — the dominant event kind (every memory
     * operation wake-up) skips std::function construction entirely.
     */
    void
    scheduleResume(Tick when, std::coroutine_handle<> h)
    {
        push(Event{when, seq_++, h, {}});
    }

    /** Schedules a coroutine resumption @p delay cycles from now. */
    void
    resumeIn(Cycles delay, std::coroutine_handle<> h)
    {
        scheduleResume(now_ + delay, h);
    }

    /**
     * Zero-event time advance (DESIGN.md §13): jump simulated time to
     * @p wake without allocating, scheduling, or executing an event,
     * exactly as if a resumption had been scheduled at @p wake and
     * immediately fired as the sole event of that tick. Legal — and
     * taken — only when nothing else could fire first: the queue is
     * empty, or every pending event lies strictly after @p wake. The
     * target bucket is provably free of pending events in that case
     * (any wheel event aliasing it would itself be pending at or
     * before @p wake), so the jump preserves the wheel invariants.
     * executed() intentionally does not count bypassed wake-ups.
     *
     * The call itself does not know who is asking: a caller that sits
     * inside a larger step (a callback event, a root's start()) must
     * check dispatching() first, or the rest of that step runs at the
     * later tick.
     * @return true when the jump was taken (@p wake is now curTick())
     */
    bool
    tryBypass(Tick wake)
    {
        if (wake < now_ || dueBy(wake))
            return false;
        // Retire the current tick's bucket exactly as advance() does
        // (drainIdx_ != 0 implies the wheel is allocated).
        if (drainIdx_ != 0) {
            wheel_[bucketOf(now_)].clear();
            drainIdx_ = 0;
            const std::size_t bi = bucketOf(now_);
            occ_[bi >> 6] &= ~(std::uint64_t{1} << (bi & 63));
        }
        now_ = wake;
        return true;
    }

    /**
     * Executes the next event, advancing simulated time.
     * @return false if the queue was empty
     */
    bool
    step()
    {
        if (!advance())
            return false;
        auto& b = wheel_[bucketOf(now_)];
        // Move the event out first: the callback may append to this
        // very bucket (delay-0 schedules) and reallocate it.
        Event ev = std::move(b[drainIdx_++]);
        --wheelCount_;
        ++executed_;
        if (ev.h) {
            dispatching_ = true;
            ev.h.resume();
            dispatching_ = false;
        } else {
            (*ev.fn)();
        }
        return true;
    }

    /**
     * True while step() is resuming a coroutine event — the only
     * place where the resumed coroutine is the whole remainder of the
     * step, so a zero-event wake-up (tryBypass()) taken from inside it
     * is exactly the schedule-then-fire it replaces. False during a
     * callback event (its code after the resume would see the jumped
     * tick) and outside the loop (e.g. a root's first slice, run
     * before its siblings exist).
     */
    bool dispatching() const { return dispatching_; }

    /**
     * Returns the queue to its just-constructed state: tick 0, no
     * pending events, sequence and executed counts zero. Pending
     * events are dropped unrun, exactly as destroying the queue drops
     * them (a coroutine waiting on one is not resumed or destroyed).
     * An allocated wheel keeps its buckets and their capacity. Must
     * not be called from inside step().
     */
    void
    reset()
    {
        // Every bucket holding events, pending or drained, has its
        // occupancy bit set: bits clear only when a bucket retires.
        for (std::size_t w = 0; w < occ_.size(); ++w)
            for (std::uint64_t m = occ_[w]; m != 0; m &= m - 1)
                wheel_[(w << 6) | std::size_t(std::countr_zero(m))]
                    .clear();
        occ_.fill(0);
        far_ = {};
        drainIdx_ = 0;
        wheelCount_ = 0;
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
    }

    /** Runs until no events remain. */
    void
    run()
    {
        while (step()) {}
    }

    /** Runs until simulated time would exceed @p limit or queue empties. */
    void
    runUntil(Tick limit)
    {
        while (limit >= now_ && dueBy(limit))
            step();
        if (now_ < limit && pending() == 0)
            now_ = limit;
    }

  private:
    /** Wheel span in ticks; latencies beyond this overflow to the
     *  heap. Must be a power of two. */
    static constexpr std::size_t kWheelTicks = 4096;
    static constexpr std::size_t kMask = kWheelTicks - 1;

    // Coroutine wake-ups are the dominant event kind by orders of
    // magnitude, so the Event is kept small and trivially movable:
    // the handle is stored inline and the occasional general callback
    // is boxed.
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::coroutine_handle<> h;    // set → resume directly
        std::unique_ptr<Callback> fn; // otherwise the boxed callback

        bool
        operator>(const Event& o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    static std::size_t bucketOf(Tick t) { return t & kMask; }

    /**
     * True when some pending event is due at or before @p t. Looks
     * only where such an event can be: the current bucket's undrained
     * tail, the overflow heap's top, and the occupancy words covering
     * buckets (now_, t] — masked word by word, at most
     * (t - now_) / 64 + 2 words, never a scan of the whole wheel.
     * @pre t >= curTick()
     */
    bool
    dueBy(Tick t) const
    {
        if (wheel_.empty())
            return false; // never scheduled: nothing pending
        if (drainIdx_ < wheel_[bucketOf(now_)].size())
            return true;
        if (!far_.empty() && far_.top().when <= t)
            return true;
        if (wheelCount_ == 0)
            return false;
        // Every wheel event lies in (now_, now_ + kWheelTicks) once
        // the current bucket is drained, so a span reaching the end of
        // the window covers them all.
        const Tick span = t - now_;
        if (span >= kWheelTicks - 1)
            return true;
        if (span == 0)
            return false;
        // Buckets now_+1 .. t, wrapping at most once; the current
        // bucket (whose bit may be stale) is never in the range.
        const std::size_t first = bucketOf(now_ + 1);
        const std::size_t last = bucketOf(t);
        return first <= last ? occupied(first, last)
                             : occupied(first, kMask) ||
                occupied(0, last);
    }

    /** True when any bucket in [first, last] has its bit set.
     *  @pre first <= last < kWheelTicks */
    bool
    occupied(std::size_t first, std::size_t last) const
    {
        const std::size_t fw = first >> 6;
        const std::size_t lw = last >> 6;
        const std::uint64_t lo = ~std::uint64_t{0} << (first & 63);
        const std::uint64_t hi = ~std::uint64_t{0} >> (63 - (last & 63));
        if (fw == lw)
            return (occ_[fw] & lo & hi) != 0;
        if ((occ_[fw] & lo) != 0 || (occ_[lw] & hi) != 0)
            return true;
        for (std::size_t w = fw + 1; w < lw; ++w)
            if (occ_[w] != 0)
                return true;
        return false;
    }

    void
    push(Event ev)
    {
        // Tolerate (documented-illegal) past ticks by firing asap
        // instead of corrupting the wheel window.
        if (ev.when < now_)
            ev.when = now_;
        // Allocate on the first push, near or far: a far event later
        // migrates into a bucket.
        if (wheel_.empty()) [[unlikely]]
            wheel_.resize(kWheelTicks);
        if (ev.when - now_ < kWheelTicks) {
            const std::size_t b = bucketOf(ev.when);
            wheel_[b].push_back(std::move(ev));
            occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
            ++wheelCount_;
        } else {
            far_.push(std::move(ev));
        }
    }

    /**
     * Earliest tick with pending wheel events strictly after now_'s
     * bucket, or ~0 when none. The current bucket is excluded on
     * purpose: its occupancy bit may be stale (set while its events
     * have all been drained — the bit is only cleared when the bucket
     * retires), and advance() handles in-flight current-tick events
     * before calling.
     */
    Tick
    nextWheelTick() const
    {
        if (wheelCount_ == 0)
            return ~Tick{0};
        // Circular bitmap scan starting just after now_'s bucket; the
        // k-th bucket after it holds tick now_ + k (wheel events all
        // lie in [now_, now_ + kWheelTicks)).
        const std::size_t start = bucketOf(now_);
        const std::size_t first = (start + 1) & kMask;
        constexpr std::size_t words = kWheelTicks / 64;
        std::size_t w = first >> 6;
        std::uint64_t m = occ_[w] & (~std::uint64_t{0} << (first & 63));
        for (std::size_t n = 0; n <= words; ++n) {
            while (m != 0) {
                const std::size_t b =
                    (w << 6) | std::size_t(std::countr_zero(m));
                const std::size_t k = (b - start) & kMask;
                if (k != 0)
                    return now_ + k;
                m &= m - 1; // stale bit of the drained current bucket
            }
            w = (w + 1) & (words - 1);
            m = occ_[w];
        }
        return ~Tick{0};
    }

    /**
     * Positions now_/drainIdx_ on the next due event: finishes the
     * current tick's bucket, otherwise retires it, advances to the
     * earliest pending tick, and folds due overflow events into that
     * bucket (restoring global (when, seq) order by a seq sort).
     * @return false when nothing is pending
     */
    bool
    advance()
    {
        if (wheel_.empty())
            return false; // never scheduled: nothing pending, drainIdx_ 0
        auto* b = &wheel_[bucketOf(now_)];
        if (drainIdx_ < b->size())
            return true;
        if (drainIdx_ != 0) {
            b->clear();
            drainIdx_ = 0;
            const std::size_t bi = bucketOf(now_);
            occ_[bi >> 6] &= ~(std::uint64_t{1} << (bi & 63));
        }
        const Tick wn = nextWheelTick();
        const Tick fn = far_.empty() ? ~Tick{0} : far_.top().when;
        const Tick t = std::min(wn, fn);
        if (t == ~Tick{0})
            return false;
        now_ = t;
        b = &wheel_[bucketOf(now_)];
        bool migrated = false;
        while (!far_.empty() && far_.top().when == now_) {
            // priority_queue::top is const; the move is safe because
            // pop() only reads the ordering keys, which stay valid.
            b->push_back(std::move(const_cast<Event&>(far_.top())));
            far_.pop();
            ++wheelCount_;
            migrated = true;
        }
        if (migrated) {
            const std::size_t bi = bucketOf(now_);
            occ_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
            std::sort(b->begin(), b->end(),
                      [](const Event& x, const Event& y) {
                          return x.seq < y.seq;
                      });
        }
        return true;
    }

    /** kWheelTicks per-tick buckets; empty until the first push(). */
    std::vector<std::vector<Event>> wheel_;
    /** One occupancy bit per bucket (cleared only on bucket retire). */
    std::array<std::uint64_t, kWheelTicks / 64> occ_{};
    /** Events scheduled >= kWheelTicks ahead wait here. */
    std::priority_queue<Event, std::vector<Event>, std::greater<>> far_;
    /** Next un-fired slot in the current tick's bucket. */
    std::size_t drainIdx_ = 0;
    std::size_t wheelCount_ = 0;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool dispatching_ = false;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_EVENT_QUEUE_HH
