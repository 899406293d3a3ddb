/**
 * @file
 * Discrete-event simulation kernel.
 */

#ifndef HMTX_SIM_EVENT_QUEUE_HH
#define HMTX_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
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
 * Storage is one binary heap ordered by (when, seq). The queue is
 * shallow in practice (a Figure 8 pass never has more than four events
 * pending, DESIGN.md §7), so a push or pop is a few compares and the
 * due check behind tryBypass() reads only the top.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick curTick() const { return now_; }

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

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
     * empty, or every pending event lies strictly after @p wake.
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
        if (heap_.empty())
            return false;
        // Move the event out first: the callback may push and
        // reallocate the heap.
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        Event ev = std::move(heap_.back());
        heap_.pop_back();
        now_ = ev.when;
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
     * The heap keeps its capacity. Must not be called from inside
     * step().
     */
    void
    reset()
    {
        heap_.clear();
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
    }

    /**
     * Sets the clock of an idle queue to @p t, earlier or later:
     * CacheSystem::restore() moves a checkpointed system's queue back
     * to the tick it was saved at. Throws std::logic_error while
     * events are pending (they would fire out of order).
     */
    void
    rewind(Tick t)
    {
        if (!empty())
            throw std::logic_error(
                "EventQueue::rewind: events are pending");
        now_ = t;
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
        if (now_ < limit && empty())
            now_ = limit;
    }

  private:
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

    /** True when some pending event is due at or before @p t. */
    bool
    dueBy(Tick t) const
    {
        return !heap_.empty() && heap_.front().when <= t;
    }

    void
    push(Event ev)
    {
        // Tolerate (documented-illegal) past ticks by firing asap
        // instead of out of time order.
        if (ev.when < now_)
            ev.when = now_;
        heap_.push_back(std::move(ev));
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }

    /** Pending events, a min-heap on (when, seq). */
    std::vector<Event> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool dispatching_ = false;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_EVENT_QUEUE_HH
