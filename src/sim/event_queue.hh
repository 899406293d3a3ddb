/**
 * @file
 * Discrete-event simulation kernel.
 */

#ifndef HMTX_SIM_EVENT_QUEUE_HH
#define HMTX_SIM_EVENT_QUEUE_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
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
 * due check behind tryBypass() reads only the top. Events are
 * trivially copyable records; the queue keeps general callbacks in a
 * side table the records index into.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    // Pending events name coroutine frames and callers keep the
    // queue's address (CacheSystem, MemOp): a copy would fire both.
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;
    EventQueue(EventQueue&&) = default;
    EventQueue& operator=(EventQueue&&) = default;

    /** Current simulated time. */
    Tick curTick() const { return now_; }

    /** True when no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /** Total events ever executed. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedules @p cb to run at absolute tick @p when.
     * @pre when >= curTick()
     */
    void
    schedule(Tick when, Callback cb)
    {
        std::uint64_t box;
        if (freeBoxes_.empty()) {
            box = boxes_.size();
            boxes_.push_back(std::move(cb));
        } else {
            box = freeBoxes_.back();
            freeBoxes_.pop_back();
            boxes_[box] = std::move(cb);
        }
        push(when, {}, box);
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
        push(when, h, 0);
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
        if (size_ == 0)
            return false;
        // Read the top out first, field by field: the callback may
        // push and reallocate the heap, and the top (like the last
        // event) was often written by the push just before.
        const Tick when = heap_[0].when;
        const std::coroutine_handle<> h = heap_[0].h;
        const std::uint64_t box = heap_[0].box;
        if (--size_ != 0) {
            const Event& last = heap_[size_];
            siftDown(last.when, last.seq, last.h, last.box);
        }
        now_ = when;
        ++executed_;
        if (h) {
            dispatching_ = true;
            h.resume();
            dispatching_ = false;
        } else {
            // Take the callback out of its box for the same reason.
            Callback cb = std::exchange(boxes_[box], nullptr);
            freeBoxes_.push_back(box);
            cb();
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
     * them (a coroutine waiting on one is not resumed or destroyed;
     * a callback is destroyed). The heap keeps its capacity. Must not
     * be called from inside step().
     */
    void
    reset()
    {
        size_ = 0;
        boxes_.clear();
        freeBoxes_.clear();
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
    // magnitude, so the Event is a small trivially copyable record:
    // the handle is stored inline and the occasional general callback
    // sits in boxes_. push() writes a new event once, at its final
    // slot, and step() reads the top and the last event field by
    // field: both were often written just before, and a wide load of
    // narrower recent stores stalls the host (DESIGN.md §13).
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::coroutine_handle<> h; // set → resume directly
        // Otherwise boxes_[box] runs. Full width, so the record has no
        // tail padding and the compiler copies it as two aligned
        // halves rather than two overlapping ones.
        std::uint64_t box;
    };
    static_assert(std::is_trivially_copyable_v<Event>);

    /** True when key (@p w1, @p s1) fires before key (@p w2, @p s2). */
    static bool
    before(Tick w1, std::uint64_t s1, Tick w2, std::uint64_t s2)
    {
        return w1 != w2 ? w1 < w2 : s1 < s2;
    }

    /** True when some pending event is due at or before @p t. */
    bool
    dueBy(Tick t) const
    {
        return size_ != 0 && heap_[0].when <= t;
    }

    void
    push(Tick when, std::coroutine_handle<> h, std::uint64_t box)
    {
        // Tolerate (documented-illegal) past ticks by firing asap
        // instead of out of time order.
        if (when < now_)
            when = now_;
        const std::uint64_t seq = seq_++;
        if (size_ == heap_.size())
            heap_.resize(heap_.empty() ? 1 : 2 * heap_.size());
        // Sift a hole up from the end on the scalar key, then write
        // the event once, at the hole's final slot.
        std::size_t i = size_++;
        while (i != 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(when, seq, heap_[parent].when, heap_[parent].seq))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = Event{when, seq, h, box};
    }

    /** Refills the hole step() left at the root with the event that
     *  sat in the slot past the shrunk heap's end, passed as scalars. */
    void
    siftDown(Tick when, std::uint64_t seq, std::coroutine_handle<> h,
             std::uint64_t box)
    {
        std::size_t i = 0;
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= size_)
                break;
            if (child + 1 < size_ &&
                before(heap_[child + 1].when, heap_[child + 1].seq,
                       heap_[child].when, heap_[child].seq))
                ++child;
            if (!before(heap_[child].when, heap_[child].seq, when, seq))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = Event{when, seq, h, box};
    }

    /** Pending events, a min-heap on (when, seq) in heap_[0, size_);
     *  the slots past size_ are spare capacity. */
    std::vector<Event> heap_;
    std::size_t size_ = 0;
    /** Callbacks of pending callback events; freeBoxes_ lists the
     *  empty slots. */
    std::vector<Callback> boxes_;
    std::vector<std::uint64_t> freeBoxes_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool dispatching_ = false;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_EVENT_QUEUE_HH
