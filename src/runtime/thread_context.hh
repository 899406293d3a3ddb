/**
 * @file
 * Per-core execution context exposing the MTX ISA (§3.1) and timed
 * memory operations to workload coroutines.
 */

#ifndef HMTX_RUNTIME_THREAD_CONTEXT_HH
#define HMTX_RUNTIME_THREAD_CONTEXT_HH

#include <array>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "core/sla.hh"
#include "core/types.hh"
#include "sim/branch_predictor.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace hmtx::runtime
{

class Machine;

/**
 * The one awaitable every timed operation returns, from ThreadContext
 * and from every MemIf (memif.hh).
 *
 * A plain op has already executed at call time; the MemOp carries its
 * outcome and wake tick as scalars, built in place in the awaiting
 * coroutine's frame, so it costs no coroutine frame and no copy. It
 * schedules its wake-up — unless nothing else is due by then
 * (DESIGN.md §13), in which case the coroutine continues inline at
 * the wake tick with zero events. An op that an execution model
 * surrounds with simulated work of its own (SMTX barriers and
 * logging) carries that work as a Task instead.
 *
 * Either way the op's effect and its abort belong to the `co_await`:
 * write `co_await mem.op(...)` at the call site, as every workload
 * does. The awaited value is the loaded word, the stored word, or the
 * branch outcome (1 taken, 0 not taken).
 */
class MemOp
{
  public:
    /** A plain op that wakes at @p wake with @p value, or throws
     *  sim::TxAborted{@p vid} there when @p abort. */
    MemOp(sim::EventQueue& eq, Tick wake, std::uint64_t value, bool abort,
          Vid vid)
        : eq_(&eq), wake_(wake), value_(value), vid_(vid), abort_(abort)
    {}

    /** An op wrapped in simulated work of its own. */
    MemOp(sim::Task<std::uint64_t> t)
        : task_(std::move(t)), wrapped_(true)
    {}

    /**
     * Zero-event wake-up: when nothing else is due by the wake tick,
     * jump the clock there and continue without suspending. Legal only
     * while the event loop is resuming this coroutine
     * (EventQueue::dispatching()), where the rest of the step is this
     * coroutine's own code. An aborted op always takes its event.
     * Deciding here rather than in await_suspend() means a jump never
     * suspends at all, so a long run of jumps cannot nest resumptions
     * on the host stack.
     */
    bool
    await_ready() const
    {
        return !wrapped_ && !abort_ && eq_->dispatching() &&
            eq_->tryBypass(wake_);
    }

    /** Out of line on purpose: inlined, the heap push inside would be
     *  copied into every co_await of every coroutine (≈60 KB more code
     *  in the perfbench driver, and resident pages with it). */
    [[gnu::noinline]] std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> h)
    {
        if (wrapped_)
            return task_.await_suspend(h);
        eq_->scheduleResume(wake_, h);
        return std::noop_coroutine();
    }

    std::uint64_t
    await_resume()
    {
        if (wrapped_)
            return task_.await_resume();
        if (abort_)
            throw sim::TxAborted{vid_};
        return value_;
    }

  private:
    sim::EventQueue* eq_ = nullptr;
    Tick wake_ = 0;
    std::uint64_t value_ = 0;
    sim::Task<std::uint64_t> task_;
    Vid vid_ = kNonSpecVid;
    bool abort_ = false;
    bool wrapped_ = false;
};

/**
 * The software-visible core interface. A ThreadContext models one
 * hardware thread: it holds the per-thread VID register that
 * beginMTX(vid) sets (§3.1), the SLA buffer (§5.1), a branch unit that
 * injects wrong-path loads on mispredictions, and simple in-order
 * timing (1 cycle issue + memory latency).
 *
 * Every operation throws sim::TxAborted when the surrounding MTX was
 * aborted — the analog of the hardware vectoring the thread to the
 * recovery address registered with initMTX(pc). Executors catch it at
 * the stage root and run recovery.
 */
class ThreadContext
{
  public:
    ThreadContext(Machine& m, CoreId core);

    CoreId core() const { return core_; }

    /** Current VID register value (0 = non-speculative). */
    Vid vid() const { return vid_; }

    /**
     * beginMTX(vid): all following memory operations carry @p vid.
     * beginMTX(0) returns to non-speculative execution without
     * committing (§3.1). Takes one cycle, modeled in the next await.
     */
    void beginMtx(Vid vid);

    /**
     * commitMTX(vid): atomically group-commits the transaction across
     * all caches (§4.4) and returns to non-speculative execution.
     * Throws sim::TxAborted if the transaction was already aborted.
     */
    MemOp commitMtx(Vid vid);

    /**
     * abortMTX: software-detected misspeculation (e.g. control-flow
     * speculation checked in a late pipeline stage, Figure 3). Flushes
     * all transactional state.
     */
    void abortMtx();

    /** Timed load of @p size bytes. */
    MemOp load(Addr a, unsigned size = 8);

    /** Timed store of @p size bytes. */
    MemOp store(Addr a, std::uint64_t v, unsigned size = 8);

    /** Models @p c cycles of pure computation. */
    MemOp compute(Cycles c);

    /**
     * Models a conditional branch at @p pc with outcome @p taken.
     * Consults the gshare predictor; a misprediction costs the refill
     * penalty and injects wrong-path loads (§5.1). The awaited value
     * is @p taken (so workloads can use it directly).
     */
    MemOp branch(Addr pc, bool taken);

    /** Dynamic instructions issued by this context. */
    std::uint64_t instructions() const { return insts_; }

    /** Branch unit of this core. */
    const sim::BranchPredictor& predictor() const { return bp_; }

    /** SLA buffer of this core. */
    const SlaUnit& slaUnit() const { return sla_; }

  private:
    bool abortedSinceBegin() const;
    MemOp abortedOp();
    void noteAddr(Addr a);

    Machine& m_;
    CoreId core_;
    Vid vid_ = kNonSpecVid;
    std::uint64_t abortGenSeen_ = 0;
    std::uint64_t insts_ = 0;
    sim::BranchPredictor bp_;
    SlaUnit sla_;
    sim::Rng rng_;
    std::array<Addr, 8> recent_{};
    unsigned recentCount_ = 0;
};

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_THREAD_CONTEXT_HH
