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
 * Awaitable returned by every timed ThreadContext operation. It carries
 * the already-computed outcome (the operation executed at call time)
 * and schedules its wake-up — unless nothing else is due by then
 * (DESIGN.md §13), in which case the coroutine continues inline at
 * `wake` with zero events.
 */
struct OpAwait
{
    sim::EventQueue* eq = nullptr;
    Tick wake = 0;
    std::uint64_t value = 0;
    bool abort = false;
    Vid vid = 0;

    /**
     * Zero-event wake-up: when nothing else is due by `wake`, jump the
     * clock there and continue without suspending. Legal only while
     * the event loop is resuming this coroutine
     * (EventQueue::dispatching()), where the rest of the step is this
     * coroutine's own code. An aborted op always takes its event.
     * Deciding here rather than in await_suspend() means a jump never
     * suspends at all, so a long run of jumps cannot nest resumptions
     * on the host stack.
     */
    bool
    await_ready() const
    {
        return !abort && eq->dispatching() && eq->tryBypass(wake);
    }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eq->scheduleResume(wake, h);
    }

    std::uint64_t
    await_resume() const
    {
        if (abort)
            throw sim::TxAborted{vid};
        return value;
    }
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
    OpAwait commitMtx(Vid vid);

    /**
     * abortMTX: software-detected misspeculation (e.g. control-flow
     * speculation checked in a late pipeline stage, Figure 3). Flushes
     * all transactional state.
     */
    void abortMtx();

    /** Timed load of @p size bytes. */
    OpAwait load(Addr a, unsigned size = 8);

    /** Timed store of @p size bytes. */
    OpAwait store(Addr a, std::uint64_t v, unsigned size = 8);

    /** Models @p c cycles of pure computation. */
    OpAwait compute(Cycles c);

    /**
     * Models a conditional branch at @p pc with outcome @p taken.
     * Consults the gshare predictor; a misprediction costs the refill
     * penalty and injects wrong-path loads (§5.1). The awaited value
     * is @p taken (so workloads can use it directly).
     */
    OpAwait branch(Addr pc, bool taken);

    /** Dynamic instructions issued by this context. */
    std::uint64_t instructions() const { return insts_; }

    /** Branch unit of this core. */
    const sim::BranchPredictor& predictor() const { return bp_; }

    /** SLA buffer of this core. */
    const SlaUnit& slaUnit() const { return sla_; }

  private:
    bool abortedSinceBegin() const;
    OpAwait abortedOp();
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
