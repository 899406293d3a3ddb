/**
 * @file
 * Abstract memory interface workloads are written against, so the same
 * workload code runs under HMTX (speculative, versioned accesses) and
 * under the SMTX baseline (non-speculative accesses plus software
 * logging/forwarding costs).
 */

#ifndef HMTX_RUNTIME_MEMIF_HH
#define HMTX_RUNTIME_MEMIF_HH

#include <coroutine>
#include <cstdint>
#include <utility>

#include "core/types.hh"
#include "runtime/thread_context.hh"
#include "sim/task.hh"

namespace hmtx::runtime
{

/**
 * The one awaitable every MemIf operation returns. A plain access is
 * the ThreadContext's OpAwait itself, so it costs no coroutine frame
 * and, when nothing else is due, no event (DESIGN.md §13). An access
 * that an execution model surrounds with simulated work of its own
 * (SMTX barriers and logging) carries that work as a Task instead.
 *
 * Either way the operation's effect and its abort belong to the
 * `co_await`: write `co_await mem.op(...)` at the call site, as every
 * workload does. The awaited value is the loaded word, the stored
 * word, or the branch outcome (1 taken, 0 not taken).
 */
class MemOp
{
  public:
    MemOp(OpAwait op) : op_(op) {}
    MemOp(sim::Task<std::uint64_t> t)
        : task_(std::move(t)), wrapped_(true)
    {}

    bool await_ready() const { return !wrapped_ && op_.await_ready(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> h)
    {
        if (wrapped_)
            return task_.await_suspend(h);
        op_.await_suspend(h);
        return std::noop_coroutine();
    }

    std::uint64_t
    await_resume()
    {
        return wrapped_ ? task_.await_resume() : op_.await_resume();
    }

  private:
    OpAwait op_;
    sim::Task<std::uint64_t> task_;
    bool wrapped_ = false;
};

/**
 * Memory operations as seen by workload code. Implementations route
 * them to the simulated core with whatever extra behaviour the
 * execution model requires (HMTX: nothing, the hardware does the
 * validation; SMTX: per-access logging and forwarding). Each returns a
 * MemOp to `co_await` on the spot; a plain pass-through hands back the
 * core's own awaitable and allocates nothing.
 */
class MemIf
{
  public:
    virtual ~MemIf() = default;

    /** Loads @p size bytes at @p a. */
    virtual MemOp load(Addr a, unsigned size = 8) = 0;

    /** Stores @p size bytes of @p v at @p a. */
    virtual MemOp store(Addr a, std::uint64_t v, unsigned size = 8) = 0;

    /** Models @p c cycles of computation. */
    virtual MemOp compute(Cycles c) = 0;

    /**
     * Models a conditional branch and yields @p taken so workloads
     * can branch on data they just computed.
     */
    virtual MemOp branch(Addr pc, bool taken) = 0;
};

/**
 * Straight pass-through to the thread context, used by sequential
 * execution and by all HMTX paradigms (the transaction VID is already
 * set in the context's VID register by the executor).
 */
class DirectMem final : public MemIf
{
  public:
    explicit DirectMem(ThreadContext& tc) : tc_(tc) {}

    MemOp
    load(Addr a, unsigned size = 8) override
    {
        return tc_.load(a, size);
    }

    MemOp
    store(Addr a, std::uint64_t v, unsigned size = 8) override
    {
        return tc_.store(a, v, size);
    }

    MemOp compute(Cycles c) override { return tc_.compute(c); }

    MemOp
    branch(Addr pc, bool taken) override
    {
        return tc_.branch(pc, taken);
    }

  private:
    ThreadContext& tc_;
};

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_MEMIF_HH
