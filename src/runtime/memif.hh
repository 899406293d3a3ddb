/**
 * @file
 * Abstract memory interface workloads are written against, so the same
 * workload code runs under HMTX (speculative, versioned accesses) and
 * under the SMTX baseline (non-speculative accesses plus software
 * logging/forwarding costs).
 */

#ifndef HMTX_RUNTIME_MEMIF_HH
#define HMTX_RUNTIME_MEMIF_HH

#include <cstdint>

#include "core/types.hh"
#include "runtime/thread_context.hh"

namespace hmtx::runtime
{

/**
 * Memory operations as seen by workload code. Implementations route
 * them to the simulated core with whatever extra behaviour the
 * execution model requires (HMTX: nothing, the hardware does the
 * validation; SMTX: per-access logging and forwarding). Each returns a
 * MemOp (thread_context.hh) to `co_await` on the spot; a plain
 * pass-through hands back the core's own MemOp, built in place, and
 * allocates nothing.
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
