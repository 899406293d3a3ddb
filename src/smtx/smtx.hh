/**
 * @file
 * Software multithreaded transactions (SMTX) baseline, modeling the
 * system of Raman et al. [29] that the paper compares against (§2.3,
 * §6): pipeline workers log speculative accesses and forward
 * uncommitted values through software queues to a commit process that
 * occupies a dedicated core and validates/applies everything in
 * program order.
 *
 * Substitution note (see DESIGN.md): the real SMTX isolates workers in
 * forked copy-on-write processes. Here workers share the simulated
 * memory directly — benchmark runs are abort-free (only
 * high-confidence speculation, §6.3), so values are identical — while
 * the *costs* that make SMTX slow are modeled faithfully: one queue
 * record per validated access, one forward per speculative store, a
 * commit process that re-touches every logged location, and the loss
 * of one core to that process.
 */

#ifndef HMTX_SMTX_SMTX_HH
#define HMTX_SMTX_SMTX_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "runtime/executors.hh"
#include "runtime/memif.hh"
#include "runtime/queue.hh"
#include "runtime/workload.hh"

namespace hmtx::smtx
{

/** How much speculation validation the SMTX version performs (§6.1). */
enum class RwSetMode
{
    /** Expert-minimized read/write sets: only the accesses the
     *  workload declares via minRwSetPerIter() are logged. */
    Minimal,
    /** Every load and store inside the transaction is logged — the
     *  maximal validation the HMTX runs perform. */
    Maximal,
};

/** One logged speculative access, carried host-side alongside the
 *  simulated queue traffic. */
struct SmtxRecord
{
    Addr addr = 0;
    std::uint64_t value = 0;
    bool isStore = false;
    bool endOfIter = false;
};

/**
 * The SMTX runtime: per-producer commit queues, per-worker forwarding
 * queues, and the commit process loop.
 */
class SmtxRuntime
{
  public:
    /**
     * @param m        machine (HMTX extensions disabled)
     * @param workers  replicated worker count
     * @param mode     validation mode
     */
    SmtxRuntime(runtime::Machine& m, unsigned workers, RwSetMode mode);

    RwSetMode mode() const { return mode_; }

    /**
     * Logs one speculative access from producer @p p (0 = stage 1,
     * 1 + w = worker w): a queue push to the commit process plus a few
     * bookkeeping cycles.
     */
    sim::Task<void> log(runtime::ThreadContext& tc, unsigned p,
                        Addr a, std::uint64_t v, bool isStore);

    /** Forwards an uncommitted store to worker @p w's version queue. */
    sim::Task<void> forward(runtime::ThreadContext& tc, unsigned w,
                            Addr a, std::uint64_t v);

    /** Consumes @p count forwarded values on worker @p w, installing
     *  each into the software version buffer. */
    sim::Task<void> consumeForwards(runtime::ThreadContext& tc,
                                    unsigned w, std::uint64_t count);

    /** Marks the end of producer @p p's part of iteration. */
    sim::Task<void> endIter(runtime::ThreadContext& tc, unsigned p);

    /**
     * The commit process (§2.3): drains, in original iteration order,
     * stage 1's records and then the owning worker's records for each
     * iteration, re-touching each location to validate and apply.
     *
     * @param pipeline true for DSWP-style runs (stage 1 + workers);
     *                 false for DOALL runs (workers only)
     */
    sim::Task<void> commitProcess(runtime::ThreadContext& tc,
                                  std::uint64_t iterations,
                                  bool pipeline);

    /**
     * Seeds the commit process's memory image with a snapshot of the
     * committed state (the fork point of real SMTX). Call after
     * workload setup, before execution.
     */
    void snapshotCommitImage();

    /**
     * Value-based misspeculation checks that failed at the commit
     * process: a logged load whose value differs from the committed
     * image at its point in program order (§2.3). Zero on every
     * abort-free run.
     */
    std::uint64_t misspeculations() const { return misspecs_; }

    /** Total records pushed through the commit queues. */
    std::uint64_t records() const { return records_; }

    /** Total uncommitted values forwarded between stages. */
    std::uint64_t forwards() const { return forwards_; }

  private:
    sim::Task<SmtxRecord> pop(runtime::ThreadContext& tc, unsigned p);

    runtime::Machine& m_;
    unsigned workers_;
    RwSetMode mode_;
    /** commitQs_[0] = stage 1, commitQs_[1 + w] = worker w. */
    std::vector<std::unique_ptr<runtime::SimQueue>> commitQs_;
    std::vector<std::deque<SmtxRecord>> sideData_;
    std::vector<std::unique_ptr<runtime::SimQueue>> forwardQs_;
    std::uint64_t records_ = 0;
    std::uint64_t forwards_ = 0;
    std::uint64_t misspecs_ = 0;
};

/**
 * MemIf that performs every access non-speculatively and layers the
 * SMTX validation costs on top per the runtime's mode.
 */
class SmtxMem final : public runtime::MemIf
{
  public:
    /**
     * @param tc       executing thread context
     * @param rt       SMTX runtime
     * @param producer commit-queue producer index (0 = stage 1)
     * @param pendingForwards where stage 1 collects store addresses to
     *        forward to its worker after its part of the iteration
     *        (batched so the consumer can drain concurrently);
     *        nullptr for workers
     */
    SmtxMem(runtime::ThreadContext& tc, SmtxRuntime& rt,
            unsigned producer, std::vector<Addr>* pendingForwards)
        : tc_(tc), rt_(rt), producer_(producer),
          pendingForwards_(pendingForwards)
    {}

    runtime::MemOp load(Addr a, unsigned size = 8) override;
    runtime::MemOp store(Addr a, std::uint64_t v,
                         unsigned size = 8) override;
    runtime::MemOp compute(Cycles c) override;
    runtime::MemOp branch(Addr pc, bool taken) override;

  private:
    /** The access inside its STM barrier, logged in Maximal mode. */
    sim::Task<std::uint64_t> barrierLoad(Addr a, unsigned size);
    sim::Task<std::uint64_t> barrierStore(Addr a, std::uint64_t v,
                                          unsigned size);

    runtime::ThreadContext& tc_;
    SmtxRuntime& rt_;
    unsigned producer_;
    std::vector<Addr>* pendingForwards_;
};

/** Drives a workload under SMTX. */
class SmtxRunner
{
  public:
    /**
     * Runs the workload's paradigm under SMTX on @p cfg's cores: the
     * commit process takes the last core; DSWP paradigms place stage 1
     * on core 0 and workers in between; DOALL uses all remaining cores
     * as workers.
     */
    static runtime::ExecResult run(runtime::LoopWorkload& wl,
                                   const sim::MachineConfig& cfg,
                                   RwSetMode mode);
};

} // namespace hmtx::smtx

#endif // HMTX_SMTX_SMTX_HH
