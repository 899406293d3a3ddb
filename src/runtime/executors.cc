#include "runtime/executors.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/queue.hh"
#include "runtime/thread_context.hh"
#include "runtime/tx_output.hh"

namespace hmtx::runtime
{

// --- VidCoordinator -----------------------------------------------------

VidCoordinator::VidCoordinator(Machine& m, const bool* recovering)
    : m_(m), recovering_(recovering),
      maxVid_(m.config().maxVid()), sig_(m.eq())
{}

sim::Task<Vid>
VidCoordinator::beginIter(ThreadContext& tc, std::uint64_t iter)
{
    // A thread must never enter a fresh transaction while recovery is
    // pending: it would race the replay of its own iteration.
    if (recovering_ && *recovering_)
        throw sim::TxAborted{};
    const std::uint64_t e = iter / maxVid_;
    const Vid v = vidOf(iter);
    const Tick t0 = m_.now();
    while (epoch_ != e) {
        // The window is exhausted: new transactions wait until the
        // one with the maximum VID commits and the reset runs (§4.6).
        co_await sig_.wait();
        if (recovering_ && *recovering_)
            throw sim::TxAborted{};
    }
    stall_ += m_.now() - t0;
    tc.beginMtx(v);
    co_return v;
}

sim::Task<void>
VidCoordinator::commitIter(ThreadContext& tc, std::uint64_t iter)
{
    const std::uint64_t e = iter / maxVid_;
    const Vid v = vidOf(iter);
    // The fallback lock holder must commit before joining recovery:
    // its serialized stores already reached committed memory, so
    // unwinding here would re-execute them on replay. It is VID
    // LC+1 by construction, so it never waits in the loop below and
    // recovery completes right after it commits and releases the lock.
    if (recovering_ && *recovering_ &&
        !m_.sys().txPolicy().serializes(v)) {
        throw sim::TxAborted{};
    }
    while (epoch_ != e || m_.sys().lcVid() != v - 1) {
        // Commits must occur consecutively (§4.7): wait for our turn.
        co_await sig_.wait();
        if (recovering_ && *recovering_ &&
            !m_.sys().txPolicy().serializes(v)) {
            throw sim::TxAborted{};
        }
    }
    co_await tc.commitMtx(v);
    ++committed_;
    if (v == maxVid_) {
        // Every VID of the window has committed; reset (§4.6).
        m_.sys().vidReset();
        ++epoch_;
        ++resets_;
    }
    sig_.notifyAll();
}

void
VidCoordinator::rollbackToCommitted()
{
    epoch_ = committed_ / maxVid_;
    sig_.notifyAll();
}

// --- shared pipeline/DOALL plumbing ---------------------------------------

namespace
{

constexpr std::uint64_t kDoneToken = ~std::uint64_t{0};

/** State shared by the tasks of one parallel run. */
struct Shared final : LoopTasks
{
    Shared(LoopWorkload& w, Machine& mach, unsigned tasks,
           std::string model)
        : LoopTasks(std::move(model)), wl(w), m(mach),
          coord(mach, &recovering), nTasks(tasks), barrier(mach.eq()),
          doneSig(mach.eq()), txOut(w.txOutput())
    {}

    LoopWorkload& wl;
    Machine& m;
    VidCoordinator coord;
    std::vector<std::unique_ptr<SimQueue>> queues;

    unsigned nTasks;
    bool recovering = false;
    unsigned atBarrier = 0;
    std::uint64_t restartIter = 0;
    bool done = false;
    std::uint64_t abortsRecovered = 0;
    Signal barrier;
    Signal doneSig;
    /** Workload's transactional output stream, if any (§4.7). */
    TxOutput* txOut = nullptr;

    /** Gives each of @p n tasks an inbound queue. */
    void
    addQueues(unsigned n)
    {
        for (unsigned q = 0; q < n; ++q)
            queues.push_back(std::make_unique<SimQueue>(m, 8));
    }

    /** Marks completion once the last iteration committed. */
    void
    checkDone()
    {
        if (coord.committedIters() == wl.iterations()) {
            done = true;
            doneSig.notifyAll();
        }
    }

    void
    finish(ExecResult& r) const override
    {
        r.vidResets = coord.resets();
        r.vidStallCycles = coord.stallCycles();
    }
};

/**
 * Recovery barrier (the initMTX recovery-code analog): the first
 * thread to unwind flags recovery and wakes every blocked thread; the
 * last one to arrive resets queues, re-aligns the VID window with the
 * committed prefix of the iteration space, and releases everyone.
 */
sim::Task<void>
recoveryBarrier(Shared& sh, ThreadContext& tc)
{
    tc.beginMtx(kNonSpecVid);
    if (!sh.recovering) {
        sh.recovering = true;
        ++sh.abortsRecovered;
        if (sh.abortsRecovered > sh.m.config().maxRecoveries) {
            throw std::runtime_error(
                "abort-recovery livelock: " +
                std::to_string(sh.abortsRecovered) +
                " recoveries (false misspeculation storm; see "
                "\u00a75.1)");
        }
        for (auto& q : sh.queues)
            q->abortWake();
        sh.coord.kickWaiters();
        sh.doneSig.notifyAll();
    }
    ++sh.atBarrier;
    if (sh.atBarrier == sh.nTasks) {
        // Defensive flush: a thread that slipped into a fresh
        // transaction between the hardware abort and the recovery
        // flag may have left speculative state behind.
        sh.m.sys().abortAll();
        if (sh.txOut) {
            // Uncommitted buffered output vanishes with the rest of
            // the speculative state (§4.7); committed output stays.
            sh.txOut->abortAll(sh.m.sys().lcVid());
        }
        sh.restartIter = sh.coord.committedIters();
        for (auto& q : sh.queues)
            q->reset();
        sh.coord.rollbackToCommitted();
        sh.atBarrier = 0;
        sh.recovering = false;
        sh.barrier.notifyAll();
        co_return;
    }
    while (sh.recovering)
        co_await sh.barrier.wait();
}

/**
 * One attempt of a recovering task's part of the loop on worker @p w,
 * resuming at the first uncommitted iteration @p from (0 on the first
 * attempt).
 */
using Attempt = sim::Task<void> (*)(Shared& sh, ThreadContext& tc,
                                    DirectMem& mem, unsigned w,
                                    std::uint64_t from);

/**
 * The abort-recovery loop (the initMTX handler analog, §3.1) of a
 * task on core @p core: runs an @p attempt, then stands by until
 * every iteration committed, since a late abort sends the task back
 * to redo uncommitted iterations. On sim::TxAborted it joins the
 * recovery barrier and attempts again from sh.restartIter.
 */
sim::Task<void>
recoveringTask(Shared& sh, CoreId core, unsigned w, Attempt attempt)
{
    ThreadContext& tc = sh.m.ctx(core);
    DirectMem mem(tc);
    std::uint64_t from = 0;
    for (;;) {
        bool recover = false;
        try {
            co_await attempt(sh, tc, mem, w, from);
            while (!sh.done) {
                if (sh.recovering)
                    throw sim::TxAborted{};
                co_await sh.doneSig.wait();
            }
        } catch (const sim::TxAborted&) {
            recover = true; // co_await is illegal inside a handler
        }
        if (!recover)
            co_return;
        co_await recoveryBarrier(sh, tc);
        from = sh.restartIter;
    }
}

/** Pipeline stage 1 (core 0): runs the sequential stage and feeds the
 *  workers round-robin. */
sim::Task<void>
stage1Attempt(Shared& sh, ThreadContext& tc, DirectMem& mem, unsigned,
              std::uint64_t from)
{
    const std::uint64_t n = sh.wl.iterations();
    const auto workers = static_cast<unsigned>(sh.queues.size());
    for (std::uint64_t i = from; i < n; ++i) {
        if (sh.recovering)
            throw sim::TxAborted{};
        co_await sh.coord.beginIter(tc, i);
        co_await sh.wl.stage1(mem, i);
        // Done with our part of the MTX; back to bookkeeping
        // (Figure 3(b): beginMTX(0) does not commit).
        tc.beginMtx(kNonSpecVid);
        co_await sh.queues[i % workers]->produce(tc, i);
    }
    for (auto& q : sh.queues)
        co_await q->produce(tc, kDoneToken);
}

/** Replicated stage-2 worker @p w (core 1 + w); consumes from its
 *  queue, so recovery's queue reset is its restart point. */
sim::Task<void>
workerAttempt(Shared& sh, ThreadContext& tc, DirectMem& mem, unsigned w,
              std::uint64_t)
{
    for (;;) {
        if (sh.recovering)
            throw sim::TxAborted{};
        std::uint64_t i = co_await sh.queues[w]->consume(tc);
        if (i == kDoneToken)
            co_return;
        tc.beginMtx(sh.coord.vidOf(i));
        co_await sh.wl.stage2(mem, i);
        co_await sh.coord.commitIter(tc, i);
        if (sh.txOut)
            sh.txOut->commit(sh.coord.vidOf(i));
        sh.checkDone();
    }
}

/** DOALL worker @p w (core w): whole iterations, round-robin, from the
 *  first one at or after @p from that it owns. */
sim::Task<void>
doallAttempt(Shared& sh, ThreadContext& tc, DirectMem& mem, unsigned w,
             std::uint64_t from)
{
    const std::uint64_t n = sh.wl.iterations();
    const unsigned workers = sh.nTasks;
    for (std::uint64_t i = from + (w + workers - from % workers) % workers;
         i < n; i += workers) {
        if (sh.recovering)
            throw sim::TxAborted{};
        co_await sh.coord.beginIter(tc, i);
        co_await sh.wl.stage1(mem, i);
        co_await sh.wl.stage2(mem, i);
        co_await sh.coord.commitIter(tc, i);
        if (sh.txOut)
            sh.txOut->commit(sh.coord.vidOf(i));
        sh.checkDone();
    }
}

/**
 * DOACROSS worker: whole iterations in transactions, with the
 * loop-carried dependence token passed core-to-core every iteration
 * (Figure 1(b)). No recovery path: used for schedule comparison runs.
 */
sim::Task<void>
doacrossTask(Shared& sh, unsigned w, unsigned workers)
{
    ThreadContext& tc = sh.m.ctx(w);
    DirectMem mem(tc);
    const std::uint64_t n = sh.wl.iterations();
    for (std::uint64_t i = w; i < n; i += workers) {
        if (i > 0) {
            std::uint64_t tok = co_await sh.queues[w]->consume(tc);
            (void)tok;
        }
        co_await sh.coord.beginIter(tc, i);
        co_await sh.wl.stage1(mem, i);
        // The next iteration's thread may start only now: hand over
        // the loop-carried dependence.
        tc.beginMtx(kNonSpecVid);
        if (i + 1 < n)
            co_await sh.queues[(w + 1) % workers]->produce(tc, i + 1);
        tc.beginMtx(sh.coord.vidOf(i));
        co_await sh.wl.stage2(mem, i);
        co_await sh.coord.commitIter(tc, i);
        sh.checkDone();
    }
}

sim::Task<void>
sequentialRoot(Machine& m, LoopWorkload& wl)
{
    DirectMem mem(m.ctx(0));
    co_await wl.runSequential(mem);
}

} // namespace

// --- the run path ----------------------------------------------------------

ExecResult
runLoop(LoopWorkload& wl, const sim::MachineConfig& cfg,
        const CoreBudget& budget, const SpawnTasks& spawn)
{
    // A schedule with no core for a worker would index past the
    // machine's thread contexts (or divide by zero workers); a request
    // for more workers than fit is clamped, and the cores the schedule
    // leaves over are recorded so a narrow schedule does not waste
    // them silently.
    const unsigned cores = cfg.numCores;
    if (cores < budget.reserved + 1) {
        throw std::invalid_argument(
            std::string(budget.schedule) + " needs at least " +
            std::to_string(budget.reserved + 1) +
            " cores; the machine has " + std::to_string(cores));
    }
    const unsigned workers =
        std::clamp(budget.workers, 1u, cores - budget.reserved);

    // One machine per host thread, kept from run to run: a run on a
    // reset machine is indistinguishable from one on a fresh machine,
    // and the cache sets it grew stay allocated (DESIGN.md §14). A
    // config of another structure builds a new one.
    thread_local std::optional<Machine> kept;
    if (kept && kept->sys().sameStructure(cfg))
        kept->reset(cfg);
    else
        kept.emplace(cfg);
    Machine& m = *kept;

    ExecResult r;
    try {
        wl.setup(m);
        m.sys().stats().idleCores = cores - budget.reserved - workers;
        const std::unique_ptr<LoopTasks> tasks = spawn(m, workers);
        m.run();

        r.model = tasks->model();
        r.cycles = m.now();
        m.sys().flushDirtyToMemory();
        r.checksum = wl.checksum(m);
        r.stats = m.sys().stats();
        r.txStats = m.sys().txPolicy().stats();
        r.indexStats = m.sys().indexStats();
        r.transactions = r.stats.committedTxs;
        for (CoreId c = 0; c < cores; ++c) {
            r.instructions += m.ctx(c).instructions();
            r.branches += m.ctx(c).predictor().branches();
            r.mispredicts += m.ctx(c).predictor().mispredicts();
        }
        tasks->finish(r);
    } catch (...) {
        // A failed run can stop anywhere; drop its machine rather
        // than keep a half-run one for this thread's next run.
        kept.reset();
        throw;
    }
    // Release the run's coroutine frames, events and memory lines
    // now: destroyed at thread exit instead, the frames would go back
    // to a FramePool whose thread_local lists may be gone.
    m.reset(cfg);
    return r;
}

// --- Runner ------------------------------------------------------------------

ExecResult
Runner::runSequential(LoopWorkload& wl, const sim::MachineConfig& cfg)
{
    return runLoop(wl, cfg, {"sequential", 0, 1},
                   [&](Machine& m, unsigned) {
                       m.spawn(sequentialRoot(m, wl));
                       return std::make_unique<LoopTasks>("sequential");
                   });
}

ExecResult
Runner::runPipeline(LoopWorkload& wl, const sim::MachineConfig& cfg,
                    unsigned workers)
{
    if (cfg.txMode == TxMode::BestEffort) {
        throw std::invalid_argument(
            "runPipeline: txMode=best-effort is incompatible with "
            "pipelined schedules: a stage-1 fallback holder writes "
            "committed memory before handing the iteration off, and "
            "abort recovery would re-execute those writes; use a "
            "DOALL schedule (the holder commits before joining "
            "recovery) or a full-HMTX mode");
    }
    // Stage 1 owns core 0; replicated stage-2 workers fill the rest.
    return runLoop(
        wl, cfg, {"HMTX pipeline", 1, workers},
        [&](Machine& m, unsigned n) {
            auto sh = std::make_unique<Shared>(
                wl, m, n + 1,
                n > 1 ? "HMTX PS-DSWP x" + std::to_string(n)
                      : "HMTX DSWP");
            sh->addQueues(n);
            m.spawn(recoveringTask(*sh, 0, 0, stage1Attempt));
            for (unsigned w = 0; w < n; ++w)
                m.spawn(recoveringTask(*sh, 1 + w, w, workerAttempt));
            return sh;
        });
}

ExecResult
Runner::runDoall(LoopWorkload& wl, const sim::MachineConfig& cfg,
                 unsigned workers)
{
    return runLoop(
        wl, cfg, {"HMTX DOALL", 0, workers},
        [&](Machine& m, unsigned n) {
            auto sh = std::make_unique<Shared>(
                wl, m, n, "HMTX DOALL x" + std::to_string(n));
            for (unsigned w = 0; w < n; ++w)
                m.spawn(recoveringTask(*sh, w, w, doallAttempt));
            return sh;
        });
}

ExecResult
Runner::runDoacross(LoopWorkload& wl, const sim::MachineConfig& cfg,
                    unsigned workers)
{
    if (cfg.txMode == TxMode::BestEffort) {
        throw std::invalid_argument(
            "runDoacross: txMode=best-effort is incompatible with "
            "DOACROSS schedules: a fallback holder writes committed "
            "memory before the dependence hand-off, and the schedule "
            "has no recovery path that could replay consistently; "
            "use a DOALL schedule or a full-HMTX mode");
    }
    return runLoop(
        wl, cfg, {"DOACROSS", 0, workers},
        [&](Machine& m, unsigned n) {
            auto sh = std::make_unique<Shared>(
                wl, m, n, "DOACROSS x" + std::to_string(n));
            sh->addQueues(n);
            for (unsigned w = 0; w < n; ++w)
                m.spawn(doacrossTask(*sh, w, n));
            return sh;
        });
}

ExecResult
Runner::runHmtx(LoopWorkload& wl, const sim::MachineConfig& cfg)
{
    if (wl.paradigm() == Paradigm::Doall)
        return runDoall(wl, cfg, cfg.numCores);
    return runPipeline(wl, cfg, cfg.numCores - 1);
}

} // namespace hmtx::runtime
