#include "smtx/smtx.hh"

#include <memory>
#include <string>

#include "runtime/thread_context.hh"

namespace hmtx::smtx
{

namespace
{

/** Bookkeeping cycles per logged record at the producer (hashing the
 *  address, filling the entry). */
constexpr Cycles kLogCpuCycles = 4;

/** Bookkeeping cycles per record at the commit process. */
constexpr Cycles kCommitCpuCycles = 2;

/** Cycles to look an address up in the software version buffer when
 *  consuming a forwarded value. */
constexpr Cycles kVersionLookupCycles = 6;

/**
 * The commit process lives in its own forked process in real SMTX: it
 * validates and applies records against the *committed* memory image,
 * not the worker's working copy. The simulator models that separate
 * image at a fixed address offset, which keeps the commit core's
 * cache/bus traffic realistic without letting mid-transaction replays
 * interfere with a worker's in-flight read-modify-write sequences.
 */
constexpr Addr kCommitImageOffset = Addr{1} << 40;

/** STM read/write barrier costs paid on *every* transactional access
 *  regardless of validation mode: the software MTX must check the
 *  local version buffer before a load and enter stores into it
 *  ("high runtime overheads" of STM, §2.3 / Cascaval et al. [4]). */
constexpr Cycles kStmReadBarrier = 2;
constexpr Cycles kStmWriteBarrier = 4;

} // namespace

SmtxRuntime::SmtxRuntime(runtime::Machine& m, unsigned workers,
                         RwSetMode mode)
    : m_(m), workers_(workers), mode_(mode)
{
    // Commit queues are sized generously: SMTX batches aggressively,
    // and a tiny queue would serialize workers on the commit process
    // even in the minimal mode.
    for (unsigned p = 0; p < 1 + workers; ++p) {
        commitQs_.push_back(
            std::make_unique<runtime::SimQueue>(m, 64));
        sideData_.emplace_back();
    }
    for (unsigned w = 0; w < workers; ++w)
        forwardQs_.push_back(
            std::make_unique<runtime::SimQueue>(m, 64));
}

sim::Task<void>
SmtxRuntime::log(runtime::ThreadContext& tc, unsigned p, Addr a,
                 std::uint64_t v, bool isStore)
{
    ++records_;
    co_await tc.compute(kLogCpuCycles);
    sideData_[p].push_back({a, v, isStore, false});
    co_await commitQs_[p]->produce(tc, a);
}

sim::Task<void>
SmtxRuntime::forward(runtime::ThreadContext& tc, unsigned w, Addr a,
                     std::uint64_t v)
{
    ++forwards_;
    co_await tc.compute(kLogCpuCycles);
    (void)v;
    co_await forwardQs_[w]->produce(tc, a);
}

sim::Task<void>
SmtxRuntime::consumeForwards(runtime::ThreadContext& tc, unsigned w,
                             std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t a = co_await forwardQs_[w]->consume(tc);
        (void)a;
        // Install into the worker's software version buffer.
        co_await tc.compute(kVersionLookupCycles);
    }
}

sim::Task<void>
SmtxRuntime::endIter(runtime::ThreadContext& tc, unsigned p)
{
    sideData_[p].push_back({0, 0, false, true});
    co_await commitQs_[p]->produce(tc, ~std::uint64_t{0});
}

sim::Task<SmtxRecord>
SmtxRuntime::pop(runtime::ThreadContext& tc, unsigned p)
{
    std::uint64_t a = co_await commitQs_[p]->consume(tc);
    (void)a;
    SmtxRecord rec = sideData_[p].front();
    sideData_[p].pop_front();
    co_return rec;
}

void
SmtxRuntime::snapshotCommitImage()
{
    // The commit process forked from the main process: its image
    // starts as an exact copy of the committed state. Reserving room
    // for the copy up front pins the table (no rehash), so the image
    // can be written during the walk itself instead of staging every
    // line through a temporary vector; lines the walk may then visit
    // at >= kCommitImageOffset are skipped by the filter.
    auto& mem = m_.sys().memory();
    mem.reserveLines(2 * mem.touchedLines());
    mem.forEachLine([&](Addr a, const sim::LineData& d) {
        if (a < kCommitImageOffset)
            mem.writeLine(a + kCommitImageOffset, d);
    });
}

sim::Task<void>
SmtxRuntime::commitProcess(runtime::ThreadContext& tc,
                           std::uint64_t iterations, bool pipeline)
{
    for (std::uint64_t i = 0; i < iterations; ++i) {
        if (pipeline) {
            // Stage 1's part of transaction i commits first...
            for (;;) {
                SmtxRecord rec = co_await pop(tc, 0);
                if (rec.endOfIter)
                    break;
                co_await tc.compute(kCommitCpuCycles);
                // Validate (loads) / apply (stores) against the
                // committed image (value-based validation, §2.3).
                if (rec.isStore) {
                    co_await tc.store(rec.addr + kCommitImageOffset,
                                      rec.value);
                } else {
                    std::uint64_t v = co_await tc.load(
                        rec.addr + kCommitImageOffset);
                    if (v != rec.value)
                        ++misspecs_;
                }
            }
        }
        // ...then the owning worker's part.
        unsigned p = 1 + (i % workers_);
        for (;;) {
            SmtxRecord rec = co_await pop(tc, p);
            if (rec.endOfIter)
                break;
            co_await tc.compute(kCommitCpuCycles);
            if (rec.isStore) {
                co_await tc.store(rec.addr + kCommitImageOffset,
                                  rec.value);
            } else {
                std::uint64_t v = co_await tc.load(
                    rec.addr + kCommitImageOffset);
                if (v != rec.value)
                    ++misspecs_;
            }
        }
    }
}

// --- SmtxMem -------------------------------------------------------------

runtime::MemOp
SmtxMem::load(Addr a, unsigned size)
{
    return barrierLoad(a, size);
}

runtime::MemOp
SmtxMem::store(Addr a, std::uint64_t v, unsigned size)
{
    return barrierStore(a, v, size);
}

runtime::MemOp
SmtxMem::compute(Cycles c)
{
    return tc_.compute(c);
}

runtime::MemOp
SmtxMem::branch(Addr pc, bool taken)
{
    return tc_.branch(pc, taken);
}

sim::Task<std::uint64_t>
SmtxMem::barrierLoad(Addr a, unsigned size)
{
    co_await tc_.compute(kStmReadBarrier);
    std::uint64_t v = co_await tc_.load(a, size);
    if (rt_.mode() == RwSetMode::Maximal)
        co_await rt_.log(tc_, producer_, a, v, false);
    co_return v;
}

sim::Task<std::uint64_t>
SmtxMem::barrierStore(Addr a, std::uint64_t v, unsigned size)
{
    co_await tc_.compute(kStmWriteBarrier);
    co_await tc_.store(a, v, size);
    if (rt_.mode() == RwSetMode::Maximal) {
        co_await rt_.log(tc_, producer_, a, v, true);
        if (pendingForwards_)
            pendingForwards_->push_back(a);
    }
    co_return v;
}

// --- SmtxRunner -----------------------------------------------------------

namespace
{

constexpr std::uint64_t kDone = ~std::uint64_t{0};

struct SmtxShared final : runtime::LoopTasks
{
    SmtxShared(runtime::LoopWorkload& w, runtime::Machine& mach,
               unsigned workers, RwSetMode mode)
        : LoopTasks(std::string("SMTX ") +
                    (mode == RwSetMode::Maximal ? "max R/W" : "min R/W") +
                    " x" + std::to_string(workers)),
          wl(w), m(mach), rt(mach, workers, mode)
    {}

    void
    finish(runtime::ExecResult& r) const override
    {
        r.transactions = wl.iterations();
        r.smtxMisspeculations = rt.misspeculations();
    }

    runtime::LoopWorkload& wl;
    runtime::Machine& m;
    SmtxRuntime rt;
    std::vector<std::unique_ptr<runtime::SimQueue>> workQs;
};

/** Pipeline stage 1 on core 0. */
sim::Task<void>
smtxStage1(SmtxShared& sh, unsigned workers)
{
    runtime::ThreadContext& tc = sh.m.ctx(0);
    const std::uint64_t n = sh.wl.iterations();
    const unsigned minRw = sh.wl.minRwSetPerIter();
    std::vector<Addr> pending;
    for (std::uint64_t i = 0; i < n; ++i) {
        unsigned w = i % workers;
        pending.clear();
        SmtxMem mem{tc, sh.rt, 0, &pending};
        co_await sh.wl.stage1(mem, i);
        if (sh.rt.mode() == RwSetMode::Minimal) {
            // The expert-minimized version still forwards the few
            // cross-stage values and validates them (§2.3).
            for (unsigned k = 0; k < minRw; ++k) {
                co_await sh.rt.log(tc, 0, 0x100 + 8 * k, 0, false);
                pending.push_back(0x100 + 8 * k);
            }
        }
        co_await sh.rt.endIter(tc, 0);
        // Hand the worker its iteration and forward count first so it
        // drains the forwards concurrently (no back-pressure cycle).
        co_await sh.workQs[w]->produce(tc, i);
        co_await sh.workQs[w]->produce(tc, pending.size());
        for (Addr a : pending)
            co_await sh.rt.forward(tc, w, a, 0);
    }
    for (unsigned w = 0; w < workers; ++w)
        co_await sh.workQs[w]->produce(tc, kDone);
}

/** Pipeline worker w on core 1 + w. */
sim::Task<void>
smtxWorker(SmtxShared& sh, unsigned w)
{
    runtime::ThreadContext& tc = sh.m.ctx(1 + w);
    SmtxMem mem{tc, sh.rt, 1 + w, nullptr};
    const unsigned minRw = sh.wl.minRwSetPerIter();
    for (;;) {
        std::uint64_t i = co_await sh.workQs[w]->consume(tc);
        if (i == kDone)
            break;
        std::uint64_t fwd = co_await sh.workQs[w]->consume(tc);
        // Install stage 1's forwarded uncommitted values into the
        // software version buffer before executing our part (§2.3).
        co_await sh.rt.consumeForwards(tc, w, fwd);
        co_await sh.wl.stage2(mem, i);
        if (sh.rt.mode() == RwSetMode::Minimal) {
            for (unsigned k = 0; k < minRw; ++k)
                co_await sh.rt.log(tc, 1 + w, 0x200 + 8 * k, 0, true);
        }
        co_await sh.rt.endIter(tc, 1 + w);
    }
}

/** DOALL worker w on core w. */
sim::Task<void>
smtxDoallWorker(SmtxShared& sh, unsigned w, unsigned workers)
{
    runtime::ThreadContext& tc = sh.m.ctx(w);
    SmtxMem mem{tc, sh.rt, 1 + w, nullptr};
    const std::uint64_t n = sh.wl.iterations();
    const unsigned minRw = sh.wl.minRwSetPerIter();
    for (std::uint64_t i = w; i < n; i += workers) {
        co_await sh.wl.stage1(mem, i);
        co_await sh.wl.stage2(mem, i);
        if (sh.rt.mode() == RwSetMode::Minimal) {
            for (unsigned k = 0; k < minRw; ++k)
                co_await sh.rt.log(tc, 1 + w, 0x200 + 8 * k, 0, true);
        }
        co_await sh.rt.endIter(tc, 1 + w);
    }
}

sim::Task<void>
smtxCommitTask(SmtxShared& sh, std::uint64_t iters, bool pipeline,
               CoreId core)
{
    runtime::ThreadContext& tc = sh.m.ctx(core);
    co_await sh.rt.commitProcess(tc, iters, pipeline);
}

} // namespace

runtime::ExecResult
SmtxRunner::run(runtime::LoopWorkload& wl,
                const sim::MachineConfig& cfg, RwSetMode mode)
{
    sim::MachineConfig c = cfg;
    c.hmtxEnabled = false; // commodity hardware (§2.3)

    // The commit process occupies the last core (§6.2: "SMTX requires
    // the extra commit process, taking up one core's resources"); a
    // pipeline also reserves core 0 for stage 1.
    const bool pipeline = wl.paradigm() != runtime::Paradigm::Doall;
    const runtime::CoreBudget budget =
        pipeline ? runtime::CoreBudget{"SMTX pipeline", 2, c.numCores}
                 : runtime::CoreBudget{"SMTX DOALL", 1, c.numCores};
    return runtime::runLoop(
        wl, c, budget, [&](runtime::Machine& m, unsigned workers) {
            auto sh = std::make_unique<SmtxShared>(wl, m, workers, mode);
            sh->rt.snapshotCommitImage();
            if (pipeline) {
                for (unsigned w = 0; w < workers; ++w)
                    sh->workQs.push_back(
                        std::make_unique<runtime::SimQueue>(m, 8));
                m.spawn(smtxStage1(*sh, workers));
                for (unsigned w = 0; w < workers; ++w)
                    m.spawn(smtxWorker(*sh, w));
            } else {
                for (unsigned w = 0; w < workers; ++w)
                    m.spawn(smtxDoallWorker(*sh, w, workers));
            }
            m.spawn(smtxCommitTask(*sh, wl.iterations(), pipeline,
                                   c.numCores - 1));
            return sh;
        });
}

} // namespace hmtx::smtx
