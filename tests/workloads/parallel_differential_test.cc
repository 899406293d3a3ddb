/**
 * @file
 * ParallelDifferential: the zero-event hit fast path (DESIGN.md §13)
 * must be bit-identical to the full per-access path — same cycles,
 * same checksum, same instruction/branch/abort counts, same SysStats —
 * on the full {bus, directory} x {lazy, eager} matrix, and so must
 * whole simulations run side by side on host threads, the way
 * `hmtx_fuzz --threads` runs its batch. Each cell compares a
 * fast-path-off reference run on the calling thread against the
 * candidate ({fast path off, fast path on}) run either inline (on the
 * calling thread) or threaded (two copies at once on two host threads).
 */

#include <gtest/gtest.h>

#include <exception>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/executors.hh"
#include "workloads/gzip.hh"
#include "workloads/linked_list.hh"
#include "workloads/stress.hh"

namespace hmtx::workloads
{
namespace
{

/** Fast-path axis. The fast path always applies serially. */
enum : unsigned
{
    kFpOff = 0,
    kFpSerial = 1,
};

using Combo = std::tuple<sim::Fabric, bool /*lazy*/,
                         unsigned /*host threads*/,
                         unsigned /*fast-path mode*/>;

/** Everything architecturally observable must match exactly.
 *  (fastStats is simulator-side and excluded by design.) */
void
expectIdentical(const runtime::ExecResult& ref,
                const runtime::ExecResult& got)
{
    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.instructions, ref.instructions);
    EXPECT_EQ(got.transactions, ref.transactions);
    EXPECT_EQ(got.vidResets, ref.vidResets);
    EXPECT_EQ(got.branches, ref.branches);
    EXPECT_EQ(got.mispredicts, ref.mispredicts);
    EXPECT_TRUE(got.stats == ref.stats)
        << "SysStats diverged (aborts " << ref.stats.aborts << " vs "
        << got.stats.aborts << ", busTxns " << ref.stats.busTxns
        << " vs " << got.stats.busTxns << ", l1Hits "
        << ref.stats.l1Hits << " vs " << got.stats.l1Hits << ")";
}

/** Runs @p run once on the calling thread (@p hostThreads == 1) or
 *  once on each of @p hostThreads host threads side by side, and
 *  returns every result. A run that throws is rethrown here. */
template <class Fn>
std::vector<runtime::ExecResult>
runSideBySide(unsigned hostThreads, Fn run)
{
    if (hostThreads == 1)
        return {run()};
    std::vector<runtime::ExecResult> out(hostThreads);
    std::vector<std::exception_ptr> err(hostThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < hostThreads; ++t)
        pool.emplace_back([&, t] {
            try {
                out[t] = run();
            } catch (...) {
                err[t] = std::current_exception();
            }
        });
    for (std::thread& th : pool)
        th.join();
    for (const std::exception_ptr& e : err)
        if (e)
            std::rethrow_exception(e);
    return out;
}

class ParallelDifferential : public ::testing::TestWithParam<Combo>
{
  protected:
    /** Reference cell: the combo's fabric and commit mode, fast path
     *  off. */
    static sim::MachineConfig
    makeRef()
    {
        sim::MachineConfig cfg;
        cfg.fabric = std::get<0>(GetParam());
        cfg.txMode = std::get<1>(GetParam()) ? TxMode::LazyHmtx
                                             : TxMode::EagerHmtx;
        return cfg;
    }

    /** Candidate cell: the reference with the combo's fast mode. */
    static sim::MachineConfig
    make()
    {
        sim::MachineConfig cfg = makeRef();
        cfg.fastPath = std::get<3>(GetParam()) != kFpOff;
        return cfg;
    }

    /** Candidate runs of workload @p W with @p params under
     *  @p exec, on the combo's host threads. */
    template <class W, class Exec>
    static std::vector<runtime::ExecResult>
    candidates(const typename W::Params& params, Exec exec)
    {
        return runSideBySide(std::get<2>(GetParam()), [&] {
            W w(params);
            return exec(w, make());
        });
    }
};

runtime::ExecResult
hmtx(runtime::LoopWorkload& w, const sim::MachineConfig& cfg)
{
    return runtime::Runner::runHmtx(w, cfg);
}

runtime::ExecResult
sequential(runtime::LoopWorkload& w, const sim::MachineConfig& cfg)
{
    return runtime::Runner::runSequential(w, cfg);
}

TEST_P(ParallelDifferential, LinkedListBitIdentical)
{
    LinkedListWorkload::Params p;
    p.nodes = 80;
    p.workRounds = 16;
    LinkedListWorkload a(p);
    const runtime::ExecResult ref = hmtx(a, makeRef());
    EXPECT_EQ(ref.fastStats.attempts, 0u);
    for (const runtime::ExecResult& r :
         candidates<LinkedListWorkload>(p, hmtx)) {
        expectIdentical(ref, r);
        if (std::get<3>(GetParam()) != kFpOff) {
            // The fast path must actually fire on this hit-heavy
            // workload. (eventBypasses is asserted in FastPathBypass
            // below: on the busier directory-fabric queues another
            // event is usually pending before the wake, so the bypass
            // legally declines.)
            EXPECT_GT(r.fastStats.hits(), 0u);
        } else {
            EXPECT_EQ(r.fastStats.attempts, 0u);
        }
    }
}

TEST_P(ParallelDifferential, GzipBitIdentical)
{
    GzipWorkload::Params p;
    p.blocks = 8;
    p.wordsPerBlock = 120;
    GzipWorkload a(p);
    const runtime::ExecResult ref = hmtx(a, makeRef());
    for (const runtime::ExecResult& r : candidates<GzipWorkload>(p, hmtx))
        expectIdentical(ref, r);
}

/** The abort/recovery path (misspeculation storms, group aborts,
 *  queue resets) must replay identically under the fast path: every
 *  abort bumps the generation and kills all outstanding tags. */
TEST_P(ParallelDifferential, StressConflictsBitIdentical)
{
    StressWorkload::Params p;
    p.iterations = 48;
    p.scratchWords = 24;
    p.conflictRate = 0.25;
    StressWorkload a(p);
    const runtime::ExecResult ref = hmtx(a, makeRef());
    for (const runtime::ExecResult& r :
         candidates<StressWorkload>(p, hmtx)) {
        expectIdentical(ref, r);
        EXPECT_GT(r.stats.aborts, 0u); // the matrix cell really aborted
    }
}

/** Sequential runs (one core, long stretches of hits) too. */
TEST_P(ParallelDifferential, SequentialScheduleBitIdentical)
{
    LinkedListWorkload::Params p;
    p.nodes = 60;
    LinkedListWorkload a(p);
    const runtime::ExecResult ref = sequential(a, makeRef());
    for (const runtime::ExecResult& r :
         candidates<LinkedListWorkload>(p, sequential))
        expectIdentical(ref, r);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelDifferential,
    ::testing::Combine(
        ::testing::Values(sim::Fabric::SnoopBus,
                          sim::Fabric::Directory),
        ::testing::Bool(),          // lazy / eager commit
        ::testing::Values(1u, 2u),  // inline / two host threads
        ::testing::Values(kFpOff, kFpSerial)),
    [](const ::testing::TestParamInfo<Combo>& info) {
        std::string n;
        n += std::get<0>(info.param) == sim::Fabric::SnoopBus
            ? "snoop"
            : "dir";
        n += std::get<1>(info.param) ? "_lazy" : "_eager";
        n += std::get<2>(info.param) == 1 ? "_inline" : "_threaded";
        n += std::get<3>(info.param) == kFpOff ? "_fpoff" : "_fpserial";
        return n;
    });

/** The bounded policies and copy-on-read must gate the fast path off
 *  entirely (no probes, no tags), even when the knob is set.
 *  (Sequential schedules: the bounded modes reject pipelined ones.) */
TEST(FastPathGate, BoundedPoliciesDisableFastPath)
{
    StressWorkload::Params p;
    p.iterations = 24;
    p.scratchWords = 16;
    for (TxMode mode : {TxMode::BestEffort, TxMode::LimitedSet}) {
        sim::MachineConfig on;
        on.txMode = mode;
        on.fastPath = true;
        sim::MachineConfig off = on;
        off.fastPath = false;
        StressWorkload a(p), b(p);
        runtime::ExecResult ron = runtime::Runner::runSequential(a, on);
        runtime::ExecResult roff =
            runtime::Runner::runSequential(b, off);
        EXPECT_EQ(ron.fastStats.attempts, 0u);
        EXPECT_EQ(ron.cycles, roff.cycles);
        EXPECT_TRUE(ron.stats == roff.stats);
    }
    sim::MachineConfig cor;
    cor.copyOnRead = true;
    cor.fastPath = true;
    StressWorkload d(p);
    runtime::ExecResult rcor = runtime::Runner::runSequential(d, cor);
    EXPECT_EQ(rcor.fastStats.attempts, 0u);
}

/** On a quiet queue (single-lane sequential schedule, snoopy bus) the
 *  fast path must retire hits with literally zero events: their
 *  wake-ups bypass the event queue and count in eventBypasses. */
TEST(FastPathBypass, SequentialHitsScheduleNoEvents)
{
    LinkedListWorkload::Params p;
    p.nodes = 60;
    p.workRounds = 16;
    sim::MachineConfig off;
    sim::MachineConfig on = off;
    on.fastPath = true;
    LinkedListWorkload a(p), b(p);
    runtime::ExecResult roff = runtime::Runner::runSequential(a, off);
    runtime::ExecResult ron = runtime::Runner::runSequential(b, on);
    EXPECT_EQ(ron.cycles, roff.cycles);
    EXPECT_EQ(ron.checksum, roff.checksum);
    EXPECT_TRUE(ron.stats == roff.stats);
    EXPECT_GT(ron.fastStats.hits(), 0u);
    EXPECT_GT(ron.fastStats.eventBypasses, 0u);
}

} // namespace
} // namespace hmtx::workloads
