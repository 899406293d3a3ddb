/**
 * @file
 * ParallelDifferential: whole simulations run side by side on host
 * threads, the way `hmtx_fuzz --threads` runs its batch, must be
 * bit-identical to a run on the calling thread — same cycles, same
 * checksum, same instruction/branch/abort counts, same SysStats — on
 * the full {bus, directory} x {lazy, eager} matrix. Each cell compares
 * a reference run on the calling thread against the same
 * configuration run either inline (on the calling thread again) or
 * threaded (two copies at once on two host threads).
 */

#include <gtest/gtest.h>

#include <exception>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/executors.hh"
#include "runtime/machine.hh"
#include "runtime/memif.hh"
#include "workloads/gzip.hh"
#include "workloads/linked_list.hh"
#include "workloads/stress.hh"

namespace hmtx::workloads
{
namespace
{

using Combo = std::tuple<sim::Fabric, bool /*lazy*/,
                         unsigned /*host threads*/>;

/** Everything architecturally observable must match exactly. */
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
    /** The combo's fabric and commit mode. */
    static sim::MachineConfig
    make()
    {
        sim::MachineConfig cfg;
        cfg.fabric = std::get<0>(GetParam());
        cfg.txMode = std::get<1>(GetParam()) ? TxMode::LazyHmtx
                                             : TxMode::EagerHmtx;
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
    const runtime::ExecResult ref = hmtx(a, make());
    for (const runtime::ExecResult& r :
         candidates<LinkedListWorkload>(p, hmtx))
        expectIdentical(ref, r);
}

TEST_P(ParallelDifferential, GzipBitIdentical)
{
    GzipWorkload::Params p;
    p.blocks = 8;
    p.wordsPerBlock = 120;
    GzipWorkload a(p);
    const runtime::ExecResult ref = hmtx(a, make());
    for (const runtime::ExecResult& r : candidates<GzipWorkload>(p, hmtx))
        expectIdentical(ref, r);
}

/** The abort/recovery path (misspeculation storms, group aborts,
 *  queue resets) must replay identically too. */
TEST_P(ParallelDifferential, StressConflictsBitIdentical)
{
    StressWorkload::Params p;
    p.iterations = 48;
    p.scratchWords = 24;
    p.conflictRate = 0.25;
    StressWorkload a(p);
    const runtime::ExecResult ref = hmtx(a, make());
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
    const runtime::ExecResult ref = sequential(a, make());
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
        ::testing::Values(1u, 2u)), // inline / two host threads
    [](const ::testing::TestParamInfo<Combo>& info) {
        std::string n;
        n += std::get<0>(info.param) == sim::Fabric::SnoopBus
            ? "snoop"
            : "dir";
        n += std::get<1>(info.param) ? "_lazy" : "_eager";
        n += std::get<2>(info.param) == 1 ? "_inline" : "_threaded";
        // The suffix is the name these cases had beside a fast-path
        // axis, kept so their history stays continuous; every access
        // now takes the one protocol path.
        n += "_fpoff";
        return n;
    });

sim::Task<void>
sequentialRoot(runtime::Machine& m, runtime::LoopWorkload& wl)
{
    runtime::DirectMem mem(m.ctx(0));
    co_await wl.runSequential(mem);
}

/** On a quiet queue (single-lane sequential schedule, snoopy bus)
 *  every op's wake-up is zero-event (DESIGN.md §13): the run queues
 *  only the wake-up of the op its root issues before the loop starts,
 *  and still ends at the Runner's cycle count. */
TEST(FastPathBypass, SequentialHitsScheduleNoEvents)
{
    LinkedListWorkload::Params p;
    p.nodes = 60;
    p.workRounds = 16;
    const sim::MachineConfig cfg;
    LinkedListWorkload a(p), b(p);
    const runtime::ExecResult ref =
        runtime::Runner::runSequential(a, cfg);

    runtime::Machine m(cfg);
    b.setup(m);
    m.spawn(sequentialRoot(m, b));
    m.run();
    EXPECT_EQ(m.now(), ref.cycles);
    EXPECT_GT(m.sys().stats().l1Hits, 0u);
    EXPECT_LE(m.eq().executed(), 1u);
}

} // namespace
} // namespace hmtx::workloads
