/**
 * @file
 * The core budget of the loop executors' one run path
 * (runtime::runLoop): every schedule, HMTX and SMTX, on 1-, 2- and
 * 3-core machines either reproduces the sequential checksum or, when
 * its reserved cores leave no core for a worker, throws
 * std::invalid_argument naming the schedule and the cores it needs.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "runtime/executors.hh"
#include "smtx/smtx.hh"
#include "workloads/alvinn.hh"
#include "workloads/linked_list.hh"

namespace hmtx::runtime
{
namespace
{

sim::MachineConfig
cfg(unsigned cores)
{
    sim::MachineConfig c;
    c.numCores = cores;
    c.l2SizeKB = 512;
    return c;
}

workloads::LinkedListWorkload
pipelineLoop()
{
    workloads::LinkedListWorkload::Params p;
    p.nodes = 40;
    p.workRounds = 10;
    return workloads::LinkedListWorkload(p);
}

workloads::AlvinnWorkload
doallLoop()
{
    workloads::AlvinnWorkload::Params p;
    p.patterns = 6;
    p.inputs = 8;
    p.hidden = 8;
    p.outputs = 4;
    return workloads::AlvinnWorkload(p);
}

/**
 * Runs @p run on a fresh workload from @p make for 1, 2 and 3 cores:
 * below @p minCores it must throw std::invalid_argument naming
 * @p schedule and @p minCores; from there on it must match the
 * sequential checksum and account every core as used or idle.
 */
template <typename Make, typename Run>
void
expectBudget(Make make, const char* schedule, unsigned minCores, Run run)
{
    auto ref = make();
    const std::uint64_t want =
        Runner::runSequential(ref, cfg(1)).checksum;
    for (unsigned cores = 1; cores <= 3; ++cores) {
        SCOPED_TRACE(std::string(schedule) + " on " +
                     std::to_string(cores) + " cores");
        auto wl = make();
        if (cores < minCores) {
            try {
                run(wl, cfg(cores));
                ADD_FAILURE() << "expected std::invalid_argument";
            } catch (const std::invalid_argument& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(schedule), std::string::npos) << what;
                EXPECT_NE(what.find("at least " +
                                    std::to_string(minCores) + " cores"),
                          std::string::npos)
                    << what;
            }
            continue;
        }
        const ExecResult r = run(wl, cfg(cores));
        EXPECT_EQ(r.checksum, want);
        EXPECT_LT(r.stats.idleCores, cores);
    }
}

TEST(CoreBudget, HmtxSequentialRunsOnAnyMachine)
{
    expectBudget(pipelineLoop, "sequential", 1,
                 [](LoopWorkload& wl, const sim::MachineConfig& c) {
                     return Runner::runSequential(wl, c);
                 });
}

TEST(CoreBudget, HmtxPipelineNeedsACoreBesidesStage1)
{
    expectBudget(pipelineLoop, "HMTX pipeline", 2,
                 [](LoopWorkload& wl, const sim::MachineConfig& c) {
                     return Runner::runPipeline(wl, c, 3);
                 });
    // runHmtx asks for numCores - 1 workers: none on one core.
    expectBudget(pipelineLoop, "HMTX pipeline", 2,
                 [](LoopWorkload& wl, const sim::MachineConfig& c) {
                     return Runner::runHmtx(wl, c);
                 });
}

TEST(CoreBudget, HmtxDoallRunsOnAnyMachine)
{
    expectBudget(doallLoop, "HMTX DOALL", 1,
                 [](LoopWorkload& wl, const sim::MachineConfig& c) {
                     return Runner::runDoall(wl, c, 4);
                 });
    expectBudget(doallLoop, "HMTX DOALL", 1,
                 [](LoopWorkload& wl, const sim::MachineConfig& c) {
                     return Runner::runHmtx(wl, c);
                 });
}

TEST(CoreBudget, HmtxDoacrossRunsOnAnyMachine)
{
    expectBudget(pipelineLoop, "DOACROSS", 1,
                 [](LoopWorkload& wl, const sim::MachineConfig& c) {
                     return Runner::runDoacross(wl, c, 4);
                 });
}

TEST(CoreBudget, SmtxPipelineNeedsStage1CommitAndAWorker)
{
    for (const auto mode :
         {smtx::RwSetMode::Minimal, smtx::RwSetMode::Maximal}) {
        expectBudget(pipelineLoop, "SMTX pipeline", 3,
                     [mode](LoopWorkload& wl, const sim::MachineConfig& c) {
                         return smtx::SmtxRunner::run(wl, c, mode);
                     });
    }
}

TEST(CoreBudget, SmtxDoallNeedsACommitCoreAndAWorker)
{
    for (const auto mode :
         {smtx::RwSetMode::Minimal, smtx::RwSetMode::Maximal}) {
        expectBudget(doallLoop, "SMTX DOALL", 2,
                     [mode](LoopWorkload& wl, const sim::MachineConfig& c) {
                         return smtx::SmtxRunner::run(wl, c, mode);
                     });
    }
}

TEST(CoreBudget, SurplusWorkersClampAndLeftoverCoresAreIdle)
{
    auto a = pipelineLoop();
    const ExecResult wide = Runner::runPipeline(a, cfg(3), 8);
    EXPECT_EQ(wide.model, "HMTX PS-DSWP x2");
    EXPECT_EQ(wide.stats.idleCores, 0u);
    auto b = pipelineLoop();
    const ExecResult narrow = Runner::runPipeline(b, cfg(3), 1);
    EXPECT_EQ(narrow.model, "HMTX DSWP");
    EXPECT_EQ(narrow.stats.idleCores, 1u);
    auto c = doallLoop();
    const ExecResult none = Runner::runDoall(c, cfg(3), 0);
    EXPECT_EQ(none.model, "HMTX DOALL x1");
    EXPECT_EQ(none.stats.idleCores, 2u);
    auto d = pipelineLoop();
    EXPECT_EQ(Runner::runSequential(d, cfg(3)).stats.idleCores, 2u);
}

} // namespace
} // namespace hmtx::runtime
