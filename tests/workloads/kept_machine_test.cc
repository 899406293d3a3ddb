/**
 * @file
 * KeptMachine: runtime::runLoop keeps one Machine per host thread and
 * resets it between runs. A run on that kept machine must return the
 * whole ExecResult a freshly built machine returns — after any
 * sequence of other runs, after a config that rebuilds it, after one
 * that only changes its policy, and after a run that threw. Every
 * reference runs on a new host thread, whose first run builds its
 * machine.
 */

#include <gtest/gtest.h>

#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec_result_match.hh"
#include "runtime/executors.hh"
#include "runtime/signal.hh"
#include "runtime/thread_context.hh"
#include "smtx/smtx.hh"
#include "workloads/all.hh"
#include "workloads/stress.hh"

namespace hmtx::workloads
{
namespace
{

/** Runs @p fn on a new host thread and returns what it returns; an
 *  exception it throws is rethrown here. */
template <class Fn>
auto
onNewThread(Fn fn)
{
    decltype(fn()) out{};
    std::exception_ptr err;
    std::thread([&] {
        try {
            out = fn();
        } catch (...) {
            err = std::current_exception();
        }
    }).join();
    if (err)
        std::rethrow_exception(err);
    return out;
}

enum class Model
{
    Sequential,
    Hmtx,
    Smtx,
};

/** One fig8-style run: a proxy under one execution model. */
struct Fig8Run
{
    std::string proxy;
    Model model;
    sim::MachineConfig cfg;
};

runtime::ExecResult
execute(const Fig8Run& r)
{
    const std::unique_ptr<runtime::LoopWorkload> wl = makeByName(r.proxy);
    switch (r.model) {
    case Model::Sequential:
        return runtime::Runner::runSequential(*wl, r.cfg);
    case Model::Hmtx:
        return runtime::Runner::runHmtx(*wl, r.cfg);
    case Model::Smtx:
        return smtx::SmtxRunner::run(*wl, r.cfg, smtx::RwSetMode::Minimal);
    }
    throw std::logic_error("execute: unknown model");
}

std::string
describe(const Fig8Run& r)
{
    static const char* const kModels[] = {"sequential", "hmtx", "smtx"};
    return r.proxy + " " + kModels[static_cast<int>(r.model)] + " l2 " +
        std::to_string(r.cfg.l2SizeKB) + " KB, " +
        txModeName(r.cfg.txMode);
}

/**
 * Every fig8 proxy under sequential, HMTX and (where the figure has
 * it) SMTX on the Table 2 machine, in the figure's order, with two
 * runs spliced in: one on another L2 size (the next Table 2 run
 * builds a new machine) and one in another commit mode (reset to
 * another policy only).
 */
std::vector<Fig8Run>
fig8Runs()
{
    const sim::MachineConfig table2;
    sim::MachineConfig otherL2 = table2;
    otherL2.l2SizeKB = 4 * 1024;
    sim::MachineConfig eager = table2;
    eager.txMode = TxMode::EagerHmtx;

    std::vector<std::string> names;
    for (const auto& wl : makeSuite())
        names.push_back(wl->name());
    std::vector<Fig8Run> runs;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string& n = names[i];
        runs.push_back({n, Model::Sequential, table2});
        runs.push_back({n, Model::Hmtx, table2});
        if (hasSmtxComparison(n))
            runs.push_back({n, Model::Smtx, table2});
        if (i == 1)
            runs.push_back({names[0], Model::Hmtx, otherL2});
        if (i == 3)
            runs.push_back({names[1], Model::Hmtx, eager});
    }
    return runs;
}

TEST(KeptMachine, EveryFig8RunMatchesAFreshMachine)
{
    const std::vector<Fig8Run> runs = fig8Runs();
    const std::vector<runtime::ExecResult> kept = onNewThread([&] {
        std::vector<runtime::ExecResult> out;
        for (const Fig8Run& r : runs)
            out.push_back(execute(r));
        return out;
    });
    ASSERT_EQ(kept.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const runtime::ExecResult fresh =
            onNewThread([&] { return execute(runs[i]); });
        EXPECT_TRUE(sameResult(fresh, kept[i]))
            << "run " << i << ": " << describe(runs[i]);
    }
}

/** What a deadlocked schedule's tasks share: the signal nobody
 *  notifies. */
struct Stuck final : runtime::LoopTasks
{
    explicit Stuck(runtime::Machine& m)
        : LoopTasks("stuck"), never(m.eq())
    {}
    runtime::Signal never;
};

/** Leaves a speculative line and an open transaction, then blocks. */
sim::Task<void>
storeThenBlock(runtime::Machine& m, runtime::Signal& never)
{
    runtime::ThreadContext& tc = m.ctx(0);
    tc.beginMtx(1);
    co_await tc.store(m.heap().allocLines(1), 5);
    co_await never.wait();
}

TEST(KeptMachine, ThrowingRunsLeaveNothingForTheNext)
{
    // The first abort recovery counts as a livelock.
    sim::MachineConfig cfg;
    cfg.maxRecoveries = 0;
    const Fig8Run next{makeSuite().front()->name(), Model::Hmtx, cfg};
    const runtime::ExecResult fresh =
        onNewThread([&] { return execute(next); });

    const auto deadlock = [&] {
        const std::unique_ptr<runtime::LoopWorkload> wl =
            makeByName(next.proxy);
        EXPECT_THROW(runtime::runLoop(
                         *wl, cfg, {"stuck", 0, 1},
                         [](runtime::Machine& m, unsigned) {
                             auto st = std::make_unique<Stuck>(m);
                             m.spawn(storeThenBlock(m, st->never));
                             return st;
                         }),
                     std::logic_error);
    };
    const std::vector<runtime::ExecResult> afterThrows = onNewThread([&] {
        std::vector<runtime::ExecResult> out;
        StressWorkload::Params p;
        p.iterations = 48;
        p.conflictRate = 0.3;
        StressWorkload storm(p);
        EXPECT_THROW(runtime::Runner::runDoall(storm, cfg, cfg.numCores),
                     std::runtime_error);
        out.push_back(execute(next));
        deadlock();
        out.push_back(execute(next));
        // The thread's last run throws: whatever of it the thread
        // kept would be freed only at thread exit, after the frame
        // pool (ASan reports that as a use after free).
        deadlock();
        return out;
    });
    ASSERT_EQ(afterThrows.size(), 2u);
    EXPECT_TRUE(sameResult(fresh, afterThrows[0])) << "after a livelock";
    EXPECT_TRUE(sameResult(fresh, afterThrows[1])) << "after a deadlock";
}

} // namespace
} // namespace hmtx::workloads
