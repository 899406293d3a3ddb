/**
 * @file
 * Bounded-exhaustive model checking (DESIGN.md §14) as a ctest.
 *
 * The headline test enumerates *every* interleaving of a block of
 * generated 2-core programs of up to 6 ops and replays each through
 * the differential runner — on the four full-HMTX matrix cells
 * ({bus, dir} x {lazy, eager}) and on the bounded-mode
 * {bus, dir} x {btx, ltd} cells. Any divergence fails the test with
 * the flattened interleaving as a replay file. Explored-vs-pruned
 * counts are printed so CI logs show how much of the space the sleep
 * sets cut.
 *
 * IncrementalReplay pins the incremental runner the explorer uses:
 * every leaf of a DFS that checkpoints where the explorer does
 * (takesCheckpoint) and rebuilds every other branch point by
 * restoring an ancestor and re-stepping must report exactly what a
 * full replay of that interleaving does, on 2-core and 3-core
 * programs and on one matrix retargeted across programs, and a
 * checkpoint from before the last begin(), retarget() or
 * dropCheckpoints() must never be restored.
 *
 * ExploreReuseIsInvisible pins explore()'s per-thread matrix: the
 * order of the programs a thread explores must not change any result.
 *
 * StateSpaceCount pins the enumerator itself against closed forms:
 * the merges of two 3-op sequences number C(6,3) = 20, and sleep-set
 * pruning over a fully independent program must visit exactly one of
 * them, while a fully dependent program must visit all of them.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/differ.hh"
#include "check/explorer.hh"
#include "check/schedule.hh"

namespace
{

using namespace hmtx;
using namespace hmtx::check;

/** Explores seeds [first, first+count) exhaustively; any divergence
 *  or budget overrun fails. Returns summed stats for the log. */
ExploreStats
exploreBlock(std::uint64_t first, std::uint64_t count, unsigned ops,
             unsigned groupMask)
{
    ExploreStats total;
    ExploreConfig ec;
    ec.groupMask = groupMask;
    ec.maxInterleavings = 1u << 16;
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
        Schedule prog = generateProgram(seed, 2, ops);
        ExploreResult r = explore(prog, ec);
        EXPECT_FALSE(r.div.found)
            << "program seed " << seed << " diverged: " << r.div.what
            << "\n--- replay file (diverging interleaving) ---\n"
            << serialize(r.witness);
        EXPECT_FALSE(r.stats.budgetExhausted) << "seed " << seed;
        accumulate(total, r.stats);
    }
    // The pruning soundness argument assumes no environmental
    // capacity aborts; generateProgram picks non-colliding lines
    // precisely so this stays zero (§14).
    EXPECT_EQ(total.envAborts, 0u);
    return total;
}

// The two HMTX blocks keep the names they had when both explored
// seeds 1-60, once with a fast-path knob off and once on. That knob
// is gone; the second block now explores the next 60 programs.
TEST(McBounded, HmtxCellsFastPathOff)
{
    ExploreStats s = exploreBlock(1, 60, 6, kGroupHmtx);
    EXPECT_GT(s.explored, 60u);
    std::cout << "[mc] hmtx seeds 1-60: explored=" << s.explored
              << " pruned=" << s.pruned << "\n";
}

TEST(McBounded, HmtxCellsFastPathOn)
{
    ExploreStats s = exploreBlock(61, 60, 6, kGroupHmtx);
    EXPECT_GT(s.explored, 60u);
    std::cout << "[mc] hmtx seeds 61-120: explored=" << s.explored
              << " pruned=" << s.pruned << "\n";
}

TEST(McBounded, BtxLtdCells)
{
    ExploreStats s = exploreBlock(1, 40, 5, kGroupBtx | kGroupLtd);
    EXPECT_GT(s.explored, 40u);
    std::cout << "[mc] btx+ltd: explored=" << s.explored
              << " pruned=" << s.pruned << "\n";
}

TEST(McBounded, ShorterPrograms)
{
    ExploreStats s = exploreBlock(100, 40, 4, kGroupAll);
    EXPECT_GT(s.explored, 40u);
    std::cout << "[mc] all cells 4-op: explored=" << s.explored
              << " pruned=" << s.pruned << "\n";
}

/** A pruned pass must reach the same verdict as the full one. */
TEST(McBounded, PrunedMatchesUnprunedVerdict)
{
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        Schedule prog = generateProgram(seed, 2, 5);
        ExploreConfig full;
        full.prune = false;
        ExploreConfig pruned;
        ExploreResult rf = explore(prog, full);
        ExploreResult rp = explore(prog, pruned);
        EXPECT_EQ(rf.div.found, rp.div.found) << "seed " << seed;
        EXPECT_LE(rp.stats.explored, rf.stats.explored);
    }
}

/** Delivery-order branching on the directory cells stays clean and
 *  actually reruns interleavings when decision points exist. The
 *  counts are pinned: every replay runs on the explorer's reused
 *  matrix, so each cell's chooser must restart its decision count
 *  on every replay, exactly as a freshly installed one would. */
TEST(McBounded, DeliveryOrderExploration)
{
    ExploreConfig ec;
    ec.deliveryPoints = 3;
    ExploreStats total;
    for (std::uint64_t seed = 1; seed < 7; ++seed) {
        Schedule prog = generateProgram(seed, 2, 5);
        ExploreResult r = explore(prog, ec);
        EXPECT_FALSE(r.div.found)
            << "seed " << seed << ": " << r.div.what
            << "\n--- replay file ---\n" << serialize(r.witness);
        accumulate(total, r.stats);
    }
    std::cout << "[mc] delivery: explored=" << total.explored
              << " deliveryRuns=" << total.deliveryRuns
              << " pointsSeen=" << total.deliveryPointsSeen << "\n";
    EXPECT_EQ(total.explored, 44u);
    EXPECT_EQ(total.deliveryRuns, 69u);
    EXPECT_EQ(total.deliveryPointsSeen, 56u);
}

/**
 * explore() keeps one matrix per thread and retargets it to each
 * program (rebuilding it when the group mask changes). Seeds 1-60
 * under three explore configs, explored forward, in reverse, and each
 * on a new thread (a fresh matrix), must give identical stats and
 * verdicts.
 */
TEST(McBounded, ExploreReuseIsInvisible)
{
    std::vector<ExploreConfig> ecs(3);
    ecs[1].deliveryPoints = 3;
    ecs[2].groupMask = kGroupBtx | kGroupLtd;
    constexpr std::uint64_t kSeeds = 60;
    using Results = std::vector<std::vector<ExploreResult>>;
    auto program = [](std::uint64_t i) {
        return generateProgram(i + 1, 2, 5);
    };
    Results fwd(kSeeds, std::vector<ExploreResult>(ecs.size()));
    Results rev = fwd, own = fwd;
    for (std::uint64_t i = 0; i < kSeeds; ++i)
        for (std::size_t e = 0; e < ecs.size(); ++e)
            fwd[i][e] = explore(program(i), ecs[e]);
    for (std::uint64_t i = kSeeds; i-- > 0;)
        for (std::size_t e = ecs.size(); e-- > 0;)
            rev[i][e] = explore(program(i), ecs[e]);
    for (std::uint64_t i = 0; i < kSeeds; ++i)
        for (std::size_t e = 0; e < ecs.size(); ++e)
            std::thread([&, i, e] {
                own[i][e] = explore(program(i), ecs[e]);
            }).join();
    std::uint64_t explored = 0;
    for (std::uint64_t i = 0; i < kSeeds; ++i) {
        for (std::size_t e = 0; e < ecs.size(); ++e) {
            SCOPED_TRACE("seed " + std::to_string(i + 1) + ", config " +
                         std::to_string(e));
            const ExploreResult& want = own[i][e];
            for (const ExploreResult* got : {&fwd[i][e], &rev[i][e]}) {
                for (const auto& f : ExploreStats::kFields)
                    EXPECT_EQ(got->stats.*f.member, want.stats.*f.member)
                        << f.name;
                EXPECT_EQ(got->stats.budgetExhausted,
                          want.stats.budgetExhausted);
                EXPECT_EQ(got->div.found, want.div.found);
                EXPECT_EQ(got->div.opIndex, want.div.opIndex);
                EXPECT_EQ(got->div.what, want.div.what);
            }
            EXPECT_FALSE(want.div.found) << want.div.what;
            explored += want.stats.explored;
        }
    }
    EXPECT_GT(explored, 3 * kSeeds);
    EXPECT_GT(own[0][1].stats.deliveryPointsSeen +
                  own[1][1].stats.deliveryPointsSeen +
                  own[2][1].stats.deliveryPointsSeen,
              0u);
}

/**
 * Walks every interleaving of @p prog's per-core sequences on one
 * CellMatrix the way the explorer does — checkpointing where
 * takesCheckpoint() says, and before each later branch restoring the
 * nearest checkpoint and re-stepping the ops after it — and checks
 * each leaf's finish() against a full runSchedule() replay of the
 * same interleaving. run() returns the leaves checked.
 */
class IncrementalChecker
{
  public:
    /** @p matrix must be built or retargeted for prog.cfg. */
    IncrementalChecker(const Schedule& prog, CellMatrix& matrix)
        : prog_(prog), matrix_(matrix), threads_(prog.cfg.numCores),
          pos_(prog.cfg.numCores, 0)
    {
        for (const Op& op : prog.ops)
            threads_[op.core].push_back(op);
        leaf_.cfg = prog.cfg;
    }

    std::size_t
    run()
    {
        matrix_.begin(prog_);
        dfs(0, 0);
        return leaves_;
    }

    /** Ops stepped again after a restore. */
    std::size_t reSteps() const { return reSteps_; }

  private:
    /** @p anc is the depth of the nearest checkpointed ancestor. */
    void
    dfs(std::size_t depth, std::size_t anc)
    {
        std::vector<unsigned> next;
        for (unsigned c = 0; c < threads_.size(); ++c)
            if (pos_[c] < threads_[c].size())
                next.push_back(c);
        if (next.empty()) {
            checkLeaf();
            return;
        }
        if (takesCheckpoint(depth, anc, next.size() >= 2)) {
            matrix_.save(depth);
            anc = depth;
        }
        for (std::size_t i = 0; i < next.size(); ++i) {
            if (i > 0) {
                matrix_.restore(anc);
                for (std::size_t j = anc; j < depth; ++j)
                    matrix_.step(leaf_.ops[j]);
                reSteps_ += depth - anc;
            }
            const unsigned c = next[i];
            const Op& op = threads_[c][pos_[c]];
            leaf_.ops.push_back(op);
            matrix_.step(op);
            ++pos_[c];
            dfs(depth + 1, anc);
            --pos_[c];
            leaf_.ops.pop_back();
        }
    }

    void
    checkLeaf()
    {
        ++leaves_;
        Coverage inc, full;
        const Divergence di = matrix_.finish(&inc);
        const Divergence df = runSchedule(leaf_, &full);
        EXPECT_EQ(di.found, df.found) << serialize(leaf_);
        EXPECT_EQ(di.opIndex, df.opIndex) << serialize(leaf_);
        EXPECT_EQ(di.what, df.what) << serialize(leaf_);
        EXPECT_TRUE(inc == full) << "coverage differs\n" << serialize(leaf_);
    }

    const Schedule& prog_;
    CellMatrix& matrix_;
    std::vector<std::vector<Op>> threads_;
    std::vector<unsigned> pos_;
    Schedule leaf_;
    std::size_t leaves_ = 0;
    std::size_t reSteps_ = 0;
};

/** Checks @p programs programs of @p cores cores x @p ops ops from
 *  each seed, each on a fresh matrix. */
void
checkIncremental(unsigned cores, unsigned ops, std::uint64_t programs)
{
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7919}}) {
        std::size_t leaves = 0, reSteps = 0;
        for (std::uint64_t i = 0; i < programs; ++i) {
            SCOPED_TRACE("program seed " + std::to_string(seed + i));
            const Schedule prog = generateProgram(seed + i, cores, ops);
            CellMatrix matrix(prog.cfg);
            IncrementalChecker checker(prog, matrix);
            leaves += checker.run();
            reSteps += checker.reSteps();
        }
        EXPECT_GT(leaves, programs);
        // The restore-and-re-step path is the one under test.
        EXPECT_GT(reSteps, 0u);
        std::cout << "[mc] incremental vs full, " << cores << " cores x "
                  << ops << " ops, seeds " << seed << "+" << programs
                  << ": " << leaves << " leaves, " << reSteps
                  << " ops re-stepped\n";
    }
}

TEST(IncrementalReplay, EveryLeafMatchesAFullReplay)
{
    checkIncremental(2, 6, 40);
}

/** Deep enough for 3-child branch points and two-op re-steps. */
TEST(IncrementalReplay, ThreeCorePrograms)
{
    checkIncremental(3, 8, 8);
}

/** The same on one matrix retargeted to each program, as explore()
 *  keeps it: its checkpoint slots carry over between programs. */
TEST(IncrementalReplay, OneRetargetedMatrixAcrossPrograms)
{
    std::optional<CellMatrix> matrix;
    std::size_t leaves = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        const Schedule prog = generateProgram(seed, 2, 6);
        if (matrix)
            matrix->retarget(prog.cfg);
        else
            matrix.emplace(prog.cfg);
        leaves += IncrementalChecker(prog, *matrix).run();
    }
    EXPECT_GT(leaves, 40u);
}

TEST(IncrementalReplay, StaleCheckpointThrows)
{
    const Schedule prog = generateProgram(1, 2, 6);
    CellMatrix m(prog.cfg);
    m.begin(prog);
    EXPECT_THROW(m.restore(0), std::logic_error) << "never saved";
    m.save(0);
    m.step(prog.ops[0]);
    m.save(1);
    m.restore(0);
    m.step(prog.ops[0]);
    m.restore(1);
    // A complete run in between keeps the checkpoints: the explorer's
    // delivery-order replays run between a save and its restores.
    m.run(prog);
    m.restore(1);
    m.restore(0);
    // A new begin() drops them, even under the same prefix.
    m.begin(prog);
    EXPECT_THROW(m.restore(0), std::logic_error);
    m.step(prog.ops[0]);
    EXPECT_THROW(m.restore(1), std::logic_error);
    m.save(1);
    m.restore(1);
    // So does a retarget(), to the same config or another.
    m.retarget(prog.cfg);
    EXPECT_THROW(m.restore(0), std::logic_error);
    m.begin(prog);
    m.save(0);
    FuzzConfig other = prog.cfg;
    other.vidBits = prog.cfg.vidBits == 4 ? 6 : 4;
    m.retarget(other);
    EXPECT_THROW(m.restore(0), std::logic_error);
    EXPECT_THROW(m.begin(prog), std::invalid_argument) << "foreign config";
    // And dropCheckpoints(), which explore() calls after each program.
    m.retarget(prog.cfg);
    m.begin(prog);
    m.save(0);
    m.dropCheckpoints();
    EXPECT_THROW(m.restore(0), std::logic_error);
}

Op
makeOp(OpKind kind, unsigned core, Addr addr)
{
    Op op;
    op.kind = kind;
    op.core = static_cast<std::uint8_t>(core);
    op.vidOff = 1;
    op.size = 8;
    op.addr = addr;
    op.value = 0x1234;
    return op;
}

Schedule
tinyProgram()
{
    Schedule s;
    s.isProgram = true;
    s.cfg.numCores = 2;
    return s;
}

/** Closed form: merges of 3+3 ops = C(6,3) = 20 interleavings; a
 *  fully independent program has one Mazurkiewicz trace, so the
 *  pruned pass must replay exactly one of them. */
TEST(StateSpaceCount, IndependentLoads)
{
    Schedule s = tinyProgram();
    for (int i = 0; i < 3; ++i) {
        s.ops.push_back(makeOp(OpKind::Load, 0, 0x40000));
        s.ops.push_back(makeOp(OpKind::Load, 1, 0x40040));
    }
    ExploreConfig full;
    full.groupMask = kGroupHmtx;
    full.prune = false;
    ExploreResult rf = explore(s, full);
    EXPECT_FALSE(rf.div.found) << rf.div.what;
    EXPECT_EQ(rf.stats.explored, 20u);
    EXPECT_EQ(rf.stats.pruned, 0u);

    ExploreConfig pruned;
    pruned.groupMask = kGroupHmtx;
    ExploreResult rp = explore(s, pruned);
    EXPECT_FALSE(rp.div.found) << rp.div.what;
    EXPECT_EQ(rp.stats.explored, 1u);
    EXPECT_GT(rp.stats.pruned, 0u);
    std::cout << "[mc] independent 3+3: full=20 pruned-explored="
              << rp.stats.explored << " cut=" << rp.stats.pruned
              << "\n";
}

/** Same-line speculative stores never commute: the pruned pass must
 *  still visit all C(4,2) = 6 merges of 2+2 ops. The tree's branch
 *  points are the root, both depth-1 nodes and two depth-2 nodes, all
 *  within two ops of the root: only the root checkpoints, and the
 *  later children re-step 0 + 1 + 1 + 2 + 2 ops. */
TEST(StateSpaceCount, DependentStores)
{
    Schedule s = tinyProgram();
    for (int i = 0; i < 2; ++i) {
        s.ops.push_back(makeOp(OpKind::Store, 0, 0x40000));
        s.ops.push_back(makeOp(OpKind::Store, 1, 0x40000));
    }
    for (bool prune : {false, true}) {
        ExploreConfig ec;
        ec.groupMask = kGroupHmtx;
        ec.prune = prune;
        ExploreResult r = explore(s, ec);
        EXPECT_FALSE(r.div.found) << r.div.what;
        EXPECT_EQ(r.stats.explored, 6u) << "prune=" << prune;
        EXPECT_EQ(r.stats.pruned, 0u) << "prune=" << prune;
        EXPECT_EQ(r.stats.checkpoints, 1u) << "prune=" << prune;
        EXPECT_EQ(r.stats.reSteps, 6u) << "prune=" << prune;
    }
}

/** Pins the independence relation the sleep sets rely on. */
TEST(StateSpaceCount, IndependenceRelation)
{
    const Op l0 = makeOp(OpKind::Load, 0, 0x40000);
    const Op l1 = makeOp(OpKind::Load, 1, 0x40040);
    const Op l1same = makeOp(OpKind::Load, 1, 0x40008);
    const Op s1 = makeOp(OpKind::Store, 1, 0x40040);
    const Op ns1 = makeOp(OpKind::NonSpecStore, 1, 0x40040);
    const Op wp1 = makeOp(OpKind::WrongPathLoad, 1, 0x40040);
    const Op c1 = makeOp(OpKind::Commit, 1, 0);

    // Different-line loads commute on the full-HMTX cells...
    EXPECT_TRUE(opsIndependent(l0, l1, false, kGroupHmtx));
    EXPECT_TRUE(opsIndependent(l0, wp1, false, kGroupHmtx));
    // ...but not same-line, same-core, around stores, or bulk ops.
    EXPECT_FALSE(opsIndependent(l0, l1same, false, kGroupHmtx));
    EXPECT_FALSE(opsIndependent(l0, makeOp(OpKind::Load, 0, 0x40040),
                                false, kGroupHmtx));
    EXPECT_FALSE(opsIndependent(l0, s1, false, kGroupHmtx));
    EXPECT_FALSE(opsIndependent(l0, ns1, false, kGroupHmtx));
    EXPECT_FALSE(opsIndependent(l0, c1, false, kGroupHmtx));
    // SLA ops couple correct-path loads through the pending FIFO.
    EXPECT_FALSE(opsIndependent(l0, l1, true, kGroupHmtx));
    EXPECT_TRUE(opsIndependent(l0, wp1, true, kGroupHmtx));
    // Bounded modes: ltd makes any correct-path access globally
    // visible (capacity aborts), btx couples spec-load pairs through
    // the fallback state machine.
    EXPECT_FALSE(opsIndependent(l0, l1, false, kGroupLtd));
    EXPECT_FALSE(opsIndependent(l0, l1, false, kGroupBtx));
    EXPECT_TRUE(opsIndependent(
        makeOp(OpKind::NonSpecLoad, 0, 0x40000), wp1, false,
        kGroupLtd));
}

TEST(StateSpaceCount, BadCoreThrows)
{
    Schedule s = tinyProgram();
    s.ops.push_back(makeOp(OpKind::Load, 5, 0x40000));
    EXPECT_THROW(explore(s), std::invalid_argument);
}

/** Sleep sets are 64-bit masks; the check comes before any cell is
 *  built. */
TEST(StateSpaceCount, MoreThan64CoresThrows)
{
    Schedule s = tinyProgram();
    s.cfg.numCores = 65;
    s.ops.push_back(makeOp(OpKind::Load, 0, 0x40000));
    EXPECT_THROW(explore(s), std::invalid_argument);
}

} // namespace
