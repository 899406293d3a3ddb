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
 * StateSpaceCount pins the enumerator itself against closed forms:
 * the merges of two 3-op sequences number C(6,3) = 20, and sleep-set
 * pruning over a fully independent program must visit exactly one of
 * them, while a fully dependent program must visit all of them.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <stdexcept>

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
 *  still visit all C(4,2) = 6 merges of 2+2 ops. */
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

} // namespace
