/**
 * @file
 * Tests of runtime::LaneDriver: event-clock coupling, the fallback
 * lock holder's progress and whole-body restart, drain-oldest, and
 * the stuck-batch failure.
 */

#include <gtest/gtest.h>

#include <vector>

#include "runtime/lane_driver.hh"

namespace hmtx::runtime
{
namespace
{

constexpr unsigned kCores = 4;

/** 4 cores, 1 KB/2-way L1, 8 KB/8-way L2 on the snoop bus. */
sim::MachineConfig
smallConfig(TxMode mode)
{
    sim::MachineConfig c;
    c.numCores = kCores;
    c.l1SizeKB = 1;
    c.l1Assoc = 2;
    c.l2SizeKB = 8;
    c.l2Assoc = 8;
    c.vidBits = 8;
    c.txMode = mode;
    if (mode == TxMode::BestEffort) {
        c.btxMaxRetries = 2;
        c.btxAbortThreshold = 8;
        c.unboundedSpecSets = false;
    } else {
        c.unboundedSpecSets = true;
    }
    c.validate();
    return c;
}

/** One batch of kCores flights over caller-built bodies. */
struct Batch
{
    std::vector<LaneOp> body[kCores];
    LaneFlight flight[kCores];
    LaneFlight* ptr[kCores];

    void
    arm()
    {
        for (unsigned c = 0; c < kCores; ++c) {
            flight[c] = {};
            flight[c].body = body[c].data();
            flight[c].len = static_cast<unsigned>(body[c].size());
            flight[c].core = c;
            ptr[c] = &flight[c];
        }
    }
};

/** Each flight stores @p stores lines of a private region of its VID
 *  after reading two of them back. */
void
privateBodies(Batch& b, Vid base, unsigned stores)
{
    for (unsigned c = 0; c < kCores; ++c) {
        const Vid vid = base + c;
        const Addr region = 0x100000 + (static_cast<Addr>(vid) << 16);
        b.body[c] = {{false, region, 0}, {false, region + 64, 0}};
        for (unsigned w = 0; w < stores; ++w)
            b.body[c].push_back(
                {true, region + static_cast<Addr>(w) * 64, vid * 1000 + w});
    }
    b.arm();
}

/** Every flight reads the shared line and then stores it. */
void
conflictBodies(Batch& b, Vid base)
{
    const Addr shared = 0x80000;
    for (unsigned c = 0; c < kCores; ++c)
        b.body[c] = {{false, shared, 0}, {true, shared, base + c}};
    b.arm();
}

auto noHook = [](LaneFlight&) {};

/** Makespan per committed transaction over @p batches batches. */
double
cyclesPerTx(unsigned batches)
{
    LaneDriver drv(smallConfig(TxMode::LazyHmtx), {});
    unsigned commits = 0;
    for (unsigned i = 0; i < batches; ++i) {
        Batch b;
        privateBodies(b, drv.openBatch(kCores), 8);
        drv.runBatch(
            b.ptr, [&](LaneFlight&) { ++commits; }, noHook);
    }
    EXPECT_EQ(commits, batches * kCores);
    return static_cast<double>(drv.now()) / commits;
}

TEST(LaneDriver, CouplingKeepsCostPerTransactionFlat)
{
    // Every access misses to the fabric. An uncoupled event clock
    // stays at 0, so each acquire queues behind the whole run's
    // occupancy and the cost per transaction grows with run length.
    const double shortRun = cyclesPerTx(6);
    const double longRun = cyclesPerTx(24);
    EXPECT_LT(longRun, shortRun * 1.1)
        << "short " << shortRun << " long " << longRun;
    EXPECT_GT(longRun, shortRun * 0.9)
        << "short " << shortRun << " long " << longRun;
}

TEST(LaneDriver, LockHolderKeepsProgressAndRestartsOnce)
{
    // 64 stores per transaction overflow the small hierarchy: the
    // best-effort machine capacity-aborts into its fallback lock.
    LaneDriver drv(smallConfig(TxMode::BestEffort), {});
    sim::CacheSystem& sys = drv.sys();
    unsigned holderFlushes = 0;
    unsigned holderCommits = 0;
    for (unsigned i = 0; i < 4; ++i) {
        Batch b;
        privateBodies(b, drv.openBatch(kCores), 64);
        drv.runBatch(
            b.ptr,
            [&](LaneFlight& f) { holderCommits += f.underLock; },
            [&](LaneFlight& g) {
                const TxPolicy& pol = sys.txPolicy();
                EXPECT_FALSE(pol.serializes(g.vid))
                    << "the flush rewound the lock holder, VID " << g.vid;
                for (const LaneFlight& h : b.flight)
                    holderFlushes += pol.serializes(h.vid) && h.progress > 0;
            });
    }
    // Some flush hit while the holder was mid-body.
    EXPECT_GT(holderFlushes, 0u);
    // Every lock holder restarted at most once, and some engaged the
    // lock mid-body.
    EXPECT_GT(drv.stats().lockRestarts, 0u);
    EXPECT_LE(drv.stats().lockRestarts, holderCommits);
    EXPECT_EQ(holderCommits, sys.txPolicy().stats().fallbackEntries);
}

TEST(LaneDriver, DrainOldestEngagesAndCompletes)
{
    // The batch livelocks on the shared line: every retry replays the
    // same interleaving and flushes again. The attempt cap sits one
    // flush past the drain point, so the batch completes only if
    // draining the oldest transaction alone engages on time.
    for (const unsigned drainAfter : {2u, 8u}) {
        LaneDriver drv(smallConfig(TxMode::LazyHmtx),
                       {drainAfter + 1, drainAfter});
        Batch b;
        conflictBodies(b, drv.openBatch(kCores));
        unsigned commits = 0;
        drv.runBatch(
            b.ptr, [&](LaneFlight&) { ++commits; }, noHook);
        EXPECT_EQ(commits, kCores);
        EXPECT_EQ(drv.stats().drains, 1u);
        EXPECT_EQ(drv.stats().flushes, drainAfter);
    }
}

TEST(LaneDriverDeathTest, StuckBatchAbortsAtAttemptCap)
{
    EXPECT_DEATH(
        {
            LaneDriver drv(smallConfig(TxMode::LazyHmtx),
                           {/*maxAttempts=*/2, /*drainAfter=*/8});
            Batch b;
            conflictBodies(b, drv.openBatch(kCores));
            drv.runBatch(b.ptr, noHook, noHook);
        },
        "batch stuck after 2 flushes \\(mode=lazy-hmtx\\)");
}

} // namespace
} // namespace hmtx::runtime
