/**
 * @file
 * Differential testing of the acceleration indexes: every run is
 * executed twice — once with the set summaries + registry serving
 * lookups (the default) and once with MachineConfig::forceFullScan,
 * which answers every snoop and bulk walk from a full cache scan.
 * The two modes must be observably identical: same per-access
 * results, same architectural statistics (SysStats operator==), same
 * memory images, same abort generations and commit watermarks. The
 * indexed runs also enable indexCrossCheck, so every bulk operation
 * re-verifies the indexes against a scan as the stream runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>

#include "runtime/executors.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "workloads/stress.hh"

namespace hmtx
{
namespace
{

/** Full memory image as an ordered map for direct comparison. */
std::map<Addr, sim::LineData>
memImage(sim::CacheSystem& sys)
{
    std::map<Addr, sim::LineData> img;
    sys.memory().forEachLine(
        [&](Addr a, const sim::LineData& d) { img[a] = d; });
    return img;
}

/**
 * Drives an identical randomized protocol stream into both systems,
 * comparing every AccessResult as it goes. The stream stays legal by
 * construction: commits are consecutive, vidReset only runs when all
 * VIDs used since the last reset have committed or aborted.
 */
void
runDifferential(sim::CacheSystem& a, sim::CacheSystem& b,
                std::uint64_t seed, unsigned ops)
{
    std::mt19937_64 rng(seed);
    auto rnd = [&](std::uint64_t n) { return rng() % n; };

    const Vid maxVid = 48; // stay clear of the wrap guard
    bool outstanding = false;

    for (unsigned i = 0; i < ops; ++i) {
        ASSERT_EQ(a.lcVid(), b.lcVid()) << "op " << i;
        const Vid lc = a.lcVid();
        const unsigned kind = rnd(100);
        const CoreId core = CoreId(rnd(4));
        const Addr addr = 0x1000 + rnd(96) * 64 + rnd(8) * 8;

        if (kind < 40) { // speculative access in the open window
            const Vid vid = Vid(lc + 1 + rnd(4));
            if (vid > maxVid)
                continue;
            outstanding = true;
            sim::AccessResult ra, rb;
            if (rnd(2)) {
                ra = a.load(core, addr, 8, vid);
                rb = b.load(core, addr, 8, vid);
            } else {
                const std::uint64_t v = rng();
                ra = a.store(core, addr, v, 8, vid);
                rb = b.store(core, addr, v, 8, vid);
            }
            ASSERT_EQ(ra.value, rb.value) << "op " << i;
            ASSERT_EQ(ra.latency, rb.latency) << "op " << i;
            ASSERT_EQ(ra.aborted, rb.aborted) << "op " << i;
            ASSERT_EQ(ra.l1Hit, rb.l1Hit) << "op " << i;
            ASSERT_EQ(ra.needSla, rb.needSla) << "op " << i;
        } else if (kind < 70) { // non-speculative access
            sim::AccessResult ra, rb;
            if (rnd(2)) {
                ra = a.load(core, addr, 8, 0);
                rb = b.load(core, addr, 8, 0);
            } else {
                const std::uint64_t v = rng();
                ra = a.store(core, addr, v, 8, 0);
                rb = b.store(core, addr, v, 8, 0);
            }
            ASSERT_EQ(ra.value, rb.value) << "op " << i;
            ASSERT_EQ(ra.latency, rb.latency) << "op " << i;
            ASSERT_EQ(ra.aborted, rb.aborted) << "op " << i;
        } else if (kind < 85) { // commit the next VID
            if (lc + 1 > maxVid)
                continue;
            ASSERT_EQ(a.commit(Vid(lc + 1)), b.commit(Vid(lc + 1)))
                << "op " << i;
        } else if (kind < 92) { // global abort
            ASSERT_EQ(a.abortAll(), b.abortAll()) << "op " << i;
            outstanding = false;
        } else { // drain the window and reset
            if (outstanding)
                continue; // uncommitted spec VIDs may be live
            if (a.lcVid() != 0) {
                ASSERT_EQ(a.vidReset(), b.vidReset()) << "op " << i;
            }
        }
        // A committed-past-the-window stream ends the round early.
        if (a.lcVid() >= maxVid) {
            a.abortAll();
            b.abortAll();
            a.vidReset();
            b.vidReset();
            outstanding = false;
        }
        ASSERT_EQ(a.abortGen(), b.abortGen()) << "op " << i;
    }

    a.abortAll();
    b.abortAll();
    a.flushDirtyToMemory();
    b.flushDirtyToMemory();

    EXPECT_TRUE(a.stats() == b.stats());
    EXPECT_EQ(a.lcVid(), b.lcVid());
    EXPECT_EQ(a.abortGen(), b.abortGen());
    EXPECT_EQ(memImage(a), memImage(b));
    a.checkInvariants();
    b.checkInvariants();
}

class Differential : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(Differential, RandomStreamMatchesFullScan)
{
    sim::MachineConfig idx;
    idx.l2SizeKB = 256;
    idx.indexCrossCheck = true;
    sim::MachineConfig full = idx;
    full.indexCrossCheck = false;
    full.forceFullScan = true;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, idx);
    sim::CacheSystem b(eqb, full);
    runDifferential(a, b, GetParam(), 3000);
}

TEST_P(Differential, RandomStreamMatchesFullScanUnboundedSets)
{
    // Tiny caches + unbounded speculative sets: spills and refills
    // through the overflow table join the differential surface.
    sim::MachineConfig idx;
    idx.l1SizeKB = 4;
    idx.l1Assoc = 2;
    idx.l2SizeKB = 32;
    idx.l2Assoc = 4;
    idx.unboundedSpecSets = true;
    idx.indexCrossCheck = true;
    sim::MachineConfig full = idx;
    full.indexCrossCheck = false;
    full.forceFullScan = true;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, idx);
    sim::CacheSystem b(eqb, full);
    runDifferential(a, b, GetParam() * 31 + 7, 1500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<std::uint64_t>(1, 5));

TEST(DifferentialRunner, StressPipelineMatchesFullScan)
{
    // Whole-stack differential: the chaos workload end to end, with
    // injected dependence violations, under both modes.
    workloads::StressWorkload::Params p;
    p.iterations = 48;
    p.scratchWords = 32;
    p.conflictRate = 0.15;
    p.seed = 11;

    sim::MachineConfig base;
    base.l2SizeKB = 512;
    sim::MachineConfig full = base;
    full.forceFullScan = true;

    workloads::StressWorkload w1(p), w2(p);
    runtime::ExecResult ri = runtime::Runner::runPipeline(w1, base, 3);
    runtime::ExecResult rf = runtime::Runner::runPipeline(w2, full, 3);

    EXPECT_EQ(ri.checksum, rf.checksum);
    EXPECT_EQ(ri.cycles, rf.cycles);
    EXPECT_EQ(ri.instructions, rf.instructions);
    EXPECT_EQ(ri.transactions, rf.transactions);
    EXPECT_TRUE(ri.stats == rf.stats);
}

TEST(DifferentialRunner, StressDoallMatchesFullScan)
{
    workloads::StressWorkload::Params p;
    p.iterations = 40;
    p.scratchWords = 24;
    p.conflictRate = 0.2;
    p.seed = 5;

    sim::MachineConfig base;
    base.l2SizeKB = 512;
    sim::MachineConfig full = base;
    full.forceFullScan = true;

    workloads::StressWorkload w1(p), w2(p);
    runtime::ExecResult ri = runtime::Runner::runDoall(w1, base, 4);
    runtime::ExecResult rf = runtime::Runner::runDoall(w2, full, 4);

    EXPECT_EQ(ri.checksum, rf.checksum);
    EXPECT_EQ(ri.cycles, rf.cycles);
    EXPECT_TRUE(ri.stats == rf.stats);
}

} // namespace
} // namespace hmtx
